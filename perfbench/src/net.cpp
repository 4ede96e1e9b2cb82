#include "net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"

namespace perfbench {

namespace {

/// The CPUs this process may run on, read before main() starts, i.e.
/// before any thread pins itself.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

const std::vector<int> g_allowed_cpus = allowed_cpus();

}  // namespace

std::vector<int> server_cpus() {
  std::vector<int> cpus = g_allowed_cpus;
  if (cpus.size() >= 2) cpus.pop_back();
  return cpus;
}

PinCpu::PinCpu(int k) {
  static_assert(sizeof(cpu_set_t) <= sizeof(saved_));
  cpu_set_t cur;
  CPU_ZERO(&cur);
  const std::vector<int>& cpus = g_allowed_cpus;
  if (cpus.size() < 2 || ::sched_getaffinity(0, sizeof(cur), &cur) != 0) return;
  const int n = static_cast<int>(cpus.size());
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(k < 0 ? n - 1 : k % n)], &one);
  std::memcpy(saved_, &cur, sizeof(cur));
  pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinCpu::~PinCpu() {
  if (!pinned_) return;
  cpu_set_t cur;
  std::memcpy(&cur, saved_, sizeof(cur));
  ::sched_setaffinity(0, sizeof(cur), &cur);
}

namespace {

/// fork + exec with stdout/stderr wired up; the child dies with us.
pid_t spawn(const std::vector<std::string>& argv, int stdout_fd,
            int stderr_fd) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  for (const int c : server_cpus()) CPU_SET(c, &cpus);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::sched_setaffinity(0, sizeof(cpus), &cpus);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    if (stdout_fd >= 0) ::dup2(stdout_fd, STDOUT_FILENO);
    if (stderr_fd >= 0) ::dup2(stderr_fd, STDERR_FILENO);
    for (int fd = 3; fd < 256; ++fd) ::close(fd);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  return pid;
}

int wait_exit(pid_t pid, int timeout_ms) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return -1;
    if (std::chrono::steady_clock::now() >= until) return -2;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, const std::string& log_path) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                         0644);
  try {
    pid_ = spawn(argv, pipefd[1], log);
  } catch (...) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    if (log >= 0) ::close(log);
    throw;
  }
  ::close(pipefd[1]);
  if (log >= 0) ::close(log);
  out_fd_ = pipefd[0];
}

Child::~Child() { stop(); }

Child::Child(Child&& o) noexcept
    : pid_(o.pid_), out_fd_(o.out_fd_), out_buf_(std::move(o.out_buf_)) {
  o.pid_ = -1;
  o.out_fd_ = -1;
}

Child& Child::operator=(Child&& o) noexcept {
  if (this != &o) {
    stop();
    pid_ = o.pid_;
    out_fd_ = o.out_fd_;
    out_buf_ = std::move(o.out_buf_);
    o.pid_ = -1;
    o.out_fd_ = -1;
  }
  return *this;
}

std::uint16_t Child::wait_listening(int timeout_ms) {
  const std::uint64_t until =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  while (out_fd_ >= 0) {
    const std::size_t nl = out_buf_.find('\n');
    if (nl != std::string::npos) {
      const std::string line = out_buf_.substr(0, nl);
      out_buf_.erase(0, nl + 1);
      unsigned port = 0;
      if (std::sscanf(line.c_str(), "LISTENING %u", &port) == 1 && port > 0 &&
          port < 65536) {
        return static_cast<std::uint16_t>(port);
      }
      continue;
    }
    const std::uint64_t now = now_ns();
    if (now >= until) return 0;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>((until - now) / 1'000'000 + 1));
    if (pr < 0 && errno != EINTR) return 0;
    if (pr <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return 0;
    out_buf_.append(buf, static_cast<std::size_t>(n));
  }
  return 0;
}

double Child::peak_rss_mib() const {
  if (pid_ <= 0) return 0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      f >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(f, rest);
  }
  return 0;
}

int Child::stop() {
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = wait_exit(pid_, 5000);
  if (status == -2) {
    ::kill(pid_, SIGKILL);
    status = wait_exit(pid_, 5000);
  }
  pid_ = -1;
  return status;
}

int run_command(const std::vector<std::string>& argv,
                const std::string& log_path) {
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                         0644);
  pid_t pid = -1;
  try {
    pid = spawn(argv, log, log);
  } catch (...) {
    if (log >= 0) ::close(log);
    return -1;
  }
  if (log >= 0) ::close(log);
  int status = wait_exit(pid, 120000);
  if (status == -2) {
    ::kill(pid, SIGKILL);
    status = wait_exit(pid, 5000);
  }
  return status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Conn::Conn(Conn&& o) noexcept
    : out(std::move(o.out)),
      out_off(o.out_off),
      in(std::move(o.in)),
      fd_(o.fd_),
      in_off_(o.in_off_) {
  o.fd_ = -1;
}

Conn& Conn::operator=(Conn&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    out = std::move(o.out);
    out_off = o.out_off;
    in = std::move(o.in);
    fd_ = o.fd_;
    in_off_ = o.in_off_;
    o.fd_ = -1;
  }
  return *this;
}

bool Conn::flush() {
  while (out_off < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + out_off, out.size() - out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  out.clear();
  out_off = 0;
  return true;
}

bool Conn::fill() {
  if (in_off_ > 0 && in_off_ * 2 >= in.size()) {
    in.erase(0, in_off_);
    in_off_ = 0;
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR) return false;
  }
}

bool Conn::next_line(std::string& line) {
  const std::size_t nl = in.find('\n', in_off_);
  if (nl == std::string::npos) return false;
  line.assign(in, in_off_, nl - in_off_);
  in_off_ = nl + 1;
  return true;
}

std::vector<std::string> Conn::script(const std::vector<std::string>& lines,
                                      std::size_t window, int timeout_ms) {
  std::vector<std::string> replies;
  replies.reserve(lines.size());
  std::size_t sent = 0;
  std::string line;
  std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  while (replies.size() < lines.size()) {
    while (sent < lines.size() && sent - replies.size() < window) {
      out += lines[sent++];
      out.push_back('\n');
    }
    if (!flush()) throw std::runtime_error("connection closed while sending");
    while (replies.size() < sent && next_line(line)) {
      replies.push_back(line);
      deadline = now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
    }
    if (replies.size() == lines.size()) break;
    if (sent - replies.size() < window && sent < lines.size()) continue;
    const std::uint64_t now = now_ns();
    if (now >= deadline) throw std::runtime_error("reply timeout");
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    const int pr =
        ::poll(&pfd, 1, static_cast<int>((deadline - now) / 1'000'000 + 1));
    if (pr < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (pr > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) && !fill()) {
      // Take what arrived before the close, then fail if short.
      while (replies.size() < sent && next_line(line)) replies.push_back(line);
      if (replies.size() < lines.size()) {
        throw std::runtime_error("connection closed while reading");
      }
    }
  }
  return replies;
}

}  // namespace perfbench
