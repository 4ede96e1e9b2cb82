// Child processes and line-protocol TCP connections for perfbench_driver.
// Every process the benchmark starts is owned by a Child, which
// stops and reaps it on destruction.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The CPUs the system under test runs on: all but the last when there
/// are at least two, so the load generator (pinned to the last CPU while
/// it runs) never competes with the servers.
std::vector<int> server_cpus();

/// Pins the calling thread to one of the CPUs the process started with for
/// its lifetime and restores the previous affinity afterwards (no-op on one
/// CPU). `k` picks the CPU (modulo the count); a negative `k` the last.
class PinCpu {
 public:
  explicit PinCpu(int k);
  ~PinCpu();
  PinCpu(const PinCpu&) = delete;
  PinCpu& operator=(const PinCpu&) = delete;

 private:
  bool pinned_ = false;
  unsigned char saved_[128] = {};  ///< the previous cpu_set_t
};

/// A spawned program, running on server_cpus(). stdout is a pipe (read for
/// the LISTENING line); stderr goes to a log file. The child dies with the
/// benchmark (PR_SET_PDEATHSIG), and stop() or the destructor reaps it.
class Child {
 public:
  Child() = default;
  /// Forks and execs argv[0] with `argv`; throws std::runtime_error when
  /// the fork fails.
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(Child&& o) noexcept;
  Child& operator=(Child&& o) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads stdout until "LISTENING <port>"; 0 on timeout or exit.
  std::uint16_t wait_listening(int timeout_ms);
  /// Peak resident set (VmHWM) in MiB, 0 when unreadable.
  double peak_rss_mib() const;
  /// SIGTERM, wait up to 5 s, then SIGKILL; returns the wait status
  /// (-1 when there was no process).
  int stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_buf_;
};

/// Runs argv to completion (stdout and stderr to `log_path`); returns the
/// exit code, or -1 when it could not run.
int run_command(const std::vector<std::string>& argv,
                const std::string& log_path);

/// A TCP connection to 127.0.0.1:port, non-blocking, TCP_NODELAY.
class Conn {
 public:
  Conn() = default;
  explicit Conn(std::uint16_t port);  ///< throws std::runtime_error
  ~Conn();
  Conn(Conn&& o) noexcept;
  Conn& operator=(Conn&& o) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  /// Sends `lines` with up to `window` in flight and returns the replies in
  /// order. Throws std::runtime_error on a closed connection or when no
  /// reply arrives within timeout_ms.
  std::vector<std::string> script(const std::vector<std::string>& lines,
                                  std::size_t window = 64,
                                  int timeout_ms = 30000);
  std::string call(const std::string& line, int timeout_ms = 30000) {
    return script({line}, 1, timeout_ms).at(0);
  }

  // ---- the load loop's buffers --------------------------------------
  std::string out;          ///< bytes queued for send
  std::size_t out_off = 0;  ///< bytes of `out` already sent
  std::string in;           ///< received bytes not yet split into lines

  /// Sends as much of `out` as the socket takes. False when the peer is
  /// gone.
  bool flush();
  /// Reads what is available into `in`. False on EOF or error.
  bool fill();
  /// Pops one complete line (without '\n') from `in` at offset `in_off`.
  bool next_line(std::string& line);

 private:
  int fd_ = -1;
  std::size_t in_off_ = 0;
};

}  // namespace perfbench
