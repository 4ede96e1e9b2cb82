#include "load.hpp"

#include <poll.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>

#include "util/rng.hpp"

namespace perfbench {

const char* client_span_name(char kind, bool closed) {
  static const char* const kOpen[] = {"client.I", "client.S", "client.T",
                                      "client.K", "client.R", "client.A",
                                      "client.D", "client.other"};
  static const char* const kClosed[] = {"closed.I", "closed.S", "closed.T",
                                        "closed.K", "closed.R", "closed.A",
                                        "closed.D", "closed.other"};
  static constexpr char kKinds[] = "ISTKRAD";
  std::size_t i = 0;
  while (i < 7 && kKinds[i] != kind) ++i;
  return closed ? kClosed[i] : kOpen[i];
}

namespace {

struct Pending {
  std::uint64_t g;
  std::uint64_t due_ns;
  std::uint64_t sent_ns;
  OpInfo op;
  bool probe;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// "ERR <TYPE> ..." -> "<TYPE>"; anything else unexpected -> "OTHER".
std::string error_type(const std::string& line) {
  if (!starts_with(line, "ERR ")) return "OTHER";
  const std::size_t end = line.find(' ', 4);
  return line.substr(4, end == std::string::npos ? std::string::npos : end - 4);
}

enum class Mode { kClosed, kOpen };

LoadResult run_loop(Mode mode, std::vector<Conn>& conns, const OpSource& src,
                    const LoadOptions& opt, std::uint64_t& next_g,
                    Tracer::Buffer& spans) {
  const PinCpu pin(-1);  // the generator's own CPU; servers use the others
  LoadResult r;
  const std::size_t nconn = conns.size();
  std::vector<std::deque<Pending>> fifo(nconn);
  std::vector<pollfd> pfds(nconn);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t win_start = t0 + (mode == Mode::kClosed ? opt.warmup_ns : 0);
  const std::uint64_t win_end = win_start + opt.seconds_ns;
  const std::uint64_t drain_end = win_end + opt.drain_ns;
  const double interval_ns = mode == Mode::kOpen ? 1e9 / opt.rate : 0;
  std::uint64_t n_open = 0;  // open-loop requests sent this phase
  repro::Xoshiro256 arrivals(opt.arrival_seed);
  double due_offset_ns = 0;  // of the next open-loop request, from t0
  std::uint64_t next_probe = opt.stats_every_ns ? t0 + opt.stats_every_ns : ~0ull;
  std::uint64_t in_flight = 0;
  bool window_closed = false;
  std::string line;
  r.lat_read_ns.reserve(1 << 20);
  // The window is cut into whole sub-windows of about opt.bucket_ns, so
  // every request due in it lands in one (short runs get one, shorter).
  const std::size_t buckets = std::max<std::uint64_t>(
      1, (opt.seconds_ns + opt.bucket_ns / 2) / std::max<std::uint64_t>(1, opt.bucket_ns));
  const std::uint64_t bucket_ns = std::max<std::uint64_t>(1, opt.seconds_ns / buckets);
  r.bucket_ok.assign(buckets, 0);
  r.bucket_lat_ns.resize(buckets);
  r.bucket_steal.assign(buckets, 0);
  r.bucket_sent.assign(buckets, 0);
  r.bucket_late.assign(buckets, 0);
  r.bucket_s = static_cast<double>(bucket_ns) / 1e9;
  std::size_t next_edge = 0;  // next sub-window boundary to sample steal at
  std::uint64_t steal_at_edge = 0;

  const auto enqueue = [&](std::size_t c, std::uint64_t due, std::uint64_t now) {
    Pending p{next_g++, due, now, {}, false};
    p.op = src(static_cast<std::uint32_t>(c), p.g, conns[c].out);
    conns[c].out.push_back('\n');
    fifo[c].push_back(p);
    ++in_flight;
    ++r.attempted;
    ++r.sent_by_kind[p.op.kind];
  };

  const auto on_reply = [&](const Pending& p, std::uint64_t recv_ns) {
    if (p.probe) {
      const auto st = parse_stats(line);
      const auto it = st.find("delta_elements");
      if (it != st.end()) r.pending_peak = std::max(r.pending_peak, it->second);
      return;
    }
    spans.record(client_span_name(p.op.kind, mode == Mode::kClosed), p.sent_ns,
                 recv_ns, 0, p.g);
    if (!starts_with(line, "OK")) {
      ++r.failed;
      ++r.errors[error_type(line)];
      ++r.errors_by_kind[p.op.kind];
      if (p.op.checked) r.failed_reads.push_back(p.g);
      return;
    }
    ++r.ok;
    if (p.op.nids != 0 && line != "OK " + std::to_string(p.op.nids)) {
      ++r.write_mismatch;
    }
    const std::uint64_t lat = recv_ns - p.due_ns;
    if (mode == Mode::kClosed) {
      if (recv_ns >= win_start && recv_ns < win_end) {
        ++r.window_ok;
        const std::size_t b = (recv_ns - win_start) / bucket_ns;
        if (b < buckets) ++r.bucket_ok[b];
      }
    } else {
      ++r.window_ok;
      (p.op.nids != 0 ? r.lat_write_ns : r.lat_read_ns).push_back(lat);
      const std::size_t b = (p.due_ns - win_start) / bucket_ns;
      if (b < buckets) r.bucket_lat_ns[b].push_back(lat);
    }
    if (p.op.checked) r.digests.emplace_back(p.g, fnv1a(p.g, line));
  };

  for (;;) {
    std::uint64_t now = now_ns();
    while (next_edge <= buckets && now >= win_start + next_edge * bucket_ns) {
      const std::uint64_t steal = host_steal_ticks();
      if (next_edge > 0) r.bucket_steal[next_edge - 1] = steal - steal_at_edge;
      steal_at_edge = steal;
      ++next_edge;
    }
    if (!window_closed && now >= win_end) {
      window_closed = true;
      r.backlog_end = in_flight;
    }
    const bool issuing = now < win_end;
    if (issuing) {
      if (mode == Mode::kClosed) {
        for (std::size_t c = 0; c < nconn; ++c) {
          while (fifo[c].size() < opt.window) enqueue(c, now, now);
        }
      } else {
        for (;;) {
          const auto due = t0 + static_cast<std::uint64_t>(due_offset_ns);
          if (due > now || due >= win_end) break;
          due_offset_ns += -std::log1p(-arrivals.uniform()) * interval_ns;
          enqueue(n_open % nconn, due, now);
          r.lateness_ns.push_back(now - due);
          const std::size_t b = (due - win_start) / bucket_ns;
          if (b < buckets) {
            ++r.bucket_sent[b];
            if (now - due > opt.late_ns) ++r.bucket_late[b];
          }
          ++n_open;
        }
      }
      if (now >= next_probe) {
        conns[0].out += "STATS\n";
        fifo[0].push_back({0, now, now, {}, true});
        next_probe += opt.stats_every_ns;
      }
    }
    for (Conn& c : conns) {
      if (!c.out.empty() && !c.flush()) r.broken = true;
    }
    if (r.broken) break;
    if (!issuing && in_flight == 0) {
      bool probes = false;
      for (const auto& f : fifo) probes = probes || !f.empty();
      if (!probes) break;
    }
    if (now >= drain_end) {
      r.broken = true;
      break;
    }

    // While issuing, poll without sleeping: a sleeping thread on a virtual
    // CPU can wake milliseconds late, which would make the open loop fall
    // behind its schedule and delay the closed loop's next send.
    const std::uint64_t wait_ns = issuing || drain_end <= now ? 0 : drain_end - now;
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                      static_cast<long>(wait_ns % 1'000'000'000ull)};
    for (std::size_t c = 0; c < nconn; ++c) {
      pfds[c] = {conns[c].fd(),
                 static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    const int pr = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);

    if (pr < 0 && errno != EINTR) {
      r.broken = true;
      break;
    }
    if (pr <= 0) continue;
    now = now_ns();
    for (std::size_t c = 0; c < nconn; ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const bool alive = conns[c].fill();
      const std::uint64_t recv_ns = now_ns();
      while (!fifo[c].empty() && conns[c].next_line(line)) {
        const Pending p = fifo[c].front();
        fifo[c].pop_front();
        if (!p.probe) --in_flight;
        on_reply(p, recv_ns);
      }
      if (!alive) r.broken = true;
    }
    if (r.broken) break;
  }
  // Requests that never got a reply count as failed.
  for (auto& f : fifo) {
    for (const Pending& p : f) {
      if (p.probe) continue;
      ++r.failed;
      ++r.errors["NOREPLY"];
      ++r.errors_by_kind[p.op.kind];
      if (p.op.checked) r.failed_reads.push_back(p.g);
    }
  }
  r.window_s = static_cast<double>(opt.seconds_ns) / 1e9;
  return r;
}

}  // namespace

void merge(LoadResult& into, LoadResult&& from) {
  const auto cat = [](auto& a, auto& b) { a.insert(a.end(), b.begin(), b.end()); };
  into.attempted += from.attempted;
  into.ok += from.ok;
  into.failed += from.failed;
  into.write_mismatch += from.write_mismatch;
  for (const auto& [k, v] : from.errors) into.errors[k] += v;
  for (const auto& [k, v] : from.errors_by_kind) into.errors_by_kind[k] += v;
  for (const auto& [k, v] : from.sent_by_kind) into.sent_by_kind[k] += v;
  into.window_ok += from.window_ok;
  into.window_s += from.window_s;
  cat(into.lat_read_ns, from.lat_read_ns);
  cat(into.lat_write_ns, from.lat_write_ns);
  cat(into.lateness_ns, from.lateness_ns);
  cat(into.bucket_ok, from.bucket_ok);
  for (auto& b : from.bucket_lat_ns) into.bucket_lat_ns.push_back(std::move(b));
  cat(into.bucket_steal, from.bucket_steal);
  cat(into.bucket_sent, from.bucket_sent);
  cat(into.bucket_late, from.bucket_late);
  into.bucket_s = from.bucket_s;
  into.backlog_end = std::max(into.backlog_end, from.backlog_end);
  into.pending_peak = std::max(into.pending_peak, from.pending_peak);
  into.broken = into.broken || from.broken;
  cat(into.digests, from.digests);
  cat(into.failed_reads, from.failed_reads);
}

LoadResult closed_loop(std::vector<Conn>& conns, const OpSource& src,
                       const LoadOptions& opt, std::uint64_t& next_g,
                       Tracer::Buffer& spans) {
  return run_loop(Mode::kClosed, conns, src, opt, next_g, spans);
}

LoadResult open_loop(std::vector<Conn>& conns, const OpSource& src,
                     const LoadOptions& opt, std::uint64_t& next_g,
                     Tracer::Buffer& spans) {
  return run_loop(Mode::kOpen, conns, src, opt, next_g, spans);
}

}  // namespace perfbench
