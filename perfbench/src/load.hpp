// The single-threaded load generator: a closed loop (each connection keeps
// a fixed window of requests in flight) and an open loop (requests arrive
// as a seeded Poisson process at a fixed mean rate, round-robin over the
// connections, and are timed from their due time). One thread drives every
// connection through poll(), so the benchmark's load never needs more
// threads than connections.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net.hpp"

namespace perfbench {

/// What the generator appended for one request.
struct OpInfo {
  char kind = 'I';        ///< protocol letter
  std::uint8_t nids = 0;  ///< writes: the exact "OK <n>" the reply must carry
  bool checked = false;   ///< read whose reply is compared with the oracle
};

/// Appends request `g` (without '\n') for connection `conn` to `out`.
using OpSource =
    std::function<OpInfo(std::uint32_t conn, std::uint64_t g, std::string& out)>;

struct LoadOptions {
  std::uint64_t seconds_ns = 0;   ///< measured window
  std::uint64_t warmup_ns = 0;    ///< closed loop: unmeasured lead-in
  std::size_t window = 8;         ///< closed loop: in flight per connection
  double rate = 0;                ///< open loop: mean requests per second
  /// Open loop: seed of the exponential gaps between due times. Independent
  /// arrivals, unlike a fixed period, do not lock replies to the sender's
  /// period (a reply held back until the client's next segment on its
  /// connection would otherwise take a whole number of periods).
  std::uint64_t arrival_seed = 1;
  std::uint64_t stats_every_ns = 0;    ///< STATS probes on conn 0 (0 = off)
  std::uint64_t drain_ns = 10'000'000'000ull;  ///< wait for stragglers
  /// Sub-window length (rounded so whole sub-windows fill the window):
  /// OK replies, latencies and host steal are also kept per sub-window, so
  /// a run can leave out the sub-windows the host disturbed.
  std::uint64_t bucket_ns = 100'000'000ull;
  /// Open loop: a send later than this after its due time counts as late.
  std::uint64_t late_ns = 1'000'000;
};

struct LoadResult {
  // Whole phase (warm-up, window and drain): every request sent.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;         ///< error replies and unanswered
  std::uint64_t write_mismatch = 0; ///< write acks with a wrong count
  std::map<std::string, std::uint64_t> errors;  ///< by "ERR <TYPE>"
  std::map<char, std::uint64_t> errors_by_kind;
  std::map<char, std::uint64_t> sent_by_kind;
  // Measured window only.
  std::uint64_t window_ok = 0;
  double window_s = 0;
  std::vector<std::uint64_t> lat_read_ns;   ///< OK reads, from due time
  std::vector<std::uint64_t> lat_write_ns;  ///< OK writes, from due time
  std::vector<std::uint64_t> lateness_ns;   ///< open loop: send - due
  /// Closed loop: OK replies per whole sub-window. Open loop: OK latencies
  /// (reads and writes, from due time) per sub-window of due times.
  std::vector<std::uint64_t> bucket_ok;
  std::vector<std::vector<std::uint64_t>> bucket_lat_ns;
  std::vector<std::uint64_t> bucket_sent;  ///< open loop: requests due
  std::vector<std::uint64_t> bucket_late;  ///< open loop: sent late
  /// Host steal ticks (see host_steal_ticks) in each sub-window.
  std::vector<std::uint64_t> bucket_steal;
  double bucket_s = 0;
  std::uint64_t backlog_end = 0;  ///< in flight when the window closed
  double pending_peak = 0;        ///< max delta_elements seen by probes
  bool broken = false;            ///< a connection died or stalled
  /// Checked reads: (request index, digest of index and reply line).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
  std::vector<std::uint64_t> failed_reads;  ///< indices of failed reads
};

/// Closed loop for opt.warmup_ns + opt.seconds_ns; max rate = window_ok /
/// window_s. `next_g` is the run-wide request counter.
LoadResult closed_loop(std::vector<Conn>& conns, const OpSource& src,
                       const LoadOptions& opt, std::uint64_t& next_g,
                       Tracer::Buffer& spans);

/// Open loop: Poisson arrivals at mean opt.rate for opt.seconds_ns.
LoadResult open_loop(std::vector<Conn>& conns, const OpSource& src,
                     const LoadOptions& opt, std::uint64_t& next_g,
                     Tracer::Buffer& spans);

/// Adds `from` (a later phase of the same kind) to `into`.
void merge(LoadResult& into, LoadResult&& from);

/// Span name of a client request of protocol kind `kind`: "client.<K>" in
/// the open loop, "closed.<K>" in the closed loop (whose round trips include
/// the wait behind the connection's window).
const char* client_span_name(char kind, bool closed = false);

}  // namespace perfbench
