// The serving workloads: one batmap_serve (serve-read, serve-write) or two
// batmap_serve shards behind batmap_router (router-2shard), all started
// with default flags except serve-write's --compact-ops and the shards'
// --max-line, driven over TCP by the single-threaded load generator. Trace
// mode adds in-process replays through QueryEngine and RouterCore.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "corpus.hpp"
#include "load.hpp"
#include "net.hpp"
#include "router/router_core.hpp"
#include "router/shard_map.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = repro::service;
namespace fs = std::filesystem;

namespace {

struct Shape {
  const char* name;
  /// The fixed open-loop rate (requests/s): about a third of max_qps as
  /// measured on the parent commit of the benchmark on a 4-core host, so
  /// the server keeps headroom when the host steals time.
  double nominal_rate;
  bool writes;
  bool router;
};

constexpr Shape kShapes[] = {
    {"serve-read", 25000, false, false},
    {"serve-write", 1000, true, false},
    {"router-2shard", 1000, false, true},
};

constexpr std::size_t kStreamLen = 1 << 18;
constexpr std::size_t kCheckLen = 4096;   ///< serve-write post-FLUSH reads
constexpr std::size_t kWindow = 8;        ///< closed loop, per connection
constexpr int kSetupReps = 3;
constexpr int kRounds = 4;            ///< closed/open alternations per pass
constexpr int kMaxRounds = 5;         ///< with extension under host noise
/// A sub-window is clean when the hypervisor took at most this share of the
/// CPUs during it: at 4 CPUs and 0.1 s sub-windows, not one 10 ms clock
/// tick. A stolen tick stalls a server thread about as long as the tail
/// latencies being measured.
constexpr double kStealShare = 0.01;
/// The generator is late when it sends a request more than this after its
/// due time.
constexpr std::uint64_t kLateNs = 1'000'000;
constexpr std::size_t kMinClean = 3;
/// Requests a sub-window needs for a p99 of its own (ten beyond it).
constexpr std::size_t kTailRequests = 1000;
/// In-process replays: requests per thread and pass (fewer if the pass's
/// time share runs out first), which also bounds the span volume.
constexpr std::uint64_t kReplayPerThread = 50000;
constexpr std::uint64_t kLimitNs = 5'000'000;  ///< the latency limit
constexpr std::uint64_t kCompactOps = 128;    ///< serve-write --compact-ops
constexpr std::uint32_t kRouterShards = 2;
/// Shard line limit. The router ships cross-shard operands to the shards as
/// decimal element lists, which exceed batmap_serve's default 4096-byte
/// limit for large sets (every such request would fail with ERR BADREQ);
/// the router itself keeps its defaults.
constexpr const char* kShardMaxLine = "1048576";
constexpr const char* kReadKinds = "ISTKR";
constexpr const char* kAllKinds = "ISTKRAD";

/// Span names per layer and protocol kind (spans keep a const char*).
enum class Layer { kEngineServe, kEngineExec, kRouterExecute };

const char* span_name(Layer layer, char kind) {
  static const auto names = [] {
    std::vector<std::string> v;
    for (const char* l : {"engine.serve.", "engine.exec.", "router.execute."}) {
      for (const char* k = kAllKinds; *k; ++k) v.push_back(std::string(l) + *k);
    }
    return v;
  }();
  const char* pos = kind == '\0' ? nullptr : std::strchr(kAllKinds, kind);
  if (pos == nullptr) return "other";
  return names[static_cast<std::size_t>(layer) * std::strlen(kAllKinds) +
               static_cast<std::size_t>(pos - kAllKinds)]
      .c_str();
}

char kind_letter(svc::QueryKind k) {
  switch (k) {
    case svc::QueryKind::kIntersect: return 'I';
    case svc::QueryKind::kSupport: return 'S';
    case svc::QueryKind::kTopK: return 'T';
    case svc::QueryKind::kKway: return 'K';
    case svc::QueryKind::kRuleScore: return 'R';
    case svc::QueryKind::kAdd: return 'A';
    case svc::QueryKind::kDelete: return 'D';
    default: return 'F';
  }
}

double us(double ns) { return ns / 1e3; }

/// The processes of one serving topology. Children stop on destruction.
struct Topology {
  std::vector<Child> servers;  ///< batmap_serve (shards, or the single node)
  std::vector<std::uint16_t> server_ports;
  Child router;
  std::uint16_t front_port = 0;
  std::vector<std::string> snapshots;  ///< served snapshot files

  double peak_rss_mib() const {
    double sum = router.peak_rss_mib();
    for (const Child& c : servers) sum += c.peak_rss_mib();
    return sum;
  }
};

struct SetupTimes {
  double total = 0, build = 0, write = 0;
};

/// corpus -> store -> snapshot (or shard split) -> processes LISTENING ->
/// first OK reply.
Topology set_up(const RunContext& ctx, const Shape& shape, const Corpus& corpus,
                batmap::BatmapStore& store_out, Tracer::Buffer& spans,
                SetupTimes& t) {
  Topology topo;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t root = spans.record("setup", t0, t0);
  std::uint64_t a = now_ns();
  batmap::BatmapStore store = build_store(corpus);
  std::uint64_t b = now_ns();
  spans.record("batmap.build", a, b, root);
  t.build = (b - a) / 1e9;

  std::string first_query = "I 0 1";
  if (!shape.router) {
    const std::string snap = ctx.run_dir + "/corpus.snap";
    a = now_ns();
    svc::write_snapshot(store, snap, /*epoch=*/1,
                        svc::plan_layouts(store, svc::LayoutMode::kBatmap));
    b = now_ns();
    spans.record("snapshot.write", a, b, root);
    t.write = (b - a) / 1e9;
    topo.snapshots.push_back(snap);
    std::vector<std::string> argv = {ctx.serve_bin, "--snapshot", snap,
                                     "--port", "0"};
    if (shape.writes) {
      argv.push_back("--compact-ops");
      argv.push_back(std::to_string(kCompactOps));
    }
    a = now_ns();
    topo.servers.emplace_back(argv, ctx.run_dir + "/serve.log");
    topo.server_ports.push_back(topo.servers.back().wait_listening(30000));
    b = now_ns();
    spans.record("serve.spawn", a, b, root);
    if (topo.server_ports.back() == 0) {
      throw std::runtime_error("batmap_serve did not start");
    }
    topo.front_port = topo.server_ports.back();
  } else {
    const std::string store_path = ctx.run_dir + "/corpus.store";
    const std::string prefix = ctx.run_dir + "/shard";
    a = now_ns();
    {
      std::ofstream f(store_path, std::ios::binary);
      store.save(f);
    }
    const int rc = run_command(
        {ctx.cli_bin, "shard-split", "--store", store_path, "--shards",
         std::to_string(kRouterShards), "--out-prefix", prefix},
        ctx.run_dir + "/shard-split.log");
    b = now_ns();
    spans.record("snapshot.shard_split", a, b, root);
    t.write = (b - a) / 1e9;
    if (rc != 0) throw std::runtime_error("batmap_cli shard-split failed");
    a = now_ns();
    std::string ports;
    for (std::uint32_t s = 0; s < kRouterShards; ++s) {
      const std::string snap = prefix + "." + std::to_string(s) + ".snap";
      topo.snapshots.push_back(snap);
      topo.servers.emplace_back(
          std::vector<std::string>{ctx.serve_bin, "--snapshot", snap, "--port",
                                   "0", "--max-line", kShardMaxLine},
          ctx.run_dir + "/shard" + std::to_string(s) + ".log");
    }
    for (Child& c : topo.servers) {
      topo.server_ports.push_back(c.wait_listening(30000));
      if (topo.server_ports.back() == 0) {
        throw std::runtime_error("batmap_serve shard did not start");
      }
      if (!ports.empty()) ports += ',';
      ports += std::to_string(topo.server_ports.back());
    }
    topo.router = Child({ctx.router_bin, "--shards", ports, "--port", "0"},
                        ctx.run_dir + "/router.log");
    topo.front_port = topo.router.wait_listening(30000);
    b = now_ns();
    spans.record("serve.spawn", a, b, root);
    if (topo.front_port == 0) throw std::runtime_error("batmap_router did not start");
    // A pair owned by one shard: answered by a direct forward.
    repro::router::ShardMap::Options mopt;
    mopt.shards = kRouterShards;
    const auto part = repro::router::ShardMap(mopt).partition(
        static_cast<std::uint32_t>(corpus.sets.size()));
    first_query = "I " + std::to_string(part.owned[0][0]) + " " +
                  std::to_string(part.owned[0][1]);
  }
  a = now_ns();
  Conn conn(topo.front_port);
  const std::string reply = conn.call(first_query);
  b = now_ns();
  spans.record("serve.first_ok", a, b, root);
  if (reply.compare(0, 3, "OK ") != 0) {
    throw std::runtime_error("first query failed: " + reply);
  }
  t.total = (b - t0) / 1e9;
  spans.finish(root, b);
  store_out = std::move(store);
  return topo;
}

/// One pass: the closed-loop and the open-loop phases of all rounds.
struct Pass {
  LoadResult closed, open;
  int rounds = 0;
  /// Sub-windows in which the host stole more than this many clock ticks
  /// per second of the sub-window are not clean (see clean()).
  double steal_limit_per_s = 1e300;

  std::uint64_t attempted() const { return closed.attempted + open.attempted; }
  std::uint64_t failed() const { return closed.failed + open.failed; }
  std::uint64_t ok() const { return closed.ok + open.ok; }
  /// Indices of the sub-windows of `r` the metrics use: those in which the
  /// generator sent at most a tenth of the requests late, least-stolen
  /// first, every clean one but at least a quarter of them (and kMinClean).
  /// Host steal comes in bursts, so even on a noisy host many short
  /// sub-windows are clean.
  std::vector<std::size_t> clean(const LoadResult& r) const {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < r.bucket_steal.size(); ++i) {
      if (on_time(r, i)) idx.push_back(i);
    }
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return r.bucket_steal[a] < r.bucket_steal[b];
    });
    const std::size_t keep_min =
        std::min(idx.size(), std::max(kMinClean, idx.size() / 4));
    std::size_t n = 0;
    while (n < idx.size() && (n < keep_min || stolen_ok(r, idx[n]))) ++n;
    idx.resize(n);
    return idx;
  }
  bool stolen_ok(const LoadResult& r, std::size_t i) const {
    return static_cast<double>(r.bucket_steal[i]) <= steal_limit_per_s * r.bucket_s;
  }
  bool is_clean(const LoadResult& r, std::size_t i) const {
    return stolen_ok(r, i) && on_time(r, i);
  }
  std::size_t clean_count(const LoadResult& r) const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < r.bucket_steal.size(); ++i) n += is_clean(r, i);
    return n;
  }
  static bool on_time(const LoadResult& r, std::size_t i) {
    return r.bucket_late[i] * 10 <= r.bucket_sent[i];
  }
  /// Open-loop sub-windows in which the generator kept its schedule.
  std::size_t on_time_windows() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < open.bucket_late.size(); ++i) n += on_time(open, i);
    return n;
  }
  /// OK replies per second in the closed loop, over all used sub-windows
  /// together (the rate the server sustained when the host left it alone;
  /// pooling them averages out which queries each sub-window happened to
  /// hold).
  double max_qps() const {
    const std::vector<std::size_t> idx = clean(closed);
    std::uint64_t ok = 0;
    for (const std::size_t i : idx) ok += closed.bucket_ok[i];
    return ratio(static_cast<double>(ok),
                 static_cast<double>(idx.size()) * closed.bucket_s);
  }
  /// Latency percentile p, in microseconds, of the OK requests due in the
  /// used sub-windows of the open loop, timed from their due time. When the
  /// sub-windows hold enough requests for their own p99 (kTailRequests),
  /// it is the median over the sub-windows' percentiles for p50 and the
  /// lower quartile for the tail, which a stall inside one sub-window moves
  /// most; otherwise the percentile of the pooled sub-windows.
  double latency_us(double p) const {
    const std::vector<std::size_t> idx = clean(open);
    std::vector<std::uint64_t> pooled, per;
    for (const std::size_t i : idx) {
      const std::vector<std::uint64_t>& b = open.bucket_lat_ns[i];
      pooled.insert(pooled.end(), b.begin(), b.end());
    }
    if (pooled.size() < idx.size() * kTailRequests) return percentile(pooled, p) / 1e3;
    for (const std::size_t i : idx) {
      std::vector<std::uint64_t> b = open.bucket_lat_ns[i];
      if (!b.empty()) per.push_back(static_cast<std::uint64_t>(percentile(b, p)));
    }
    return percentile(per, p > 0.5 ? 0.25 : 0.5) / 1e3;
  }
  /// Share of the requests due in the used sub-windows answered OK within
  /// the latency limit.
  double slo_ratio() const {
    std::uint64_t sent = 0, within = 0;
    for (const std::size_t i : clean(open)) {
      sent += open.bucket_sent[i];
      for (const std::uint64_t ns : open.bucket_lat_ns[i]) within += ns <= kLimitNs;
    }
    return ratio(within, sent);
  }
};

/// The load phases, interleaved in rounds of closed loop (35% of a round,
/// after a short unmeasured lead-in) then open loop (55%), so slow drifts
/// of the host affect every metric alike and sub-window medians span the
/// whole run. With `extend`, rounds continue past kRounds (up to
/// kMaxRounds) until three quarters of kRounds' worth of sub-windows are
/// clean, so a burst of host steal lengthens the run instead of skewing it.
Pass run_pass(std::vector<Conn>& conns, const OpSource& src, const Shape& shape,
              const RunContext& ctx, bool extend, std::uint64_t& next_g,
              Tracer::Buffer& closed_spans, Tracer::Buffer& open_spans) {
  Pass p;
  LoadOptions opt;
  opt.window = kWindow;
  opt.stats_every_ns = shape.writes ? 100'000'000ull : 0;
  opt.late_ns = kLateNs;
  p.steal_limit_per_s =
      kStealShare * ctx.nproc * static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double round_s = ctx.seconds / kRounds;
  std::size_t want_closed = 0, want_open = 0;
  for (; p.rounds < kMaxRounds; ++p.rounds) {
    if (p.rounds == kRounds) {
      want_closed = p.closed.bucket_steal.size() * 3 / 4;
      want_open = p.open.bucket_steal.size() * 3 / 4;
    }
    if (p.rounds >= kRounds &&
        (!extend || (p.clean_count(p.closed) >= want_closed &&
                     p.clean_count(p.open) >= want_open))) {
      break;
    }
    opt.rate = 0;
    opt.warmup_ns = static_cast<std::uint64_t>(
        (p.rounds == 0 ? 0.1 * ctx.seconds : 0.02 * ctx.seconds) * 1e9);
    opt.seconds_ns = static_cast<std::uint64_t>(round_s * 0.35e9);
    merge(p.closed, closed_loop(conns, src, opt, next_g, closed_spans));
    if (p.closed.broken) break;
    opt.rate = shape.nominal_rate;
    opt.arrival_seed = ctx.seed * kMaxRounds + static_cast<std::uint64_t>(p.rounds);
    opt.seconds_ns = static_cast<std::uint64_t>(round_s * 0.55e9);
    merge(p.open, open_loop(conns, src, opt, next_g, open_spans));
    if (p.open.broken) break;
  }
  std::printf("# pass: %d rounds; clean sub-windows (host steal <= %.0f%% of "
              "the CPUs, generator on schedule): closed %zu of %zu (%.3f s "
              "each), open %zu of %zu (%.3f s each)\n",
              p.rounds, 100 * kStealShare, p.clean_count(p.closed),
              p.closed.bucket_steal.size(), p.closed.bucket_s,
              p.clean_count(p.open), p.open.bucket_steal.size(), p.open.bucket_s);
  return p;
}

svc::QueryEngine::Options serve_defaults() {
  // batmap_serve's defaults: --cache 4096 --batch 256 --queue 1024
  // --threads 1 --shards 1.
  svc::QueryEngine::Options opt;
  opt.cache_entries = 4096;
  opt.max_batch = 256;
  opt.queue_capacity = 1024;
  opt.sweep_threads = 1;
  opt.sweep_shards = 1;
  return opt;
}

/// Runs body(thread_index, buffer) on `threads` threads (the caller's plus
/// threads - 1 helpers) and joins them.
template <typename Body>
void on_threads(unsigned threads, Tracer& tracer, Body body) {
  std::vector<Tracer::Buffer*> bufs;
  for (unsigned t = 0; t < threads; ++t) bufs.push_back(&tracer.buffer(1 << 18));
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back([&, t] { body(t, *bufs[t]); });
  }
  body(0, *bufs[0]);
  for (auto& th : pool) th.join();
}

struct ReplayCounts {
  std::uint64_t failed = 0, mismatched = 0;
  double dup_share = 0;
};

/// QueryEngine replay of the workload's stream: submit/wait from `threads`
/// closed-loop threads, then execute_one on reads.
ReplayCounts engine_replay(const RunContext& ctx, const Shape& shape,
                           const Corpus& corpus,
                           const std::vector<ReadQuery>& stream,
                           unsigned threads, Tracer& tracer) {
  ReplayCounts out;
  svc::SnapshotManager mgr(svc::Snapshot::open(ctx.run_dir + "/corpus.snap"));
  svc::QueryEngine engine(mgr, serve_defaults());
  svc::Compactor::Options copt;
  copt.out_prefix = ctx.run_dir + "/replay.compact";
  copt.trigger_ops = shape.writes ? kCompactOps : 0;
  svc::Compactor compactor(mgr, engine.delta(), copt);
  compactor.start_background();
  WriteModel wm(corpus, threads, ctx.seed ^ 0xe91e, CorpusSpec{}.zipf);
  const auto pass_ns = static_cast<std::uint64_t>(ctx.seconds * 0.15e9);
  std::vector<std::uint64_t> failed(threads), mismatched(threads), sink(threads);

  std::uint64_t end = now_ns() + pass_ns;
  on_threads(threads, tracer, [&](unsigned t, Tracer::Buffer& buf) {
    svc::Request req;
    std::string scratch;
    for (std::uint64_t i = 0; i < kReplayPerThread && now_ns() < end; ++i) {
      const std::uint64_t g = i * threads + t;
      std::uint8_t nids = 0;
      if (shape.writes && wm.is_write(g)) {
        scratch.clear();
        nids = wm.next(t, scratch, req.query);
      } else {
        req.query = stream[g % stream.size()].q;
      }
      const std::uint64_t a = now_ns();
      engine.submit(req);
      svc::QueryEngine::wait(req);
      const std::uint64_t b = now_ns();
      buf.record(span_name(Layer::kEngineServe, kind_letter(req.query.kind)), a, b,
                 0, g);
      if (req.outcome() != svc::Request::Outcome::kOk) {
        ++failed[t];
      } else if (nids != 0 && req.result().value != nids) {
        ++mismatched[t];
      }
    }
  });
  engine.drain();
  const auto st = engine.stats();
  out.dup_share = ratio(st.duplicate_pairs,
                        st.strip_pairs + st.cyclic_pairs + st.duplicate_pairs);

  end = now_ns() + pass_ns;
  on_threads(threads, tracer, [&](unsigned t, Tracer::Buffer& buf) {
    for (std::uint64_t i = 0; i < kReplayPerThread && now_ns() < end; ++i) {
      const ReadQuery& r = stream[(i * threads + t) % stream.size()];
      const std::uint64_t a = now_ns();
      const svc::Result res = engine.execute_one(r.q);
      const std::uint64_t b = now_ns();
      buf.record(span_name(Layer::kEngineExec, r.kind), a, b, 0, i * threads + t);
      sink[t] += res.value;
    }
  });
  std::uint64_t checksum = 0;
  for (unsigned t = 0; t < threads; ++t) {
    out.failed += failed[t];
    out.mismatched += mismatched[t];
    checksum += sink[t];
  }
  std::printf("# engine replay: %" PRIu64 " failed submits, execute_one value "
              "sum %" PRIu64 "\n",
              out.failed, checksum);
  return out;
}

/// RouterCore replay of the read stream against the running shards.
std::uint64_t router_replay(const RunContext& ctx, const Topology& topo,
                            const std::vector<ReadQuery>& stream,
                            unsigned threads, Tracer& tracer) {
  repro::router::RouterCore::Options ropt;
  ropt.ports = topo.server_ports;
  repro::router::RouterCore core(ropt);
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(ctx.seconds * 0.15e9);
  std::vector<std::uint64_t> failed(threads);
  on_threads(threads, tracer, [&](unsigned t, Tracer::Buffer& buf) {
    for (std::uint64_t i = 0; i < kReplayPerThread && now_ns() < end; ++i) {
      const std::uint64_t g = i * threads + t;
      const ReadQuery& r = stream[g % stream.size()];
      const std::uint64_t a = now_ns();
      const auto rep = core.execute(r.q, /*deadline_ns=*/0);
      const std::uint64_t b = now_ns();
      buf.record(span_name(Layer::kRouterExecute, r.kind), a, b, 0, g);
      if (!rep.ok) ++failed[t];
    }
  });
  std::uint64_t n = 0;
  for (const std::uint64_t f : failed) n += f;
  return n;
}

/// Compares checked read replies with the oracle. Returns mismatches and
/// prints both XOR folds.
std::uint64_t check_reads(const std::vector<const LoadResult*>& results,
                          const std::vector<ReadQuery>& stream, Oracle& oracle,
                          const char* label) {
  std::uint64_t mismatches = 0, fold_got = 0, fold_want = 0, checked = 0,
                holes = 0;
  for (const LoadResult* r : results) {
    for (const auto& [g, digest] : r->digests) {
      const ReadQuery& q = stream[g % stream.size()];
      const std::uint64_t want = fnv1a(g, oracle.expected(q));
      fold_got ^= digest;
      fold_want ^= want;
      ++checked;
      if (digest != want) {
        if (mismatches < 5) {
          std::printf("# MISMATCH %s request %" PRIu64 " '%s': want '%s'\n",
                      label, g, q.line.c_str(), oracle.expected(q).c_str());
        }
        ++mismatches;
      }
    }
    holes += r->failed_reads.size();
  }
  std::printf("# check %s: %" PRIu64 " replies vs oracle, %" PRIu64
              " failed (holes), fold %016" PRIx64 " want %016" PRIx64
              ", %" PRIu64 " mismatches\n",
              label, checked, holes, fold_got, fold_want, mismatches);
  return mismatches;
}

double quantile_us(std::vector<std::uint64_t> v, double p) {
  return us(percentile(v, p));
}

void print_errors(const char* label, const LoadResult& r) {
  for (const auto& [type, n] : r.errors) {
    std::printf("# errors %s %s %" PRIu64 "\n", label, type.c_str(), n);
  }
  for (const auto& [kind, n] : r.errors_by_kind) {
    std::printf("# errors %s kind=%c %" PRIu64 "\n", label, kind, n);
  }
}

}  // namespace

Outcome run_serving(const RunContext& ctx) {
  const Shape* shape_p = nullptr;
  for (const Shape& s : kShapes) {
    if (ctx.workload == s.name) shape_p = &s;
  }
  if (!shape_p) throw std::runtime_error("unknown workload " + ctx.workload);
  const Shape& shape = *shape_p;
  Outcome out;
  Tracer tracer(ctx.trace);
  Tracer::Buffer& main_spans = tracer.buffer(1 << 20);
  Tracer off(false);
  Tracer::Buffer& no_spans = off.buffer();
  const unsigned conns_n = std::min(4u, ctx.nproc);

  const CorpusSpec spec;
  const Corpus corpus = make_corpus(spec, ctx.seed);
  const std::vector<ReadQuery> stream = make_read_stream(spec, ctx.seed, kStreamLen);
  std::printf("# corpus: %zu sets, %" PRIu64 " elements over [0, %" PRIu64
              "), %zu-query read stream, %u connections\n",
              corpus.sets.size(), corpus.elements(), corpus.universe,
              stream.size(), conns_n);

  // Set-up, repeated; the last topology serves the load.
  std::vector<double> setup_s, build_s, write_s;
  batmap::BatmapStore store(1);
  Topology topo;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    topo = Topology{};
    SetupTimes t;
    // Each repetition's in-process steps run on another CPU (see mine.cpp).
    const PinCpu pin(rep);
    topo = set_up(ctx, shape, corpus, store, main_spans, t);
    setup_s.push_back(t.total);
    build_s.push_back(t.build);
    write_s.push_back(t.write);
  }
  std::uint64_t snapshot_bytes = 0;
  for (const std::string& s : topo.snapshots) snapshot_bytes += fs::file_size(s);

  std::vector<Conn> conns;
  for (unsigned c = 0; c < conns_n; ++c) conns.emplace_back(topo.front_port);
  std::unique_ptr<WriteModel> wm;
  if (shape.writes) {
    wm = std::make_unique<WriteModel>(corpus, conns_n, ctx.seed, spec.zipf);
  }
  const OpSource src = [&](std::uint32_t conn, std::uint64_t g,
                           std::string& line) -> OpInfo {
    if (wm && wm->is_write(g)) {
      svc::Query q;
      const std::uint8_t n = wm->next(conn, line, q);
      return {kind_letter(q.kind), n, false};
    }
    const ReadQuery& r = stream[g % stream.size()];
    line += r.line;
    return {r.kind, 0, !shape.writes};
  };

  std::uint64_t next_g = 0;
  Pass untraced, traced;
  untraced = run_pass(conns, src, shape, ctx, /*extend=*/true, next_g,
                      no_spans, no_spans);
  if (ctx.trace && !untraced.closed.broken && !untraced.open.broken) {
    // Closed-loop round trips include the wait behind the connection's
    // window and feed no per-layer metric, so only the open loop is traced.
    traced = run_pass(conns, src, shape, ctx, /*extend=*/false, next_g,
                      no_spans, main_spans);
  }
  const Pass& measured = ctx.trace ? traced : untraced;
  const std::vector<const LoadResult*> phases = {
      &untraced.closed, &untraced.open, &traced.closed, &traced.open};
  bool broken = false;
  for (const LoadResult* r : phases) broken = broken || r->broken;
  if (broken) throw std::runtime_error("a load connection failed or stalled");

  // Peak RSS over set-up and load, before the checks below add work.
  const double rss = topo.peak_rss_mib();

  // serve-write: a final FLUSH, then the post-compaction state is compared
  // with an offline rebuild of the tracked model.
  double flush_s = 0;
  std::uint64_t write_check_mismatch = 0;
  if (shape.writes) {
    const std::uint64_t a = now_ns();
    const std::string reply = conns[0].call("FLUSH", 60000);
    flush_s = (now_ns() - a) / 1e9;
    if (reply.compare(0, 8, "FLUSHED ") != 0) {
      std::printf("# FLUSH failed: %s\n", reply.c_str());
      out.correct = false;
    }
    const std::vector<ReadQuery> check =
        make_read_stream(spec, ctx.seed ^ 0xc4ec, kCheckLen);
    std::vector<std::string> lines;
    for (const ReadQuery& r : check) lines.push_back(r.line);
    const std::vector<std::string> replies = conns[0].script(lines);
    const batmap::BatmapStore final_store = build_store(wm->current());
    Oracle final_oracle(final_store);
    std::uint64_t fold_got = 0, fold_want = 0;
    for (std::size_t i = 0; i < check.size(); ++i) {
      fold_got ^= fnv1a(i, replies[i]);
      const std::string& want = final_oracle.expected(check[i]);
      fold_want ^= fnv1a(i, want);
      if (replies[i] != want) {
        if (write_check_mismatch < 5) {
          std::printf("# MISMATCH after FLUSH '%s': got '%s' want '%s'\n",
                      check[i].line.c_str(), replies[i].c_str(), want.c_str());
        }
        ++write_check_mismatch;
      }
    }
    std::printf("# check post-FLUSH state: %zu reads vs offline rebuild, fold "
                "%016" PRIx64 " want %016" PRIx64 ", %" PRIu64 " mismatches\n",
                check.size(), fold_got, fold_want, write_check_mismatch);
  }
  conns.clear();

  // Counters at the layer boundaries, read from outside.
  const auto stats_of = [](std::uint16_t port) {
    Conn c(port);
    return c.call("STATS");
  };
  const std::string front_stats_line = stats_of(topo.front_port);
  std::printf("# stats front: %s\n", front_stats_line.c_str());
  std::map<std::string, double> engine_stats;  // summed over servers
  for (std::size_t s = 0; s < topo.servers.size(); ++s) {
    const std::string line =
        shape.router ? stats_of(topo.server_ports[s]) : front_stats_line;
    if (shape.router) std::printf("# stats shard%zu: %s\n", s, line.c_str());
    for (const auto& [k, v] : parse_stats(line)) {
      engine_stats[k] = k == "max_batch" ? std::max(engine_stats[k], v)
                                         : engine_stats[k] + v;
    }
  }
  const auto front = parse_stats(front_stats_line);
  const auto stat = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };

  // In-process replays (trace mode).
  ReplayCounts replay;
  std::uint64_t router_replay_failed = 0;
  if (ctx.trace) {
    if (shape.router) {
      router_replay_failed = router_replay(ctx, topo, stream, conns_n, tracer);
    } else {
      replay = engine_replay(ctx, shape, corpus, stream, conns_n, tracer);
    }
  }
  double open_s = 0;
  {
    std::vector<double> opens;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      double total = 0;
      for (const std::string& s : topo.snapshots) {
        const std::uint64_t a = now_ns();
        const svc::Snapshot snap = svc::Snapshot::open(s);
        const std::uint64_t b = now_ns();
        main_spans.record("snapshot.open", a, b);
        total += (b - a) / 1e9;
      }
      opens.push_back(total);
    }
    open_s = median(opens);
  }
  topo = Topology{};  // stops every process

  // Correctness.
  if (!shape.writes) {
    Oracle oracle(store);
    const std::uint64_t bad = check_reads(phases, stream, oracle, shape.name);
    if (bad != 0) out.correct = false;
  } else {
    std::uint64_t write_mismatch = 0;
    for (const LoadResult* r : phases) write_mismatch += r->write_mismatch;
    std::printf("# check writes: %" PRIu64 " acknowledgements with a wrong "
                "recorded count\n",
                write_mismatch);
    if (write_mismatch != 0 || write_check_mismatch != 0) out.correct = false;
  }
  if (replay.mismatched != 0) {
    std::printf("# MISMATCH: %" PRIu64 " in-process write acks\n",
                replay.mismatched);
    out.correct = false;
  }

  // Validity: a sub-window in which the generator sent more than a tenth of
  // its requests over kLateNs late is left out like a stolen one; the
  // run is invalid when fewer than kMinClean sub-windows kept the schedule.
  for (const Pass* p : {&untraced, &traced}) {
    if (p->open.attempted == 0) continue;
    std::vector<std::uint64_t> late = p->open.lateness_ns;
    std::printf("# generator: %" PRIu64 " sent at %.0f/s, lateness p50 %.1f us "
                "p90 %.1f us p99 %.1f us, on schedule in %zu of %zu "
                "sub-windows, backlog at end %" PRIu64 "\n",
                p->open.attempted, shape.nominal_rate, quantile_us(late, 0.5),
                quantile_us(late, 0.9), quantile_us(late, 0.99),
                p->on_time_windows(), p->open.bucket_late.size(),
                p->open.backlog_end);
    if (p->on_time_windows() < kMinClean) out.valid = false;
  }

  for (const Pass* p : {&untraced, &traced}) {
    out.attempted += p->attempted();
    out.failed += p->failed();
  }
  print_errors("closed", measured.closed);
  print_errors("open", measured.open);

  // End-to-end metrics: from the untraced pass.
  const Pass& e = untraced;
  out.e2e.set("setup_s", median(setup_s), "s");
  out.e2e.set("max_qps", e.max_qps(), "1/s");
  out.e2e.set("p50_us", e.latency_us(0.50), "us");
  out.e2e.set("p99_us", e.latency_us(0.99), "us");
  out.e2e.set("slo_ratio", e.slo_ratio(), "1");
  out.e2e.set("ok_ratio", ratio(e.ok(), e.attempted()), "1");
  out.e2e.set("index_bytes_per_elem",
              ratio(static_cast<double>(snapshot_bytes),
                    static_cast<double>(corpus.elements())),
              "B");
  out.e2e.set("peak_rss_mib", rss, "MiB");
  std::printf("# e2e read_p50_us %.6g us\n", quantile_us(e.open.lat_read_ns, 0.5));
  std::printf("# e2e read_p99_us %.6g us\n", quantile_us(e.open.lat_read_ns, 0.99));
  if (shape.writes) {
    std::printf("# e2e write_p99_us %.6g us\n",
                quantile_us(e.open.lat_write_ns, 0.99));
  }
  std::printf("# e2e fail_ratio %.6g 1 (%" PRIu64 " of %" PRIu64 ")\n",
              ratio(e.failed(), e.attempted()), e.failed(), e.attempted());
  std::printf("# e2e samples: %zu open-loop OK latencies in %zu sub-windows, "
              "%" PRIu64 " closed-loop OK replies in %.2f s (%zu sub-windows)\n",
              e.open.lat_read_ns.size() + e.open.lat_write_ns.size(),
              e.open.bucket_lat_ns.size(), e.closed.window_ok, e.closed.window_s,
              e.closed.bucket_ok.size());
  if (!ctx.trace) return out;

  // Per-layer metrics (trace mode).
  Report& L = out.layers;
  for (const auto& [name, unit] : layer_metrics()) L.set(name, 0, unit);
  const auto p_us = [&](const std::string& span, double p) {
    return quantile_us(tracer.durations(span), p);
  };
  L.set("batmap.build_s", median(build_s), "s");
  L.set("batmap.failures", static_cast<double>(store.total_failures()), "count");
  L.set("batmap.bytes", static_cast<double>(store.batmap_bytes()), "B");
  L.set("service.snapshot.write_s", median(write_s), "s");
  L.set("service.snapshot.open_s", open_s, "s");
  for (const char* layout : {"batmap", "dense", "list", "wah"}) {
    L.set(std::string("service.snapshot.rows_") + layout,
          stat(engine_stats, (std::string("rows_") + layout).c_str()), "count");
  }
  std::vector<std::uint64_t> serve_reads, front_reads;
  for (const char* k = kReadKinds; *k; ++k) {
    const std::string K(1, *k);
    for (const Layer layer : {Layer::kEngineServe, Layer::kRouterExecute}) {
      const auto d = tracer.durations(span_name(layer, *k));
      serve_reads.insert(serve_reads.end(), d.begin(), d.end());
    }
    const auto c = tracer.durations(client_span_name(*k));
    front_reads.insert(front_reads.end(), c.begin(), c.end());
    if (shape.router) {
      L.set("router.exec_us." + K + ".p50", p_us(span_name(Layer::kRouterExecute, *k), 0.5), "us");
      L.set("router.exec_us." + K + ".p99", p_us(span_name(Layer::kRouterExecute, *k), 0.99), "us");
    } else {
      const double serve50 = p_us(span_name(Layer::kEngineServe, *k), 0.5);
      const double exec50 = p_us(span_name(Layer::kEngineExec, *k), 0.5);
      L.set("service.engine.serve_us." + K + ".p50", serve50, "us");
      L.set("service.engine.serve_us." + K + ".p99",
            p_us(span_name(Layer::kEngineServe, *k), 0.99), "us");
      L.set("service.engine.exec_us." + K + ".p50", exec50, "us");
      L.set("service.engine.exec_us." + K + ".p99",
            p_us(span_name(Layer::kEngineExec, *k), 0.99), "us");
      L.set("service.engine.queue_us." + K + ".p50", serve50 - exec50, "us");
    }
  }
  for (const char* k = kAllKinds; *k; ++k) {
    const std::string K(1, *k);
    L.set("batmap_serve.rtt_us." + K + ".p50", p_us(client_span_name(*k), 0.5), "us");
    L.set("batmap_serve.rtt_us." + K + ".p99", p_us(client_span_name(*k), 0.99), "us");
  }
  L.set("batmap_serve.self_us",
        quantile_us(front_reads, 0.5) - quantile_us(serve_reads, 0.5), "us");

  std::uint64_t topk_sent = 0;
  for (const LoadResult* r : phases) {
    const auto it = r->sent_by_kind.find('T');
    if (it != r->sent_by_kind.end()) topk_sent += it->second;
  }
  L.set("service.engine.batch_mean",
        ratio(stat(engine_stats, "queries"), stat(engine_stats, "batches")), "1");
  L.set("service.engine.max_batch", stat(engine_stats, "max_batch"), "count");
  L.set("service.engine.cache_hit_ratio",
        ratio(stat(engine_stats, "cache_hits"),
              stat(engine_stats, "cache_hits") + stat(engine_stats, "cache_misses")),
        "1");
  L.set("service.engine.strip_share",
        ratio(stat(engine_stats, "strip_pairs"),
              stat(engine_stats, "strip_pairs") + stat(engine_stats, "cyclic_pairs")),
        "1");
  L.set("service.engine.dup_share", replay.dup_share, "1");
  L.set("service.engine.kway_sweep_share",
        ratio(stat(engine_stats, "kway_sweep"),
              stat(engine_stats, "kway_sweep") + stat(engine_stats, "kway_list")),
        "1");
  L.set("service.engine.topk_sweeps",
        ratio(stat(engine_stats, "topk_sweeps"), topk_sent), "1");
  if (shape.writes) {
    for (const char* k : {"A", "D"}) {
      const std::string K(k);
      L.set("service.delta.ack_us." + K + ".p50", p_us(span_name(Layer::kEngineServe, *k), 0.5), "us");
      L.set("service.delta.ack_us." + K + ".p99", p_us(span_name(Layer::kEngineServe, *k), 0.99), "us");
    }
    L.set("service.delta.flush_s", flush_s, "s");
    L.set("service.delta.compactions", stat(engine_stats, "compactions"), "count");
    L.set("service.delta.shed",
          stat(engine_stats, "delta_shed") + stat(engine_stats, "shed"), "count");
    double peak = 0;
    for (const LoadResult* r : phases) peak = std::max(peak, r->pending_peak);
    L.set("service.delta.pending_peak", peak, "count");
  }
  if (shape.router) {
    const double attempted = static_cast<double>(measured.attempted());
    for (const char* type : {"BADREQ", "UNAVAILABLE", "OVERLOAD"}) {
      std::uint64_t n = 0;
      for (const LoadResult* r : {&measured.closed, &measured.open}) {
        const auto it = r->errors.find(type);
        if (it != r->errors.end()) n += it->second;
      }
      L.set(std::string("router.fail.") + type, ratio(n, attempted), "1");
    }
    const double q = stat(front, "router_queries");
    L.set("router.direct_share", ratio(stat(front, "router_direct"), q), "1");
    L.set("router.forwards_per_query",
          ratio(stat(front, "router_semijoin_forwards"), q), "1");
    L.set("router.scatter_per_query", ratio(stat(front, "router_scatter"), q), "1");
    L.set("router.fanout_1", ratio(stat(front, "fanout_1"), q), "1");
    L.set("router.fanout_2", ratio(stat(front, "fanout_2"), q), "1");
    L.set("router.shard_batch_mean",
          ratio(stat(engine_stats, "queries"), stat(engine_stats, "batches")), "1");
    std::printf("# router replay: %" PRIu64 " RouterCore::execute failures\n",
                router_replay_failed);
  }
  L.set("trace.overhead.p50_us", traced.latency_us(0.5) - untraced.latency_us(0.5),
        "us");
  L.set("trace.overhead.p99_us",
        traced.latency_us(0.99) - untraced.latency_us(0.99), "us");
  const std::string trace_path =
      ctx.trace_dir + "/" + ctx.workload + "-seed" + std::to_string(ctx.seed) + ".tsv";
  if (tracer.write(trace_path)) {
    std::printf("# spans: %" PRIu64 " written to %s (%" PRIu64 " dropped)\n",
                tracer.span_count(), trace_path.c_str(), tracer.dropped());
  }
  return out;
}

}  // namespace perfbench
