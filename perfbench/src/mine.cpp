// mine-dense: PairMiner::mine on a Bernoulli instance in the paper's
// winning regime (many distinct items, density above 1%), with the
// `batmap_cli pairs` defaults and one host thread per core. No serving
// layer runs.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "core/pair_miner.hpp"
#include "mining/datagen.hpp"
#include "mining/fimi_io.hpp"
#include "net.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace mining = repro::mining;
namespace core = repro::core;

constexpr std::uint32_t kItems = 4000;
constexpr double kDensity = 0.02;
constexpr std::uint64_t kOccurrences = 4'000'000;
constexpr int kSetupReps = 11;
constexpr int kSamplePairs = 64;
/// Latency limit of one full mine (slo_ratio).
constexpr double kMineLimitS = 10.0;
/// Mines during which the hypervisor took more than this share of the CPUs
/// are left out of the timing metrics.
constexpr double kStealShare = 0.01;

/// Resident set of this process in MiB (from /proc/self/statm).
double self_rss_mib() {
  std::ifstream f("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  f >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

struct Expected {
  std::uint64_t total_support = 0;
  std::vector<std::uint32_t> i, j, support;  ///< sampled pairs
};

struct MinePass {
  std::vector<double> wall_s, pre_s, sweep_s, post_s, gbps;
  std::vector<double> steal_share;  ///< host steal share of the CPUs per mine
  /// Counters of the last mine (the same for every mine of an instance).
  std::uint64_t failures = 0, batmap_bytes = 0, tiles = 0, tiles_stolen = 0;
  std::uint64_t mines = 0, bad = 0;
};

MinePass mine_for(const mining::TransactionDb& db,
                  const core::PairMinerOptions& opt, const Expected& want,
                  double seconds, Tracer::Buffer& spans) {
  MinePass p;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::uint64_t steal = host_steal_ticks();
    const std::uint64_t a = now_ns();
    core::PairMinerResult res = core::PairMiner(opt).mine(db);
    const std::uint64_t b = now_ns();
    p.steal_share.push_back(
        static_cast<double>(host_steal_ticks() - steal) /
        static_cast<double>(::sysconf(_SC_CLK_TCK)) / ((b - a) / 1e9) /
        static_cast<double>(opt.threads));
    // Phase spans are laid out from the phase times mine() reports: the
    // preprocess, then the sweep for the rest of the call (its reported
    // time is summed over shards, so it can exceed the wall time), with the
    // per-tile post-processing inside it.
    const std::uint64_t root = spans.record("mine", a, b, 0, p.mines);
    const std::uint64_t pre =
        a + std::min(b - a, static_cast<std::uint64_t>(res.preprocess_seconds * 1e9));
    spans.record("mine.preprocess", a, pre, root, p.mines);
    const std::uint64_t sid = spans.record("mine.sweep", pre, b, root, p.mines);
    spans.record("mine.post", pre,
                 pre + std::min(b - pre, static_cast<std::uint64_t>(
                                             res.postprocess_seconds * 1e9)),
                 sid, p.mines);
    ++p.mines;
    p.wall_s.push_back((b - a) / 1e9);
    p.pre_s.push_back(res.preprocess_seconds);
    p.sweep_s.push_back(res.sweep_seconds);
    p.post_s.push_back(res.postprocess_seconds);
    p.gbps.push_back(ratio(static_cast<double>(res.bytes_compared),
                           res.sweep_seconds) / 1e9);
    bool ok = res.total_support == want.total_support && res.supports;
    for (std::size_t k = 0; ok && k < want.i.size(); ++k) {
      ok = res.supports->get(want.i[k], want.j[k]) == want.support[k];
    }
    if (!ok) {
      std::printf("# MISMATCH mine %" PRIu64 ": total_support %" PRIu64
                  " want %" PRIu64 "\n",
                  p.mines, res.total_support, want.total_support);
      ++p.bad;
    }
    p.failures = res.failures;
    p.batmap_bytes = res.batmap_bytes;
    p.tiles = res.tiles;
    p.tiles_stolen = res.tiles_stolen;
  } while (now_ns() < end);
  return p;
}

}  // namespace

Outcome run_mining(const RunContext& ctx) {
  Outcome out;
  Tracer tracer(ctx.trace);
  Tracer::Buffer& spans = tracer.buffer();
  Tracer off(false);
  Tracer::Buffer& no_spans = off.buffer();
  const std::string fimi = ctx.run_dir + "/mine.fimi";

  // Input and oracle: Σ_t C(|t|, 2) is the total pair support, and sampled
  // pairs are checked against sorted tid-list intersections.
  Expected want;
  std::uint64_t occurrences = 0;
  {
    mining::BernoulliSpec spec;
    spec.num_items = kItems;
    spec.density = kDensity;
    spec.total_items = kOccurrences;
    spec.seed = ctx.seed;
    const mining::TransactionDb db = mining::bernoulli_instance(spec);
    mining::write_fimi_file(db, fimi);
    // Flush the file now, so the kernel's background writeback does not
    // land inside the timed loads.
    const int fd = ::open(fimi.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) throw std::runtime_error("cannot flush " + fimi);
    ::close(fd);
    occurrences = db.total_items();
    for (const auto& t : db.transactions()) {
      want.total_support += t.size() * (t.size() - 1) / 2;
    }
    const auto tid = db.vertical();
    repro::Xoshiro256 rng(ctx.seed ^ 0x9a125ull);
    std::vector<std::uint32_t> both;
    for (int k = 0; k < kSamplePairs; ++k) {
      const auto i = static_cast<std::uint32_t>(rng.below(db.num_items()));
      auto j = static_cast<std::uint32_t>(rng.below(db.num_items() - 1));
      if (j >= i) ++j;
      both.clear();
      std::set_intersection(tid[i].begin(), tid[i].end(), tid[j].begin(),
                            tid[j].end(), std::back_inserter(both));
      want.i.push_back(i);
      want.j.push_back(j);
      want.support.push_back(static_cast<std::uint32_t>(both.size()));
    }
    std::printf("# instance: %u items, %zu transactions, %" PRIu64
                " occurrences, density %.4f\n",
                db.num_items(), db.num_transactions(), occurrences, db.density());
  }

  // Set-up: the FIMI load, once untimed (page cache and allocator settle),
  // then kSetupReps times, each on the next CPU in turn: on a shared host
  // one CPU can run much slower than another for a whole run (a busy
  // hardware sibling), which would otherwise decide the median. The last
  // load is mined.
  std::vector<double> setup_s;
  mining::TransactionDb db = mining::read_fimi_file(fimi);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const PinCpu pin(rep);
    db = mining::TransactionDb();
    const std::uint64_t a = now_ns();
    db = mining::read_fimi_file(fimi);
    const std::uint64_t b = now_ns();
    spans.record("fimi.load", a, b);
    setup_s.push_back((b - a) / 1e9);
  }
  if (db.total_items() != occurrences) {
    throw std::runtime_error("FIMI round trip lost occurrences");
  }

  // `batmap_cli pairs` defaults (native backend, tile 2048, minsup 2,
  // automatic shards), one thread per core.
  core::PairMinerOptions opt;
  opt.minsup = 2;
  opt.backend = core::Backend::kNative;
  opt.tile = 2048;
  opt.threads = ctx.nproc;
  opt.shards = 0;

  // The first mine is not timed (allocations and page faults settle). Its
  // peak RSS, sampled every millisecond, is the memory metric: one mine over
  // the loaded instance, as a single `batmap_cli pairs` run would see it.
  // Later mines reuse freed memory unevenly across the threads' malloc
  // arenas, so their peaks drift.
  double peak_rss = self_rss_mib();
  std::atomic<bool> mining_done{false};
  std::thread sampler([&] {
    while (!mining_done.load(std::memory_order_relaxed)) {
      peak_rss = std::max(peak_rss, self_rss_mib());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const MinePass warmup = mine_for(db, opt, want, 0, no_spans);
  mining_done.store(true, std::memory_order_relaxed);
  sampler.join();
  const MinePass untraced = mine_for(db, opt, want, ctx.seconds, no_spans);
  MinePass traced;
  if (ctx.trace) traced = mine_for(db, opt, want, ctx.seconds, spans);
  out.attempted = untraced.mines + traced.mines;
  out.failed = 0;
  const std::uint64_t bad = warmup.bad + untraced.bad + traced.bad;
  if (bad != 0) out.correct = false;
  std::printf("# check: %" PRIu64 " mines, total_support and %d sampled pair "
              "supports vs the oracle, %" PRIu64 " mismatching mines\n",
              warmup.mines + out.attempted, kSamplePairs, bad);

  const double pairs = static_cast<double>(kItems) * (kItems - 1) / 2;
  const auto e2e = [&](const MinePass& p, Report& r) {
    // Times of the mines, least-stolen first: every one during which the
    // hypervisor took at most kStealShare of the CPUs, but at least half of
    // them (and three), so a noisy host still leaves enough mines.
    std::vector<std::size_t> order(p.wall_s.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return p.steal_share[a] < p.steal_share[b];
    });
    const std::size_t keep_min =
        std::min(order.size(), std::max<std::size_t>(3, order.size() / 2));
    std::vector<double> clean;
    for (const std::size_t i : order) {
      if (clean.size() >= keep_min && p.steal_share[i] > kStealShare) break;
      clean.push_back(p.wall_s[i]);
    }
    const double mine_s = median(clean);
    std::uint64_t within = 0;
    for (const double w : p.wall_s) within += w <= kMineLimitS;
    r.set("setup_s", median(setup_s), "s");
    r.set("max_qps", ratio(pairs, mine_s), "1/s");
    r.set("p50_us", mine_s * 1e6, "us");
    // Too few mines for a p99: the upper quartile of the mine times.
    std::vector<std::uint64_t> ns;
    for (const double w : clean) ns.push_back(static_cast<std::uint64_t>(w * 1e9));
    r.set("p99_us", percentile(ns, 0.75) / 1e3, "us");
    r.set("slo_ratio", ratio(within, p.mines), "1");
    r.set("ok_ratio", ratio(p.mines - p.bad, p.mines), "1");
    r.set("index_bytes_per_elem",
          ratio(static_cast<double>(p.batmap_bytes),
                static_cast<double>(occurrences)),
          "B");
    r.set("peak_rss_mib", peak_rss, "MiB");
  };
  e2e(untraced, out.e2e);
  std::printf("# e2e mine_s %.6g s (%" PRIu64 " mines, host steal per mine:",
              out.e2e.get("p50_us") / 1e6, untraced.mines);
  for (const double st : untraced.steal_share) std::printf(" %.1f%%", 100 * st);
  std::printf("; wall s:");
  for (const double w : untraced.wall_s) std::printf(" %.3f", w);
  std::printf(")\n");
  std::printf("# e2e fail_ratio 0 1 (0 of %" PRIu64 ")\n", untraced.mines);
  if (!ctx.trace) return out;

  Report& L = out.layers;
  for (const auto& [name, unit] : layer_metrics()) L.set(name, 0, unit);
  L.set("batmap.build_s", median(traced.pre_s), "s");
  L.set("batmap.failures", static_cast<double>(traced.failures), "count");
  L.set("batmap.bytes", static_cast<double>(traced.batmap_bytes), "B");
  L.set("core.sweep_s", median(traced.sweep_s), "s");
  L.set("core.sweep_gbps", median(traced.gbps), "GB/s");
  L.set("core.post_s", median(traced.post_s), "s");
  L.set("core.tiles", static_cast<double>(traced.tiles), "count");
  L.set("core.tiles_stolen", static_cast<double>(traced.tiles_stolen), "count");
  Report traced_e2e;
  e2e(traced, traced_e2e);
  L.set("trace.overhead.p50_us",
        traced_e2e.get("p50_us") - out.e2e.get("p50_us"), "us");
  L.set("trace.overhead.p99_us",
        traced_e2e.get("p99_us") - out.e2e.get("p99_us"), "us");
  const std::string path = ctx.trace_dir + "/" + ctx.workload + "-seed" +
                           std::to_string(ctx.seed) + ".tsv";
  if (tracer.write(path)) {
    std::printf("# spans: %" PRIu64 " written to %s\n", tracer.span_count(),
                path.c_str());
  }
  return out;
}

}  // namespace perfbench
