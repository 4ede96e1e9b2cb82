// perfbench_driver — the repository's benchmark. Runs one workload, checks
// every answer, and prints the run record ("# ..." lines), then the result
// as one JSON line: end-to-end metrics, or with --trace 1 the per-layer
// metrics. Normally started through perfbench/run.py, which builds it.
//
//   perfbench_driver --workload mine-dense|serve-read|serve-write|router-2shard
//                    --seed N --seconds S --trace 0|1 --out-dir DIR [--rev R]
//
// Exit codes: 0 result printed; 1 a correctness mismatch (result printed
// with "correct": false) or a failed run; 2 bad arguments; 3 the open-loop
// generator fell behind (run invalid, nothing reported).
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "batmap/simd.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"batmap.build_s", "s"},
        {"batmap.failures", "count"},
        {"batmap.bytes", "B"},
        {"core.sweep_s", "s"},
        {"core.sweep_gbps", "GB/s"},
        {"core.post_s", "s"},
        {"core.tiles", "count"},
        {"core.tiles_stolen", "count"},
        {"service.snapshot.write_s", "s"},
        {"service.snapshot.open_s", "s"},
        {"service.snapshot.rows_batmap", "count"},
        {"service.snapshot.rows_dense", "count"},
        {"service.snapshot.rows_list", "count"},
        {"service.snapshot.rows_wah", "count"},
    };
    for (const char* k : {"I", "S", "T", "K", "R"}) {
      const std::string K(k);
      v.push_back({"service.engine.serve_us." + K + ".p50", "us"});
      v.push_back({"service.engine.serve_us." + K + ".p99", "us"});
      v.push_back({"service.engine.exec_us." + K + ".p50", "us"});
      v.push_back({"service.engine.exec_us." + K + ".p99", "us"});
      v.push_back({"service.engine.queue_us." + K + ".p50", "us"});
    }
    for (const char* m : {"batch_mean", "cache_hit_ratio", "strip_share",
                          "dup_share", "kway_sweep_share", "topk_sweeps"}) {
      v.push_back({std::string("service.engine.") + m, "1"});
    }
    v.push_back({"service.engine.max_batch", "count"});
    for (const char* k : {"I", "S", "T", "K", "R", "A", "D"}) {
      v.push_back({std::string("batmap_serve.rtt_us.") + k + ".p50", "us"});
      v.push_back({std::string("batmap_serve.rtt_us.") + k + ".p99", "us"});
    }
    v.push_back({"batmap_serve.self_us", "us"});
    for (const char* k : {"A", "D"}) {
      v.push_back({std::string("service.delta.ack_us.") + k + ".p50", "us"});
      v.push_back({std::string("service.delta.ack_us.") + k + ".p99", "us"});
    }
    v.push_back({"service.delta.flush_s", "s"});
    v.push_back({"service.delta.compactions", "count"});
    v.push_back({"service.delta.shed", "count"});
    v.push_back({"service.delta.pending_peak", "count"});
    for (const char* k : {"I", "S", "T", "K", "R"}) {
      v.push_back({std::string("router.exec_us.") + k + ".p50", "us"});
      v.push_back({std::string("router.exec_us.") + k + ".p99", "us"});
    }
    for (const char* e : {"BADREQ", "UNAVAILABLE", "OVERLOAD"}) {
      v.push_back({std::string("router.fail.") + e, "1"});
    }
    for (const char* m : {"direct_share", "forwards_per_query",
                          "scatter_per_query", "fanout_1", "fanout_2",
                          "shard_batch_mean"}) {
      v.push_back({std::string("router.") + m, "1"});
    }
    v.push_back({"trace.overhead.p50_us", "us"});
    v.push_back({"trace.overhead.p99_us", "us"});
    return v;
  }();
  return list;
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "mine-dense|serve-read|serve-write|router-2shard --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--rev R]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  std::string out_dir, rev = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      ctx.workload = v;
    } else if (k == "--seed") {
      ctx.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return usage();
    } else if (k == "--seconds") {
      ctx.seconds = std::strtod(v.c_str(), &end);
      if (*end || ctx.seconds <= 0) return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      ctx.trace = v == "1";
    } else if (k == "--out-dir") {
      out_dir = v;
    } else if (k == "--rev") {
      rev = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || out_dir.empty()) return usage();
  const bool mining = ctx.workload == "mine-dense";
  if (!mining && ctx.workload != "serve-read" && ctx.workload != "serve-write" &&
      ctx.workload != "router-2shard") {
    return usage();
  }
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.cli_bin = BATMAP_CLI_PATH;
  ctx.serve_bin = BATMAP_SERVE_PATH;
  ctx.router_bin = BATMAP_ROUTER_PATH;
  ctx.run_dir = out_dir + "/runs/" + ctx.workload + "-" +
                std::to_string(ctx.seed) + "-" + std::to_string(::getpid());
  ctx.trace_dir = out_dir + "/traces";
  std::filesystem::create_directories(ctx.run_dir);
  std::filesystem::create_directories(ctx.trace_dir);

  std::printf("# record workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "nproc=%u simd=%s compiler=\"%s\" rev=%s\n",
              ctx.workload.c_str(), ctx.seed, ctx.seconds, ctx.trace ? 1 : 0,
              ctx.nproc,
              repro::batmap::simd::tier_name(repro::batmap::simd::active_tier()),
              __VERSION__, rev.c_str());
  std::fflush(stdout);

  Outcome out;
  int rc = 0;
  const std::uint64_t steal0 = host_steal_ticks(), wall0 = now_ns();
  try {
    out = mining ? run_mining(ctx) : run_serving(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", ctx.workload.c_str(),
                 e.what());
    rc = 1;
  }
  // Time the host took from this guest's CPUs during the run: the main
  // source of run-to-run noise on a shared virtual machine.
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::printf("# host steal: %.1f%% of %u CPUs over the run\n",
              100.0 * static_cast<double>(host_steal_ticks() - steal0) / ticks /
                  ((now_ns() - wall0) / 1e9 * ctx.nproc),
              ctx.nproc);
  std::error_code ec;
  std::filesystem::remove_all(ctx.run_dir, ec);
  if (rc != 0) return rc;
  if (!out.valid) {
    std::fprintf(stderr, "perfbench: run invalid: the open-loop generator "
                         "fell behind its schedule\n");
    return 3;
  }
  out.e2e.print_lines("# metric");
  if (ctx.trace) out.layers.print_lines("# layer");
  (ctx.trace ? out.layers : out.e2e).print_json(out.correct, out.attempted,
                                                out.failed);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
