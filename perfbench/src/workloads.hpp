// The perfbench workloads. Each run measures end-to-end metrics (untraced)
// or, in trace mode, additionally records spans around the benchmark's
// calls into each layer and derives the per-layer metrics from them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;    ///< scratch files of this run (removed at exit)
  std::string trace_dir;  ///< where the span file is written
  std::string cli_bin, serve_bin, router_bin;
  unsigned nproc = 1;
};

struct Outcome {
  bool correct = true;
  bool valid = true;          ///< false: the load generator fell behind
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report e2e;                 ///< end-to-end metrics
  Report layers;              ///< per-layer metrics (trace mode)
};

/// serve-read, serve-write and router-2shard.
Outcome run_serving(const RunContext& ctx);
/// mine-dense.
Outcome run_mining(const RunContext& ctx);

/// Every per-layer metric name with its unit, in report order. Workloads
/// report 0 for layers they do not exercise.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
