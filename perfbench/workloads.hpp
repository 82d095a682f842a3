#pragma once
// The benchmark's named workloads. The untraced run times set-up (batch jobs
// plus a served server's start and loads) and fills the rest of its time
// with batch passes (Pipeline::run jobs); the traced run replays one batch
// pass stage by stage, then sends the served traffic and its rate ramp:
//
//   congested  Table-2 presets through dgr, cugr2-lite and partitioned with
//              maze refine: the maze layer does most of the work.
//   clean      Table-3 presets through dgr (and cugr2-lite on two of them),
//              no maze refine: DGR training dominates; the maze layer idles.

#include <optional>
#include <string>
#include <vector>

#include "batch.hpp"
#include "common.hpp"
#include "serve_load.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<JobSpec> batch;
};

const std::vector<std::string>& workload_names();

/// The named workload with its inputs drawn from `seed`; nullopt for an
/// unknown name.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed);

struct RunResult {
  MetricSet metrics;
  OpCount ops;
};

/// Untraced run: the end-to-end metrics.
RunResult run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                       const ThreadBudget& threads);

/// Traced run: the per-layer metrics.
RunResult run_traced(const Workload& w, std::uint64_t seed, double seconds,
                     const ThreadBudget& threads);

}  // namespace perfbench
