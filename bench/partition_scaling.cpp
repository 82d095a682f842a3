// Partition-parallel scaling harness: worker x partition sweep on the
// Table 3 ispd18-like series.
//
// For each design, routes a sequential baseline (the region router on the
// whole grid) and then the "partitioned" engine at every combination of
// worker count {1,2,4} and partition count {2,4}. Reports route-stage
// speedup vs the sequential baseline and the eval-cost quality delta
// (wirelength + bend/via proxy + overflow penalty), and emits
// BENCH_partition.json via the dgr-bench-v1 emitter.
//
// The partitioned runs are bitwise deterministic per partition count, so
// the worker axis changes wall time only — quality deltas are a function
// of the partition count alone (the harness checks this).
//
// Acceptance (ISSUE 10): route-stage speedup >= 1.5x at 4 workers / 4
// partitions with an eval-cost delta within 2% of sequential.
//
// The route-only baseline flatters the partitioned engine, whose reconcile
// runs a maze-refine pass. So each design also gets an end-to-end baseline,
// the region router plus the pipeline's maze-refine stage (`w1p1+maze`).
// Every partitioned row reports its end-to-end speedup and cost delta
// against that baseline (informational; not part of the pass gate).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

constexpr const char* kRegionRouter = "cugr2-lite";

/// Scalar quality figure: wirelength plus the bend-based via proxy and a
/// stiff overflow penalty, mirroring the weighted objective the routers
/// optimise. Lower is better.
double eval_cost(const dgr::eval::Metrics& m) {
  return static_cast<double>(m.wirelength) + 0.5 * static_cast<double>(m.bends) +
         50.0 * m.total_overflow;
}

struct RunPoint {
  double route_seconds = 0.0;
  double e2e_seconds = 0.0;  ///< route_total + maze_refine (baseline only)
  double cost = 0.0;
  dgr::eval::Metrics metrics;
};

}  // namespace

int main() {
  using namespace dgr;
  bench::begin_bench("Partition-parallel scaling",
                     "ISSUE 10 — dgr::partition worker x partition sweep, "
                     "Table 3 ispd18-like series");

  obs::BenchEmitter emitter = bench::make_emitter(
      "partition", "dgr::partition scaling sweep on the Table 3 ispd18-like series");
  emitter.set_config("region_router", kRegionRouter);

  // The middle of the Table 3 ladder: big enough that full-grid maze
  // escapes dominate the sequential route, small enough for CI.
  auto presets = design::table3_presets(bench::bench_scale());
  presets.erase(presets.begin(), presets.begin() + 3);  // keep test4..test7
  presets.resize(4);
  for (auto& p : presets) {
    p.hotspot_affinity = std::min(0.85, p.hotspot_affinity + 0.30);
  }

  const std::size_t workers[] = {1, 2, 4};
  const int partitions[] = {2, 4};

  eval::TablePrinter table(
      {"benchmark", "workers", "parts", "route_s", "speedup", "cost delta"});

  double speedup_4w4p_sum = 0.0;  // log-space for the geometric mean
  double e2e_speedup_4w4p_sum = 0.0;
  double worst_e2e_delta_4w4p = 0.0;
  double worst_delta_4w4p = 0.0;
  int anchor_rows = 0;
  bool worker_invariant = true;

  for (const auto& preset : presets) {
    const design::Design d = design::generate_ispd_like(preset, /*seed=*/1818);

    // Sequential baseline: the region router on the whole grid, one worker.
    util::set_worker_count(1);
    RunPoint seq;
    {
      pipeline::RoutingContext ctx(d);
      pipeline::Pipeline pipe(ctx);
      const pipeline::PipelineResult r =
          pipe.run(kRegionRouter, {}, pipeline::StagePlan{.layer_assign = false});
      seq.route_seconds = r.stats.stage_seconds("route_total");
      seq.metrics = r.metrics;
      seq.cost = eval_cost(r.metrics);
    }
    table.add_row({preset.name, "1", "1", eval::fmt_double(seq.route_seconds, 3),
                   "1.00x", "0.00%"});
    emitter.add_row(preset.name + "/w1p1")
        .metric("workers", 1.0)
        .metric("partitions", 1.0)
        .metric("route_seconds", seq.route_seconds)
        .metric("speedup_vs_seq", 1.0)
        .metric("eval_cost", seq.cost)
        .metric("eval_cost_delta_pct", 0.0)
        .metric("wirelength", static_cast<double>(seq.metrics.wirelength))
        .metric("total_overflow", seq.metrics.total_overflow)
        .note("role", "sequential baseline");

    // End-to-end baseline: the same router followed by maze refinement.
    RunPoint seq_maze;
    {
      pipeline::RoutingContext ctx(d);
      pipeline::Pipeline pipe(ctx);
      const pipeline::PipelineResult r = pipe.run(
          kRegionRouter, {},
          pipeline::StagePlan{.maze_refine = true, .layer_assign = false});
      seq_maze.route_seconds = r.stats.stage_seconds("route_total");
      seq_maze.e2e_seconds = seq_maze.route_seconds + r.stats.stage_seconds("maze_refine");
      seq_maze.metrics = r.metrics;
      seq_maze.cost = eval_cost(r.metrics);
    }
    emitter.add_row(preset.name + "/w1p1+maze")
        .metric("workers", 1.0)
        .metric("partitions", 1.0)
        .metric("route_seconds", seq_maze.route_seconds)
        .metric("e2e_seconds", seq_maze.e2e_seconds)
        .metric("eval_cost", seq_maze.cost)
        .metric("wirelength", static_cast<double>(seq_maze.metrics.wirelength))
        .metric("total_overflow", seq_maze.metrics.total_overflow)
        .note("role", "sequential route + maze refine (end-to-end baseline)");

    // Quality per partition count must not depend on the worker count
    // (bitwise determinism); remember the first observation to check.
    double cost_at_parts[2] = {-1.0, -1.0};

    for (const int p : partitions) {
      for (const std::size_t w : workers) {
        util::set_worker_count(w);
        pipeline::RoutingContext ctx(d);
        pipeline::Pipeline pipe(ctx);
        pipeline::RouterOptions options;
        options.partition.partitions = p;
        options.partition.region_router = kRegionRouter;
        const pipeline::PipelineResult r = pipe.run(
            "partitioned", options, pipeline::StagePlan{.layer_assign = false});

        RunPoint pt;
        pt.route_seconds = r.stats.stage_seconds("route_total");
        pt.metrics = r.metrics;
        pt.cost = eval_cost(r.metrics);

        const double speedup =
            pt.route_seconds > 0.0 ? seq.route_seconds / pt.route_seconds : 0.0;
        const double delta_pct =
            seq.cost > 0.0 ? (pt.cost - seq.cost) / seq.cost * 100.0 : 0.0;
        // The partitioned route already ends in its maze-refine reconcile,
        // so its route_total is its end-to-end time.
        const double e2e_speedup =
            pt.route_seconds > 0.0 ? seq_maze.e2e_seconds / pt.route_seconds : 0.0;
        const double e2e_delta_pct =
            seq_maze.cost > 0.0 ? (pt.cost - seq_maze.cost) / seq_maze.cost * 100.0 : 0.0;

        const int pi = p == 2 ? 0 : 1;
        if (cost_at_parts[pi] < 0.0) {
          cost_at_parts[pi] = pt.cost;
        } else if (pt.cost != cost_at_parts[pi]) {
          worker_invariant = false;
        }

        if (p == 4 && w == 4) {
          speedup_4w4p_sum += std::log(std::max(speedup, 1e-9));
          // The ceiling bounds *degradation* only — the partitioned engine
          // routinely lands below the sequential cost (its reconcile pass
          // doubles as a refinement round) and that is not a failure.
          worst_delta_4w4p = std::max(worst_delta_4w4p, delta_pct);
          e2e_speedup_4w4p_sum += std::log(std::max(e2e_speedup, 1e-9));
          worst_e2e_delta_4w4p = anchor_rows == 0 ? e2e_delta_pct
                                                  : std::max(worst_e2e_delta_4w4p, e2e_delta_pct);
          ++anchor_rows;
        }

        char speedup_s[32], delta_s[32];
        std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", speedup);
        std::snprintf(delta_s, sizeof(delta_s), "%+.2f%%", delta_pct);
        table.add_row({preset.name, std::to_string(w), std::to_string(p),
                       eval::fmt_double(pt.route_seconds, 3), speedup_s, delta_s});

        char row_name[96];
        std::snprintf(row_name, sizeof(row_name), "%s/w%zup%d", preset.name.c_str(),
                      w, p);
        emitter.add_row(row_name)
            .metric("workers", static_cast<double>(w))
            .metric("partitions", static_cast<double>(p))
            .metric("route_seconds", pt.route_seconds)
            .metric("speedup_vs_seq", speedup)
            .metric("eval_cost", pt.cost)
            .metric("eval_cost_delta_pct", delta_pct)
            .metric("wirelength", static_cast<double>(pt.metrics.wirelength))
            .metric("wirelength_delta_pct",
                    seq.metrics.wirelength > 0
                        ? (static_cast<double>(pt.metrics.wirelength) -
                           static_cast<double>(seq.metrics.wirelength)) /
                              static_cast<double>(seq.metrics.wirelength) * 100.0
                        : 0.0)
            .metric("total_overflow", pt.metrics.total_overflow)
            .metric("e2e_speedup_vs_seq_maze", e2e_speedup)
            .metric("eval_cost_delta_vs_seq_maze_pct", e2e_delta_pct)
            .stage("route_total", pt.route_seconds);
      }
    }
  }
  util::set_worker_count(0);  // restore the hardware default

  const double geomean_speedup =
      anchor_rows > 0 ? std::exp(speedup_4w4p_sum / anchor_rows) : 0.0;
  emitter.summary("speedup_geomean_4w4p", geomean_speedup);
  emitter.summary("max_cost_degradation_pct_4w4p", worst_delta_4w4p);
  emitter.summary("worker_invariant_quality", worker_invariant ? 1.0 : 0.0);
  const double e2e_geomean_speedup =
      anchor_rows > 0 ? std::exp(e2e_speedup_4w4p_sum / anchor_rows) : 0.0;
  emitter.summary("e2e_speedup_geomean_4w4p_vs_seq_maze", e2e_geomean_speedup);
  emitter.summary("max_cost_delta_pct_4w4p_vs_seq_maze", worst_e2e_delta_4w4p);
  if (!emitter.write()) {
    std::fprintf(stderr, "failed to write %s\n", emitter.default_path().c_str());
    return 1;
  }

  table.print(std::cout);
  std::printf(
      "\n4w/4p geomean speedup: %.2fx (floor 1.5x)  |  max cost degradation: "
      "%.2f%% (ceiling 2%%)  |  worker-invariant quality: %s\n"
      "end to end vs route + maze refine: 4w/4p geomean speedup %.2fx, worst cost "
      "delta %+.2f%%\n",
      geomean_speedup, worst_delta_4w4p, worker_invariant ? "yes" : "NO",
      e2e_geomean_speedup, worst_e2e_delta_4w4p);

  const bool pass =
      geomean_speedup >= 1.5 && worst_delta_4w4p <= 2.0 && worker_invariant;
  return pass ? 0 : 2;
}
