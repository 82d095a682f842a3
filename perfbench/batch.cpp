#include "batch.hpp"

#include <algorithm>
#include <optional>
#include <random>
#include <sstream>
#include <utility>

#include "core/solver.hpp"
#include "dag/forest.hpp"
#include "design/io.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/validate.hpp"
#include "post/layer_assign.hpp"
#include "post/maze_refine.hpp"

namespace perfbench {

namespace pl = dgr::pipeline;
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::string job_label(const JobSpec& spec) {
  return spec.preset.name + "/" + spec.router;
}

/// The solution must be legal, pin-connected and match the context's live
/// demand. Returns the failure, or nullopt.
std::optional<std::string> check_solution(const pl::RoutingContext& ctx,
                                          const dgr::eval::RouteSolution& sol) {
  const pl::ValidationReport report = pl::validate_solution(ctx, sol);
  if (!report.broken_nets.empty()) {
    return std::to_string(report.broken_nets.size()) + " broken nets";
  }
  if (!report.demand_consistent) {
    return "demand inconsistent (max error " + std::to_string(report.max_demand_error) + ")";
  }
  return std::nullopt;
}

/// Every per-layer metric the traced batch pass can report, at zero, so a
/// workload whose jobs never reach a layer still lists it.
void declare_batch_layers(MetricSet& layers) {
  for (const char* name :
       {"post.maze_refine_s", "routers.route_s.cugr2-lite", "dag.forest_s", "core.solver_init_s",
        "core.train_s", "core.extract_s", "partition.route_s", "pipeline.resync_s",
        "pipeline.validate_s", "post.layer_assign_s", "eval.evaluate_s", "design.generate_s",
        "design.io_s"}) {
    layers.add(name, 0.0, "s");
  }
  for (const char* name : {"post.maze_refine.rerouted", "post.maze_refine.improved",
                           "dag.path_candidates", "partition.regions", "pipeline.repaired_nets"}) {
    layers.add(name, 0.0, "count");
  }
  layers.add("post.maze_refine.accept_ratio", 0.0, "ratio");
  layers.add("core.iter_us", 0.0, "us");
  layers.add("dag.forest_mb", 0.0, "MiB");
  layers.add("core.tape_mb", 0.0, "MiB");
}

}  // namespace

dgr::design::Design make_variant(const dgr::design::Design& base, std::uint64_t variant_seed) {
  const bool mirror_x = (variant_seed & 1u) != 0;
  const bool mirror_y = (variant_seed & 2u) != 0;
  const int w = base.grid().width();
  const int h = base.grid().height();
  std::vector<dgr::design::Net> nets = base.nets();
  for (dgr::design::Net& net : nets) {
    for (dgr::geom::Point& p : net.pins) {
      if (mirror_x) p.x = static_cast<dgr::geom::Coord>(w - 1 - p.x);
      if (mirror_y) p.y = static_cast<dgr::geom::Coord>(h - 1 - p.y);
    }
  }
  std::mt19937_64 rng(mix_seed(variant_seed, 7));
  std::shuffle(nets.begin(), nets.end(), rng);
  return dgr::design::Design(base.name(), base.grid(), std::move(nets));
}

PreparedJob prepare_job(const JobSpec& spec, OpCount& ops) {
  PreparedJob job;
  Clock::time_point t = Clock::now();
  const dgr::design::Design generated =
      dgr::design::generate_ispd_like(spec.preset, spec.instance_seed);
  job.generate_s = seconds_since(t);
  const dgr::design::Design variant = make_variant(generated, spec.variant_seed);

  t = Clock::now();
  std::ostringstream os;
  dgr::design::write_design(os, variant);
  std::istringstream is(os.str());
  dgr::Result<dgr::design::Design> parsed = dgr::design::try_read_design(is);
  job.io_s = seconds_since(t);
  if (!parsed.ok()) {
    ops.fail(job_label(spec) + ": .dgrd round trip failed: " + parsed.status().to_string());
    return job;
  }
  job.design = std::make_unique<dgr::design::Design>(parsed.take());
  if (job.design->net_count() != variant.net_count()) {
    ops.fail(job_label(spec) + ": .dgrd round trip changed the net count");
    job.design.reset();
    return job;
  }

  t = Clock::now();
  pl::ContextOptions copts;
  copts.seed = context_seed(spec.variant_seed);
  job.ctx = std::make_unique<pl::RoutingContext>(*job.design, copts);
  job.context_s = seconds_since(t);
  return job;
}

PassResult run_pass(const std::vector<JobSpec>& jobs) {
  PassResult pass;
  for (const JobSpec& spec : jobs) {
    PreparedJob job = prepare_job(spec, pass.ops);
    pass.setup_s += job.setup_s();
    if (job.ctx == nullptr) {
      pass.per_job.emplace_back();
      continue;
    }
    pl::Pipeline pipe(*job.ctx);
    const Clock::time_point t = Clock::now();
    const pl::PipelineResult r = pipe.run(spec.router, spec.options, spec.plan);
    pass.pipeline_s += seconds_since(t);

    const Quality q{r.metrics.total_overflow, r.metrics.overflow_edges, r.metrics.wirelength,
                    r.layers.via_count};
    pass.per_job.push_back(q);
    pass.quality += q;
    if (!r.stats.status.ok()) {
      pass.ops.fail(job_label(spec) + ": status " + r.stats.status.to_string());
    } else if (r.stats.degraded) {
      pass.ops.fail(job_label(spec) + ": degraded run");
    } else if (const auto err = check_solution(*job.ctx, r.solution)) {
      pass.ops.fail(job_label(spec) + ": " + *err);
    } else {
      pass.ops.ok();
    }
  }
  return pass;
}

TracedPass run_traced_pass(const std::vector<JobSpec>& jobs, MetricSet& layers) {
  declare_batch_layers(layers);
  TracedPass pass;
  std::int64_t iterations = 0;
  std::int64_t rerouted = 0;
  std::int64_t improved = 0;
  const pl::PipelineOptions popts;  // the options Pipeline::run uses by default

  for (const JobSpec& spec : jobs) {
    PreparedJob job = prepare_job(spec, pass.ops);
    layers.add("design.generate_s", job.generate_s, "s");
    layers.add("design.io_s", job.io_s, "s");
    if (job.ctx == nullptr) {
      pass.per_job.emplace_back();
      continue;
    }
    pl::RoutingContext& ctx = *job.ctx;
    double spans = 0.0;
    const auto span = [&](const std::string& name, auto&& fn) {
      const Clock::time_point t = Clock::now();
      fn();
      const double dt = seconds_since(t);
      layers.add(name, dt, "s");
      spans += dt;
    };

    const Clock::time_point job_start = Clock::now();
    ctx.clear_warm_start();
    dgr::eval::RouteSolution sol;
    dgr::Status status;
    bool degraded = false;

    // ---- route: what the router adapter does, call by call ----------------
    if (spec.router == "dgr") {
      dgr::dag::ForestOptions fopts = spec.options.forest;
      fopts.via_demand_beta = ctx.via_beta();
      const dgr::dag::DagForest* forest = nullptr;
      span("dag.forest_s", [&] { forest = &ctx.forest(fopts); });
      layers.add("dag.path_candidates", static_cast<double>(forest->paths().size()), "count");
      layers.add("dag.forest_mb", static_cast<double>(forest->memory_bytes()) / kMiB, "MiB");

      dgr::core::DgrConfig config = spec.options.dgr;
      config.cancel_flag = ctx.cancel_flag();
      std::optional<dgr::core::DgrSolver> solver;
      span("core.solver_init_s", [&] { solver.emplace(*forest, ctx.capacities(), config); });
      dgr::core::TrainStats train;
      span("core.train_s", [&] { train = solver->train(); });
      span("core.extract_s", [&] { sol = solver->extract(); });
      iterations += train.iterations_run;
      layers.add("core.tape_mb", static_cast<double>(train.tape_bytes) / kMiB, "MiB");
      status = train.status;
      span("pipeline.resync_s", [&] {
        ctx.reset_demand();
        ctx.commit(sol);
      });
    } else {
      const std::unique_ptr<pl::Router> router = pl::make_router(spec.router, spec.options);
      if (router == nullptr) {
        pass.ops.fail(job_label(spec) + ": router not registered");
        pass.per_job.emplace_back();
        continue;
      }
      const std::string name =
          spec.router == "partitioned" ? "partition.route_s" : "routers.route_s." + spec.router;
      span(name, [&] { sol = router->route(ctx); });
      status = router->stats().status;
      degraded = router->stats().degraded;
      if (spec.router == "partitioned") {
        layers.add("partition.regions", router->stats().counter("partitions"), "count");
      }
    }

    // ---- post-route stages, in Pipeline::run_stages order -----------------
    if (spec.plan.maze_refine) {
      dgr::post::MazeRefineOptions refine = popts.refine;
      refine.via_beta = ctx.via_beta();
      dgr::post::MazeRefineStats rs;
      span("post.maze_refine_s",
           [&] { rs = dgr::post::maze_refine(sol, ctx.capacities(), refine); });
      rerouted += rs.nets_rerouted;
      improved += rs.nets_improved;
      span("pipeline.resync_s", [&] {
        ctx.reset_demand();
        ctx.commit(sol);
      });
    }
    std::int64_t repaired = 0;
    span("pipeline.validate_s", [&] {
      pl::ValidationReport report = pl::validate_solution(ctx, sol);
      if (!report.demand_consistent) {
        ctx.reset_demand();
        ctx.commit(sol);
      }
      if (!report.broken_nets.empty()) {
        dgr::post::MazeRefineOptions ropts = popts.refine;
        ropts.via_beta = ctx.via_beta();
        repaired = pl::repair_broken_nets(ctx, sol, report.broken_nets, ropts);
      }
    });
    layers.add("pipeline.repaired_nets", static_cast<double>(repaired), "count");
    dgr::post::LayerAssignment assignment;
    if (spec.plan.layer_assign) {
      span("post.layer_assign_s",
           [&] { assignment = dgr::post::assign_layers(sol, ctx.capacities(), popts.layers); });
    }
    dgr::eval::Metrics metrics;
    span("eval.evaluate_s", [&] {
      metrics = ctx.evaluate(sol);
      (void)ctx.weighted_overflow(sol);
      (void)ctx.nets_with_overflow(sol);
    });
    const double wall = seconds_since(job_start);
    pass.wall_s += wall;
    pass.span_s += spans;

    pass.per_job.push_back(Quality{metrics.total_overflow, metrics.overflow_edges,
                                   metrics.wirelength, assignment.via_count});
    if (spans > wall) {
      pass.ops.fail(job_label(spec) + ": traced spans exceed the job's wall time");
    } else if (!status.ok()) {
      pass.ops.fail(job_label(spec) + ": traced status " + status.to_string());
    } else if (degraded) {
      pass.ops.fail(job_label(spec) + ": traced run degraded");
    } else if (const auto err = check_solution(ctx, sol)) {
      pass.ops.fail(job_label(spec) + ": traced " + *err);
    } else {
      pass.ops.ok();
    }
  }

  layers.set("post.maze_refine.rerouted", static_cast<double>(rerouted), "count");
  layers.set("post.maze_refine.improved", static_cast<double>(improved), "count");
  layers.set("post.maze_refine.accept_ratio",
             rerouted > 0 ? static_cast<double>(improved) / static_cast<double>(rerouted) : 0.0,
             "ratio");
  layers.set("core.iter_us",
             iterations > 0 ? 1e6 * layers.get("core.train_s") / static_cast<double>(iterations)
                            : 0.0,
             "us");
  return pass;
}

}  // namespace perfbench
