#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "stats.hpp"
#include "util/memprobe.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Jobs of every `router` over every preset; all routers of one preset see
/// the same design variant.
std::vector<JobSpec> preset_jobs(const std::vector<dgr::design::IspdLikeParams>& presets,
                                 const std::vector<std::string>& routers,
                                 const dgr::pipeline::StagePlan& plan, std::uint64_t seed) {
  std::vector<JobSpec> jobs;
  for (std::size_t p = 0; p < presets.size(); ++p) {
    for (const std::string& router : routers) {
      JobSpec job;
      job.preset = presets[p];
      job.instance_seed = 1;
      job.variant_seed = mix_seed(seed, p);
      job.router = router;
      job.options.dgr.iterations = 1000;
      job.options.dgr.temperature_interval = 100;
      job.options.dgr.seed = context_seed(job.variant_seed);
      job.options.partition.partitions = 4;
      job.plan = plan;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<dgr::design::IspdLikeParams> pick(const std::vector<dgr::design::IspdLikeParams>& all,
                                              const std::vector<std::size_t>& idx) {
  std::vector<dgr::design::IspdLikeParams> out;
  for (std::size_t i : idx) out.push_back(all[i]);
  return out;
}

/// Set-up repetitions for at least `slice_s` seconds (at least one), each
/// timing every batch job's set-up plus a served server's start and loads.
void sample_setup(const std::vector<JobSpec>& jobs, const std::vector<std::string>& loads,
                  const ThreadBudget& threads, double slice_s, std::vector<double>& reps,
                  OpCount& ops) {
  const Clock::time_point start = Clock::now();
  do {
    double total = 0.0;
    for (const JobSpec& spec : jobs) total += prepare_job(spec, ops).setup_s();
    StartedServer started = start_server(loads, threads.serve_workers, ops);
    total += started.setup_s;
    started.server->shutdown(true);
    reps.push_back(total);
  } while (seconds_since(start) < slice_s);
}

/// Every pass must reproduce the first pass's per-job quality exactly.
void check_repeat(const std::vector<Quality>& first, const std::vector<Quality>& again,
                  const std::string& what, OpCount& ops) {
  for (std::size_t j = 0; j < first.size(); ++j) {
    if (j >= again.size() || !(again[j] == first[j])) {
      ops.fail(what + ": job " + std::to_string(j) + " quality differs from the first pass");
    }
  }
}

/// Per-job quality the served route responses must reproduce: an untraced
/// Pipeline::run of the same work.
std::vector<Quality> served_quality(
    const std::vector<dgr::design::IspdLikeParams>& sessions, std::uint64_t seed,
    OpCount& ops) {
  const PassResult pass = run_pass(served_jobs(sessions, seed));
  ops.merge(pass.ops);
  return pass.per_job;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"congested", "clean"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  using dgr::design::table2_presets;
  using dgr::design::table3_presets;
  Workload w;
  w.name = name;
  if (name == "congested") {
    // ispd18_5m and ispd18_10m.
    w.batch = preset_jobs(pick(table2_presets(), {0, 2}), {"dgr", "cugr2-lite", "partitioned"},
                          {.maze_refine = true, .layer_assign = true}, seed);
  } else if (name == "clean") {
    // ispd18_test4, ispd18_test7 and ispd18_test10 through dgr; cugr2-lite
    // on the first two only, so DGR training stays the largest layer.
    w.batch = preset_jobs(pick(table3_presets(), {3, 6, 9}), {"dgr"}, {}, seed);
    for (JobSpec& job : preset_jobs(pick(table3_presets(), {3, 6}), {"cugr2-lite"}, {}, seed)) {
      w.batch.push_back(std::move(job));
    }
  } else {
    return std::nullopt;
  }
  return w;
}

RunResult run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                       const ThreadBudget& threads) {
  RunResult run;
  const Clock::time_point start = Clock::now();
  dgr::util::set_worker_count(static_cast<std::size_t>(threads.pool_workers));

  // Batch passes fill the run; set-up is sampled in a short block before
  // each pass and after the last, so its median covers the whole run
  // rather than a few seconds of it.
  const std::vector<std::string> loads = load_requests(served_sessions(), seed);
  std::vector<double> setup_reps;
  std::vector<PassResult> passes;
  double longest = 0.0;
  do {
    sample_setup(w.batch, loads, threads, kSetupBlockS, setup_reps, run.ops);
    const Clock::time_point t = Clock::now();
    passes.push_back(run_pass(w.batch));
    longest = std::max(longest, seconds_since(t));
  } while (seconds_since(start) + longest + 2.0 * kSetupBlockS <= seconds);
  sample_setup(w.batch, loads, threads, kSetupBlockS, setup_reps, run.ops);
  const Quartiles setup_q = quartiles(setup_reps);
  std::fprintf(stderr, "set-up: %zu repetitions, median %.4f s, quartiles %.4f-%.4f s\n",
               setup_reps.size(), setup_q.q2, setup_q.q1, setup_q.q3);

  std::vector<double> pipeline_s;
  for (const PassResult& p : passes) {
    run.ops.merge(p.ops);
    pipeline_s.push_back(p.pipeline_s);
    check_repeat(passes.front().per_job, p.per_job, w.name + " batch", run.ops);
  }
  std::fprintf(stderr, "%s: %zu batch passes, pipeline_s per pass:", w.name.c_str(),
               passes.size());
  for (double s : pipeline_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  const Quality& q = passes.front().quality;
  MetricSet& m = run.metrics;
  m.set("setup_s", median(setup_reps), "s");
  m.set("pipeline_s", median(pipeline_s), "s");
  m.set("total_overflow", q.total_overflow, "count");
  m.set("overflow_edges", static_cast<double>(q.overflow_edges), "count");
  m.set("wirelength", static_cast<double>(q.wirelength), "count");
  m.set("vias", static_cast<double>(q.vias), "count");
  m.set("peak_rss_mb", static_cast<double>(dgr::util::peak_rss_bytes()) / kMiB, "MiB");
  m.set("ok_frac",
        run.ops.attempted > 0
            ? static_cast<double>(run.ops.attempted - run.ops.failed) /
                  static_cast<double>(run.ops.attempted)
            : 0.0,
        "ratio");
  return run;
}

RunResult run_traced(const Workload& w, std::uint64_t seed, double seconds,
                     const ThreadBudget& threads) {
  RunResult run;
  const Clock::time_point start = Clock::now();
  MetricSet& m = run.metrics;
  dgr::util::set_worker_count(static_cast<std::size_t>(threads.pool_workers));

  // Untraced then traced pass over the same jobs: the quality must agree
  // bit for bit, and the wall times give the tracing overhead.
  const PassResult untraced = run_pass(w.batch);
  run.ops.merge(untraced.ops);
  const TracedPass traced = run_traced_pass(w.batch, m);
  run.ops.merge(traced.ops);
  check_repeat(untraced.per_job, traced.per_job, w.name + " traced", run.ops);
  if (traced.span_s > traced.wall_s) {
    run.ops.fail(w.name + ": traced spans exceed the traced wall time");
  }
  m.set("obs.trace_overhead_frac", traced.wall_s / untraced.pipeline_s - 1.0, "ratio");
  m.set("unattributed_frac", (untraced.pipeline_s - traced.span_s) / untraced.pipeline_s,
        "ratio");

  // Served traffic: the route responses are checked against an untraced
  // Pipeline::run of the same work.
  const std::vector<dgr::design::IspdLikeParams> sessions = served_sessions();
  const std::vector<Quality> expected = served_quality(sessions, seed, run.ops);
  dgr::util::set_worker_count(static_cast<std::size_t>(kServePoolWorkers));
  StartedServer started =
      start_server(load_requests(sessions, seed), threads.serve_workers, run.ops);
  const ServeOutcome serve = run_traffic(*started.server, sessions.size(), seed,
                                         seconds - seconds_since(start), expected);
  run.ops.merge(serve.ops);
  std::fprintf(stderr,
               "%s: served %lld route / %lld eco samples at the fixed rate (eco share %.3f), "
               "lag p99 %.3f ms\n",
               w.name.c_str(), static_cast<long long>(serve.route_samples),
               static_cast<long long>(serve.eco_samples), serve.eco_share, serve.lag_p99_ms);

  m.set("serve.route_p50_ms", serve.route_p50_ms, "ms");
  m.set("serve.route_p95_ms", serve.route_p95_ms, "ms");
  m.set("serve.eco_p50_ms", serve.eco_p50_ms, "ms");
  m.set("serve.max_rate_rps", serve.max_rate_rps, "1/s");
  m.set("serve.load_ms", started.load_ms, "ms");
  m.set("serve.rejected", static_cast<double>(serve.rejected), "count");
  m.set("serve.queue_depth_max", serve.queue_depth_max, "count");
  m.set("serve.in_flight_max", serve.in_flight_max, "count");
  m.set("serve.ramp_steps", serve.ramp_steps, "count");
  m.set("serve.ramp_resolved", serve.ramp_resolved ? 1.0 : 0.0, "count");
  m.set("eco.dirty_fraction_mean", serve.eco_dirty_fraction_mean, "ratio");
  m.set("eco.closure_nets_mean", serve.eco_closure_nets_mean, "count");
  m.set("eco.full_reroute_frac", serve.eco_full_reroute_frac, "ratio");
  m.set("eco.latency_p90_ms", serve.eco_p90_ms, "ms");
  m.set("loadgen.lag_p99_ms", serve.lag_p99_ms, "ms");
  m.set("loadgen.eco_share", serve.eco_share, "ratio");
  m.set("host.nproc", threads.nproc, "count");
  m.set("util.pool_workers", threads.pool_workers, "count");
  m.set("serve.workers", threads.serve_workers, "count");
  m.set("host.oversubscribed", threads.oversubscribed() ? 1.0 : 0.0, "count");
  return run;
}

}  // namespace perfbench
