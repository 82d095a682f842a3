#include "serve_load.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "design/io.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using dgr::obs::json::Value;

constexpr std::uint64_t kInstanceSeed = 1;
constexpr std::size_t kQueueCapacity = 32;
/// Fixed-phase rate; the ramp starts at kRampStart times it and grows by
/// kRampFactor per step. A step must keep the route p95 within the limit.
constexpr double kFixedRateRps = 50.0;
constexpr double kRampStart = 1.8;
constexpr double kRampFactor = 1.1;
constexpr double kRouteP95LimitMs = 50.0;
constexpr std::size_t kMaxRecords = std::size_t{1} << 15;  ///< requests one run may send
constexpr int kMaxPhases = 40;           ///< phase 0 is the fixed rate, then ramp steps
/// Margin on the expected samples a reported percentile needs: route p95
/// and ECO p90 in the fixed phase, route p95 in each ramp step.
constexpr double kSampleMargin = 1.3;
constexpr double kLagBoundMs = 10.0;     ///< generator lag p99 beyond this invalidates the run
constexpr double kDrainTimeoutS = 20.0;  ///< a phase must be answered within this
constexpr double kStatsPollS = 0.05;
constexpr double kStatsSlackS = 0.02;

enum class Kind : int { kRoute, kEco };

struct Record {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  Kind kind = Kind::kRoute;
  int session = 0;
  int router = 0;
  int phase = 0;
  std::uint64_t eco_seed = 0;
  std::string response;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1000.0 * seconds_between(a, b);
}

std::string request_id(std::size_t index) {
  std::string id = "q";
  id += std::to_string(index);
  return id;
}

std::string request_line(const Record& r, std::size_t index) {
  const std::string head = "{\"id\":\"" + request_id(index) + "\",\"op\":";
  const std::string session = "\"session\":\"s" + std::to_string(r.session) + "\"";
  if (r.kind == Kind::kEco) {
    return head + "\"eco\"," + session + ",\"mutation\":{\"generate\":true,\"seed\":" +
           std::to_string(r.eco_seed) + "}}";
  }
  return head + "\"route\"," + session + ",\"router\":\"" + kServedRouters[r.router] +
         "\",\"keep\":false}";
}

/// What the checks of one phase's responses found.
struct PhaseResult {
  std::vector<double> route_ms;
  std::vector<double> eco_ms;
  std::int64_t rejected = 0;
  std::int64_t sent = 0;
};

}  // namespace

std::vector<dgr::design::IspdLikeParams> served_sessions() {
  const std::vector<dgr::design::IspdLikeParams> table3 = dgr::design::table3_presets(0.1);
  return {table3[3], table3[6], table3[9], dgr::design::table2_presets(0.05)[2]};
}

std::vector<JobSpec> served_jobs(const std::vector<dgr::design::IspdLikeParams>& sessions,
                                 std::uint64_t run_seed) {
  std::vector<JobSpec> jobs;
  const dgr::serve::ServerOptions server;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    for (const char* router : kServedRouters) {
      JobSpec job;
      job.preset = sessions[s];
      job.instance_seed = kInstanceSeed + s;
      job.variant_seed = mix_seed(run_seed, 100 + s);
      job.router = router;
      job.options = server.router_options;
      job.options.dgr.iterations = server.default_iterations;
      // The session's seed; kept below 2^31 by context_seed, so it survives
      // the JSON number round trip of the load request.
      job.options.dgr.seed = context_seed(job.variant_seed);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<std::string> load_requests(const std::vector<dgr::design::IspdLikeParams>& sessions,
                                       std::uint64_t run_seed) {
  const std::vector<JobSpec> jobs = served_jobs(sessions, run_seed);
  std::vector<std::string> lines;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const JobSpec& job = jobs[s * std::size(kServedRouters)];
    const dgr::design::Design design = make_variant(
        dgr::design::generate_ispd_like(job.preset, job.instance_seed), job.variant_seed);
    std::ostringstream os;
    dgr::design::write_design(os, design);
    lines.push_back("{\"id\":\"load" + std::to_string(s) + "\",\"op\":\"load\",\"session\":\"s" +
                    std::to_string(s) + "\",\"seed\":" + std::to_string(job.options.dgr.seed) +
                    ",\"design\":\"" + dgr::obs::json::escape(os.str()) + "\"}");
  }
  return lines;
}

StartedServer start_server(const std::vector<std::string>& loads, int workers, OpCount& ops) {
  StartedServer started;
  dgr::serve::ServerOptions sopts;
  sopts.workers = workers;
  sopts.queue_capacity = kQueueCapacity;
  const Clock::time_point t0 = Clock::now();
  started.server = std::make_unique<dgr::serve::Server>(sopts);
  started.server->start();
  double load_ms_sum = 0.0;
  for (const std::string& line : loads) {
    const Clock::time_point t = Clock::now();
    const std::string response = started.server->call(line);
    load_ms_sum += ms_between(t, Clock::now());
    Value doc;
    const Value* ok = nullptr;
    if (!Value::parse(response, &doc) || !dgr::serve::validate_response_json(doc) ||
        (ok = doc.find("ok")) == nullptr || !ok->as_bool()) {
      ops.fail("load failed: " + response.substr(0, 200));
    } else {
      ops.ok();
    }
  }
  started.setup_s = seconds_since(t0);
  started.load_ms = loads.empty() ? 0.0 : load_ms_sum / static_cast<double>(loads.size());
  return started;
}

ServeOutcome run_traffic(dgr::serve::Server& server, std::size_t sessions,
                         std::uint64_t run_seed, double seconds,
                         const std::vector<Quality>& expected) {
  ServeOutcome out;
  const Clock::time_point traffic_start = Clock::now();

  // Records outlive the traffic: the server's workers write into them until
  // the shutdown below.
  std::vector<Record> recs(kMaxRecords);
  std::array<std::atomic<std::int64_t>, kMaxPhases> phase_done{};
  std::atomic<std::int64_t> done_count{0};
  std::int64_t sent_count = 0;

  // ---- open-loop generator --------------------------------------------------
  std::mt19937_64 rng(mix_seed(run_seed, 4242));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::exponential_distribution<double> gap(1.0);
  std::size_t next = 0;
  std::vector<std::size_t> eco_applied(kEcoSessions, 0);
  Clock::time_point last_poll = Clock::now();

  // Polls only when the next request is not due for kStatsSlackS, so a
  // poll never delays a send.
  const auto poll = [&](Clock::time_point next_due) {
    if (seconds_since(last_poll) < kStatsPollS ||
        seconds_between(Clock::now(), next_due) < kStatsSlackS) {
      return;
    }
    last_poll = Clock::now();
    Value doc;
    if (!Value::parse(server.call("{\"id\":\"poll\",\"op\":\"stats\"}"), &doc)) return;
    const Value* result = doc.find("result");
    const Value* acct = result != nullptr ? result->find("accounting") : nullptr;
    if (acct == nullptr) return;
    if (const Value* q = acct->find("queue_depth")) {
      out.queue_depth_max = std::max(out.queue_depth_max, q->as_number());
    }
    if (const Value* f = acct->find("in_flight")) {
      out.in_flight_max = std::max(out.in_flight_max, f->as_number());
    }
  };

  // Sends Poisson arrivals at `rate` for `duration` seconds as phase
  // `phase`; returns the record range.
  const auto run_phase = [&](int phase, double rate,
                             double duration) -> std::pair<std::size_t, std::size_t> {
    const std::size_t begin = next;
    const Clock::time_point t0 = Clock::now();
    double t = gap(rng) / rate;
    while (t < duration && next < kMaxRecords) {
      Record& r = recs[next];
      r.due = t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
      r.phase = phase;
      r.kind = unit(rng) < kEcoShare ? Kind::kEco : Kind::kRoute;
      const std::size_t pool = r.kind == Kind::kEco ? kEcoSessions : sessions;
      r.session = std::min(static_cast<int>(unit(rng) * static_cast<double>(pool)),
                           static_cast<int>(pool) - 1);
      r.router = unit(rng) < 0.5 ? 0 : 1;
      if (r.kind == Kind::kEco) {
        // Each session replays one fixed sequence of generated mutations,
        // whatever the run seed: the mix of cheap delta and costly full
        // reroutes, whose tail sits near the ECO p95, then varies only with
        // how far a run gets into it.
        const std::size_t k = eco_applied[static_cast<std::size_t>(r.session)]++;
        r.eco_seed = mix_seed(k, 5000 + static_cast<std::uint64_t>(r.session)) & 0x7fffffffu;
      }
      const std::string line = request_line(r, next);
      poll(r.due);
      std::this_thread::sleep_until(r.due);
      r.sent = Clock::now();
      ++sent_count;
      const std::size_t index = next++;
      server.submit(line, [&recs, &phase_done, &done_count, index](const std::string& resp) {
        Record& rr = recs[index];
        rr.done = Clock::now();
        rr.response = resp;
        phase_done[rr.phase].fetch_add(1, std::memory_order_release);
        done_count.fetch_add(1, std::memory_order_release);
      });
      t += gap(rng) / rate;
    }
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(duration)));
    return {begin, next};
  };

  // Waits until every request of the phase is answered, then checks each
  // response. Returns nullopt when the phase was not answered in time.
  double dirty_sum = 0.0;
  double closure_sum = 0.0;
  std::int64_t full_reroutes = 0;
  std::int64_t eco_ok = 0;
  std::int64_t eco_sent = 0;
  const auto collect = [&](int phase, std::size_t begin, std::size_t end,
                           bool rejections_fail) -> std::optional<PhaseResult> {
    const std::int64_t want = static_cast<std::int64_t>(end - begin);
    const Clock::time_point t0 = Clock::now();
    while (phase_done[phase].load(std::memory_order_acquire) < want) {
      if (seconds_since(t0) > kDrainTimeoutS) {
        out.ops.fail("phase " + std::to_string(phase) + " not answered within " +
                     std::to_string(kDrainTimeoutS) + " s");
        return std::nullopt;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    PhaseResult pr;
    pr.sent = want;
    for (std::size_t i = begin; i < end; ++i) {
      const Record& r = recs[i];
      const std::string qid = request_id(i);
      if (r.kind == Kind::kEco) ++eco_sent;
      Value doc;
      std::string err;
      if (!Value::parse(r.response, &doc, &err) ||
          !dgr::serve::validate_response_json(doc, &err)) {
        out.ops.fail("invalid response to " + qid + ": " + err);
        continue;
      }
      const Value* id = doc.find("id");
      if (id == nullptr || id->as_string() != qid) {
        out.ops.fail("response id mismatch for " + qid);
        continue;
      }
      if (!doc.find("ok")->as_bool()) {
        const Value* code = doc.find("error")->find("code");
        if (code->as_string() == "RESOURCE_EXHAUSTED") {
          ++pr.rejected;
          ++out.rejected;
          if (!rejections_fail) continue;
        }
        out.ops.fail(qid + " failed: " + r.response.substr(0, 200));
        continue;
      }
      const Value& result = *doc.find("result");
      if (r.kind == Kind::kRoute) {
        const Quality& want_q =
            expected[static_cast<std::size_t>(r.session) * std::size(kServedRouters) +
                     static_cast<std::size_t>(r.router)];
        const Value* m = result.find("metrics");
        const Value* degraded = result.find("degraded");
        if (m == nullptr || (degraded != nullptr && degraded->as_bool()) ||
            m->find("total_overflow")->as_number() != want_q.total_overflow ||
            static_cast<std::int64_t>(m->find("overflow_edges")->as_number()) !=
                want_q.overflow_edges ||
            static_cast<std::int64_t>(m->find("wirelength")->as_number()) != want_q.wirelength) {
          out.ops.fail(qid + ": route metrics differ from Pipeline::run");
          continue;
        }
        pr.route_ms.push_back(ms_between(r.due, r.done));
      } else {
        ++eco_ok;
        dirty_sum += result.find("dirty_fraction")->as_number();
        closure_sum += result.find("closure_nets")->as_number();
        if (result.find("full_reroute")->as_bool()) ++full_reroutes;
        pr.eco_ms.push_back(ms_between(r.due, r.done));
      }
      out.ops.ok();
    }
    return pr;
  };

  // The fixed phase lasts long enough to expect kSampleMargin times the
  // samples the route p95 and the ECO p90 need.
  const double route_share = 1.0 - kEcoShare;
  const double fixed_s =
      kSampleMargin * std::max(kTailSamples / (1.0 - 0.95) / route_share,
                               kTailSamples / (1.0 - 0.90) / kEcoShare) / kFixedRateRps;

  // ---- fixed offered rate ---------------------------------------------------
  const auto [fixed_begin, fixed_end] =
      run_phase(0, kFixedRateRps, fixed_s);
  if (const std::optional<PhaseResult> fixed = collect(0, fixed_begin, fixed_end, true)) {
    out.route_samples = static_cast<std::int64_t>(fixed->route_ms.size());
    out.eco_samples = static_cast<std::int64_t>(fixed->eco_ms.size());
    const auto route_p50 = percentile(fixed->route_ms, 0.5);
    const auto route_p95 = percentile(fixed->route_ms, 0.95);
    const auto eco_p50 = percentile(fixed->eco_ms, 0.5);
    const auto eco_p90 = percentile(fixed->eco_ms, 0.90);
    if (!route_p95 || !eco_p90) {
      out.ops.fail("fixed-rate phase too short: " + std::to_string(out.route_samples) +
                   " route, " + std::to_string(out.eco_samples) + " eco samples");
    }
    out.route_p50_ms = route_p50.value_or(0.0);
    out.route_p95_ms = route_p95.value_or(0.0);
    out.eco_p50_ms = eco_p50.value_or(0.0);
    out.eco_p90_ms = eco_p90.value_or(0.0);
  }

  // ---- stepped ramp ---------------------------------------------------------
  // Each step lasts long enough to expect kSampleMargin times the route
  // samples a p95 needs; the ramp stops at the first failing step or when
  // the next step would overrun its budget.
  const Clock::time_point ramp_start = Clock::now();
  const double ramp_budget = std::max(kMinRampSeconds, seconds - seconds_since(traffic_start));
  std::vector<RampStep> steps;
  double rate = kRampStart * kFixedRateRps;
  for (int phase = 1; phase < kMaxPhases; ++phase) {
    const double step_s =
        std::max(1.0, kSampleMargin * kTailSamples / (1.0 - 0.95) / (route_share * rate));
    if (seconds_since(ramp_start) + step_s > ramp_budget) break;
    RampStep step;
    step.backlog_start = sent_count - done_count.load(std::memory_order_acquire);
    const auto [begin, end] = run_phase(phase, rate, step_s);
    step.backlog_end = sent_count - done_count.load(std::memory_order_acquire);
    const std::optional<PhaseResult> pr = collect(phase, begin, end, false);
    if (!pr) break;
    step.sent = pr->sent;
    // The rate the step actually offered: its Poisson draw, not the target.
    step.rate_rps = static_cast<double>(pr->sent) / step_s;
    step.rejected = pr->rejected;
    step.route_p95_ms = percentile(pr->route_ms, 0.95);
    steps.push_back(step);
    std::fprintf(stderr,
                 "ramp step %d: target %.1f rps, offered %.1f rps, p95 %.1f ms, %lld rejected, "
                 "backlog %lld -> %lld\n",
                 phase, rate, step.rate_rps,
                 step.route_p95_ms.value_or(-1.0), static_cast<long long>(step.rejected),
                 static_cast<long long>(step.backlog_start),
                 static_cast<long long>(step.backlog_end));
    if (!step_passes(step, kRouteP95LimitMs)) break;
    rate *= kRampFactor;
  }
  out.ramp_steps = static_cast<int>(steps.size());
  out.max_rate_rps = max_passing_rate(steps, kRouteP95LimitMs);
  out.ramp_resolved = ramp_resolved(steps, kRouteP95LimitMs);
  if (!out.ramp_resolved) {
    std::fprintf(stderr, "ramp ended on its time budget before a step failed; "
                         "max_rate_rps is only a lower bound (serve.ramp_resolved 0)\n");
  }

  server.shutdown(true);

  // ---- generator honesty ----------------------------------------------------
  std::vector<double> lag_ms;
  lag_ms.reserve(next);
  for (std::size_t i = 0; i < next; ++i) lag_ms.push_back(ms_between(recs[i].due, recs[i].sent));
  if (!lag_ms.empty()) {
    out.lag_p99_ms = percentile(lag_ms, tail_percentile_point(lag_ms.size(), 0.99))
                         .value_or(*std::max_element(lag_ms.begin(), lag_ms.end()));
  }
  if (out.lag_p99_ms > kLagBoundMs) {
    out.ops.fail("generator fell behind: lag p99 " + std::to_string(out.lag_p99_ms) + " ms");
  }
  out.eco_share = next > 0 ? static_cast<double>(eco_sent) / static_cast<double>(next) : 0.0;
  if (eco_ok > 0) {
    out.eco_dirty_fraction_mean = dirty_sum / static_cast<double>(eco_ok);
    out.eco_closure_nets_mean = closure_sum / static_cast<double>(eco_ok);
    out.eco_full_reroute_frac = static_cast<double>(full_reroutes) / static_cast<double>(eco_ok);
  }
  return out;
}

}  // namespace perfbench
