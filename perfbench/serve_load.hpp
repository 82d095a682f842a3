#pragma once
// Served part: an in-process dgr::serve::Server loaded with small sessions,
// and (traced run only) an open loop of route and ECO requests into it, sent
// from one generator thread on a seeded Poisson schedule at a fixed rate,
// then on a stepped rate ramp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "batch.hpp"
#include "common.hpp"
#include "design/generator.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Share of requests that are ECO writes; the rest are route reads split
/// evenly between "dgr" and "cugr2-lite". An assumed mix, not measured
/// traffic.
inline constexpr double kEcoShare = 0.3;

/// ECO requests go to the first kEcoSessions served sessions; the rest
/// serve reads only.
inline constexpr std::size_t kEcoSessions = 3;

/// The served sessions: three small Table-3 designs (ispd18_test4, test7 and
/// test10 at a tenth of their size) that take the ECO writes, and a small
/// congested ispd18_10m that serves reads only, so the served routes leave
/// overflow to measure.
std::vector<dgr::design::IspdLikeParams> served_sessions();

/// The routers route requests name, in request order.
inline const char* const kServedRouters[] = {"dgr", "cugr2-lite"};

/// The route requests' work as batch jobs: every session design under every
/// served router, with the options the server applies. Job order is
/// session-major; job s * 2 + r is session s under kServedRouters[r].
std::vector<JobSpec> served_jobs(const std::vector<dgr::design::IspdLikeParams>& sessions,
                                 std::uint64_t run_seed);

/// One "op":"load" request per session, carrying the run's variant of the
/// session design as .dgrd text.
std::vector<std::string> load_requests(const std::vector<dgr::design::IspdLikeParams>& sessions,
                                       std::uint64_t run_seed);

/// A started server with every session loaded.
struct StartedServer {
  std::unique_ptr<dgr::serve::Server> server;
  double setup_s = 0.0;  ///< Server construction, start() and every load
  double load_ms = 0.0;  ///< mean latency of one "op":"load"
};

/// Starts a server with `workers` workers and sends `loads`; each response
/// is checked and counted in `ops`.
StartedServer start_server(const std::vector<std::string>& loads, int workers, OpCount& ops);

/// Never less than this many seconds is left for the rate ramp, so it can
/// reach the serve capacity even after a slow batch part.
inline constexpr double kMinRampSeconds = 24.0;

struct ServeOutcome {
  // Fixed-rate phase.
  double route_p50_ms = 0.0;
  double route_p95_ms = 0.0;
  double eco_p50_ms = 0.0;
  double eco_p90_ms = 0.0;
  std::int64_t route_samples = 0;
  std::int64_t eco_samples = 0;
  double eco_share = 0.0;  ///< ECO share of the requests actually sent
  // Ramp.
  double max_rate_rps = 0.0;
  int ramp_steps = 0;
  bool ramp_resolved = false;  ///< ended on a failing step, not its budget
  // Whole run.
  double lag_p99_ms = 0.0;
  std::int64_t rejected = 0;
  double queue_depth_max = 0.0;  ///< from polled "op":"stats"
  double in_flight_max = 0.0;
  double eco_dirty_fraction_mean = 0.0;
  double eco_closure_nets_mean = 0.0;
  double eco_full_reroute_frac = 0.0;
  OpCount ops;
};

/// Sends the served traffic into `server` (loaded with `sessions` by
/// start_server): the fixed-rate phase, then the ramp until `seconds` from
/// now have passed (at least kMinRampSeconds of ramp), then shuts the server
/// down. Route responses must carry exactly the metrics in `expected` (one
/// entry per served_jobs() job, from an untraced pass).
ServeOutcome run_traffic(dgr::serve::Server& server, std::size_t sessions,
                         std::uint64_t run_seed, double seconds,
                         const std::vector<Quality>& expected);

}  // namespace perfbench
