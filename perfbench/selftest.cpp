// Self-tests of the benchmark's statistics (stats.hpp): median, quartiles
// (against values from Python's statistics.quantiles), the tail-percentile
// support rule, and the ramp's stop rule. Exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

bool quartiles_are(const std::vector<double>& v, double q1, double q2, double q3) {
  const perfbench::Quartiles q = perfbench::quartiles(v);
  return near(q.q1, q1) && near(q.q2, q2) && near(q.q3, q3);
}

perfbench::RampStep step(double rate, double p95, std::int64_t rejected = 0,
                         std::int64_t backlog_end = 0, std::int64_t sent = 100) {
  perfbench::RampStep s;
  s.rate_rps = rate;
  s.sent = sent;
  s.route_p95_ms = p95;
  s.rejected = rejected;
  s.backlog_start = 0;
  s.backlog_end = backlog_end;
  return s;
}

}  // namespace

int main() {
  using namespace perfbench;

  // ---- median ---------------------------------------------------------------
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  check(median({7.0}) == 7.0, "median of one value");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "median of nothing throws");

  // ---- quartiles: statistics.quantiles(v, n=4) ------------------------------
  check(quartiles_are({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25), "quartiles of 1..10");
  check(quartiles_are({3.5, 1.0, 7.25, 2.0}, 1.25, 2.75, 6.3125), "quartiles of 4 unsorted");
  check(quartiles_are({5.0, 1.0}, 0.0, 3.0, 6.0), "quartiles of 2 (extrapolated)");
  check(quartiles_are({2, 9, 4, 7, 1, 8, 3}, 2.0, 4.0, 8.0), "quartiles of 7");

  // ---- tail percentile: at least 10 samples beyond it -----------------------
  check(percentile_supported(200, 0.95), "p95 supported by 200 samples");
  check(!percentile_supported(199, 0.95), "p95 not supported by 199 samples");
  check(percentile_supported(1000, 0.99) && !percentile_supported(999, 0.99),
        "p99 needs 1000 samples");
  check(percentile_supported(20, 0.5) && !percentile_supported(19, 0.5),
        "median needs 20 samples");
  std::vector<double> ramp(200);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i + 1);
  const auto p95 = percentile(ramp, 0.95);
  check(p95.has_value() && near(*p95, 190.05), "p95 of 1..200 interpolates to 190.05");
  const auto p50 = percentile(ramp, 0.5);
  check(p50.has_value() && near(*p50, 100.5), "p50 of 1..200 is 100.5");
  ramp.pop_back();
  check(!percentile(ramp, 0.95).has_value(), "p95 of 199 samples is not reported");
  check(!percentile({}, 0.5).has_value(), "no percentile of nothing");
  check(tail_percentile_point(1000, 0.99) == 0.99, "p99 kept when 1000 samples support it");
  check(near(tail_percentile_point(500, 0.99), 0.98), "p99 lowered to p98 for 500 samples");
  check(tail_percentile_point(10, 0.99) == 0.5, "never lowered below the median");

  // ---- ramp stop rule ---------------------------------------------------------
  const double limits = 50.0;  // route p95 limit, ms
  check(step_passes(step(10, 40.0), limits), "step within limits passes");
  check(step_passes(step(10, 50.0), limits), "p95 equal to the limit passes");
  check(!step_passes(step(10, 50.5), limits), "p95 over the limit fails");
  check(!step_passes(step(10, 40.0, 1), limits), "one rejection fails the step");
  perfbench::RampStep unsupported = step(10, 40.0);
  unsupported.route_p95_ms.reset();
  check(!step_passes(unsupported, limits), "unsupported p95 fails the step");
  check(step_passes(step(10, 40.0, 0, 4, 10), limits), "backlog +4 is within the minimum slack");
  check(!step_passes(step(10, 40.0, 0, 5, 10), limits), "backlog +5 of 10 sent grows");
  check(step_passes(step(10, 40.0, 0, 10, 200), limits), "backlog +10 of 200 sent is 5%");
  check(!step_passes(step(10, 40.0, 0, 11, 200), limits), "backlog +11 of 200 sent grows");

  check(max_passing_rate({step(10, 20), step(12, 30), step(14, 60), step(16, 20)}, limits) == 12,
        "ramp stops at the first failing step even if a later one passes");
  check(max_passing_rate({step(10, 60)}, limits) == 0.0, "first step failing gives 0");
  check(max_passing_rate({step(10, 20), step(12, 30)}, limits) == 12,
        "ramp that never fails reports its last step");
  check(max_passing_rate({}, limits) == 0.0, "empty ramp gives 0");
  check(ramp_resolved({step(10, 20), step(12, 60)}, limits), "ramp ending on a failure resolved");
  check(!ramp_resolved({step(10, 20), step(12, 30)}, limits),
        "ramp ending on its budget is unresolved");
  check(!ramp_resolved({}, limits), "empty ramp is unresolved");

  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
