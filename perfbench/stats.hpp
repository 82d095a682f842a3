#pragma once
// Order statistics and the rate-ramp stop rule used by the benchmark program.
// Pure functions over copies of their inputs, so selftest.cpp can check each
// one against hand-computed values.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (method "exclusive"), which is how the spread of a metric across runs is
/// judged. Needs at least two values.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need at least two values");
  std::sort(v.begin(), v.end());
  const std::int64_t ld = static_cast<std::int64_t>(v.size());
  const std::int64_t n = 4;
  const std::int64_t m = ld + 1;
  double out[3];
  for (std::int64_t i = 1; i < n; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / n, 1, ld - 1);
    const std::int64_t delta = i * m - j * n;
    out[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                  v[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {out[0], out[1], out[2]};
}

/// Samples needed beyond a reported percentile. A tail percentile is only
/// reported when at least this many samples are expected above it.
inline constexpr double kTailSamples = 10.0;

/// Whether `n` samples support the `p` percentile (p in [0, 1]): at least
/// kTailSamples of them are expected beyond it. The median needs 20.
inline bool percentile_supported(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= kTailSamples;
}

/// `p`, lowered to the highest percentile `n` samples support when they do
/// not support `p` itself (the median when n < 20).
inline double tail_percentile_point(std::size_t n, double p) {
  if (percentile_supported(n, p)) return p;
  return std::max(0.5, 1.0 - kTailSamples / static_cast<double>(std::max<std::size_t>(n, 1)));
}

/// The `p` percentile of `v` by linear interpolation between closest ranks,
/// or nullopt when the sample is too small to support it.
inline std::optional<double> percentile(std::vector<double> v, double p) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("percentile outside [0, 1]");
  if (v.empty() || !percentile_supported(v.size(), p)) return std::nullopt;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Stepped rate ramp
// ---------------------------------------------------------------------------

/// What one step of the ramp observed.
struct RampStep {
  double rate_rps = 0.0;              ///< rate the step offered (sent / duration)
  std::int64_t sent = 0;              ///< requests sent during the step
  std::optional<double> route_p95_ms; ///< nullopt when too few route samples
  std::int64_t rejected = 0;          ///< admission rejections in the step
  std::int64_t backlog_start = 0;     ///< unanswered requests when it began
  std::int64_t backlog_end = 0;       ///< unanswered requests when it ended
};

/// Backlog growth tolerated within one ramp step: max(kBacklogMinSlack,
/// kBacklogShare * sent). Poisson arrivals leave a few requests queued at any
/// instant even far below capacity, so a zero tolerance would fail healthy
/// steps.
inline constexpr std::int64_t kBacklogMinSlack = 4;
inline constexpr double kBacklogShare = 0.05;

/// Whether the backlog grew past the step's tolerance.
inline bool backlog_grew(const RampStep& s) {
  const double slack = std::max(static_cast<double>(kBacklogMinSlack),
                                kBacklogShare * static_cast<double>(s.sent));
  return static_cast<double>(s.backlog_end - s.backlog_start) > slack;
}

/// A step passes when its route p95 is supported and within the limit, no
/// request was rejected, and the backlog did not grow.
inline bool step_passes(const RampStep& s, double route_p95_limit_ms) {
  return s.route_p95_ms.has_value() && *s.route_p95_ms <= route_p95_limit_ms &&
         s.rejected == 0 && !backlog_grew(s);
}

/// Whether the ramp found its limit: it ended on a failing step rather than
/// on its time budget. An unresolved ramp's maximum rate is only a lower
/// bound.
inline bool ramp_resolved(const std::vector<RampStep>& steps, double route_p95_limit_ms) {
  for (const RampStep& s : steps) {
    if (!step_passes(s, route_p95_limit_ms)) return true;
  }
  return false;
}

/// The ramp's result: the rate of the last step before the first failing
/// one (steps run in increasing rate order and the ramp stops at the first
/// failure). 0 when the first step already fails.
inline double max_passing_rate(const std::vector<RampStep>& steps,
                               double route_p95_limit_ms) {
  double best = 0.0;
  for (const RampStep& s : steps) {
    if (!step_passes(s, route_p95_limit_ms)) break;
    best = s.rate_rps;
  }
  return best;
}

}  // namespace perfbench
