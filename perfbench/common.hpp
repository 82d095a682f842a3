#pragma once
// Shared plumbing of the benchmark program: clocks, seeds, metric records and
// the thread budget every workload reports.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Ordered name -> (value, unit) record; printed in insertion order.
class MetricSet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(std::string name, double value, std::string unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = std::move(unit);
        return;
      }
    }
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Adds `value` to the named entry (created at 0).
  void add(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value += value;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  double get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return e.value;
    }
    return 0.0;
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operation accounting behind the result line's attempted/failed counts.
/// Every failure keeps a one-line reason, printed to stderr.
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> reasons;

  void ok() { ++attempted; }
  void fail(std::string reason) {
    ++attempted;
    ++failed;
    if (reasons.size() < 32) reasons.push_back(std::move(reason));
  }
  void merge(const OpCount& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& r : o.reasons) {
      if (reasons.size() < 32) reasons.push_back(r);
    }
  }
};

/// Set-up is repeated in blocks of at least this many seconds spread over
/// the run, and the median of all repetitions is reported: the host's speed
/// drifts over seconds, so one block would only see a few seconds of it.
inline constexpr double kSetupBlockS = 0.3;

/// The served phase runs the pool inline (one participant) beside the
/// server workers and one generator thread.
inline constexpr int kServePoolWorkers = 1;
inline constexpr int kGeneratorThreads = 1;

/// Threads the run is pinned to. Batch passes use `pool_workers` pool
/// participants (the caller plus pool_workers - 1 pool threads); the served
/// phase runs `serve_workers` server workers, the inline pool and the
/// generator.
struct ThreadBudget {
  unsigned nproc = 1;
  int pool_workers = 2;
  int serve_workers = 2;

  int batch_threads() const { return pool_workers; }
  int serve_threads() const {
    return kGeneratorThreads + serve_workers + (kServePoolWorkers - 1);
  }
  bool oversubscribed() const {
    return batch_threads() > static_cast<int>(nproc) ||
           serve_threads() > static_cast<int>(nproc);
  }
};

}  // namespace perfbench
