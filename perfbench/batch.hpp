#pragma once
// Batch passes: every job routes one freshly generated design through one
// Pipeline::run. The untraced pass times each call from outside; the traced
// pass replays the same stages through the modules' public functions, in
// the order Pipeline::run_stages calls them, and times each call.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "design/design.hpp"
#include "design/generator.hpp"
#include "pipeline/adapters.hpp"
#include "pipeline/context.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

/// One routing job. The design is the fixed generator instance
/// (`preset`, `instance_seed`) turned into the run's variant: mirrored on
/// the axes picked by `variant_seed` with its nets shuffled, and routed
/// with context and solver seeds derived from it.
struct JobSpec {
  dgr::design::IspdLikeParams preset;
  std::uint64_t instance_seed = 1;
  std::uint64_t variant_seed = 1;
  std::string router;
  dgr::pipeline::RouterOptions options;
  dgr::pipeline::StagePlan plan;
};

/// Route quality of one job, taken from the pipeline's shared eval stage
/// (2D metrics) and its layer assignment (vias). Deterministic per job.
struct Quality {
  double total_overflow = 0.0;
  std::int64_t overflow_edges = 0;
  std::int64_t wirelength = 0;
  std::int64_t vias = 0;

  bool operator==(const Quality&) const = default;
  Quality& operator+=(const Quality& o) {
    total_overflow += o.total_overflow;
    overflow_edges += o.overflow_edges;
    wirelength += o.wirelength;
    vias += o.vias;
    return *this;
  }
};

/// A job's inputs after set-up: the design read back from its .dgrd text
/// and a fresh routing context over it.
struct PreparedJob {
  std::unique_ptr<dgr::design::Design> design;
  std::unique_ptr<dgr::pipeline::RoutingContext> ctx;
  double generate_s = 0.0;  ///< design::generate_ispd_like
  double io_s = 0.0;        ///< design::write_design + try_read_design
  double context_s = 0.0;   ///< RoutingContext construction

  double setup_s() const { return generate_s + io_s + context_s; }
};

/// Context (and solver) seed of a job variant. Kept below 2^31 so a serve
/// request can carry it as a JSON number without rounding.
inline std::uint64_t context_seed(std::uint64_t variant_seed) {
  return mix_seed(variant_seed, 11) & 0x7fffffffu;
}

/// The run's variant of a generated instance (see JobSpec).
dgr::design::Design make_variant(const dgr::design::Design& base, std::uint64_t variant_seed);

/// Builds a job's inputs; a failed .dgrd round trip is recorded in `ops`
/// and leaves `ctx` null.
PreparedJob prepare_job(const JobSpec& spec, OpCount& ops);

/// Result of one pass over a job list.
struct PassResult {
  double setup_s = 0.0;     ///< summed set-up of the pass's jobs
  double pipeline_s = 0.0;  ///< summed wall time of the Pipeline::run calls
  Quality quality;                 ///< summed over the jobs
  std::vector<Quality> per_job;    ///< in job order
  OpCount ops;
};

/// Untraced pass: set up each job, time Pipeline::run around the call, then
/// check the solution with validate_solution (no broken nets, consistent
/// demand). A non-OK status, a degraded run, or a failed check is a failed
/// op.
PassResult run_pass(const std::vector<JobSpec>& jobs);

/// Traced pass: the same jobs with each stage called directly and timed.
/// Adds the per-layer metrics to `layers`; `wall_s` is the summed wall time
/// of the replayed stages (set-up excluded, as in PassResult::pipeline_s)
/// and `span_s` the summed time inside timed calls.
struct TracedPass {
  double wall_s = 0.0;
  double span_s = 0.0;
  std::vector<Quality> per_job;
  OpCount ops;
};
TracedPass run_traced_pass(const std::vector<JobSpec>& jobs, MetricSet& layers);

}  // namespace perfbench
