#pragma once
// CUGR2-lite: a sequential DAG-based pattern router with rip-up-and-reroute,
// standing in for CUGR2 [Liu & Young, DAC'23] as the Table 2 / Fig. 5
// comparator. Same algorithmic family as the original:
//   - FLUTE-equivalent RSMT per net, split into 2-pin sub-nets,
//   - per-sub-net DP over L-/Z-shape pattern candidates against a live
//     demand map with a logistic congestion cost,
//   - nets through overflowed edges are ripped and rerouted each round,
//     with maze routing as the escape hatch in late rounds.
// Being sequential, it optimises one net at a time — exactly the local-view
// weakness DGR's concurrent optimisation addresses.

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dag/path.hpp"
#include "design/design.hpp"
#include "eval/solution.hpp"
#include "rsmt/builder.hpp"

namespace dgr::routers {

struct Cugr2LiteOptions {
  int rrr_rounds = 5;            ///< rip-up & reroute iterations
  float via_beta = 0.5f;         ///< via demand charge (matches Eq. 2)
  double wl_weight = 0.5;        ///< unit wire cost
  double via_weight = 4.0;       ///< per-bend cost (scaled by sqrt(L))
  double congestion_weight = 500.0;  ///< logistic congestion penalty scale
  double logistic_slope = 2.0;   ///< steepness of the congestion cost
  dag::PathEnumOptions paths;    ///< L-only by default, Z optional
  bool maze_fallback = true;     ///< maze-reroute stubborn nets in last rounds
  rsmt::RsmtOptions rsmt;
  /// Cooperative wall-clock budget (0 = unlimited): checked between RRR
  /// rounds; the initial pass always completes so the returned solution is
  /// whole. On expiry `timed_out` is set and the best snapshot is returned.
  double time_budget_seconds = 0.0;
  /// Optional external cancel flag, polled at the same between-round
  /// checkpoints as the budget (caller-owned; the serve daemon's watchdog
  /// sets it from another thread). Reads-true behaves as a budget expiry.
  const std::atomic<bool>* cancel_flag = nullptr;
};

struct Cugr2LiteStats {
  int rounds_run = 0;
  std::int64_t nets_rerouted = 0;
  double route_seconds = 0.0;
  bool timed_out = false;  ///< RRR stopped early on the time budget
};

class Cugr2Lite {
 public:
  Cugr2Lite(const design::Design& design, std::vector<float> capacities,
            Cugr2LiteOptions options = {});

  /// Routes every routable net. When `warm_start` is a solution of the same
  /// design, its routes seed the initial state (nets it misses are routed
  /// cold) and the run proceeds straight to rip-up-and-reroute — the
  /// pipeline-level RRR re-entry hook.
  eval::RouteSolution route(Cugr2LiteStats* stats = nullptr,
                            const eval::RouteSolution* warm_start = nullptr);

 private:
  /// Routes one net's sub-nets against the current demand; returns the route.
  eval::NetRoute route_net(std::size_t design_net, bool allow_maze);

  /// Cost of pushing one more unit of wire across edge e.
  double edge_cost(grid::EdgeId e) const;

  using Segment = std::pair<geom::Point, geom::Point>;

  /// The net's RSMT as its 2-pin sub-nets, built on first use: the tree
  /// depends only on the pins, so every RRR round reuses it. The span is
  /// valid until the next call that builds another net's tree.
  std::span<const Segment> subnets(std::size_t design_net);

  const design::Design& design_;
  std::vector<float> capacities_;
  Cugr2LiteOptions options_;
  rsmt::RsmtBuilder builder_;
  /// Cached sub-nets of every net routed so far, flattened into one array
  /// (no allocation per net): net n's are segments_[first, last) for
  /// (first, last) = segment_range_[n]; first == last means "not built"
  /// (every routable net has at least one sub-net).
  std::vector<Segment> segments_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> segment_range_;
  grid::DemandMap demand_;
  double via_cost_scale_ = 1.0;
};

}  // namespace dgr::routers
