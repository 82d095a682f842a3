#include "post/maze_refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "obs/trace.hpp"
#include "routers/maze.hpp"
#include "util/log.hpp"

namespace dgr::post {

using eval::NetRoute;
using eval::RouteSolution;
using geom::Point;
using grid::DemandMap;
using grid::EdgeId;
using grid::NetEdgeMap;

namespace {

/// Marginal cost of one net's route against a demand map that *excludes*
/// the net itself: weighted (overflow, wl, via) cost plus the number of
/// edges this net pushes over capacity. Tracking the edge count separately
/// keeps refinement from "improving" total overflow by smearing one heavy
/// overflow across many lightly-overflowed edges (Tables 2/3 report the
/// edge count, and detailed routers care about it too).
struct NetCost {
  double weighted = 0.0;
  std::int64_t overflowed_edges = 0;
};

/// `mine` is scratch: reset here and left holding the net's own demand.
NetCost net_cost(const design::Design& design, const NetRoute& net, const DemandMap& others,
                 const std::vector<float>& cap, const MazeRefineOptions& opt,
                 double via_scale, NetEdgeMap& mine) {
  mine.reset(static_cast<std::size_t>(design.grid().edge_count()));
  RouteSolution::apply_net(mine, design, net, opt.via_beta, +1.0);
  NetCost out;
  double over = 0.0;
  std::int64_t wl = 0;
  std::int64_t bends = 0;
  for (const EdgeId e : mine.sorted_edges()) {
    const double w = mine.demand(e);
    if (w <= 0.0) continue;
    const auto i = static_cast<std::size_t>(e);
    const double base = others.raw()[i];
    const double c = cap[i];
    over += std::max(0.0, base + w - c) - std::max(0.0, base - c);
    if (base + w > c + 1e-6) ++out.overflowed_edges;
  }
  for (const dag::PatternPath& p : net.paths) {
    wl += p.length();
    bends += static_cast<std::int64_t>(p.bend_count());
  }
  out.weighted = opt.overflow_weight * over + opt.wl_weight * static_cast<double>(wl) +
                 opt.via_weight * via_scale * static_cast<double>(bends);
  return out;
}

/// maze_reroute_net with caller-owned scratch for the net's own usage, so a
/// refine pass prices every victim with one map instead of one per net.
NetRoute reroute_net(const design::Design& design, std::size_t design_net,
                     const DemandMap& others, const std::vector<float>& cap,
                     const MazeRefineOptions& opt, NetEdgeMap& mine) {
  const auto& grid = design.grid();
  NetRoute route;
  route.design_net = design_net;
  std::vector<Point> pins = geom::dedupe_points(design.net(design_net).pins);

  // Track this net's own usage so parallel sub-nets share edges for free.
  mine.reset(static_cast<std::size_t>(grid.edge_count()));
  auto price = [&](EdgeId e) {
    const double d = others.raw()[static_cast<std::size_t>(e)] + mine.demand(e);
    const double c = cap[static_cast<std::size_t>(e)];
    const double marginal = std::max(0.0, d + 1.0 - c) - std::max(0.0, d - c);
    return opt.wl_weight + opt.congestion_price * marginal;
  };

  std::vector<Point> component{pins.front()};
  std::vector<bool> connected(pins.size(), false);
  connected[0] = true;
  for (std::size_t step = 1; step < pins.size(); ++step) {
    std::size_t next = pins.size();
    std::int64_t best_d = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < pins.size(); ++i) {
      if (connected[i]) continue;
      for (const Point& c : component) {
        const std::int64_t d = geom::manhattan(pins[i], c);
        if (d < best_d) {
          best_d = d;
          next = i;
        }
      }
    }
    const routers::MazeResult mz = routers::maze_route(grid, component, pins[next], price);
    if (!mz.found) {
      // Unreachable pin (pathological pricing): return an incomplete route
      // so the caller rejects it instead of committing broken geometry.
      DGR_LOG_WARN("maze_reroute_net net %zu: %s", design_net,
                   mz.status.to_string().c_str());
      route.paths.clear();
      return route;
    }
    dag::PatternPath path = routers::compress_cells(mz.cells);
    for (const EdgeId e : path.edges(grid)) mine.add(e, 1.0);
    for (const Point& cell : mz.cells) component.push_back(cell);
    route.paths.push_back(std::move(path));
    connected[next] = true;
  }
  return route;
}

}  // namespace

NetRoute maze_reroute_net(const design::Design& design, std::size_t design_net,
                          const DemandMap& others, const std::vector<float>& cap,
                          const MazeRefineOptions& opt) {
  NetEdgeMap mine;
  return reroute_net(design, design_net, others, cap, opt, mine);
}

MazeRefineStats maze_refine(RouteSolution& sol, const std::vector<float>& capacities,
                            const MazeRefineOptions& options) {
  DGR_TRACE_SCOPE("post.maze_refine");
  MazeRefineStats stats;
  const design::Design& design = *sol.design;
  const double via_scale = std::sqrt(static_cast<double>(design.grid().layer_count()));

  DemandMap demand = sol.demand(options.via_beta);
  stats.overflow_before = demand.total_overflow(capacities);

  // Per-net acceptance is marginal and accepted moves interact, so rounds
  // can still regress globally; keep the lexicographically best snapshot
  // (# overflowed edges, total overflow, wirelength) — the initial solution
  // included, which makes refinement monotone by construction.
  auto snapshot_score = [&] {
    std::int64_t wl = 0;
    for (const NetRoute& net : sol.nets) {
      for (const dag::PatternPath& p : net.paths) wl += p.length();
    }
    return std::tuple(demand.overflowed_edge_count(capacities),
                      demand.total_overflow(capacities), wl);
  };
  RouteSolution best = sol;
  auto best_score = snapshot_score();
  NetEdgeMap mine;  // per-net scratch, shared by every victim's pricing

  for (int round = 0; round < options.max_rounds; ++round) {
    // Nets crossing overflowed edges, most-overflowed first.
    std::vector<std::pair<double, std::size_t>> victims;
    for (std::size_t i = 0; i < sol.nets.size(); ++i) {
      double worst = 0.0;
      for (const dag::PatternPath& p : sol.nets[i].paths) {
        for (const EdgeId e : p.edges(design.grid())) {
          worst = std::max(worst, demand.demand(e) -
                                      static_cast<double>(
                                          capacities[static_cast<std::size_t>(e)]));
        }
      }
      if (worst > 1e-6) victims.emplace_back(worst, i);
    }
    if (victims.empty()) break;
    std::stable_sort(victims.begin(), victims.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });

    bool improved_any = false;
    for (const auto& [worst, i] : victims) {
      RouteSolution::apply_net(demand, design, sol.nets[i], options.via_beta, -1.0);
      const NetCost old_cost =
          net_cost(design, sol.nets[i], demand, capacities, options, via_scale, mine);
      NetRoute candidate = reroute_net(design, sol.nets[i].design_net, demand, capacities,
                                       options, mine);
      const NetCost new_cost =
          net_cost(design, candidate, demand, capacities, options, via_scale, mine);
      ++stats.nets_rerouted;
      // Accept only complete reroutes that strictly improve without adding
      // overflowed edges (an empty candidate = unreachable pin, rejected).
      if (!candidate.paths.empty() && new_cost.weighted < old_cost.weighted - 1e-9 &&
          new_cost.overflowed_edges <= old_cost.overflowed_edges) {
        sol.nets[i] = std::move(candidate);
        ++stats.nets_improved;
        improved_any = true;
      }
      RouteSolution::apply_net(demand, design, sol.nets[i], options.via_beta, +1.0);
    }
    stats.rounds_run = round + 1;
    const auto score = snapshot_score();
    if (score < best_score) {
      best_score = score;
      best = sol;
    }
    if (!improved_any) break;
  }

  sol = std::move(best);
  demand = sol.demand(options.via_beta);
  stats.overflow_after = demand.total_overflow(capacities);
  return stats;
}

}  // namespace dgr::post
