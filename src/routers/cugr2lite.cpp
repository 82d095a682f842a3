#include "routers/cugr2lite.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "routers/maze.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dgr::routers {

using dag::PatternPath;
using eval::NetRoute;
using eval::RouteSolution;
using grid::EdgeId;

Cugr2Lite::Cugr2Lite(const design::Design& design, std::vector<float> capacities,
                     Cugr2LiteOptions options)
    : design_(design),
      capacities_(std::move(capacities)),
      options_(options),
      builder_(options.rsmt),
      segment_range_(design.net_count()),
      demand_(design.grid()) {
  via_cost_scale_ = std::sqrt(static_cast<double>(design.grid().layer_count()));
}

double Cugr2Lite::edge_cost(EdgeId e) const {
  const double d = demand_.demand(e);
  const double cap = capacities_[static_cast<std::size_t>(e)];
  // Logistic congestion cost as in CUGR/CUGR2's probabilistic model: cheap
  // while the edge has slack, ramping steeply as demand approaches capacity.
  const double x = options_.logistic_slope * (d + 1.0 - cap);
  const double congestion = 1.0 / (1.0 + std::exp(-x));
  return options_.wl_weight + options_.congestion_weight * congestion;
}

std::span<const Cugr2Lite::Segment> Cugr2Lite::subnets(std::size_t design_net) {
  auto& [first, last] = segment_range_[design_net];
  if (first == last) {
    const rsmt::SteinerTree tree = builder_.build(design_.net(design_net).pins);
    first = static_cast<std::uint32_t>(segments_.size());
    for (const auto& [ia, ib] : tree.edges) {
      segments_.emplace_back(tree.nodes[static_cast<std::size_t>(ia)],
                             tree.nodes[static_cast<std::size_t>(ib)]);
    }
    last = static_cast<std::uint32_t>(segments_.size());
  }
  return std::span<const Segment>(segments_).subspan(first, last - first);
}

NetRoute Cugr2Lite::route_net(std::size_t design_net, bool allow_maze) {
  NetRoute route;
  route.design_net = design_net;
  const auto& grid = design_.grid();
  for (const auto& [a, b] : subnets(design_net)) {
    // DP over the pattern candidates: pick the min-cost embedding.
    const std::vector<PatternPath> candidates = dag::enumerate_paths(a, b, options_.paths);
    double best_cost = std::numeric_limits<double>::infinity();
    const PatternPath* best = nullptr;
    for (const PatternPath& cand : candidates) {
      double cost = options_.via_weight * via_cost_scale_ *
                    static_cast<double>(cand.bend_count());
      for (const EdgeId e : cand.edges(grid)) cost += edge_cost(e);
      if (cost < best_cost) {
        best_cost = cost;
        best = &cand;
      }
    }

    PatternPath chosen = *best;
    if (allow_maze && options_.maze_fallback) {
      // Escape hatch: when every pattern candidate still crosses congestion,
      // let a maze route detour around it (CUGR2's maze refinement role).
      const MazeResult mz =
          maze_route(grid, {a}, b, [this](EdgeId e) { return edge_cost(e); });
      if (mz.found) {
        const PatternPath maze_path = compress_cells(mz.cells);
        const double maze_cost =
            mz.cost + options_.via_weight * via_cost_scale_ *
                          static_cast<double>(maze_path.bend_count());
        if (maze_cost < best_cost) chosen = maze_path;
      }
    }
    route.paths.push_back(std::move(chosen));
  }
  return route;
}

RouteSolution Cugr2Lite::route(Cugr2LiteStats* stats, const RouteSolution* warm_start) {
  util::Timer timer;
  demand_.clear();
  RouteSolution sol;
  sol.design = &design_;
  const auto& routable = design_.routable_nets();
  sol.nets.resize(routable.size());

  // Warm start: adopt the prior solution's routes (same-design solutions
  // only) so the run is pure rip-up-and-reroute from that state.
  std::vector<char> seeded(routable.size(), 0);
  if (warm_start != nullptr && warm_start->design == &design_) {
    std::vector<std::size_t> slot_of(design_.net_count(), routable.size());
    for (std::size_t i = 0; i < routable.size(); ++i) slot_of[routable[i]] = i;
    for (const NetRoute& net : warm_start->nets) {
      const std::size_t slot = slot_of[net.design_net];
      if (slot == routable.size() || net.paths.empty()) continue;
      sol.nets[slot] = net;
      RouteSolution::apply_net(demand_, design_, sol.nets[slot], options_.via_beta, +1.0);
      seeded[slot] = 1;
    }
  }

  // Initial sequential pass: short nets first (they have the least routing
  // flexibility, the classic sequential ordering heuristic).
  std::vector<std::size_t> order(routable.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const auto hp = [&](std::size_t i) {
      return geom::Rect::bounding_box(design_.net(routable[i]).pins).hpwl();
    };
    return hp(x) < hp(y);
  });

  std::int64_t rerouted = 0;
  for (const std::size_t i : order) {
    if (seeded[i]) continue;
    sol.nets[i] = route_net(routable[i], /*allow_maze=*/false);
    RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, +1.0);
    ++rerouted;
  }

  // RRR can regress on individual rounds; keep the best snapshot seen
  // (fewest overflowed edges, then least total overflow, then wirelength).
  auto score = [&] {
    std::int64_t wl = 0;
    for (const auto& net : sol.nets) {
      for (const auto& p : net.paths) wl += p.length();
    }
    return std::tuple(demand_.overflowed_edge_count(capacities_),
                      demand_.total_overflow(capacities_), wl);
  };
  RouteSolution best = sol;
  auto best_score = score();

  bool timed_out = false;
  int round = 0;
  for (; round < options_.rrr_rounds; ++round) {
    if (options_.time_budget_seconds > 0.0 &&
        timer.seconds() >= options_.time_budget_seconds) {
      timed_out = true;
      break;
    }
    if (options_.cancel_flag != nullptr &&
        options_.cancel_flag->load(std::memory_order_relaxed)) {
      timed_out = true;
      break;
    }
    // Collect nets crossing overflowed edges.
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < sol.nets.size(); ++i) {
      bool over = false;
      for (const PatternPath& p : sol.nets[i].paths) {
        for (const EdgeId e : p.edges(design_.grid())) {
          if (demand_.demand(e) > capacities_[static_cast<std::size_t>(e)] + 1e-6) {
            over = true;
            break;
          }
        }
        if (over) break;
      }
      if (over) victims.push_back(i);
    }
    if (victims.empty()) break;

    // Maze escape only in the later half of the RRR schedule.
    const bool allow_maze = round + 1 >= (options_.rrr_rounds + 1) / 2;
    for (const std::size_t i : victims) {
      RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, -1.0);
      sol.nets[i] = route_net(routable[i], allow_maze);
      RouteSolution::apply_net(demand_, design_, sol.nets[i], options_.via_beta, +1.0);
      ++rerouted;
    }
    DGR_LOG_DEBUG("cugr2lite round %d: %zu victims", round, victims.size());
    const auto s = score();
    if (s < best_score) {
      best_score = s;
      best = sol;
    }
  }

  if (stats != nullptr) {
    stats->rounds_run = round;
    stats->nets_rerouted = rerouted;
    stats->route_seconds = timer.seconds();
    stats->timed_out = timed_out;
  }
  return best;
}

}  // namespace dgr::routers
