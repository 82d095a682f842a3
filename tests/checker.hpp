#pragma once
// Oracle harness for optimised layers. Each case draws its inputs from its
// own seeded util::Rng, runs the optimised implementation and a naive
// reference on the same draws, and compares them; every failure message
// carries the seed that reproduces it.
//
// References kept here:
//   - reference_maze_route: the plain std::priority_queue Dijkstra that
//     routers::maze_route must match bit for bit (cells, cost, status);
//   - full-grid DemandMap recomputation, which per-net sparse accounting
//     (grid::NetEdgeMap) must match bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "dag/path.hpp"
#include "grid/demand_map.hpp"
#include "grid/gcell_grid.hpp"
#include "routers/maze.hpp"
#include "util/rng.hpp"

namespace dgr::test {

using geom::Coord;
using geom::Point;
using grid::EdgeId;
using grid::GCellGrid;

/// Runs check(rng) for `cases` consecutive seeds starting at `first_seed`,
/// each with a fresh util::Rng(seed). Failures are tagged with the seed and
/// the loop stops at the first fatal one.
template <class Check>
void for_each_seed(std::uint64_t first_seed, int cases, Check&& check) {
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    check(rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Bitwise double equality (distinguishes -0.0 from 0.0, equates NaNs of
/// the same payload), the contract for "same result, not just close".
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The reference maze search: textbook Dijkstra over a std::priority_queue
/// of (dist, cell) pairs with full-grid dist/prev arrays per call.
inline routers::MazeResult reference_maze_route(
    const GCellGrid& grid, const std::vector<Point>& sources, Point target,
    const std::function<double(EdgeId)>& edge_cost) {
  routers::MazeResult result;
  if (sources.empty()) {
    result.status = Status(StatusCode::kInvalidArgument, "maze: empty source set");
    return result;
  }
  const auto num_cells = static_cast<std::size_t>(grid.cell_count());
  std::vector<double> dist(num_cells, std::numeric_limits<double>::infinity());
  std::vector<std::int32_t> prev(num_cells, -1);

  using QItem = std::pair<double, std::int32_t>;  // (dist, cell)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> queue;
  for (const Point& s : sources) {
    const auto c = static_cast<std::size_t>(grid.cell_id(s));
    if (dist[c] > 0.0) {
      dist[c] = 0.0;
      queue.push({0.0, static_cast<std::int32_t>(c)});
    }
  }
  const auto target_id = static_cast<std::size_t>(grid.cell_id(target));

  while (!queue.empty()) {
    const auto [d, cell] = queue.top();
    queue.pop();
    const auto c = static_cast<std::size_t>(cell);
    if (d > dist[c]) continue;  // stale entry
    if (c == target_id) break;
    const Point p = grid.cell_point(cell);
    const Point neighbours[4] = {
        {static_cast<Coord>(p.x - 1), p.y},
        {static_cast<Coord>(p.x + 1), p.y},
        {p.x, static_cast<Coord>(p.y - 1)},
        {p.x, static_cast<Coord>(p.y + 1)},
    };
    for (const Point& q : neighbours) {
      if (!grid.in_bounds(q)) continue;
      const EdgeId e = grid.edge_between(p, q);
      const double nd = d + edge_cost(e);
      const auto qc = static_cast<std::size_t>(grid.cell_id(q));
      if (nd < dist[qc]) {
        dist[qc] = nd;
        prev[qc] = cell;
        queue.push({nd, static_cast<std::int32_t>(qc)});
      }
    }
  }

  if (!std::isfinite(dist[target_id])) {
    const Point t = grid.cell_point(static_cast<std::int32_t>(target_id));
    result.status = Status(StatusCode::kUnreachableTarget,
                           "maze: target (" + std::to_string(t.x) + "," +
                               std::to_string(t.y) + ") unreachable from " +
                               std::to_string(sources.size()) + " source(s)");
    return result;
  }
  result.found = true;
  result.status = Status();
  result.cost = dist[target_id];
  std::vector<Point> reversed;
  for (std::int32_t cur = static_cast<std::int32_t>(target_id); cur >= 0;
       cur = prev[static_cast<std::size_t>(cur)]) {
    reversed.push_back(grid.cell_point(cur));
  }
  result.cells.assign(reversed.rbegin(), reversed.rend());
  return result;
}

/// A random cell of `grid`.
inline Point random_cell(util::Rng& rng, const GCellGrid& grid) {
  return Point{static_cast<Coord>(rng.uniform_int(0, grid.width() - 1)),
               static_cast<Coord>(rng.uniform_int(0, grid.height() - 1))};
}

/// One seeded maze instance: a grid (1xN, Nx1 or general), a per-edge cost
/// table, a source set and a target.
struct MazeCase {
  GCellGrid grid;
  std::vector<double> cost;  ///< per edge id
  std::vector<Point> sources;
  Point target;
};

/// Draws a maze case. Costs come from the tie-heavy set {0.5, 1, 500.5}
/// (most cases) or a continuous range, with a share of +inf walls; sources
/// are 1-4 random cells, sometimes with duplicates and sometimes including
/// the target itself.
inline MazeCase draw_maze_case(util::Rng& rng) {
  int w = 1;
  int h = 1;
  switch (rng.uniform_int(0, 3)) {
    case 0:  // 1 x N
      h = static_cast<int>(rng.uniform_int(1, 24));
      break;
    case 1:  // N x 1
      w = static_cast<int>(rng.uniform_int(1, 24));
      break;
    default:
      w = static_cast<int>(rng.uniform_int(2, 24));
      h = static_cast<int>(rng.uniform_int(2, 24));
  }
  MazeCase mc{GCellGrid::uniform(w, h, 2, 1), {}, {}, {}};
  const double wall_share = rng.uniform_int(0, 2) == 0 ? 0.0 : rng.uniform(0.0, 0.3);
  const bool tie_heavy = rng.uniform_int(0, 3) != 0;
  constexpr double kTies[3] = {0.5, 1.0, 500.5};
  mc.cost.resize(static_cast<std::size_t>(mc.grid.edge_count()));
  for (double& c : mc.cost) {
    if (rng.uniform() < wall_share) {
      c = std::numeric_limits<double>::infinity();
    } else {
      c = tie_heavy ? kTies[rng.uniform_int(0, 2)] : rng.uniform(0.25, 8.0);
    }
  }
  mc.target = random_cell(rng, mc.grid);
  const auto count = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < count; ++i) mc.sources.push_back(random_cell(rng, mc.grid));
  if (rng.uniform_int(0, 4) == 0) {
    mc.sources.insert(mc.sources.begin() + rng.uniform_int(0, count), mc.target);
  }
  if (rng.uniform_int(0, 4) == 0) mc.sources.push_back(mc.sources.front());
  return mc;
}

/// Expects two maze results to be identical: status, found flag, bitwise
/// cost and the exact cell walk.
inline void expect_same_maze(const routers::MazeResult& want,
                             const routers::MazeResult& got) {
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(got.status.message(), want.status.message());
  EXPECT_EQ(got.found, want.found);
  EXPECT_TRUE(same_bits(got.cost, want.cost)) << got.cost << " vs " << want.cost;
  EXPECT_EQ(got.cells, want.cells);
}

/// A random axis-aligned walk of 1-4 legs inside `grid` (legs may double
/// back, so the walk may revisit edges).
inline dag::PatternPath random_walk(util::Rng& rng, const GCellGrid& grid) {
  dag::PatternPath path;
  Point cur = random_cell(rng, grid);
  path.waypoints.push_back(cur);
  const auto legs = rng.uniform_int(1, 4);
  for (std::int64_t leg = 0; leg < legs; ++leg) {
    Point next = cur;
    if ((leg % 2 == 0) == (rng.uniform_int(0, 1) == 0)) {
      next.x = static_cast<Coord>(rng.uniform_int(0, grid.width() - 1));
    } else {
      next.y = static_cast<Coord>(rng.uniform_int(0, grid.height() - 1));
    }
    if (next == cur) continue;
    path.waypoints.push_back(next);
    cur = next;
  }
  if (path.waypoints.size() < 2) path.waypoints.push_back(cur);
  return path;
}

}  // namespace dgr::test
