#pragma once
// Shared maze-routing machinery for the sequential baseline routers and the
// post-processing refinement stage: multi-source Dijkstra over the g-cell
// graph with a caller-supplied edge cost, and helpers to turn cell walks
// into PatternPath polylines.
//
// The search is one header template so every caller's cost functor inlines
// into the relaxation loop. Its working arrays live in per-thread scratch
// that is generation-stamped (no per-call allocation or clear) and grows to
// the largest grid the thread has searched; it is never shrunk. The heap is
// keyed on (dist, cell), so cells settle in the same order as a plain
// std::priority_queue Dijkstra and paths, costs and statuses are
// bit-identical to it (tests/checker.hpp keeps that reference).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dag/path.hpp"
#include "grid/gcell_grid.hpp"
#include "util/status.hpp"

namespace dgr::routers {

using dag::PatternPath;
using geom::Point;
using grid::EdgeId;
using grid::GCellGrid;

struct MazeResult {
  bool found = false;
  double cost = 0.0;
  std::vector<Point> cells;  ///< source cell ... target cell (inclusive)
  /// Typed outcome: OK when a path was found; kUnreachableTarget when the
  /// search exhausted the grid without reaching the target (e.g. an edge
  /// cost of +inf walls it off); defaults to kCancelled so callers can tell
  /// "no path exists" apart from "search never ran".
  Status status{StatusCode::kCancelled, "maze: not attempted"};
};

/// Largest grid side maze_route searches (the .dgrd format's limit).
inline constexpr int kMaxMazeDim = 1 << 16;

namespace detail {

/// Per-thread Dijkstra state. Stamps tag a cell as reached (`open()`) or
/// settled (`closed()`) in the current search; any other stamp means
/// "unreached", so starting a search is O(1) and dist/prev are read only
/// for stamped cells.
struct MazeScratch {
  /// Heap entry: ordered by (dist, cell) only; x/y ride along so the pop
  /// needs no division to find the cell's neighbours. 16-bit coordinates
  /// cover every grid maze_route accepts (kMaxMazeDim per axis).
  struct Entry {
    double dist;
    std::int32_t cell;
    std::uint16_t x;
    std::uint16_t y;
  };

  std::vector<double> dist;
  std::vector<std::int32_t> prev;
  std::vector<std::uint32_t> stamp;
  std::vector<Entry> heap;
  std::uint32_t generation = 0;  ///< even; open() = generation, closed() = +1

  std::uint32_t open() const { return generation; }
  std::uint32_t closed() const { return generation + 1; }

  /// Opens a search over `cells` cells: grows the arrays if needed and
  /// advances the generation (re-zeroing stamps only on wrap-around).
  void begin(std::size_t cells);
};

/// The calling thread's scratch. Not re-entrant: a cost functor must not
/// itself call maze_route.
MazeScratch& maze_scratch();

Status unreachable_status(Point target, std::size_t num_sources);

}  // namespace detail

/// Dijkstra from any of `sources` (all seeded at distance 0) to `target`.
/// `edge_cost(EdgeId) -> double` must return a non-negative cost per g-cell
/// edge (+inf walls the edge off). `result.status` distinguishes success,
/// an unreachable target and an empty source set or a grid wider or taller
/// than kMaxMazeDim (kInvalidArgument); `cells` is empty unless found.
template <class Cost>
MazeResult maze_route(const GCellGrid& grid, const std::vector<Point>& sources,
                      Point target, const Cost& edge_cost) {
  MazeResult result;
  if (sources.empty()) {
    result.status = Status(StatusCode::kInvalidArgument, "maze: empty source set");
    return result;
  }
  if (grid.width() > kMaxMazeDim || grid.height() > kMaxMazeDim) {
    result.status = Status(StatusCode::kInvalidArgument, "maze: grid side exceeds 65536");
    return result;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::int32_t width = grid.width();
  const std::int32_t height = grid.height();
  const EdgeId h_edges = grid.h_edge_count();

  detail::MazeScratch& s = detail::maze_scratch();
  s.begin(static_cast<std::size_t>(grid.cell_count()));
  const std::uint32_t open = s.open();
  const std::uint32_t closed = s.closed();
  double* const dist = s.dist.data();
  std::int32_t* const prev = s.prev.data();
  std::uint32_t* const stamp = s.stamp.data();
  using Entry = detail::MazeScratch::Entry;
  std::vector<Entry>& heap = s.heap;
  // Min-heap on (dist, cell): the same total order std::greater gives a
  // std::priority_queue of (dist, cell) pairs. Live entries never tie on
  // both, so every heap pops the same sequence.
  const auto later = [](const Entry& a, const Entry& b) {
    return a.dist > b.dist || (a.dist == b.dist && a.cell > b.cell);
  };
  auto push = [&](double d, std::int32_t cell, std::int32_t x, std::int32_t y) {
    heap.push_back({d, cell, static_cast<std::uint16_t>(x), static_cast<std::uint16_t>(y)});
    std::push_heap(heap.begin(), heap.end(), later);
  };

  for (const Point& p : sources) {
    const std::int32_t c = grid.cell_id(p);
    if (stamp[c] != open || dist[c] > 0.0) {
      stamp[c] = open;
      dist[c] = 0.0;
      prev[c] = -1;
      push(0.0, c, p.x, p.y);
    }
  }
  const std::int32_t target_id = grid.cell_id(target);

  // Relaxes cell `q` at (qx, qy) through edge `e` from `cell`, settled at
  // distance `d`. A settled neighbour is skipped before its edge is priced:
  // with non-negative costs d + cost(e) >= d >= dist[q] could never win.
  auto relax = [&](std::int32_t cell, double d, std::int32_t q, std::int32_t qx,
                   std::int32_t qy, EdgeId e) {
    const std::uint32_t st = stamp[q];
    if (st == closed) return;
    const double nd = d + edge_cost(e);
    if (st != open) {
      if (!(nd < kInf)) return;
      stamp[q] = open;
    } else if (!(nd < dist[q])) {
      return;
    }
    dist[q] = nd;
    prev[q] = cell;
    push(nd, q, qx, qy);
  };

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Entry top = heap.back();
    heap.pop_back();
    const std::int32_t cell = top.cell;
    // Stale entry: the cell already settled at a smaller distance.
    if (stamp[cell] == closed) continue;
    if (cell == target_id) break;
    stamp[cell] = closed;
    const double d = top.dist;
    const std::int32_t x = top.x;
    const std::int32_t y = top.y;
    // Neighbour order x-1, x+1, y-1, y+1 fixes which equal-cost
    // predecessor wins; edge ids follow the GCellGrid numbering.
    const EdgeId h_row = y * (width - 1);
    if (x > 0) relax(cell, d, cell - 1, x - 1, y, h_row + x - 1);
    if (x + 1 < width) relax(cell, d, cell + 1, x + 1, y, h_row + x);
    if (y > 0) relax(cell, d, cell - width, x, y - 1, h_edges + cell - width);
    if (y + 1 < height) relax(cell, d, cell + width, x, y + 1, h_edges + cell);
  }
  heap.clear();

  if (stamp[target_id] != open && stamp[target_id] != closed) {
    // Surface the dead end as a typed Status instead of a silent empty
    // result, so callers can distinguish "no path" from "not attempted".
    result.status = detail::unreachable_status(grid.cell_point(target_id), sources.size());
    return result;
  }
  result.found = true;
  result.status = Status();  // OK
  result.cost = dist[target_id];
  // Walk predecessors back to a source, filling the path from its end.
  std::size_t length = 0;
  for (std::int32_t cur = target_id; cur >= 0; cur = prev[cur]) ++length;
  result.cells.resize(length);
  std::size_t i = length;
  for (std::int32_t cur = target_id; cur >= 0; cur = prev[cur]) {
    result.cells[--i] = grid.cell_point(cur);
  }
  return result;
}

/// Compresses a cell walk into a waypoint polyline (collinear runs merged).
/// The result is a valid PatternPath geometry (possibly non-monotone).
PatternPath compress_cells(const std::vector<Point>& cells);

}  // namespace dgr::routers
