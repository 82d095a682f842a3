#include "routers/maze.hpp"

#include <algorithm>

namespace dgr::routers {

namespace detail {

void MazeScratch::begin(std::size_t cells) {
  if (stamp.size() < cells) {
    dist.resize(cells);
    prev.resize(cells);
    stamp.resize(cells, 0);
  }
  generation += 2;
  if (generation == 0) {
    // Wrapped: stale stamps could alias the new generation's tags.
    std::fill(stamp.begin(), stamp.end(), 0u);
    generation = 2;
  }
  heap.clear();
}

MazeScratch& maze_scratch() {
  thread_local MazeScratch scratch;
  return scratch;
}

Status unreachable_status(Point target, std::size_t num_sources) {
  return Status(StatusCode::kUnreachableTarget,
                "maze: target (" + std::to_string(target.x) + "," +
                    std::to_string(target.y) + ") unreachable from " +
                    std::to_string(num_sources) + " source(s)");
}

}  // namespace detail

PatternPath compress_cells(const std::vector<Point>& cells) {
  PatternPath path;
  if (cells.empty()) return path;
  path.waypoints.push_back(cells.front());
  for (std::size_t i = 1; i + 1 < cells.size(); ++i) {
    const Point& a = path.waypoints.back();
    const Point& b = cells[i];
    const Point& c = cells[i + 1];
    const bool collinear = (a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y);
    if (!collinear) path.waypoints.push_back(b);
  }
  if (cells.size() > 1 || path.waypoints.front() == cells.back()) {
    path.waypoints.push_back(cells.back());
  }
  if (path.waypoints.size() == 1) path.waypoints.push_back(cells.back());
  return path;
}

}  // namespace dgr::routers
