#include "eval/solution.hpp"

#include <functional>
#include <map>

namespace dgr::eval {

using dag::PatternPath;
using geom::Point;
using grid::DemandMap;
using grid::EdgeId;

namespace {

template <class Map>
void apply_net_to(Map& dm, const design::Design& design, const NetRoute& net,
                  float via_beta, double sign) {
  const auto& grid = design.grid();
  for (const PatternPath& path : net.paths) {
    const std::vector<EdgeId> edges = path.edges(grid);
    for (const EdgeId e : edges) dm.add(e, sign);
    if (via_beta > 0.0f) {
      // Mirror the forest's via-charge placement: beta/2 on the edge
      // entering and the edge leaving each bend.
      std::size_t cursor = 0;
      for (std::size_t leg = 0; leg + 1 < path.waypoints.size(); ++leg) {
        cursor += static_cast<std::size_t>(
            geom::manhattan(path.waypoints[leg], path.waypoints[leg + 1]));
        if (leg + 2 < path.waypoints.size() && cursor > 0) {
          dm.add(edges[cursor - 1], sign * via_beta * 0.5);
          if (cursor < edges.size()) dm.add(edges[cursor], sign * via_beta * 0.5);
        }
      }
    }
  }
}

}  // namespace

void RouteSolution::apply_net(DemandMap& dm, const design::Design& design,
                              const NetRoute& net, float via_beta, double sign) {
  apply_net_to(dm, design, net, via_beta, sign);
}

void RouteSolution::apply_net(grid::NetEdgeMap& dm, const design::Design& design,
                              const NetRoute& net, float via_beta, double sign) {
  apply_net_to(dm, design, net, via_beta, sign);
}

DemandMap RouteSolution::demand(float via_beta) const {
  DemandMap dm(design->grid());
  for (const NetRoute& net : nets) apply_net(dm, *design, net, via_beta, +1.0);
  return dm;
}

std::int64_t RouteSolution::total_wirelength() const {
  std::int64_t total = 0;
  for (const NetRoute& net : nets) {
    for (const PatternPath& path : net.paths) total += path.length();
  }
  return total;
}

std::int64_t RouteSolution::total_bends() const {
  std::int64_t total = 0;
  for (const NetRoute& net : nets) {
    for (const PatternPath& path : net.paths) {
      total += static_cast<std::int64_t>(path.bend_count());
    }
  }
  return total;
}

bool RouteSolution::connects_all_pins() const {
  for (const NetRoute& net : nets) {
    const auto& pins = design->net(net.design_net).pins;
    // Union-find over every g-cell the net's paths touch.
    std::map<Point, int> id_of;
    std::vector<int> parent;
    auto node = [&](const Point& p) {
      auto [it, inserted] = id_of.emplace(p, static_cast<int>(parent.size()));
      if (inserted) parent.push_back(it->second);
      return it->second;
    };
    std::function<int(int)> find = [&](int x) {
      return parent[static_cast<std::size_t>(x)] == x
                 ? x
                 : parent[static_cast<std::size_t>(x)] =
                       find(parent[static_cast<std::size_t>(x)]);
    };
    auto unite = [&](int a, int b) {
      parent[static_cast<std::size_t>(find(a))] = find(b);
    };
    for (const PatternPath& path : net.paths) {
      int prev = -1;
      // Walk the polyline cell by cell, uniting consecutive cells.
      for (std::size_t leg = 0; leg + 1 < path.waypoints.size(); ++leg) {
        Point cur = path.waypoints[leg];
        const Point dst = path.waypoints[leg + 1];
        const int dx = dst.x > cur.x ? 1 : (dst.x < cur.x ? -1 : 0);
        const int dy = dst.y > cur.y ? 1 : (dst.y < cur.y ? -1 : 0);
        for (;;) {
          const int cell = node(cur);
          if (prev >= 0) unite(prev, cell);
          prev = cell;
          if (cur == dst) break;
          cur = Point{static_cast<geom::Coord>(cur.x + dx),
                      static_cast<geom::Coord>(cur.y + dy)};
        }
      }
      if (path.waypoints.size() == 2 && path.waypoints[0] == path.waypoints[1]) {
        node(path.waypoints[0]);  // degenerate path still claims its cell
      }
    }
    if (id_of.empty()) {
      if (pins.size() > 1) return false;
      continue;
    }
    int root = -1;
    for (const Point& pin : pins) {
      auto it = id_of.find(pin);
      if (it == id_of.end()) return false;  // pin not covered
      const int r = find(it->second);
      if (root == -1) root = r;
      if (r != root) return false;  // disconnected component
    }
  }
  return true;
}

}  // namespace dgr::eval
