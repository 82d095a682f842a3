#include <gtest/gtest.h>

#include <bit>

#include "design/generator.hpp"
#include "eval/metrics.hpp"
#include "post/layer_assign.hpp"
#include "post/maze_refine.hpp"
#include "routers/cugr2lite.hpp"
#include "util/parallel.hpp"

namespace dgr::post {
namespace {

using design::Design;
using design::Net;
using eval::NetRoute;
using eval::RouteSolution;
using geom::Point;
using grid::Dir;
using grid::GCellGrid;

/// Hand-built solution: one net with an L route, one straight net.
struct Fixture {
  std::unique_ptr<Design> design;
  RouteSolution sol;

  static Fixture make() {
    Fixture fx;
    GCellGrid grid = GCellGrid::uniform(8, 8, 4, 3);
    std::vector<Net> nets;
    nets.push_back({"l", {{0, 0}, {4, 4}}});
    nets.push_back({"s", {{1, 6}, {6, 6}}});
    fx.design = std::make_unique<Design>("fx", std::move(grid), std::move(nets));
    fx.sol.design = fx.design.get();
    NetRoute l;
    l.design_net = 0;
    l.paths.push_back(dag::PatternPath{{{0, 0}, {4, 0}, {4, 4}}});
    NetRoute s;
    s.design_net = 1;
    s.paths.push_back(dag::PatternPath{{{1, 6}, {6, 6}}});
    fx.sol.nets = {l, s};
    return fx;
  }
};

TEST(LayerAssign, LegsGoToMatchingDirectionLayers) {
  Fixture fx = Fixture::make();
  const auto la = assign_layers(fx.sol, fx.design->capacities());
  ASSERT_EQ(la.leg_layers.size(), 2u);
  ASSERT_EQ(la.leg_layers[0].size(), 2u);  // two legs of the L
  ASSERT_EQ(la.leg_layers[1].size(), 1u);
  const auto& layers = fx.design->grid().layers();
  // Leg 0 of net 0 is horizontal, leg 1 vertical, net 1's single leg horizontal.
  EXPECT_EQ(layers[static_cast<std::size_t>(la.leg_layers[0][0])].dir, Dir::kHorizontal);
  EXPECT_EQ(layers[static_cast<std::size_t>(la.leg_layers[0][1])].dir, Dir::kVertical);
  EXPECT_EQ(layers[static_cast<std::size_t>(la.leg_layers[1][0])].dir, Dir::kHorizontal);
}

TEST(LayerAssign, ViaCountCoversPinAccessAndBends) {
  Fixture fx = Fixture::make();
  const auto la = assign_layers(fx.sol, fx.design->capacities());
  // Net 0's bend joins an H layer and a V layer (>= 1 apart) and its far pin
  // needs access from the V layer: at least 2 vias. Net 1 can sit entirely on
  // the pin layer.
  EXPECT_GE(la.via_count, 2);
  // Sanity upper bound: no junction can need more than L-1 vias, and we have
  // few junctions.
  EXPECT_LE(la.via_count, 30);
}

TEST(LayerAssign, NoOverflowOnUncongestedFixture) {
  Fixture fx = Fixture::make();
  const auto la = assign_layers(fx.sol, fx.design->capacities());
  EXPECT_EQ(la.overflowed_layer_edges, 0);
  EXPECT_EQ(la.nets_with_overflow, 0);
}

TEST(LayerAssign, SharedColumnSpreadsAcrossLayers) {
  // Many nets through the same vertical column: the DP must spread them over
  // the V layers instead of stacking them on one.
  GCellGrid grid = GCellGrid::uniform(4, 10, 6, 2);  // V layers: 1,3,5
  std::vector<Net> nets;
  RouteSolution sol;
  const int kNets = 6;
  for (int i = 0; i < kNets; ++i) {
    nets.push_back({"n" + std::to_string(i), {{1, 0}, {1, 9}}});
  }
  auto design = std::make_unique<Design>("col", std::move(grid), std::move(nets));
  sol.design = design.get();
  for (int i = 0; i < kNets; ++i) {
    NetRoute r;
    r.design_net = static_cast<std::size_t>(i);
    r.paths.push_back(dag::PatternPath{{{1, 0}, {1, 9}}});
    sol.nets.push_back(r);
  }
  const auto cap = design->capacities();
  const auto la = assign_layers(sol, cap);
  std::set<int> used;
  for (int i = 0; i < kNets; ++i) used.insert(la.leg_layers[static_cast<std::size_t>(i)][0]);
  EXPECT_GE(used.size(), 2u);  // spread across at least 2 V layers
}

TEST(LayerAssign, EmptyRoutesAreHandled) {
  GCellGrid grid = GCellGrid::uniform(4, 4, 4, 2);
  std::vector<Net> nets{{"n", {{0, 0}, {2, 2}}}};
  auto design = std::make_unique<Design>("e", std::move(grid), std::move(nets));
  RouteSolution sol;
  sol.design = design.get();
  sol.nets.push_back(NetRoute{0, {}});
  const auto la = assign_layers(sol, design->capacities());
  EXPECT_EQ(la.via_count, 0);
}

TEST(LayerAssign, EndToEndAfterRouter) {
  design::IspdLikeParams p;
  p.num_nets = 200;
  p.grid_w = p.grid_h = 20;
  p.layers = 5;
  const Design d = design::generate_ispd_like(p, 55);
  const auto cap = d.capacities();
  routers::Cugr2Lite router(d, cap);
  const RouteSolution sol = router.route();
  const auto la = assign_layers(sol, cap);
  EXPECT_EQ(la.leg_layers.size(), sol.nets.size());
  EXPECT_GT(la.via_count, 0);
  // Every leg got a real layer of the right direction.
  const auto& layers = d.grid().layers();
  for (std::size_t n = 0; n < sol.nets.size(); ++n) {
    std::size_t flat = 0;
    for (const dag::PatternPath& path : sol.nets[n].paths) {
      for (std::size_t k = 0; k + 1 < path.waypoints.size(); ++k) {
        const Point a = path.waypoints[k];
        const Point b = path.waypoints[k + 1];
        if (a == b) continue;
        const int layer = la.leg_layers[n][flat++];
        ASSERT_GE(layer, 0);
        ASSERT_LT(layer, d.grid().layer_count());
        const Dir want = (a.y == b.y) ? Dir::kHorizontal : Dir::kVertical;
        EXPECT_EQ(layers[static_cast<std::size_t>(layer)].dir, want);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Maze refinement
// ---------------------------------------------------------------------------

/// A deliberately bad solution: both nets stacked on the same straight line
/// across a capacity-1 grid.
struct CongestedFixture {
  std::unique_ptr<Design> design;
  std::vector<float> cap;
  RouteSolution sol;

  static CongestedFixture make() {
    CongestedFixture fx;
    GCellGrid grid = GCellGrid::uniform(8, 8, 2, 1);
    std::vector<Net> nets;
    nets.push_back({"a", {{0, 3}, {7, 3}}});
    nets.push_back({"b", {{0, 3}, {7, 3}}});
    fx.design = std::make_unique<Design>("cong", std::move(grid), std::move(nets));
    fx.cap.assign(static_cast<std::size_t>(fx.design->grid().edge_count()), 1.0f);
    fx.sol.design = fx.design.get();
    for (std::size_t i = 0; i < 2; ++i) {
      NetRoute r;
      r.design_net = i;
      r.paths.push_back(dag::PatternPath{{{0, 3}, {7, 3}}});
      fx.sol.nets.push_back(r);
    }
    return fx;
  }
};

TEST(MazeRefine, ReducesOverflowAndKeepsConnectivity) {
  CongestedFixture fx = CongestedFixture::make();
  const double before = fx.sol.demand(0.5f).total_overflow(fx.cap);
  EXPECT_GT(before, 0.0);
  MazeRefineOptions opts;
  const MazeRefineStats stats = maze_refine(fx.sol, fx.cap, opts);
  EXPECT_LE(stats.overflow_after, stats.overflow_before);
  EXPECT_LT(stats.overflow_after, before);
  EXPECT_TRUE(fx.sol.connects_all_pins());
  EXPECT_GT(stats.nets_rerouted, 0);
}

TEST(MazeRefine, NoopOnCleanSolution) {
  Fixture fx = Fixture::make();
  const auto cap = fx.design->capacities();
  const MazeRefineStats stats = maze_refine(fx.sol, cap);
  EXPECT_EQ(stats.nets_rerouted, 0);
  EXPECT_DOUBLE_EQ(stats.overflow_before, 0.0);
  EXPECT_DOUBLE_EQ(stats.overflow_after, 0.0);
}

TEST(MazeRefine, MonotoneOverRounds) {
  CongestedFixture fx = CongestedFixture::make();
  MazeRefineOptions opts;
  opts.max_rounds = 5;
  opts.via_beta = 0.0f;  // wire-only: bends on cap-1 edges are then free
  const MazeRefineStats stats = maze_refine(fx.sol, fx.cap, opts);
  EXPECT_LE(stats.overflow_after, stats.overflow_before);
  // Two parallel nets on a cap-1 grid can always be fully separated.
  EXPECT_DOUBLE_EQ(stats.overflow_after, 0.0);
}

TEST(MazeRefine, EndToEndAfterRouterOnCongestedCase) {
  design::IspdLikeParams p;
  p.num_nets = 400;
  p.grid_w = p.grid_h = 18;
  p.layers = 5;
  p.tracks_per_layer = 2;
  p.hotspot_affinity = 0.7;
  const Design d = design::generate_ispd_like(p, 77);
  const auto cap = d.capacities();
  routers::Cugr2LiteOptions ropts;
  ropts.rrr_rounds = 1;
  routers::Cugr2Lite router(d, cap, ropts);
  RouteSolution sol = router.route();
  const MazeRefineStats stats = maze_refine(sol, cap);
  EXPECT_LE(stats.overflow_after, stats.overflow_before + 1e-9);
  EXPECT_TRUE(sol.connects_all_pins());
}

/// FNV-1a over every net's index and waypoints, in solution order.
std::uint64_t solution_hash(const RouteSolution& sol) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const NetRoute& net : sol.nets) {
    mix(net.design_net);
    mix(net.paths.size());
    for (const dag::PatternPath& p : net.paths) {
      mix(p.waypoints.size());
      for (const Point& q : p.waypoints) {
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(q.x)) << 32 |
            static_cast<std::uint32_t>(q.y));
      }
    }
  }
  return h;
}

struct RefineOutcome {
  MazeRefineStats stats;
  std::uint64_t hash = 0;
};

// Golden values captured from the std::priority_queue maze core with
// full-grid per-net DemandMaps that the current core replaced: stats and
// geometry must not move, at any worker count.
TEST(MazeRefine, GoldenOnSeededCongestedDesign) {
  design::IspdLikeParams p;
  p.num_nets = 500;
  p.grid_w = p.grid_h = 24;
  p.layers = 5;
  p.tracks_per_layer = 3;
  p.hotspot_affinity = 0.6;
  const Design d = design::generate_ispd_like(p, 2024);
  const auto cap = d.capacities();
  routers::Cugr2LiteOptions ropts;
  ropts.rrr_rounds = 1;
  const RouteSolution initial = routers::Cugr2Lite(d, cap, ropts).route();
  ASSERT_EQ(solution_hash(initial), 0xb3fa8c558ebd7308ull);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    util::set_worker_count(workers);
    // One refine per worker slot, run as concurrent pool jobs, so the
    // per-thread maze scratch is exercised on the pool's threads too.
    std::vector<RefineOutcome> out(workers);
    util::ParallelRuntime::for_each(
        0, workers,
        [&](std::size_t i) {
          RouteSolution sol = initial;
          out[i].stats = maze_refine(sol, cap);
          out[i].hash = solution_hash(sol);
        },
        1);
    for (const RefineOutcome& o : out) {
      EXPECT_EQ(o.stats.rounds_run, 3);
      EXPECT_EQ(o.stats.nets_rerouted, 463);
      EXPECT_EQ(o.stats.nets_improved, 70);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(o.stats.overflow_before),
                std::bit_cast<std::uint64_t>(0x1.1f2aaaap+6));  // 71.79166650772095
      EXPECT_EQ(std::bit_cast<std::uint64_t>(o.stats.overflow_after),
                std::bit_cast<std::uint64_t>(0x1.eep+4));  // 30.875
      EXPECT_EQ(o.hash, 0x14185f201a3f48e2ull);
    }
  }
  util::set_worker_count(0);
}

}  // namespace
}  // namespace dgr::post
