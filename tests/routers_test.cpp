#include <gtest/gtest.h>

#include <limits>

#include "checker.hpp"
#include "design/generator.hpp"
#include "eval/metrics.hpp"
#include "eval/solution.hpp"
#include "routers/cugr2lite.hpp"
#include "routers/lagrangian.hpp"
#include "routers/maze.hpp"
#include "routers/sproute_lite.hpp"
#include "util/log.hpp"

namespace dgr::routers {
namespace {

using design::Design;
using design::Net;
using geom::Point;
using grid::GCellGrid;

// ---------------------------------------------------------------------------
// Maze routing primitive
// ---------------------------------------------------------------------------

TEST(Maze, FindsManhattanShortestPathOnUniformCosts) {
  const GCellGrid grid = GCellGrid::uniform(10, 10, 2, 1);
  const MazeResult r = maze_route(grid, {{1, 1}}, {7, 5}, [](grid::EdgeId) { return 1.0; });
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
  EXPECT_EQ(r.cells.size(), 11u);
  EXPECT_EQ(r.cells.front(), (Point{1, 1}));
  EXPECT_EQ(r.cells.back(), (Point{7, 5}));
  for (std::size_t i = 0; i + 1 < r.cells.size(); ++i) {
    EXPECT_EQ(geom::manhattan(r.cells[i], r.cells[i + 1]), 1);
  }
}

TEST(Maze, DetoursAroundExpensiveWall) {
  const GCellGrid grid = GCellGrid::uniform(7, 7, 2, 1);
  // Wall of expensive vertical edges at y=3 except a gap at x=6.
  auto cost = [&](grid::EdgeId e) {
    const auto [a, b] = grid.edge_cells(e);
    if (a.x == b.x && std::min(a.y, b.y) == 3 && a.x != 6) return 1000.0;
    return 1.0;
  };
  const MazeResult r = maze_route(grid, {{0, 0}}, {0, 6}, cost);
  ASSERT_TRUE(r.found);
  EXPECT_LT(r.cost, 1000.0);  // went through the gap
  bool visits_gap_column = false;
  for (const Point& c : r.cells) visits_gap_column |= (c.x == 6);
  EXPECT_TRUE(visits_gap_column);
}

TEST(Maze, MultiSourcePicksNearest) {
  const GCellGrid grid = GCellGrid::uniform(10, 10, 2, 1);
  const MazeResult r =
      maze_route(grid, {{0, 0}, {8, 8}}, {7, 7}, [](grid::EdgeId) { return 1.0; });
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);  // from (8,8)
  EXPECT_EQ(r.cells.front(), (Point{8, 8}));
}

TEST(Maze, SourceEqualsTarget) {
  const GCellGrid grid = GCellGrid::uniform(5, 5, 2, 1);
  const MazeResult r = maze_route(grid, {{2, 2}}, {2, 2}, [](grid::EdgeId) { return 1.0; });
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_EQ(r.cells.size(), 1u);
  EXPECT_TRUE(r.status.ok());
}

TEST(Maze, UnreachableTargetReportsTypedStatus) {
  // An all-infinite cost surface strands the target: the result must say
  // *why* there is no path, not just hand back an empty cell list.
  const GCellGrid grid = GCellGrid::uniform(6, 6, 2, 1);
  const MazeResult r = maze_route(grid, {{0, 0}}, {5, 5}, [](grid::EdgeId) {
    return std::numeric_limits<double>::infinity();
  });
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.cells.empty());
  EXPECT_EQ(r.status.code(), StatusCode::kUnreachableTarget);
  EXPECT_FALSE(r.status.message().empty());
}

TEST(Maze, EmptySourceSetIsInvalidArgument) {
  const GCellGrid grid = GCellGrid::uniform(6, 6, 2, 1);
  const MazeResult r = maze_route(grid, {}, {5, 5}, [](grid::EdgeId) { return 1.0; });
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Oracle checks (tests/checker.hpp): the optimised maze core and the sparse
// per-net accounting against their naive references, bit for bit.
// ---------------------------------------------------------------------------

TEST(MazeOracle, MatchesReferenceDijkstraOnSeededGrids) {
  int found = 0;
  int unreachable = 0;
  test::for_each_seed(1, 400, [&](util::Rng& rng) {
    const test::MazeCase mc = test::draw_maze_case(rng);
    auto cost = [&mc](grid::EdgeId e) { return mc.cost[static_cast<std::size_t>(e)]; };
    const MazeResult want = test::reference_maze_route(mc.grid, mc.sources, mc.target, cost);
    const MazeResult got = maze_route(mc.grid, mc.sources, mc.target, cost);
    test::expect_same_maze(want, got);
    (want.found ? found : unreachable) += 1;
  });
  // The draw must exercise both outcomes, or the comparison proves little.
  EXPECT_GT(found, 200);
  EXPECT_GT(unreachable, 10);
}

TEST(MazeOracle, EmptySourceSetMatchesReference) {
  const GCellGrid grid = GCellGrid::uniform(3, 3, 2, 1);
  auto cost = [](grid::EdgeId) { return 1.0; };
  test::expect_same_maze(test::reference_maze_route(grid, {}, {1, 1}, cost),
                         maze_route(grid, {}, {1, 1}, cost));
}

TEST(NetEdgeMapOracle, MatchesFullGridDemandMapRecompute) {
  grid::NetEdgeMap sparse;  // reused across cases, as a refine pass reuses one map
  test::for_each_seed(1, 300, [&](util::Rng& rng) {
    const int w = static_cast<int>(rng.uniform_int(1, 20));
    const int h = static_cast<int>(rng.uniform_int(1, 20));
    const Design d("oracle", GCellGrid::uniform(w, h, 2, 1), {});
    const GCellGrid& grid = d.grid();
    eval::NetRoute net;
    for (std::int64_t i = rng.uniform_int(1, 4); i > 0; --i) {
      net.paths.push_back(test::random_walk(rng, grid));
    }
    constexpr float kViaBetas[3] = {0.0f, 0.3f, 0.5f};
    const float via_beta = kViaBetas[rng.uniform_int(0, 2)];

    grid::DemandMap full(grid);
    sparse.reset(static_cast<std::size_t>(grid.edge_count()));
    eval::RouteSolution::apply_net(full, d, net, via_beta, +1.0);
    eval::RouteSolution::apply_net(sparse, d, net, via_beta, +1.0);
    for (grid::EdgeId e = 0; e < grid.edge_count(); ++e) {
      ASSERT_TRUE(test::same_bits(sparse.demand(e), full.demand(e))) << "edge " << e;
    }

    // Sparse iteration visits exactly the full scan's non-zero edges, in
    // its (ascending) order.
    std::vector<grid::EdgeId> nonzero;
    for (grid::EdgeId e = 0; e < grid.edge_count(); ++e) {
      if (full.demand(e) != 0.0) nonzero.push_back(e);
    }
    ASSERT_EQ(sparse.sorted_edges(), nonzero);

    // So the marginal-overflow sum the refine/repair pricing takes matches
    // the full-grid scan bitwise. The per-edge 1/(e+3) factor makes the sum
    // order-sensitive, so a visit order differing from the scan shows here.
    grid::DemandMap others(grid);
    std::vector<float> cap(static_cast<std::size_t>(grid.edge_count()));
    for (grid::EdgeId e = 0; e < grid.edge_count(); ++e) {
      others.add(e, static_cast<double>(rng.uniform_int(0, 6)) * 0.25);
      cap[static_cast<std::size_t>(e)] = static_cast<float>(rng.uniform_int(0, 4));
    }
    auto term = [&](grid::EdgeId e, double w) {
      const double base = others.demand(e);
      const double c = cap[static_cast<std::size_t>(e)];
      return (std::max(0.0, base + w - c) - std::max(0.0, base - c)) / (e + 3.0);
    };
    double want = 0.0;
    for (grid::EdgeId e = 0; e < grid.edge_count(); ++e) {
      if (full.demand(e) > 0.0) want += term(e, full.demand(e));
    }
    double got = 0.0;
    for (const grid::EdgeId e : sparse.sorted_edges()) {
      if (sparse.demand(e) > 0.0) got += term(e, sparse.demand(e));
    }
    EXPECT_TRUE(test::same_bits(got, want)) << got << " vs " << want;
  });
}

TEST(Maze, WidestSupportedGridRoutesEndToEnd) {
  // Heap entries carry 16-bit coordinates: the far corner of the widest
  // accepted grid must still be reached exactly.
  const GCellGrid grid = GCellGrid::uniform(kMaxMazeDim, 1, 2, 1);
  const Point far{static_cast<geom::Coord>(kMaxMazeDim - 1), 0};
  const MazeResult r = maze_route(grid, {{0, 0}}, far, [](grid::EdgeId) { return 1.0; });
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.cost, kMaxMazeDim - 1.0);
  EXPECT_EQ(r.cells.back(), far);
}

TEST(Maze, OversizedGridIsInvalidArgument) {
  const GCellGrid grid = GCellGrid::uniform(1, kMaxMazeDim + 1, 2, 1);
  const MazeResult r = maze_route(grid, {{0, 0}}, {0, 1}, [](grid::EdgeId) { return 1.0; });
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(CompressCells, MergesCollinearRuns) {
  const std::vector<Point> cells{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}, {3, 2}};
  const dag::PatternPath p = compress_cells(cells);
  EXPECT_EQ(p.waypoints,
            (std::vector<Point>{{0, 0}, {2, 0}, {2, 2}, {3, 2}}));
  EXPECT_EQ(p.length(), 5);
  EXPECT_EQ(p.bend_count(), 2u);
}

TEST(CompressCells, SingleCell) {
  const dag::PatternPath p = compress_cells({{4, 4}});
  EXPECT_EQ(p.waypoints.size(), 2u);
  EXPECT_EQ(p.length(), 0);
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

Design easy_design() {
  design::IspdLikeParams p;
  p.name = "easy";
  p.grid_w = p.grid_h = 24;
  p.num_nets = 150;
  p.layers = 6;
  p.tracks_per_layer = 6;
  p.hotspot_affinity = 0.2;
  return design::generate_ispd_like(p, 101);
}

Design congested_design() {
  design::IspdLikeParams p;
  p.name = "congested";
  p.grid_w = p.grid_h = 20;
  p.num_nets = 500;
  p.layers = 5;
  p.tracks_per_layer = 2;
  p.hotspots = 2;
  p.hotspot_affinity = 0.7;
  return design::generate_ispd_like(p, 202);
}

template <typename Router>
eval::RouteSolution run_router(const Design& d) {
  Router router(d, d.capacities());
  return router.route();
}

// ---------------------------------------------------------------------------
// CUGR2-lite
// ---------------------------------------------------------------------------

TEST(Cugr2Lite, ConnectsAllPins) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<Cugr2Lite>(d);
  EXPECT_EQ(sol.nets.size(), d.routable_nets().size());
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(Cugr2Lite, ZeroOverflowOnEasyDesign) {
  const Design d = easy_design();
  Cugr2Lite router(d, d.capacities());
  Cugr2LiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_EQ(m.overflow_edges, 0);
  EXPECT_GT(stats.nets_rerouted, 0);
}

TEST(Cugr2Lite, RrrReducesOverflow) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  Cugr2LiteOptions no_rrr;
  no_rrr.rrr_rounds = 0;
  Cugr2LiteOptions full;
  full.rrr_rounds = 6;
  Cugr2Lite a(d, cap, no_rrr), b(d, cap, full);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

TEST(Cugr2Lite, WirelengthNearHpwlOnEasyDesign) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<Cugr2Lite>(d);
  std::int64_t hpwl = 0;
  for (const std::size_t n : d.routable_nets()) {
    hpwl += geom::Rect::bounding_box(d.net(n).pins).hpwl();
  }
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_GE(m.wirelength, hpwl);
  EXPECT_LE(m.wirelength, 2 * hpwl);  // pattern routes stay near-minimal
}

TEST(Cugr2Lite, TimeBudgetStopsRrrButReturnsWholeSolution) {
  const Design d = congested_design();
  Cugr2LiteOptions opts;
  opts.rrr_rounds = 1000;  // would run forever without the budget
  opts.time_budget_seconds = 1e-9;
  Cugr2Lite router(d, d.capacities(), opts);
  Cugr2LiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  EXPECT_TRUE(stats.timed_out);
  EXPECT_EQ(stats.rounds_run, 0);  // initial pass completed, no RRR round ran
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(SpRouteLite, TimeBudgetStopsNegotiationButReturnsWholeSolution) {
  const Design d = congested_design();
  SpRouteLiteOptions opts;
  opts.max_rounds = 1000;
  opts.time_budget_seconds = 1e-9;
  SpRouteLite router(d, d.capacities(), opts);
  SpRouteLiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  EXPECT_TRUE(stats.timed_out);
  EXPECT_TRUE(sol.connects_all_pins());
}

// ---------------------------------------------------------------------------
// SPRoute-lite
// ---------------------------------------------------------------------------

TEST(SpRouteLite, ConnectsAllPins) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<SpRouteLite>(d);
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(SpRouteLite, NegotiationClearsEasyCongestion) {
  const Design d = easy_design();
  SpRouteLite router(d, d.capacities());
  SpRouteLiteStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_EQ(m.overflow_edges, 0);
}

TEST(SpRouteLite, HistoryImprovesCongestedResult) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  SpRouteLiteOptions one_round;
  one_round.max_rounds = 0;
  SpRouteLiteOptions many;
  many.max_rounds = 8;
  SpRouteLite a(d, cap, one_round), b(d, cap, many);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

// ---------------------------------------------------------------------------
// Lagrangian router
// ---------------------------------------------------------------------------

TEST(Lagrangian, ConnectsAllPins) {
  const Design d = easy_design();
  const eval::RouteSolution sol = run_router<LagrangianRouter>(d);
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(Lagrangian, PricesResolveEasyCongestion) {
  const Design d = easy_design();
  LagrangianRouter router(d, d.capacities());
  LagrangianStats stats;
  const eval::RouteSolution sol = router.route(&stats);
  const eval::Metrics m = eval::compute_metrics(sol, d.capacities());
  EXPECT_EQ(m.overflow_edges, 0);
  EXPECT_GT(stats.rounds_run, 0);
}

TEST(Lagrangian, MoreRoundsNeverWorse) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  LagrangianOptions few;
  few.rounds = 2;
  LagrangianOptions many;
  many.rounds = 15;
  LagrangianRouter a(d, cap, few), b(d, cap, many);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  // The router keeps its best-seen primal solution, so more rounds can only
  // improve the kept overflow.
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

// ---------------------------------------------------------------------------
// Cross-router sanity
// ---------------------------------------------------------------------------

class AllRouters : public ::testing::TestWithParam<int> {};

TEST_P(AllRouters, EveryRouterRoutesEveryNetOfACongestedCase) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  eval::RouteSolution sol;
  switch (GetParam()) {
    case 0: sol = Cugr2Lite(d, cap).route(); break;
    case 1: sol = SpRouteLite(d, cap).route(); break;
    case 2: sol = LagrangianRouter(d, cap).route(); break;
  }
  ASSERT_EQ(sol.nets.size(), d.routable_nets().size());
  EXPECT_TRUE(sol.connects_all_pins());
  for (const auto& net : sol.nets) {
    EXPECT_FALSE(net.paths.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Routers, AllRouters, ::testing::Values(0, 1, 2));


TEST(Cugr2Lite, ZPathsDoNotBreakRouting) {
  const Design d = easy_design();
  Cugr2LiteOptions opts;
  opts.paths.z_samples = 2;
  Cugr2Lite router(d, d.capacities(), opts);
  const eval::RouteSolution sol = router.route();
  EXPECT_TRUE(sol.connects_all_pins());
}

TEST(SpRouteLite, DeterministicAcrossRuns) {
  const Design d = easy_design();
  const auto cap = d.capacities();
  SpRouteLite a(d, cap), b(d, cap);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_EQ(ma.wirelength, mb.wirelength);
  EXPECT_EQ(ma.overflow_edges, mb.overflow_edges);
  EXPECT_EQ(ma.bends, mb.bends);
}

TEST(Lagrangian, RepairPhaseNeverWorsensOverflow) {
  const Design d = congested_design();
  const auto cap = d.capacities();
  LagrangianOptions no_repair;
  no_repair.repair_rounds = 0;
  LagrangianOptions with_repair;
  with_repair.repair_rounds = 8;
  LagrangianRouter a(d, cap, no_repair), b(d, cap, with_repair);
  const auto ma = eval::compute_metrics(a.route(), cap);
  const auto mb = eval::compute_metrics(b.route(), cap);
  EXPECT_LE(mb.overflow_edges, ma.overflow_edges);
}

}  // namespace
}  // namespace dgr::routers
