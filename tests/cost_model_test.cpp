/// Cost-model tests (exp/cost_model.hpp): the structural prior must
/// order cells the way the committed bench history does (bigger packs,
/// Weibull faults and whole-allocation heuristics cost more), online
/// observations must monotonically refine predictions toward measured
/// truth and bridge calibration onto never-observed points, and the LPT
/// permutation must put predicted-expensive cells first while degrading
/// to plain index order on homogeneous grids.

#include <cmath>
#include <cstddef>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/cost_model.hpp"
#include "exp/storage.hpp"

namespace coredis::exp {
namespace {

Scenario sized(int n, int p) {
  Scenario scenario;
  scenario.n = n;
  scenario.p = p;
  return scenario;
}

TEST(CostPrior, TracksTheKnobsThatDriveCellCost) {
  const std::vector<ConfigSpec> configs = paper_curves();
  // Bigger packs and platforms cost more.
  EXPECT_GT(cell_cost_prior(sized(1000, 10000), configs),
            cell_cost_prior(sized(100, 1000), configs));
  EXPECT_GT(cell_cost_prior(sized(100, 2000), configs),
            cell_cost_prior(sized(100, 1000), configs));
  // Weibull faults cost more than exponential at the same size.
  Scenario weibull = sized(100, 1000);
  weibull.fault_law = FaultLaw::Weibull;
  EXPECT_GT(cell_cost_prior(weibull, configs),
            cell_cost_prior(sized(100, 1000), configs));
  // Online arrivals add bookkeeping.
  Scenario online = sized(100, 1000);
  online.arrival_law = extensions::ArrivalLaw::Poisson;
  EXPECT_GT(cell_cost_prior(online, configs),
            cell_cost_prior(sized(100, 1000), configs));
  // IteratedGreedy rebuilds the allocation per fault; the rollback-only
  // baseline is the cheapest configuration set.
  const Scenario point = sized(100, 1000);
  EXPECT_GT(cell_cost_prior(point, parse_config_set("ig_local")),
            cell_cost_prior(point, parse_config_set("stf_local")));
  EXPECT_GT(cell_cost_prior(point, parse_config_set("stf_local")),
            cell_cost_prior(point, parse_config_set("baseline")));
  // More configurations per cell, more work.
  EXPECT_GT(cell_cost_prior(point, paper_curves()),
            cell_cost_prior(point, parse_config_set("ig_local")));
  EXPECT_GT(cell_cost_prior(point, parse_config_set("baseline")), 0.0);
}

TEST(CostModel, PredictsThePriorUntilObserved) {
  const std::vector<Scenario> points{sized(100, 1000), sized(1000, 10000)};
  const std::vector<ConfigSpec> configs = paper_curves();
  const CostModel model(points, configs);
  EXPECT_EQ(model.observations(0), 0u);
  EXPECT_DOUBLE_EQ(model.predict(0), cell_cost_prior(points[0], configs));
  EXPECT_DOUBLE_EQ(model.predict(1), cell_cost_prior(points[1], configs));
}

TEST(CostModel, ObservationsBridgeCalibrationOntoUnseenPoints) {
  const std::vector<Scenario> points{sized(100, 1000), sized(1000, 10000)};
  const std::vector<ConfigSpec> configs = paper_curves();
  CostModel model(points, configs);
  // Observing only point 0 rescales point 1's prediction into seconds
  // through the learned prior->seconds ratio, preserving the priors'
  // relative order.
  const double seconds = 0.002;
  model.observe(0, seconds);
  EXPECT_EQ(model.observations(0), 1u);
  EXPECT_EQ(model.observations(1), 0u);
  EXPECT_DOUBLE_EQ(model.predict(0), seconds);
  const double ratio = seconds / cell_cost_prior(points[0], configs);
  EXPECT_DOUBLE_EQ(model.predict(1),
                   cell_cost_prior(points[1], configs) * ratio);
  EXPECT_GT(model.predict(1), model.predict(0));
}

TEST(CostModel, RefinementIsMonotoneTowardAStableTruth) {
  const std::vector<Scenario> points{sized(100, 1000)};
  CostModel model(points, paper_curves());
  // Start the estimate far from the truth, then feed the true cost
  // repeatedly: the error must shrink on every observation and converge.
  const double truth = 0.004;
  model.observe(0, 50.0 * truth);
  double error = std::abs(model.predict(0) - truth);
  for (int i = 0; i < 40; ++i) {
    model.observe(0, truth);
    const double refined = std::abs(model.predict(0) - truth);
    EXPECT_LT(refined, error) << "observation " << i;
    error = refined;
  }
  EXPECT_NEAR(model.predict(0), truth, truth * 0.01);
}

TEST(CostModel, IgnoresClockGarbage) {
  const std::vector<Scenario> points{sized(100, 1000)};
  CostModel model(points, paper_curves());
  model.observe(0, 0.003);
  const double before = model.predict(0);
  model.observe(0, 0.0);
  model.observe(0, -1.0);
  model.observe(0, std::nan(""));
  model.observe(0, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(model.predict(0), before);
  EXPECT_EQ(model.observations(0), 1u);
}

TEST(CostModel, SpanObservationSplitsSecondsByPrediction) {
  const std::vector<Scenario> points{sized(100, 1000), sized(1000, 10000)};
  CostModel model(points, paper_curves());
  const CellQueue queue({2, 2});
  // One block covering all four cells, measured as a single number —
  // the per-point estimates must split it in prediction proportion and
  // sum back to the block total.
  model.observe_span(queue, 0, 4, 1.0);
  EXPECT_EQ(model.observations(0), 2u);
  EXPECT_EQ(model.observations(1), 2u);
  EXPECT_GT(model.predict(1), model.predict(0));
  EXPECT_NEAR(2.0 * model.predict(0) + 2.0 * model.predict(1), 1.0, 1e-9);
}

TEST(LptOrder, ExpensiveCellsFirstTiesByIndex) {
  const std::vector<Scenario> points{sized(100, 1000), sized(1000, 10000)};
  const CostModel model(points, paper_curves());
  const CellQueue queue({3, 2});
  const std::vector<std::size_t> order = lpt_cell_order(model, queue, 0, 5);
  // Cells 3,4 (point 1) lead, then 0,1,2 (point 0); ties keep index
  // order within each point.
  const std::vector<std::size_t> expected{3, 4, 0, 1, 2};
  EXPECT_EQ(order, expected);
}

TEST(LptOrder, HomogeneousGridKeepsIndexOrder) {
  const std::vector<Scenario> points{sized(100, 1000), sized(100, 1000)};
  const CostModel model(points, paper_curves());
  const CellQueue queue({2, 2});
  std::vector<std::size_t> identity(4);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_EQ(lpt_cell_order(model, queue, 0, 4), identity);
}

TEST(LptOrder, HonoursTheSpanOffset) {
  const std::vector<Scenario> points{sized(100, 1000), sized(1000, 10000)};
  const CostModel model(points, paper_curves());
  const CellQueue queue({3, 2});
  // A resumed span starting at cell 2 still orders point-1 cells first;
  // indices are relative to the span start.
  const std::vector<std::size_t> order = lpt_cell_order(model, queue, 2, 3);
  const std::vector<std::size_t> expected{1, 2, 0};
  EXPECT_EQ(order, expected);
}

TEST(LptOrder, ReordersAfterObservationsFlipTheRanking) {
  const std::vector<Scenario> points{sized(100, 1000), sized(1000, 10000)};
  CostModel model(points, paper_curves());
  const CellQueue queue({2, 2});
  // Measured reality contradicts the prior: point 0 is the slow one.
  for (int i = 0; i < 8; ++i) {
    model.observe(0, 0.100);
    model.observe(1, 0.001);
  }
  const std::vector<std::size_t> order = lpt_cell_order(model, queue, 0, 4);
  const std::vector<std::size_t> expected{0, 1, 2, 3};
  EXPECT_EQ(order, expected);
}

TEST(GridRunFeedsTheModel, EveryCellObservedOnce) {
  const Campaign campaign =
      parse_campaign("n = 4, 8\np = 16\nruns = 3\nconfigs = baseline\n");
  const std::vector<Scenario> points{campaign.grid.point(0),
                                     campaign.grid.point(1)};
  CostModel model(points, campaign.configs);
  GridRunOptions options;
  options.cost_model = &model;
  const std::vector<PointResult> results =
      run_grid(points, campaign.configs, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(model.observations(0), 3u);
  EXPECT_EQ(model.observations(1), 3u);
  EXPECT_GT(model.predict(0), 0.0);
}

}  // namespace
}  // namespace coredis::exp
