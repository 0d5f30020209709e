/// Tests of Algorithm 1 (optimal schedule without redistribution):
/// feasibility invariants, behavior on homogeneous/heterogeneous packs,
/// and — the Theorem 1 certification — equality with an exhaustive search
/// over all even allocations on small instances.

#include <algorithm>
#include <cstddef>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "complexity/moldable.hpp"
#include "core/optimal_schedule.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace coredis::core {
namespace {

Pack make_pack(std::vector<double> sizes) {
  std::vector<TaskSpec> tasks;
  for (double m : sizes) tasks.push_back({m});
  return Pack(std::move(tasks), std::make_shared<speedup::SyntheticModel>(0.08));
}

checkpoint::Model faulty_model(double mtbf_years = 100.0) {
  return checkpoint::Model(
      {units::years(mtbf_years), 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
}

double schedule_makespan(const ExpectedTimeModel& model,
                         const std::vector<int>& sigma) {
  double makespan = 0.0;
  for (std::size_t i = 0; i < sigma.size(); ++i)
    makespan = std::max(
        makespan, model.expected_time(static_cast<int>(i), sigma[i], 1.0));
  return makespan;
}

TEST(OptimalSchedule, AllocationsAreEvenAndFeasible) {
  const Pack pack = make_pack({2.0e6, 1.6e6, 2.4e6, 1.9e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 64);
  ASSERT_EQ(sigma.size(), 4u);
  int total = 0;
  for (int s : sigma) {
    EXPECT_GE(s, 2);
    EXPECT_EQ(s % 2, 0);
    total += s;
  }
  EXPECT_LE(total, 64);
}

TEST(OptimalSchedule, ThrowsWhenPlatformTooSmall) {
  const Pack pack = make_pack({2.0e6, 1.6e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  EXPECT_THROW(optimal_schedule(model, 2), std::invalid_argument);
}

TEST(OptimalSchedule, ExactFitGivesOnePairEach) {
  const Pack pack = make_pack({2.0e6, 1.6e6, 2.4e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 6);
  for (int s : sigma) EXPECT_EQ(s, 2);
}

TEST(OptimalSchedule, BiggerTasksGetMoreProcessors) {
  const Pack pack = make_pack({2.5e6, 1.5e3});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 40);
  EXPECT_GT(sigma[0], sigma[1]);
}

TEST(OptimalSchedule, HomogeneousPackBalances) {
  const Pack pack = make_pack({2.0e6, 2.0e6, 2.0e6, 2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 32);
  for (int s : sigma) EXPECT_EQ(s, sigma[0]);
}

TEST(OptimalSchedule, FaultFreeUsesAllUsefulProcessors) {
  // With the synthetic profile, fault-free times strictly decrease with j,
  // so the greedy should distribute the entire platform.
  const Pack pack = make_pack({2.0e6, 1.8e6});
  const checkpoint::Model resilience(
      {0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 24);
  EXPECT_EQ(sigma[0] + sigma[1], 24);
}

TEST(OptimalSchedule, PaperScaleSmoke) {
  // n = 100 on p = 5000 (the Figure 7/8 corner): the schedule must build
  // quickly and leave a sane allocation (even, feasible, monotone in
  // task size would be too strong with faults, but totals must hold).
  Rng rng(12345);
  const Pack pack = Pack::uniform_random(
      100, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      rng);
  const checkpoint::Model resilience = faulty_model(100.0);
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 5000);
  int total = 0;
  for (int s : sigma) {
    EXPECT_GE(s, 2);
    EXPECT_EQ(s % 2, 0);
    total += s;
  }
  EXPECT_LE(total, 5000);
  EXPECT_GT(total, 200);  // far beyond one pair each on this workload
}

/// Algorithm 1 as printed: pop the longest task and grant it a pair while
/// its line-9 lookahead tr(current) > tr(pmax) holds, with every clamped
/// value taken straight from the O(j) Eq. 6 scan (no evaluator, no
/// short-circuit).
std::vector<int> reference_schedule(const ExpectedTimeModel& model,
                                    int processors) {
  const int n = model.pack().size();
  std::vector<int> sigma(static_cast<std::size_t>(n), 2);
  int available = processors - 2 * n;
  std::vector<std::pair<double, int>> heap;
  for (int i = 0; i < n; ++i) heap.emplace_back(model.expected_time(i, 2, 1.0), i);
  std::make_heap(heap.begin(), heap.end());
  while (available >= 2) {
    std::pop_heap(heap.begin(), heap.end());
    const int i = heap.back().second;
    int& current = sigma[static_cast<std::size_t>(i)];
    const int pmax = current + available - available % 2;
    if (!(model.expected_time(i, current, 1.0) >
          model.expected_time(i, pmax, 1.0)))
      break;
    current += 2;
    available -= 2;
    heap.back() = {model.expected_time(i, current, 1.0), i};
    std::push_heap(heap.begin(), heap.end());
  }
  return sigma;
}

TEST(OptimalSchedule, ColumnsStopOneEntryPastTheAllocation) {
  // The line-9 lookahead reads tr(current + 2) first: a strict drop
  // proves tr(current) > tr(pmax) on the prefix-min column, so at the
  // paper's scale (n = 1000, p = 10n, section 6.1 window, f = 0.08, MTBF
  // 100 y) no alpha = 1 column is filled past sigma_i / 2 + 1 entries,
  // where the unconditional tr(pmax) probe filled ~p / 2 for every task.
  constexpr int n = 1000;
  constexpr int p = 10 * n;
  Rng rng(42);
  const Pack pack = Pack::uniform_random(
      n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = faulty_model(100.0);
  const ExpectedTimeModel model(pack, resilience);
  TrEvaluator evaluator(model, p);
  const auto sigma = optimal_schedule(model, p, evaluator);
  int too_deep = 0;
  std::size_t deepest = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t depth = evaluator.column(i, 1.0).prefix().size();
    const auto bound =
        static_cast<std::size_t>(sigma[static_cast<std::size_t>(i)] / 2 + 1);
    too_deep += depth > bound ? 1 : 0;
    deepest = std::max(deepest, depth);
  }
  EXPECT_EQ(too_deep, 0) << "tasks filled past sigma_i / 2 + 1";
  EXPECT_LT(deepest, 16u);
}

TEST(OptimalSchedule, PlateauStillTakesTheDeepProbe) {
  // A fault-heavy platform (MTBF 0.2 y): the raw Eq. 4 column saw-tooths
  // and turns upward before pmax, so the clamp plateaus. On a plateau,
  // tr(current + 2) == tr(current) proves nothing either way: the deep
  // probe at pmax must decide, both where the column drops again later
  // (the grant goes on) and where it does not (Algorithm 1 stops with
  // processors left in the pool).
  const Pack pack = make_pack({2.0e6, 1.6e6, 2.4e6});
  const checkpoint::Model resilience = faulty_model(0.2);
  const ExpectedTimeModel model(pack, resilience);
  constexpr int p = 2000;
  TrEvaluator evaluator(model, p);
  const auto sigma = optimal_schedule(model, p, evaluator);
  EXPECT_EQ(sigma, reference_schedule(model, p));

  const auto tr = [&](int i, int j) { return model.expected_time(i, j, 1.0); };
  bool granted_past_plateau = false;
  for (int i = 0; i < pack.size(); ++i)
    for (int j = 2; j + 2 < sigma[static_cast<std::size_t>(i)]; j += 2)
      granted_past_plateau = granted_past_plateau || tr(i, j + 2) == tr(i, j);
  EXPECT_TRUE(granted_past_plateau);

  const int used = std::accumulate(sigma.begin(), sigma.end(), 0);
  ASSERT_GE(p - used, 2) << "the pool must not run dry";
  // The stuck task is the longest one (ties to the larger index, as the
  // heap orders them).
  int stuck = 0;
  for (int i = 1; i < pack.size(); ++i)
    if (tr(i, sigma[static_cast<std::size_t>(i)]) >=
        tr(stuck, sigma[static_cast<std::size_t>(stuck)]))
      stuck = i;
  const int current = sigma[static_cast<std::size_t>(stuck)];
  const int pmax = current + (p - used);
  bool turns_upward = false;
  for (int j = current; j < pmax; j += 2)
    turns_upward = turns_upward || model.expected_time_raw(stuck, j + 2, 1.0) >
                                       model.expected_time_raw(stuck, j, 1.0);
  EXPECT_TRUE(turns_upward);
  EXPECT_GE(evaluator.column(stuck, 1.0).prefix().size(),
            static_cast<std::size_t>(pmax / 2));
}

TEST(OptimalSchedule, MatchesThePrintedAlgorithmAcrossRegimes) {
  // Short-circuited or not, every grant and the stopping point are the
  // printed algorithm's, from pools that run dry to plateaus.
  Rng rng(7);
  for (const double mtbf : {100.0, 10.0, 2.0, 0.5}) {
    for (const int p : {24, 90, 300}) {
      const Pack pack = Pack::uniform_random(
          6, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
          rng);
      const checkpoint::Model resilience = faulty_model(mtbf);
      const ExpectedTimeModel model(pack, resilience);
      EXPECT_EQ(optimal_schedule(model, p), reference_schedule(model, p))
          << "mtbf=" << mtbf << " p=" << p;
    }
  }
}

/// Theorem 1 certification: the greedy result equals an exhaustive search
/// over all even allocations, across several packs and platform sizes.
class Theorem1Certification
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Theorem1Certification, GreedyMatchesBruteForce) {
  const auto [p, mtbf_years] = GetParam();
  const std::vector<std::vector<double>> workloads = {
      {2.0e6, 1.6e6},
      {2.0e6, 1.6e6, 2.4e6},
      {2.5e6, 1.5e3, 8.0e5},
      {1.5e6, 1.5e6, 1.5e6, 1.5e6},
      {2.2e6, 9.0e5, 1.1e6, 2.5e6},
  };
  for (const auto& sizes : workloads) {
    if (p < 2 * static_cast<int>(sizes.size())) continue;
    const Pack pack = make_pack(sizes);
    const checkpoint::Model resilience = faulty_model(mtbf_years);
    const ExpectedTimeModel model(pack, resilience);

    const auto sigma = optimal_schedule(model, p);
    const double greedy = schedule_makespan(model, sigma);
    const double brute = complexity::brute_force_rigid(
        pack.size(), p,
        [&](int task, int j) { return model.expected_time(task, j, 1.0); },
        /*even_only=*/true, /*min_alloc=*/2);
    EXPECT_NEAR(greedy, brute, 1e-9 * brute)
        << "p=" << p << " mtbf=" << mtbf_years << " n=" << sizes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1Certification,
    ::testing::Combine(::testing::Values(4, 6, 8, 10, 12, 16),
                       ::testing::Values(100.0, 10.0, 1.0)));

}  // namespace
}  // namespace coredis::core
