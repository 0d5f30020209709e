/// Tests of Algorithm 1 (optimal schedule without redistribution):
/// feasibility invariants, behavior on homogeneous/heterogeneous packs,
/// and — the Theorem 1 certification — equality with an exhaustive search
/// over all even allocations on small instances.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "complexity/moldable.hpp"
#include "core/optimal_schedule.hpp"
#include "reference_schedule.hpp"
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
  // printed algorithm's, from pools that run dry to plateaus. The loop
  // the online schedulers call, grant_pairs, matches it too over random
  // ascending task subsets at remaining fractions in (0, 1]: uncapped,
  // with caps that bind before the first grant, and with caps that bind
  // mid-run; twin tasks (same size, same fraction) tie, and a tie goes to
  // the larger position.
  constexpr int kNoCap = std::numeric_limits<int>::max();
  constexpr int kind[] = {0, 1, 0, 2, 1, 0};  // twins share a kind
  Rng rng(7);
  Rng draws(11);  // subsets, fractions, pools and caps; rng keeps its packs
  int dry = 0, stuck = 0, capped_first = 0, capped_mid = 0, ties = 0;
  for (const double mtbf : {100.0, 10.0, 2.0, 0.5, 0.2}) {
    for (const int p : {24, 90, 300}) {
      const Pack pack = Pack::uniform_random(
          6, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
          rng);
      const checkpoint::Model resilience = faulty_model(mtbf);
      const ExpectedTimeModel model(pack, resilience);
      EXPECT_EQ(optimal_schedule(model, p), reference_schedule(model, p))
          << "mtbf=" << mtbf << " p=" << p;

      const double a = draws.uniform(1.5e6, 2.5e6);
      const double b = draws.uniform(1.5e6, 2.5e6);
      const Pack twins =
          make_pack({a, b, a, draws.uniform(1.5e6, 2.5e6), b, a});
      const ExpectedTimeModel twin_model(twins, resilience);
      for (const ExpectedTimeModel* m : {&model, &twin_model}) {
        TrEvaluator evaluator(*m, p);
        for (int draw = 0; draw < 12; ++draw) {
          std::vector<int> tasks;
          for (int i = 0; i < 6; ++i)
            if (draws.uniform01() < 0.6) tasks.push_back(i);
          if (tasks.empty()) tasks.push_back(static_cast<int>(draw % 6));
          const auto count = tasks.size();
          // Fractions from a small set, so twins often share one.
          const double set[] = {1.0, 0.5, 1.0 - draws.uniform01()};
          std::vector<double> alphas;
          for (std::size_t k = 0; k < count; ++k)
            alphas.push_back(set[draws.uniform_int(0, 2)]);
          const int available = static_cast<int>(draws.uniform_int(
              0, static_cast<std::uint64_t>(p - 2 * static_cast<int>(count))));
          const std::vector<int> free =
              reference_schedule(*m, tasks, alphas, available, {});
          std::vector<int> caps;
          if (draw % 3 == 1)  // some tasks may never grow
            for (std::size_t k = 0; k < count; ++k)
              caps.push_back(draws.uniform01() < 0.5 ? 2 : kNoCap);
          if (draw % 3 == 2)  // caps at or below the uncapped allocation
            for (std::size_t k = 0; k < count; ++k)
              caps.push_back(2 + 2 * static_cast<int>(draws.uniform01() *
                                                      (free[k] / 2)));
          std::vector<int> sigma;
          grant_pairs(evaluator, tasks, alphas, available, caps, sigma);
          const std::vector<int> want =
              reference_schedule(*m, tasks, alphas, available, caps);
          EXPECT_EQ(sigma, want) << "mtbf=" << mtbf << " p=" << p
                                 << " twins=" << (m == &twin_model)
                                 << " draw=" << draw;

          // Which regimes the draw reached, by the reference's outcome.
          int left = available;
          bool growable = false;
          for (std::size_t k = 0; k < count; ++k) {
            const int cap = caps.empty() ? kNoCap : caps[k];
            left -= want[k] - 2;
            growable = growable || want[k] + 2 <= cap;
            if (want[k] == cap && free[k] > cap)
              ++(cap == 2 ? capped_first : capped_mid);
            for (std::size_t l = 0; l < k; ++l) {
              const bool twin =
                  m == &twin_model && kind[tasks[k]] == kind[tasks[l]] &&
                  alphas[k] == alphas[l] &&
                  (caps.empty() || caps[k] == caps[l]);
              ties += twin && want[k] != want[l] ? 1 : 0;
            }
          }
          dry += left < 2 ? 1 : 0;
          stuck += left >= 2 && growable ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(dry, 0) << "no pool ran dry";
  EXPECT_GT(stuck, 0) << "no pass stopped on a stuck task";
  EXPECT_GT(capped_first, 0) << "no cap bound before the first grant";
  EXPECT_GT(capped_mid, 0) << "no cap bound mid-run";
  EXPECT_GT(ties, 0) << "no twin pair was split by a tie";
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
