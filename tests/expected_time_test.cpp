/// Tests of the expected completion-time model (Eqs. 2-6): closed-form
/// checks against hand-computed values, the fault-free limit, Eq. 6
/// monotonicity, and the TrEvaluator cache consistency.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/expected_time.hpp"
#include "fault/generator.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace coredis::core {
namespace {

Pack make_pack(std::vector<double> sizes) {
  std::vector<TaskSpec> tasks;
  for (double m : sizes) tasks.push_back({m});
  return Pack(std::move(tasks), std::make_shared<speedup::SyntheticModel>(0.08));
}

checkpoint::Model faulty_model(double mtbf_years = 100.0, double c = 1.0) {
  return checkpoint::Model(
      {units::years(mtbf_years), 60.0, c, checkpoint::PeriodRule::Young, 0.0});
}

checkpoint::Model fault_free_model() {
  return checkpoint::Model({0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
}

TEST(ExpectedTime, FaultFreeDegeneratesToLinearWork) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = fault_free_model();
  const ExpectedTimeModel model(pack, resilience);
  for (int j : {2, 4, 16}) {
    const double t = model.fault_free_time(0, j);
    EXPECT_DOUBLE_EQ(model.expected_time_raw(0, j, 1.0), t);
    EXPECT_DOUBLE_EQ(model.expected_time_raw(0, j, 0.25), 0.25 * t);
    EXPECT_DOUBLE_EQ(model.simulated_duration(0, j, 0.5), 0.5 * t);
    EXPECT_EQ(model.checkpoint_cost(0, j), 0.0);
    EXPECT_TRUE(std::isinf(model.period(0, j)));
  }
}

TEST(ExpectedTime, RawMatchesEquation4ByHand) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const int j = 8;
  const double alpha = 0.6;

  const double lambda_j = resilience.task_rate(j);
  const double t_ij = model.fault_free_time(0, j);
  const double tau = model.period(0, j);
  const double cost = model.checkpoint_cost(0, j);
  const double recovery = model.recovery_time(0, j);
  const double n_ff = std::floor(alpha * t_ij / (tau - cost));
  const double tau_last = alpha * t_ij - n_ff * (tau - cost);
  const double expected = std::exp(lambda_j * recovery) *
                          (1.0 / lambda_j + resilience.downtime()) *
                          (n_ff * (std::exp(lambda_j * tau) - 1.0) +
                           (std::exp(lambda_j * tau_last) - 1.0));
  EXPECT_NEAR(model.expected_time_raw(0, j, alpha), expected,
              1e-9 * expected);
}

TEST(ExpectedTime, ExceedsFaultFreeTimeUnderFaults) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  for (int j : {2, 8, 64})
    EXPECT_GT(model.expected_time_raw(0, j, 1.0),
              model.fault_free_time(0, j));
}

TEST(ExpectedTime, HigherFailureRateCostsMore) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model robust = faulty_model(100.0);
  const checkpoint::Model fragile = faulty_model(5.0);
  const ExpectedTimeModel robust_model(pack, robust);
  const ExpectedTimeModel fragile_model(pack, fragile);
  EXPECT_GT(fragile_model.expected_time_raw(0, 8, 1.0),
            robust_model.expected_time_raw(0, 8, 1.0));
}

TEST(ExpectedTime, Eq6ClampIsNonIncreasingInProcessors) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model(20.0);
  const ExpectedTimeModel model(pack, resilience);
  double previous = model.expected_time(0, 2, 1.0);
  for (int j = 4; j <= 512; j += 2) {
    const double here = model.expected_time(0, j, 1.0);
    EXPECT_LE(here, previous * (1.0 + 1e-12)) << "j=" << j;
    previous = here;
  }
}

TEST(ExpectedTime, ClampEqualsMinOfRawPrefix) {
  const Pack pack = make_pack({1.7e6});
  const checkpoint::Model resilience = faulty_model(10.0);
  const ExpectedTimeModel model(pack, resilience);
  const double alpha = 0.9;
  double best = std::numeric_limits<double>::infinity();
  for (int j = 2; j <= 200; j += 2) {
    best = std::min(best, model.expected_time_raw(0, j, alpha));
    EXPECT_DOUBLE_EQ(model.expected_time(0, j, alpha), best);
  }
}

TEST(ExpectedTime, ZeroAlphaIsFree) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  EXPECT_EQ(model.expected_time_raw(0, 8, 0.0), 0.0);
  EXPECT_EQ(model.simulated_duration(0, 8, 0.0), 0.0);
}

TEST(ExpectedTime, SimulatedDurationAddsCheckpointOverhead) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const int j = 4;
  const double work = model.fault_free_time(0, j);
  const double duration = model.simulated_duration(0, j, 1.0);
  EXPECT_GT(duration, work);
  const double tau = model.period(0, j);
  const double cost = model.checkpoint_cost(0, j);
  const double periods = std::floor(work / (tau - cost));
  EXPECT_NEAR(duration, work + periods * cost, cost + 1e-9);
}

TEST(ExpectedTime, SimulatedDurationExactBoundarySkipsFinalCheckpoint) {
  // Construct alpha so the remaining work is exactly one period: the
  // trailing checkpoint is unnecessary, duration equals the work.
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const int j = 4;
  const double tau = model.period(0, j);
  const double cost = model.checkpoint_cost(0, j);
  const double t_ij = model.fault_free_time(0, j);
  const double alpha = (tau - cost) / t_ij;
  ASSERT_LE(alpha, 1.0);
  EXPECT_NEAR(model.simulated_duration(0, j, alpha), tau - cost, 1.0);
}

TEST(TrEvaluator, AgreesWithDirectClamp) {
  const Pack pack = make_pack({2.0e6, 1.6e6});
  const checkpoint::Model resilience = faulty_model(30.0);
  const ExpectedTimeModel model(pack, resilience);
  TrEvaluator evaluator(model, 256);
  for (int task = 0; task < 2; ++task)
    for (double alpha : {1.0, 0.5, 0.125})
      for (int j : {2, 8, 32, 256})
        EXPECT_DOUBLE_EQ(evaluator(task, j, alpha),
                         model.expected_time(task, j, alpha))
            << "task=" << task << " j=" << j << " alpha=" << alpha;
}

TEST(TrEvaluator, HandlesAlternatingAlphaKeys) {
  // IteratedGreedy probes two alphas per task; both slots must serve.
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  TrEvaluator evaluator(model, 64);
  const double a1 = 1.0;
  const double a2 = 0.4;
  for (int round = 0; round < 4; ++round) {
    for (int j = 2; j <= 64; j += 2) {
      EXPECT_DOUBLE_EQ(evaluator(0, j, a1), model.expected_time(0, j, a1));
      EXPECT_DOUBLE_EQ(evaluator(0, j, a2), model.expected_time(0, j, a2));
    }
  }
}

TEST(TrEvaluator, EpochsOnlySteerEvictionNeverValues) {
  const Pack pack = make_pack({2.0e6, 1.7e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  TrEvaluator evaluator(model, 64);
  // Rotate through more alphas than there are slots, across several
  // events: every answer must still match the uncached clamp.
  const double alphas[] = {1.0, 0.8, 0.55, 0.31, 0.8, 1.0, 0.07};
  for (int event = 0; event < 3; ++event) {
    evaluator.begin_event();
    for (double alpha : alphas)
      for (int task = 0; task < 2; ++task)
        for (int j : {2, 16, 64})
          EXPECT_DOUBLE_EQ(evaluator(task, j, alpha),
                           model.expected_time(task, j, alpha));
  }
}

TEST(TrEvaluator, ColumnMatchesOperatorAndSurvivesSecondBind) {
  const Pack pack = make_pack({2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  TrEvaluator evaluator(model, 64);
  evaluator.begin_event();
  const TrEvaluator::Column committed = evaluator.column(0, 0.9);
  const TrEvaluator::Column tentative = evaluator.column(0, 0.6);
  for (int j = 2; j <= 64; j += 2) {
    EXPECT_DOUBLE_EQ(committed(j), model.expected_time(0, j, 0.9));
    EXPECT_DOUBLE_EQ(tentative(j), model.expected_time(0, j, 0.6));
  }
  // Interleaved probes through operator() must not disturb the pinned
  // columns (the at-most-two-live-columns contract).
  EXPECT_DOUBLE_EQ(evaluator(0, 64, 0.9), committed(64));
  EXPECT_DOUBLE_EQ(tentative(64), model.expected_time(0, 64, 0.6));
}

TEST(ExpectedTime, RowsAndColumnsGrowGeometrically) {
  // Scans deepen rows and columns a few entries at a time. Each growth
  // that copies the whole array shows as a fresh data pointer; geometric
  // growth to 4096 entries needs about a dozen, not one per step.
  constexpr int kDepth = 4096;
  constexpr std::size_t kMaxMoves = 16;
  const Pack pack = make_pack({2.0e6, 1.7e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto distinct = [](std::vector<const void*> seen) {
    std::sort(seen.begin(), seen.end());
    return static_cast<std::size_t>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
  };

  // One row per task, its six lanes moving together, so the first lane
  // stands for all. The dense path densifies task 0 one entry deeper per
  // step; the single-slot path (the scalar accessors) probes task 1 one
  // j deeper. Task 0 first gets a shallow prefix, whose bits must
  // survive the growth, and every entry is filled exactly once.
  constexpr int kPrefix = 7;
  double before[kPrefix];
  model.probe_many(0, 0, kPrefix, 0.7, before);
  EXPECT_EQ(model.eq4_fills(), static_cast<std::uint64_t>(kPrefix));
  std::vector<const void*> dense, probed;
  for (int h = 1; h <= kDepth; ++h) {
    const auto depth = static_cast<std::size_t>(h);
    dense.push_back(model.eq4_lanes(0, depth).t_ij);
    (void)model.expected_time_raw(1, 2 * h, 0.7);
    probed.push_back(model.eq4_lanes(1, 1).t_ij);
  }
  EXPECT_EQ(model.eq4_fills(), static_cast<std::uint64_t>(2 * kDepth));
  EXPECT_EQ(model.eq4_lanes(0, kDepth).t_ij, dense.back());
  EXPECT_EQ(model.eq4_lanes(1, 1).t_ij, probed.back());
  for (const auto* moves : {&dense, &probed})
    EXPECT_LE(distinct(*moves), kMaxMoves);
  std::vector<double> after(kDepth);
  model.probe_many(0, 0, kDepth, 0.7, after.data());
  EXPECT_EQ(0, std::memcmp(before, after.data(), sizeof before));
  for (int h = 0; h < kDepth; ++h)
    ASSERT_EQ(after[static_cast<std::size_t>(h)],
              model.expected_time_raw_reference(0, 2 * (h + 1), 0.7))
        << "h=" << h;
  EXPECT_EQ(model.eq4_fills(), static_cast<std::uint64_t>(2 * kDepth));

  // Columns: 3-entry steps take the batched extend, 1-entry steps the
  // inline fill.
  TrEvaluator evaluator(model, 2 * kDepth + 8);
  for (const int step : {3, 1}) {
    const TrEvaluator::Column col = evaluator.column(0, step == 3 ? 0.5 : 0.25);
    std::vector<const void*> column;
    for (int h = step; h <= kDepth; h += step) {
      (void)col(2 * h);
      column.push_back(col.prefix().data());
    }
    EXPECT_LE(distinct(column), kMaxMoves) << "step=" << step;
  }
}

TEST(ExpectedTime, BoundReadsFillNoEq4Lane) {
  // What the fault-free bound and the scans' C terms read — t_ij and
  // C_ij, and Eq. 8's coefficients — is priced on the fly: reading it
  // fills no row at all, faulty or fault-free. A later batched probe
  // fills exactly the entries it evaluates (faulty) or none (fault-free).
  // Every value is the uncached path's (the pack, the resilience model,
  // the *_reference methods), bit for bit.
  constexpr int kTask = 1;
  constexpr std::size_t kDepth = 150;  // D: j = 2 .. 300
  constexpr int kProbed = 37;          // d: a vector body and a tail
  const Pack pack = make_pack({1.8e6, 2.3e6});
  const checkpoint::Model faulty = faulty_model(5.0);
  const checkpoint::Model fault_free = fault_free_model();
  for (const checkpoint::Model* resilience : {&faulty, &fault_free}) {
    SCOPED_TRACE(resilience->fault_free() ? "fault-free" : "faulty");
    const ExpectedTimeModel model(pack, *resilience);
    const double seq = resilience->sequential_cost(pack.task(kTask).data_size);
    std::vector<double> batch(kDepth);
    pack.even_fault_free_times(kTask, 2, kDepth, batch.data());
    for (int j = 2; j <= 2 * static_cast<int>(kDepth); j += 2) {
      const double t_ij = pack.fault_free_time(kTask, j);
      const double cost =
          resilience->fault_free() ? 0.0 : resilience->cost(seq, j);
      ASSERT_EQ(0, std::memcmp(&batch[static_cast<std::size_t>(j / 2 - 1)],
                               &t_ij, sizeof t_ij))
          << "j=" << j;
      ASSERT_EQ(model.fault_free_time(kTask, j), t_ij) << "j=" << j;
      ASSERT_EQ(model.checkpoint_cost(kTask, j), cost) << "j=" << j;
      ASSERT_EQ(model.recovery_time(kTask, j), cost) << "j=" << j;
      const ExpectedTimeModel::Eq8 at = model.eq8(kTask, j);
      ASSERT_EQ(at.t_ij, t_ij) << "j=" << j;
      ASSERT_EQ(at.cost, cost) << "j=" << j;
      ASSERT_EQ(at.tau, resilience->period(seq, j)) << "j=" << j;
    }
    EXPECT_EQ(model.eq4_fills(), 0U);
    EXPECT_EQ(model.row_bytes(), 0U);

    std::vector<double> probed(kProbed);
    model.probe_many(kTask, 0, kProbed, 0.6, probed.data());
    for (int h = 0; h < kProbed; ++h)
      ASSERT_EQ(probed[static_cast<std::size_t>(h)],
                model.expected_time_raw_reference(kTask, 2 * (h + 1), 0.6))
          << "h=" << h;
    const std::uint64_t fills =
        resilience->fault_free() ? 0U : static_cast<std::uint64_t>(kProbed);
    EXPECT_EQ(model.eq4_fills(), fills);
    for (int j = 2; j <= 2 * kProbed; j += 2)
      ASSERT_EQ(model.simulated_duration(kTask, j, 0.6),
                model.simulated_duration_reference(kTask, j, 0.6))
          << "j=" << j;
    EXPECT_EQ(model.eq4_fills(), fills);
    EXPECT_EQ(model.row_bytes() == 0, resilience->fault_free());
  }
}

TEST(ExpectedTime, FaultFreeRunHoldsNoRow) {
  // The fault-free context never evaluates Eq. 4: a full EndLocal run at
  // n = 200, p = 10n prices every bound and column entry from the
  // profile, and ends holding columns but no coefficient row.
  constexpr int n = 200;
  constexpr int p = 10 * n;
  Rng rng(42);
  const Pack pack = Pack::uniform_random(
      n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = fault_free_model();
  EngineConfig config;
  config.end_policy = EndPolicy::Local;
  config.profile = true;
  fault::NullGenerator none(p);
  const RunResult result = Engine(pack, resilience, p, config).run(none);
  EXPECT_GT(result.profile.heuristic_calls, 0);
  EXPECT_GT(result.profile.column_fills, 0);
  EXPECT_GT(result.profile.column_bytes, 0);
  EXPECT_EQ(result.profile.eq4_fills, 0);
  EXPECT_EQ(result.profile.row_bytes, 0);
}

// --- Coefficient-table kernel equivalence (property test) ----------------
//
// The cached expected_time_raw / simulated_duration must match the
// straight-line reference evaluation to 1e-12 relative over random
// (task, j, alpha) probes — in practice they are bit-identical, because
// the table stores exactly the intermediates the reference recomputes.

TEST(ExpectedTime, CachedKernelMatchesReferenceOverRandomProbes) {
  Rng rng(20260726);
  const Pack pack = Pack::uniform_random(
      8, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  for (const double mtbf_years : {5.0, 100.0, 1000.0}) {
    const checkpoint::Model resilience = faulty_model(mtbf_years);
    const ExpectedTimeModel model(pack, resilience);
    for (int probe = 0; probe < 2000; ++probe) {
      const int task = static_cast<int>(rng.uniform(0.0, 8.0 - 1e-9));
      const int j = 1 + static_cast<int>(rng.uniform(0.0, 512.0 - 1e-9));
      const double alpha = probe % 7 == 0 ? 1.0 : rng.uniform(0.0, 1.0);
      const double cached = model.expected_time_raw(task, j, alpha);
      const double reference =
          model.expected_time_raw_reference(task, j, alpha);
      EXPECT_NEAR(cached, reference, 1e-12 * std::max(1.0, reference))
          << "task=" << task << " j=" << j << " alpha=" << alpha
          << " mtbf=" << mtbf_years;
      const double dur = model.simulated_duration(task, j, alpha);
      const double dur_ref = model.simulated_duration_reference(task, j, alpha);
      EXPECT_NEAR(dur, dur_ref, 1e-12 * std::max(1.0, dur_ref))
          << "task=" << task << " j=" << j << " alpha=" << alpha
          << " mtbf=" << mtbf_years;
    }
  }
}

TEST(ExpectedTime, CachedKernelMatchesReferenceFaultFree) {
  Rng rng(7);
  const Pack pack = Pack::uniform_random(
      4, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = fault_free_model();
  const ExpectedTimeModel model(pack, resilience);
  for (int probe = 0; probe < 500; ++probe) {
    const int task = static_cast<int>(rng.uniform(0.0, 4.0 - 1e-9));
    const int j = 1 + static_cast<int>(rng.uniform(0.0, 128.0 - 1e-9));
    const double alpha = rng.uniform(0.0, 1.0);
    EXPECT_EQ(model.expected_time_raw(task, j, alpha),
              model.expected_time_raw_reference(task, j, alpha));
    EXPECT_EQ(model.simulated_duration(task, j, alpha),
              model.simulated_duration_reference(task, j, alpha));
  }
}

}  // namespace
}  // namespace coredis::core
