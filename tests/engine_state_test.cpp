/// White-box tests of the engine's internal state transitions (the exact
/// bookkeeping of Algorithms 2-5): tentative work fractions, commit
/// baselines (tlastR = t + RC + C, plus D + R for the faulty task),
/// blackout exclusion, and the revert-at-no-cost rule of IteratedGreedy.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "redistrib/cost.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace coredis::core::detail {
namespace {

class EngineStateTest : public ::testing::Test {
 protected:
  EngineStateTest()
      : pack_({{2.0e6}, {1.6e6}, {2.4e6}},
              std::make_shared<speedup::SyntheticModel>(0.08)),
        resilience_({units::years(100.0), 60.0, 1.0,
                     checkpoint::PeriodRule::Young, 0.0}),
        model_(pack_, resilience_),
        platform_(32),
        evaluator_(model_, 32) {
    state_.model = &model_;
    state_.platform = &platform_;
    state_.tr = &evaluator_;
    state_.tasks.resize(3);
    state_.build_event_index();
    for (int i = 0; i < 3; ++i) {
      TaskRuntime& task = state_.task(i);
      state_.set_sigma(i, 4);
      task.alpha = 1.0;
      task.tlastR = 0.0;
      task.tU = evaluator_(i, 4, 1.0);
      state_.refresh_projection(i);
      platform_.acquire(i, 4);
    }
  }

  Pack pack_;
  checkpoint::Model resilience_;
  ExpectedTimeModel model_;
  platform::Platform platform_;
  TrEvaluator evaluator_;
  EngineState state_;
};

TEST_F(EngineStateTest, AlphaTentativeBeforeFirstCheckpoint) {
  // Before the first checkpoint completes, all elapsed time is work.
  const double tau = model_.period(0, 4);
  const double t = 0.5 * tau;
  const double expected = 1.0 - t / model_.fault_free_time(0, 4);
  EXPECT_NEAR(state_.alpha_tentative(0, t), expected, 1e-12);
}

TEST_F(EngineStateTest, AlphaTentativeSubtractsCompletedCheckpoints) {
  const double tau = model_.period(0, 4);
  const double cost = model_.checkpoint_cost(0, 4);
  const double t = 1.2 * tau;  // one completed checkpoint, still running
  ASSERT_LT(t, model_.simulated_duration(0, 4, 1.0));
  const double expected = 1.0 - (t - cost) / model_.fault_free_time(0, 4);
  EXPECT_NEAR(state_.alpha_tentative(0, t), expected, 1e-12);
}

TEST_F(EngineStateTest, AlphaTentativeClampedAndBlackoutSafe) {
  // Inside a blackout window (t < tlastR) nothing was computed yet.
  state_.task(0).tlastR = 1000.0;
  EXPECT_DOUBLE_EQ(state_.alpha_tentative(0, 500.0), 1.0);
  // Far beyond the projected end, the fraction floors at 0.
  EXPECT_DOUBLE_EQ(state_.alpha_tentative(0, 1.0e12), 0.0);
}

TEST_F(EngineStateTest, IncludedFollowsBlackoutAndLifecycleRules) {
  EXPECT_TRUE(state_.included(0, 10.0));
  state_.task(0).tlastR = 20.0;
  EXPECT_FALSE(state_.included(0, 10.0));  // t <= tlastR: excluded
  EXPECT_FALSE(state_.included(0, 20.0));  // boundary is excluded too
  EXPECT_TRUE(state_.included(0, 20.5));
  state_.task(1).done = true;
  EXPECT_FALSE(state_.included(1, 100.0));
  state_.task(2).released = true;
  EXPECT_FALSE(state_.included(2, 100.0));
}

TEST_F(EngineStateTest, CommitGrowthPaysCostAndCheckpoint) {
  const double t = 5000.0;
  std::vector<int> new_sigma{8, 4, 4};
  std::vector<double> alpha_t{0.9, 1.0, 1.0};
  state_.commit(t, /*faulty=*/-1, new_sigma, alpha_t);

  const TaskRuntime& task = state_.task(0);
  EXPECT_EQ(task.sigma, 8);
  EXPECT_DOUBLE_EQ(task.alpha, 0.9);
  const double rc = redistrib::cost(4, 8, pack_.task(0).data_size);
  EXPECT_DOUBLE_EQ(task.tlastR, t + rc + model_.checkpoint_cost(0, 8));
  EXPECT_DOUBLE_EQ(task.tU, task.tlastR + evaluator_(0, 8, 0.9));
  EXPECT_DOUBLE_EQ(task.proj_end,
                   task.tlastR + model_.simulated_duration(0, 8, 0.9));
  EXPECT_EQ(platform_.allocated(0), 8);
  EXPECT_EQ(state_.redistributions, 1);
  EXPECT_DOUBLE_EQ(state_.redistribution_cost_total, rc);
  // One initial checkpoint on the new allocation, plus the periodic ones
  // completed before t (none here: t << tau).
  EXPECT_EQ(state_.checkpoints_taken, 1);
}

TEST_F(EngineStateTest, CommitFaultyTaskKeepsDowntimeRecoveryBase) {
  // Simulate Algorithm 2's rollback on task 1, then a redistribution.
  const double t = 3000.0;
  TaskRuntime& faulty = state_.task(1);
  faulty.alpha = 0.8;
  faulty.tlastR = t + resilience_.downtime() + model_.recovery_time(1, 4);
  const double rollback_base = faulty.tlastR;

  std::vector<int> new_sigma{4, 8, 4};
  std::vector<double> alpha_t{1.0, 0.8, 1.0};
  state_.commit(t, /*faulty=*/1, new_sigma, alpha_t);

  const double rc = redistrib::cost(4, 8, pack_.task(1).data_size);
  // Section 3.3.2: tlastR = t + D + R + RC + C for the struck task.
  EXPECT_DOUBLE_EQ(faulty.tlastR,
                   rollback_base + rc + model_.checkpoint_cost(1, 8));
  EXPECT_EQ(faulty.sigma, 8);
}

TEST_F(EngineStateTest, CommitShrinksBeforeGrowing) {
  // Moving one pair from task 2 to task 0 through an empty pool: the
  // release must happen before the acquisition or the pool underflows.
  ASSERT_EQ(platform_.free_count(), 32 - 12);
  platform_.acquire(5, 20);  // exhaust the pool
  ASSERT_EQ(platform_.free_count(), 0);
  std::vector<int> new_sigma{6, 4, 2};
  std::vector<double> alpha_t{1.0, 1.0, 1.0};
  state_.commit(100.0, -1, new_sigma, alpha_t);
  EXPECT_EQ(platform_.allocated(0), 6);
  EXPECT_EQ(platform_.allocated(2), 2);
  EXPECT_EQ(platform_.free_count(), 0);
}

TEST_F(EngineStateTest, CommitIgnoresUnchangedDoneAndReleased) {
  state_.task(1).done = true;
  state_.task(2).released = true;
  std::vector<int> new_sigma{4, 8, 8};  // changes on ineligible tasks
  std::vector<double> alpha_t{1.0, 1.0, 1.0};
  state_.commit(50.0, -1, new_sigma, alpha_t);
  EXPECT_EQ(state_.redistributions, 0);
  EXPECT_EQ(state_.task(1).sigma, 4);
  EXPECT_EQ(state_.task(2).sigma, 4);
}

TEST_F(EngineStateTest, EndLocalGrantsPairsToLongestTask) {
  // Free 8 processors; the longest task (largest tU) must receive pairs.
  int longest = 0;
  for (int i = 1; i < 3; ++i)
    if (state_.task(i).tU > state_.task(longest).tU) longest = i;
  const int before = state_.task(longest).sigma;
  const bool changed = end_local(state_, 1000.0);
  EXPECT_TRUE(changed);
  EXPECT_GT(state_.task(longest).sigma, before);
  // Conservation: nobody shrank, pool did not underflow.
  int total = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(state_.task(i).sigma, before == 4 ? 4 : 2);
    total += state_.task(i).sigma;
  }
  EXPECT_LE(total, 32 - platform_.allocated(5));
}

TEST_F(EngineStateTest, IteratedGreedyRevertingToOriginalCostsNothing) {
  // With no faulty task and a balanced pack, IteratedGreedy should
  // rebuild into (close to) the same allocation; tasks whose final sigma
  // equals the original must not pay any redistribution.
  // Use zero free processors so nothing can actually improve.
  platform_.acquire(7, platform_.free_count());
  const double tu_before[3] = {state_.task(0).tU, state_.task(1).tU,
                               state_.task(2).tU};
  const bool changed = iterated_greedy(state_, 2000.0, /*faulty=*/-1);
  for (int i = 0; i < 3; ++i) {
    if (state_.task(i).sigma == 4) {
      EXPECT_DOUBLE_EQ(state_.task(i).tU, tu_before[i]) << "task " << i;
    }
  }
  // Whatever happened, total redistribution cost only counts real moves.
  if (!changed) {
    EXPECT_EQ(state_.redistributions, 0);
  }
}

TEST_F(EngineStateTest, ShortestTasksFirstStealsFromShortest) {
  // Give the platform no free processors; make task 0 the faulty longest
  // and task 1 clearly the shortest with spare pairs.
  platform_.acquire(7, platform_.free_count());
  TaskRuntime& faulty = state_.task(0);
  faulty.alpha = 1.0;
  faulty.tlastR = 1.0e6 + resilience_.downtime() + model_.recovery_time(0, 4);
  faulty.tU = faulty.tlastR + evaluator_(0, 4, 1.0);

  TaskRuntime& shortest = state_.task(1);
  shortest.alpha = 0.05;  // nearly done
  shortest.tU = 1.0e6 + evaluator_(1, 4, 0.05);

  const int faulty_before = faulty.sigma;
  const int victim_before = shortest.sigma;
  const bool changed = shortest_tasks_first(state_, 1.0e6, 0);
  if (changed) {
    EXPECT_GT(faulty.sigma, faulty_before);
    EXPECT_LT(shortest.sigma, victim_before);
    EXPECT_GE(shortest.sigma, 2);
    EXPECT_EQ(faulty.sigma + state_.task(1).sigma + state_.task(2).sigma, 12);
  }
}

TEST_F(EngineStateTest, ZeroRedistributionCostFlagDropsRc) {
  state_.zero_redistribution_cost = true;
  EXPECT_DOUBLE_EQ(state_.redistribution_cost(0, 8), 0.0);
  state_.zero_redistribution_cost = false;
  EXPECT_GT(state_.redistribution_cost(0, 8), 0.0);
}

/// Brute-force answers to the event-index queries, straight from the
/// task vector: the earliest projected completion (ties to the smallest
/// index), the largest tU, and the ascending surrender candidates.
int brute_earliest(const EngineState& state) {
  int earliest = -1;
  for (int i = 0; i < state.n(); ++i) {
    const TaskRuntime& rt = state.task(i);
    if (!rt.done &&
        (earliest < 0 || rt.proj_end < state.task(earliest).proj_end))
      earliest = i;
  }
  return earliest;
}

double brute_longest(const EngineState& state) {
  double longest = 0.0;
  for (int i = 0; i < state.n(); ++i)
    if (!state.task(i).done) longest = std::max(longest, state.task(i).tU);
  return longest;
}

std::vector<int> brute_ending_by(const EngineState& state, double bound,
                                 int except) {
  std::vector<int> out;
  for (int i = 0; i < state.n(); ++i)
    if (i != except && !state.task(i).done && state.task(i).proj_end <= bound)
      out.push_back(i);
  return out;
}

TEST_F(EngineStateTest, EventIndexAgreesWithLinearScans) {
  // The index against brute-force scans of the task vector, through a
  // sequence of projection updates and completions.
  EXPECT_EQ(state_.earliest_unfinished(), brute_earliest(state_));
  EXPECT_DOUBLE_EQ(state_.longest_expected_finish(), brute_longest(state_));

  // Push task 0's projection way out and its tU up; the index must track.
  state_.task(0).tlastR = 5.0e7;
  state_.task(0).tU = 9.0e7;
  state_.refresh_projection(0);
  const int first = state_.earliest_unfinished();
  EXPECT_EQ(first, brute_earliest(state_));
  EXPECT_NE(first, 0);
  EXPECT_DOUBLE_EQ(state_.longest_expected_finish(), brute_longest(state_));

  // Completion removes the task from both queues.
  state_.mark_done(first);
  EXPECT_EQ(state_.earliest_unfinished(), brute_earliest(state_));
  EXPECT_DOUBLE_EQ(state_.longest_expected_finish(), brute_longest(state_));
}

TEST_F(EngineStateTest, UnfinishedEndingByMatchesLinearFilter) {
  const double bound = state_.task(1).proj_end;  // includes the boundary
  std::vector<int> indexed;
  state_.unfinished_ending_by(bound, /*except=*/2, indexed);
  EXPECT_EQ(indexed, brute_ending_by(state_, bound, 2));
  EXPECT_FALSE(indexed.empty());
}

TEST_F(EngineStateTest, SurrenderCandidatesComeOutInAscendingTaskOrder) {
  // Projections descending in task index: the heap holds them in the
  // reverse of task order, and surrender order must still be ascending
  // (it shapes the idle pool's stack, hence fault attribution).
  for (int i = 0; i < 3; ++i) {
    state_.task(i).tlastR = 1.0e9 * (3 - i);
    state_.refresh_projection(i);
  }
  ASSERT_GT(state_.task(0).proj_end, state_.task(1).proj_end);
  ASSERT_GT(state_.task(1).proj_end, state_.task(2).proj_end);
  std::vector<int> candidates;
  state_.unfinished_ending_by(1.0e300, /*except=*/-1, candidates);
  EXPECT_EQ(candidates, (std::vector<int>{0, 1, 2}));
}

TEST(EngineStateTaskPath, AlphaTentativeMatchesRemainingAfterBitForBit) {
  // alpha_tentative runs Eq. 8 on the coefficients set_sigma kept on the
  // task; the model's remaining_after reads them off the row (faulty) or
  // the pack (fault-free). The two must agree bit for bit at every time
  // of a task's span — inside the blackout, across completed periods and
  // past the projected end — after the initial allocation, commits that
  // grow and shrink, a rollback and the faulty task's commit.
  const Pack pack({{2.0e6}, {1.6e6}, {2.4e6}},
                  std::make_shared<speedup::SyntheticModel>(0.08));
  const checkpoint::Model faulty(
      {units::years(1.0), 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  const checkpoint::Model fault_free(
      {0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  for (const checkpoint::Model* resilience : {&faulty, &fault_free}) {
    SCOPED_TRACE(resilience->fault_free() ? "fault-free" : "faulty");
    const ExpectedTimeModel model(pack, *resilience);
    platform::Platform platform(32);
    TrEvaluator evaluator(model, 32);
    EngineState state;
    state.model = &model;
    state.platform = &platform;
    state.tr = &evaluator;
    state.tasks.resize(3);
    state.build_event_index();
    state.ensure_lazy_state();
    for (int i = 0; i < 3; ++i) {
      state.set_sigma(i, 4);
      state.task(i).tU = evaluator(i, 4, 1.0);
      state.refresh_projection(i);
      platform.acquire(i, 4);
    }
    const auto expect_same = [&](const char* when) {
      long long periods = 0;
      for (int i = 0; i < 3; ++i) {
        const TaskRuntime& rt = state.task(i);
        const double span = rt.proj_end - rt.tlastR;
        for (int step = -1; step <= 16; ++step) {
          const double t = rt.tlastR + span * step / 12.0;
          const double task_path = state.alpha_tentative(i, t);
          const double row_path =
              model.remaining_after(i, rt.sigma, rt.alpha, t - rt.tlastR);
          ASSERT_EQ(0, std::memcmp(&task_path, &row_path, sizeof task_path))
              << when << ": task " << i << " step " << step;
          if (t > rt.tlastR)
            periods += static_cast<long long>(
                std::floor((t - rt.tlastR) / model.period(i, rt.sigma)));
        }
      }
      // The faulty model's spans cross checkpoints, so Eq. 8 subtracts
      // some; the fault-free one never takes any.
      EXPECT_EQ(periods > 0, !resilience->fault_free()) << when;
    };
    expect_same("initial allocation");

    const double t = 0.3 * state.task(0).proj_end;
    std::vector<double> alpha_t;
    for (int i = 0; i < 3; ++i) alpha_t.push_back(state.alpha_tentative(i, t));
    state.commit(t, /*faulty=*/-1, {8, 4, 2}, alpha_t);
    expect_same("grow and shrink");

    // A fault on task 1 halfway through its span, as Algorithm 2 rolls
    // it back, then the faulty task's own commit.
    TaskRuntime& struck = state.task(1);
    const double fault =
        struck.tlastR + 0.5 * (struck.proj_end - struck.tlastR);
    const ExpectedTimeModel::Rollback back =
        model.rollback(1, struck.sigma, struck.alpha, struck.tlastR, fault);
    struck.alpha = back.alpha;
    struck.tlastR = back.restart;
    struck.tU = struck.tlastR + evaluator(1, struck.sigma, struck.alpha);
    state.refresh_projection(1);
    state.touch(1);
    expect_same("rollback");
    alpha_t.assign(3, 0.0);
    for (int i = 0; i < 3; ++i)
      alpha_t[static_cast<std::size_t>(i)] =
          i == 1 ? struck.alpha : state.alpha_tentative(i, fault);
    state.commit(fault, /*faulty=*/1, {8, 6, 2}, alpha_t);
    EXPECT_EQ(struck.sigma, 6);
    expect_same("the faulty task's commit");
  }
}

}  // namespace
}  // namespace coredis::core::detail
