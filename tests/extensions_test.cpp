/// Tests of the future-work extensions: multi-pack partitioning and the
/// silent-error (verified checkpointing) model.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "extensions/batch.hpp"
#include "extensions/online.hpp"
#include "extensions/pack_partition.hpp"
#include "extensions/silent_errors.hpp"
#include "extensions/silent_sim.hpp"
#include "fault/exponential.hpp"
#include "speedup/synthetic.hpp"
#include "speedup/table_profile.hpp"
#include "util/units.hpp"

namespace coredis::extensions {
namespace {

core::Pack make_pack(std::vector<double> sizes) {
  std::vector<core::TaskSpec> tasks;
  for (double m : sizes) tasks.push_back({m});
  return core::Pack(std::move(tasks),
                    std::make_shared<speedup::SyntheticModel>(0.08));
}

TEST(PackPartition, RespectsCapacityAndCoversAllTasks) {
  const core::Pack pack =
      make_pack({2.0e6, 1.0e6, 2.5e6, 1.5e6, 1.2e6, 2.2e6});
  // p = 4: at most 2 tasks per pack -> at least 3 packs.
  const PartitionResult partition = partition_lpt(pack, 4);
  EXPECT_EQ(partition.packs, 3);
  std::vector<int> count(static_cast<std::size_t>(partition.packs), 0);
  for (int task = 0; task < pack.size(); ++task) {
    const int k = partition.pack_of[static_cast<std::size_t>(task)];
    ASSERT_GE(k, 0);
    ASSERT_LT(k, partition.packs);
    ++count[static_cast<std::size_t>(k)];
  }
  for (int c : count) EXPECT_LE(c, 2);
}

TEST(PackPartition, SinglePackWhenEverythingFits) {
  const core::Pack pack = make_pack({2.0e6, 1.0e6});
  const PartitionResult partition = partition_lpt(pack, 64);
  EXPECT_EQ(partition.packs, 1);
}

TEST(PackPartition, BalancesLoadLptStyle) {
  // Four equal tasks into two packs of two: loads must be equal.
  const core::Pack pack = make_pack({2.0e6, 2.0e6, 2.0e6, 2.0e6});
  const PartitionResult partition = partition_lpt(pack, 4);
  ASSERT_EQ(partition.packs, 2);
  int first = 0;
  for (int v : partition.pack_of) first += v == 0;
  EXPECT_EQ(first, 2);
}

TEST(PackPartition, RejectsInfeasibleRequests) {
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6});
  EXPECT_THROW(partition_lpt(pack, 4, 1), std::invalid_argument);
}

TEST(PackPartition, MultiPackExecutionSumsMakespans) {
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6, 1.5e6});
  const checkpoint::Model resilience(
      {0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  const PartitionResult partition = partition_lpt(pack, 4);
  const MultiPackResult result = run_multi_pack(
      pack, resilience, 4, {core::EndPolicy::Local, core::FailurePolicy::None,
                            false},
      partition, 7, 0.0);
  ASSERT_EQ(static_cast<int>(result.per_pack.size()), partition.packs);
  double sum = 0.0;
  for (const auto& run : result.per_pack) sum += run.makespan;
  EXPECT_DOUBLE_EQ(result.total_makespan, sum);
  EXPECT_GT(result.total_makespan, 0.0);
}

TEST(PackPartition, MorePacksAllowSmallerPlatform) {
  // 6 tasks on p=4 need >= 3 packs; explicitly asking 4 packs also works.
  const core::Pack pack =
      make_pack({2.0e6, 1.0e6, 2.5e6, 1.5e6, 1.2e6, 2.2e6});
  const PartitionResult partition = partition_lpt(pack, 4, 4);
  EXPECT_EQ(partition.packs, 4);
}

TEST(SilentErrors, CleanLimitIsJustWorkPlusOverheads) {
  silent::Params params;
  params.error_rate = 0.0;
  params.verification_cost = 5.0;
  params.checkpoint_cost = 10.0;
  params.recovery_cost = 10.0;
  params.processors = 4;
  EXPECT_DOUBLE_EQ(silent::expected_period_time(params, 100.0), 115.0);
  // No errors: the optimal quantum is "never verify early" (max_work).
  EXPECT_DOUBLE_EQ(silent::optimal_work_quantum(params, 1.0e6), 1.0e6);
}

TEST(SilentErrors, ExpectedTimeGrowsWithErrorRate) {
  silent::Params slow;
  slow.error_rate = 1e-7;
  slow.verification_cost = 5.0;
  slow.checkpoint_cost = 10.0;
  slow.recovery_cost = 10.0;
  slow.processors = 8;
  silent::Params fast = slow;
  fast.error_rate = 1e-5;
  EXPECT_GT(silent::expected_execution_time(fast, 1.0e6),
            silent::expected_execution_time(slow, 1.0e6));
}

TEST(SilentErrors, OptimalQuantumBalancesVerificationAndRisk) {
  silent::Params params;
  params.error_rate = 1e-6;
  params.verification_cost = 2.0;
  params.checkpoint_cost = 8.0;
  params.recovery_cost = 8.0;
  params.processors = 4;
  const double quantum = silent::optimal_work_quantum(params, 1.0e7);
  // Interior optimum: far from both search bounds.
  EXPECT_GT(quantum, 10.0);
  EXPECT_LT(quantum, 1.0e6);
  // First-order check: sqrt(costs/rate)-scale, like Young's formula.
  const double rate = params.error_rate * params.processors;
  const double overheads = params.verification_cost + params.checkpoint_cost;
  const double young_like = std::sqrt(overheads / rate);
  EXPECT_GT(quantum, 0.2 * young_like);
  EXPECT_LT(quantum, 5.0 * young_like);
}

TEST(SilentErrors, OverheadRatioIsUnimodalAroundOptimum) {
  silent::Params params;
  params.error_rate = 1e-6;
  params.verification_cost = 2.0;
  params.checkpoint_cost = 8.0;
  params.recovery_cost = 8.0;
  params.processors = 4;
  const double star = silent::optimal_work_quantum(params, 1.0e7);
  const double at_star = silent::expected_overhead_ratio(params, star);
  EXPECT_LT(at_star, silent::expected_overhead_ratio(params, star / 10.0));
  EXPECT_LT(at_star, silent::expected_overhead_ratio(params, star * 10.0));
}

TEST(SilentErrorSim, CleanRunMatchesArithmetic) {
  silent::Params params;
  params.error_rate = 0.0;
  params.verification_cost = 5.0;
  params.checkpoint_cost = 10.0;
  params.recovery_cost = 10.0;
  params.processors = 4;
  Rng rng(1);
  const auto result = silent::simulate(params, 1000.0, 100.0, rng);
  // 10 periods of (100 + 5 + 10), no corruption.
  EXPECT_EQ(result.periods_executed, 10);
  EXPECT_EQ(result.corrupted_periods, 0);
  EXPECT_DOUBLE_EQ(result.wall_clock, 10.0 * 115.0);
}

TEST(SilentErrorSim, ShortLastQuantumHandled) {
  silent::Params params;
  params.error_rate = 0.0;
  params.verification_cost = 1.0;
  params.checkpoint_cost = 2.0;
  params.recovery_cost = 2.0;
  params.processors = 1;
  Rng rng(2);
  const auto result = silent::simulate(params, 250.0, 100.0, rng);
  EXPECT_EQ(result.periods_executed, 3);  // 100 + 100 + 50
  EXPECT_DOUBLE_EQ(result.wall_clock, 250.0 + 3.0 * 3.0);
}

TEST(SilentErrorSim, CorruptionRateMatchesTheory) {
  silent::Params params;
  params.error_rate = 1e-5;
  params.verification_cost = 5.0;
  params.checkpoint_cost = 10.0;
  params.recovery_cost = 10.0;
  params.processors = 4;
  Rng rng(3);
  const double quantum = 500.0;
  const auto result = silent::simulate(params, 2.0e6, quantum, rng);
  const double span =
      quantum + params.verification_cost + params.checkpoint_cost;
  const double p_corrupt = 1.0 - std::exp(-4e-5 * span);
  const double observed = static_cast<double>(result.corrupted_periods) /
                          static_cast<double>(result.periods_executed);
  EXPECT_NEAR(observed, p_corrupt, 0.25 * p_corrupt + 0.002);
}

/// The analytic expected time (geometric retries) must match Monte-Carlo
/// simulation of the same protocol — certifying both.
TEST(SilentErrorSim, AnalyticModelMatchesSimulation) {
  silent::Params params;
  params.error_rate = 2e-6;
  params.verification_cost = 5.0;
  params.checkpoint_cost = 20.0;
  params.recovery_cost = 20.0;
  params.processors = 8;
  const double quantum = 1000.0;
  const double total = 100.0 * quantum;  // exact multiple: periods align
  const double analytic =
      100.0 * silent::expected_period_time(params, quantum);
  const double simulated =
      silent::simulate_mean(params, total, quantum, 300, 77);
  EXPECT_NEAR(simulated, analytic, 0.02 * analytic);
}

TEST(SilentErrorSim, OptimalQuantumBeatsNeighborsInSimulation) {
  silent::Params params;
  params.error_rate = 1e-6;
  params.verification_cost = 2.0;
  params.checkpoint_cost = 8.0;
  params.recovery_cost = 8.0;
  params.processors = 4;
  const double total = 3.0e5;
  const double star = silent::optimal_work_quantum(params, total);
  const double at_star = silent::simulate_mean(params, total, star, 400, 5);
  const double smaller =
      silent::simulate_mean(params, total, star / 8.0, 400, 5);
  const double larger =
      silent::simulate_mean(params, total, star * 8.0, 400, 5);
  EXPECT_LT(at_star, smaller);
  EXPECT_LT(at_star, larger);
}

TEST(SilentErrors, ExecutionTimeExceedsWork) {
  silent::Params params;
  params.error_rate = 1e-6;
  params.verification_cost = 2.0;
  params.checkpoint_cost = 8.0;
  params.recovery_cost = 8.0;
  params.processors = 2;
  EXPECT_GT(silent::expected_execution_time(params, 5.0e5), 5.0e5);
}

// ---- online arrivals (extensions/online.hpp) ------------------------------

checkpoint::Model online_resilience(double mtbf_years) {
  return checkpoint::Model({mtbf_years > 0.0 ? units::years(mtbf_years) : 0.0,
                            60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
}

TEST(OnlineArrivals, ReleaseTimesFollowTheLaws) {
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6, 1.5e6, 1.2e6,
                                     2.2e6, 1.8e6, 2.4e6});
  const checkpoint::Model resilience = online_resilience(25.0);

  ArrivalSpec spec;
  Rng rng(7);
  // None: everything at time 0 regardless of the load factor.
  const std::vector<double> none =
      make_release_times(spec, pack, resilience, 32, rng);
  ASSERT_EQ(none.size(), 8u);
  for (double r : none) EXPECT_EQ(r, 0.0);

  // Poisson: sorted ascending, deterministic in the rng stream, and the
  // load factor scales density (same stream, higher load => earlier).
  spec.law = ArrivalLaw::Poisson;
  spec.load_factor = 0.5;
  Rng rng_a(7);
  const std::vector<double> poisson =
      make_release_times(spec, pack, resilience, 32, rng_a);
  EXPECT_TRUE(std::is_sorted(poisson.begin(), poisson.end()));
  EXPECT_GT(poisson.front(), 0.0);
  Rng rng_b(7);
  const std::vector<double> replay =
      make_release_times(spec, pack, resilience, 32, rng_b);
  EXPECT_EQ(poisson, replay);
  spec.load_factor = 2.0;
  Rng rng_c(7);
  const std::vector<double> dense =
      make_release_times(spec, pack, resilience, 32, rng_c);
  for (std::size_t i = 0; i < dense.size(); ++i)
    EXPECT_DOUBLE_EQ(dense[i], poisson[i] / 4.0);  // rho 0.5 -> 2 is 4x

  // Bulk: exactly `bulk_phases` distinct waves, index order.
  spec.law = ArrivalLaw::Bulk;
  spec.bulk_phases = 4;
  const std::vector<double> bulk =
      make_release_times(spec, pack, resilience, 32, rng);
  std::set<double> waves(bulk.begin(), bulk.end());
  EXPECT_EQ(waves.size(), 4u);
  EXPECT_EQ(bulk.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(bulk.begin(), bulk.end()));
}

TEST(OnlineArrivals, TraceLawLoadsScalesAndValidates) {
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6});
  const checkpoint::Model resilience = online_resilience(25.0);
  const auto path = std::filesystem::temp_directory_path() /
                    "coredis_online_trace_test.txt";
  {
    std::ofstream file(path);
    file << "100 50\n75\n";
  }
  ArrivalSpec spec;
  spec.law = ArrivalLaw::Trace;
  spec.trace_path = path.string();
  spec.load_factor = 2.0;
  Rng rng(1);
  const std::vector<double> releases =
      make_release_times(spec, pack, resilience, 8, rng);
  // Sorted ascending and divided by the load factor.
  const std::vector<double> expected{25.0, 37.5, 50.0};
  EXPECT_EQ(releases, expected);

  // Too few entries for the pack fails loudly.
  const core::Pack big = make_pack({2.0e6, 1.0e6, 2.5e6, 1.5e6});
  EXPECT_THROW((void)make_release_times(spec, big, resilience, 8, rng),
               std::runtime_error);

  // Every token must be a whole finite, non-negative number; the error
  // names the token and its line instead of ending the read early.
  const core::Pack two = make_pack({2.0e6, 1.0e6});
  const struct {
    const char* text;
    const char* token;
    const char* line;
  } malformed[] = {
      {"100 50 abc 75\n", "'abc'", "line 1"},
      {"100\n1e999\n", "'1e999'", "line 2"},
      {"100 xyz 75\n", "'xyz'", "line 1"},
      {"100 inf\n", "'inf'", "line 1"},
      {"nan 100\n", "'nan'", "line 1"},
      {"100 50x\n", "'50x'", "line 1"},
      {"100\n\n-5\n", "'-5'", "line 3"},
  };
  for (const auto& row : malformed) {
    SCOPED_TRACE(row.text);
    {
      std::ofstream file(path);
      file << row.text;
    }
    try {
      (void)make_release_times(spec, two, resilience, 8, rng);
      ADD_FAILURE() << "malformed trace accepted";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(row.token), std::string::npos) << message;
      EXPECT_NE(message.find(row.line), std::string::npos) << message;
    }
  }
  spec.trace_path = "/nonexistent/coredis_trace";
  EXPECT_THROW((void)make_release_times(spec, pack, resilience, 8, rng),
               std::runtime_error);
  std::filesystem::remove(path);
}

TEST(OnlineArrivals, SparseJobsRunAloneOnTheirBestAllocation) {
  // Releases far apart: every job runs alone, so the malleable scheduler,
  // both rigid baselines and the isolated-run arithmetic must agree.
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6});
  const checkpoint::Model resilience = online_resilience(0.0);  // fault-free
  const std::vector<double> releases{0.0, 1.0e9, 2.0e9};
  const int p = 32;

  fault::NullGenerator none_a(p);
  const OnlineResult malleable =
      run_online(pack, resilience, p, releases, none_a);
  fault::NullGenerator none_b(p);
  const BatchResult easy =
      run_batch(pack, resilience, p, releases, {}, none_b);
  fault::NullGenerator none_c(p);
  BatchConfig fcfs;
  fcfs.backfilling = false;
  const BatchResult plain =
      run_batch(pack, resilience, p, releases, fcfs, none_c);

  for (int i = 0; i < pack.size(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(malleable.start_times[idx], releases[idx]);
    EXPECT_NEAR(malleable.completion_times[idx], easy.completion_times[idx],
                1e-6 * easy.completion_times[idx]);
    EXPECT_EQ(easy.completion_times[idx], plain.completion_times[idx]);
  }
  EXPECT_EQ(malleable.redistributions, 0);
  EXPECT_EQ(malleable.mean_queue_wait, 0.0);
  EXPECT_NEAR(malleable.makespan, easy.makespan, 1e-6 * easy.makespan);
}

TEST(OnlineArrivals, SimultaneousReleaseSharesThePlatform) {
  // Everything released at 0 on a tight platform: the malleable scheduler
  // co-schedules (every job starts at 0) while rigid FCFS serializes.
  const core::Pack pack = make_pack({2.0e6, 1.9e6, 2.1e6, 2.2e6});
  const checkpoint::Model resilience = online_resilience(0.0);
  const std::vector<double> releases(4, 0.0);
  const int p = 8;

  fault::NullGenerator none_a(p);
  const OnlineResult malleable =
      run_online(pack, resilience, p, releases, none_a);
  for (int i = 0; i < pack.size(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(malleable.start_times[idx], 0.0);
    EXPECT_GT(malleable.completion_times[idx], 0.0);
    // Allocations are buddy pairs within the platform (the value is the
    // job's sigma at its own completion; completions grow survivors, so
    // the sum across different completion instants may exceed p).
    EXPECT_GE(malleable.final_allocation[idx], 2);
    EXPECT_LE(malleable.final_allocation[idx], p);
    EXPECT_EQ(malleable.final_allocation[idx] % 2, 0);
  }

  fault::NullGenerator none_b(p);
  BatchConfig fcfs;
  fcfs.backfilling = false;
  const BatchResult plain =
      run_batch(pack, resilience, p, releases, fcfs, none_b);
  EXPECT_LT(malleable.makespan, plain.makespan);
}

TEST(OnlineArrivals, MalleableResizePaysRedistribution) {
  // Two staggered jobs on a tight platform: admitting the second shrinks
  // the first (one redistribution), and its completion grows the second
  // back (another) — each paying Eq. 9 cost.
  const core::Pack pack = make_pack({2.0e6, 1.0e6});
  const checkpoint::Model resilience = online_resilience(0.0);
  fault::NullGenerator none(8);
  const OnlineResult result =
      run_online(pack, resilience, 8, {0.0, 1.0e5}, none);
  EXPECT_GE(result.redistributions, 1);
  EXPECT_GT(result.redistribution_cost, 0.0);
  EXPECT_EQ(result.start_times[1], 1.0e5);
}

TEST(OnlineArrivals, FaultsRollJobsBack) {
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6});
  const checkpoint::Model with_faults = online_resilience(0.5);
  const std::vector<double> releases(3, 0.0);
  const int p = 12;

  fault::ExponentialGenerator faults(p, 1.0 / units::years(0.5), Rng(11));
  const OnlineResult faulty =
      run_online(pack, with_faults, p, releases, faults);
  fault::NullGenerator none(p);
  const OnlineResult clean =
      run_online(pack, with_faults, p, releases, none);
  EXPECT_GT(faulty.faults_effective, 0);
  EXPECT_GT(faulty.makespan, clean.makespan);
}

TEST(OnlineArrivals, DeterministicInItsInputs) {
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6, 1.5e6});
  const checkpoint::Model resilience = online_resilience(2.0);
  const std::vector<double> releases{0.0, 5.0e5, 1.0e6, 1.5e6};
  const int p = 16;
  fault::ExponentialGenerator faults_a(p, 1.0 / units::years(2.0), Rng(3));
  fault::ExponentialGenerator faults_b(p, 1.0 / units::years(2.0), Rng(3));
  const OnlineResult a = run_online(pack, resilience, p, releases, faults_a);
  const OnlineResult b = run_online(pack, resilience, p, releases, faults_b);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completion_times, b.completion_times);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redistribution_cost, b.redistribution_cost);
}

TEST(OnlineArrivals, BatchBackfillsAReleaseDatedCandidate) {
  // Crafted best-useful requests (table profiles): job 0 occupies 2 of 4
  // processors until t = 60, job 1 (released at 10) wants all 4 and
  // blocks, job 2 (released at 20, short, 2 processors) finishes before
  // the head's shadow time — EASY starts it on release, FCFS holds it.
  const auto crafted = [] {
    std::vector<core::TaskSpec> tasks;
    tasks.push_back({1000.0, std::make_shared<speedup::TableModel>(
                                 1000.0,
                                 std::vector<std::pair<int, double>>{
                                     {1, 100.0}, {2, 60.0}})});
    tasks.push_back({1000.0, std::make_shared<speedup::TableModel>(
                                 1000.0,
                                 std::vector<std::pair<int, double>>{
                                     {1, 400.0}, {2, 220.0}, {4, 110.0}})});
    tasks.push_back({1000.0, std::make_shared<speedup::TableModel>(
                                 1000.0,
                                 std::vector<std::pair<int, double>>{
                                     {1, 40.0}, {2, 30.0}})});
    return core::Pack(std::move(tasks),
                      std::make_shared<speedup::SyntheticModel>(0.08));
  };
  const core::Pack pack = crafted();
  const checkpoint::Model resilience = online_resilience(0.0);
  const std::vector<double> releases{0.0, 10.0, 20.0};

  fault::NullGenerator none_a(4);
  const BatchResult easy = run_batch(pack, resilience, 4, releases, {}, none_a);
  EXPECT_EQ(easy.backfilled_jobs, 1);
  EXPECT_DOUBLE_EQ(easy.start_times[2], 20.0);  // backfilled on release
  EXPECT_DOUBLE_EQ(easy.start_times[1], 60.0);  // head not delayed

  fault::NullGenerator none_b(4);
  BatchConfig no_backfill;
  no_backfill.backfilling = false;
  const BatchResult fcfs =
      run_batch(pack, resilience, 4, releases, no_backfill, none_b);
  EXPECT_EQ(fcfs.backfilled_jobs, 0);
  EXPECT_GE(fcfs.start_times[2], fcfs.start_times[1]);
}

TEST(OnlineArrivals, ZeroReleaseBatchMatchesLegacyOverload) {
  // The static-release overload must reproduce the release-dated path
  // with all-zero releases bit for bit (same generator seeding).
  const core::Pack pack = make_pack({2.0e6, 1.0e6, 2.5e6});
  const checkpoint::Model resilience = online_resilience(5.0);
  const int p = 12;
  const double mtbf = units::years(5.0);

  const BatchResult legacy = run_batch(pack, resilience, p, {}, 99, mtbf);
  fault::ExponentialGenerator faults(p, 1.0 / mtbf, Rng::child(99, 0));
  const BatchResult dated = run_batch(pack, resilience, p,
                                      std::vector<double>(3, 0.0), {}, faults);
  EXPECT_EQ(legacy.makespan, dated.makespan);
  EXPECT_EQ(legacy.completion_times, dated.completion_times);
  EXPECT_EQ(legacy.faults_effective, dated.faults_effective);
}

}  // namespace
}  // namespace coredis::extensions
