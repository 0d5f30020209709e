/// Tests of the scheduling baselines the paper positions itself against:
/// dedicated-mode execution (section 1), batch scheduling with EASY
/// backfilling (section 2.3), and the energy accounting used to compare
/// them with co-scheduling.

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <utility>
#include <vector>

#include "core/energy.hpp"
#include "core/engine.hpp"
#include "extensions/batch.hpp"
#include "extensions/dedicated.hpp"
#include "fault/exponential.hpp"
#include "fault/trace.hpp"
#include "speedup/synthetic.hpp"
#include "speedup/table_profile.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace coredis {
namespace {

checkpoint::Model fault_free_model() {
  return checkpoint::Model({0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
}

checkpoint::Model faulty_model(double mtbf_years) {
  return checkpoint::Model({units::years(mtbf_years), 60.0, 1.0,
                            checkpoint::PeriodRule::Young, 0.0});
}

TEST(Energy, BusySecondsIntegratesOwnedSegments) {
  std::vector<core::AllocationSegment> timeline{
      {0, 0.0, 10.0, 4, true},
      {1, 0.0, 20.0, 2, true},
      {2, 5.0, 15.0, 8, false},  // surrendered stretch: not counted
  };
  EXPECT_DOUBLE_EQ(core::busy_processor_seconds(timeline), 40.0 + 40.0);
}

TEST(Energy, PlatformEnergyArithmetic) {
  const core::EnergyModel model{100.0, 30.0};
  // p = 10 over 100 s: 1000 processor-seconds, 400 busy.
  EXPECT_DOUBLE_EQ(model.platform_energy(100.0, 10, 400.0),
                   100.0 * 400.0 + 30.0 * 600.0);
}

TEST(Energy, RejectsBusyBeyondCapacity) {
  const core::EnergyModel model{100.0, 30.0};
  EXPECT_DEATH((void)model.platform_energy(10.0, 2, 100.0), "precondition");
}

TEST(Dedicated, FaultFreeTotalIsSumOfSoloRuns) {
  const core::Pack pack({{2.0e6}, {1.5e6}},
                        std::make_shared<speedup::SyntheticModel>(0.08));
  const checkpoint::Model resilience = fault_free_model();
  const auto result =
      extensions::run_dedicated(pack, resilience, 64, 7, 0.0);
  ASSERT_EQ(result.task_durations.size(), 2u);
  EXPECT_DOUBLE_EQ(result.total_makespan,
                   result.task_durations[0] + result.task_durations[1]);
  EXPECT_EQ(result.faults_effective, 0);
  for (int allocation : result.allocations) {
    EXPECT_GE(allocation, 2);
    EXPECT_LE(allocation, 64);
  }
}

TEST(Dedicated, CoSchedulingBeatsDedicatedOnImperfectlyParallelPacks) {
  // The motivating claim of the paper's introduction: with a sequential
  // fraction, dedicating the full platform to each task wastes it.
  Rng rng(9);
  const core::Pack pack = core::Pack::uniform_random(
      6, 1.0e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = fault_free_model();
  const int p = 64;

  const auto dedicated =
      extensions::run_dedicated(pack, resilience, p, 3, 0.0);
  core::Engine engine(pack, resilience, p,
                      {core::EndPolicy::Local, core::FailurePolicy::None,
                       false});
  fault::NullGenerator faults(p);
  const double co_scheduled = engine.run(faults).makespan;
  EXPECT_LT(co_scheduled, dedicated.total_makespan);
}

TEST(Dedicated, CoSchedulingAlsoSavesEnergy) {
  Rng rng(10);
  const core::Pack pack = core::Pack::uniform_random(
      6, 1.0e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = fault_free_model();
  const int p = 64;
  const core::EnergyModel energy{100.0, 30.0};

  const auto dedicated =
      extensions::run_dedicated(pack, resilience, p, 3, 0.0);
  const double dedicated_energy = energy.platform_energy(
      dedicated.total_makespan, p, dedicated.busy_processor_seconds);

  core::EngineConfig config{core::EndPolicy::Local,
                            core::FailurePolicy::None, false};
  config.record_timeline = true;
  core::Engine engine(pack, resilience, p, config);
  fault::NullGenerator faults(p);
  const core::RunResult run = engine.run(faults);
  EXPECT_LT(energy.platform_energy(run, p), dedicated_energy);
}

core::Pack crafted_batch_pack() {
  // Per-task table profiles pin down the rigid requests and durations:
  // job0: best-useful 2 procs, 60 s; job1: 4 procs, 110 s;
  // job2: 2 procs, 30 s.
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
}

TEST(Batch, PlainFcfsRespectsSubmissionOrder) {
  const core::Pack pack = crafted_batch_pack();
  const checkpoint::Model resilience = fault_free_model();
  extensions::BatchConfig config;
  config.backfilling = false;
  const auto result =
      extensions::run_batch(pack, resilience, 4, config, 1, 0.0);
  EXPECT_EQ(result.final_allocation, (std::vector<int>{2, 4, 2}));
  // job0 at 0-60; job1 waits for the full platform: 60-170 (110 s on 4
  // processors); job2: 170-200.
  EXPECT_DOUBLE_EQ(result.start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(result.start_times[1], 60.0);
  EXPECT_DOUBLE_EQ(result.start_times[2], 170.0);
  EXPECT_DOUBLE_EQ(result.makespan, 200.0);
  EXPECT_EQ(result.backfilled_jobs, 0);
}

TEST(Batch, EasyBackfillingFillsTheHole) {
  const core::Pack pack = crafted_batch_pack();
  const checkpoint::Model resilience = fault_free_model();
  extensions::BatchConfig config;
  config.backfilling = true;
  const auto result =
      extensions::run_batch(pack, resilience, 4, config, 1, 0.0);
  // job2 (30 s on 2 procs) slides in front of the blocked head without
  // delaying it: shadow time is job0's end at 60.
  EXPECT_DOUBLE_EQ(result.start_times[2], 0.0);
  EXPECT_DOUBLE_EQ(result.start_times[1], 60.0);  // head not delayed
  EXPECT_DOUBLE_EQ(result.makespan, 170.0);
  EXPECT_EQ(result.backfilled_jobs, 1);
}

TEST(Batch, NoSchedulingPassAtABlackoutExit) {
  // The head (job1) needs the whole platform. Released at 2 s, job2 would
  // end at 61 s, past the shadow (job0's end at 60 s), so EASY keeps it
  // queued. A fault at 30 s rolls job0 back: its recovery blackout ends
  // at 95 s and it now ends at 155 s. That blackout exit is no event of a
  // rigid scheduler: an EASY pass there would backfill job2 at 95 s (it
  // ends at 154 s, before the new shadow) and the makespan would be 265 s.
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
                                   {1, 100.0}, {2, 59.0}})});
  const core::Pack pack(std::move(tasks),
                        std::make_shared<speedup::SyntheticModel>(0.08));
  const checkpoint::Model resilience({units::years(1.0), 60.0, 0.01,
                                      checkpoint::PeriodRule::Young, 0.0});
  const std::vector<double> releases{0.0, 1.0, 2.0};
  for (const bool backfilling : {true, false}) {
    SCOPED_TRACE(backfilling ? "easy" : "fcfs");
    extensions::BatchConfig config;
    config.backfilling = backfilling;
    fault::TraceGenerator faults(4, {{30.0, 0}});
    const auto result = extensions::run_batch(pack, resilience, 4, releases,
                                              config, faults);
    EXPECT_EQ(result.start_times, (std::vector<double>{0.0, 155.0, 265.0}));
    EXPECT_EQ(result.makespan, 324.0);
    EXPECT_EQ(result.faults_effective, 1);
    EXPECT_EQ(result.backfilled_jobs, 0);
    EXPECT_EQ(result.busy_processor_seconds, 868.0);
  }
}

TEST(Batch, BackfillNeverDelaysTheHeadOnCraftedInstance) {
  // A long backfill candidate (needs the shadow processors) must NOT be
  // started: job2 variant with 300 s on 2 procs.
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
                                   {1, 400.0}, {2, 300.0}})});
  const core::Pack pack(std::move(tasks),
                        std::make_shared<speedup::SyntheticModel>(0.08));
  const checkpoint::Model resilience = fault_free_model();
  extensions::BatchConfig config;
  config.backfilling = true;
  const auto result =
      extensions::run_batch(pack, resilience, 4, config, 1, 0.0);
  EXPECT_DOUBLE_EQ(result.start_times[1], 60.0);  // head still on time
  EXPECT_EQ(result.backfilled_jobs, 0);
}

TEST(Batch, FixedPairsRuleRequestsUniformAllocations) {
  const core::Pack pack = crafted_batch_pack();
  const checkpoint::Model resilience = fault_free_model();
  extensions::BatchConfig config;
  config.rule = extensions::RequestRule::FixedPairs;
  config.fixed_pairs = 1;
  const auto result =
      extensions::run_batch(pack, resilience, 4, config, 1, 0.0);
  EXPECT_EQ(result.final_allocation, (std::vector<int>{2, 2, 2}));
  // Two jobs run side by side from the start on the 4 processors.
  EXPECT_DOUBLE_EQ(result.start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(result.start_times[1], 0.0);
}

TEST(Batch, BackfillingNeverWorseThanPlainFcfs) {
  // EASY only ever moves work earlier without delaying the head, so on
  // identical fault streams it cannot lose to plain FCFS (fault-free
  // here, where the argument is exact).
  Rng rng(13);
  for (int round = 0; round < 5; ++round) {
    const core::Pack pack = core::Pack::uniform_random(
        6, 2.0e5, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        rng);
    const checkpoint::Model resilience = fault_free_model();
    extensions::BatchConfig plain;
    plain.backfilling = false;
    plain.rule = extensions::RequestRule::FixedPairs;
    plain.fixed_pairs = 4;
    extensions::BatchConfig easy = plain;
    easy.backfilling = true;
    const auto without =
        extensions::run_batch(pack, resilience, 20, plain, 1, 0.0);
    const auto with =
        extensions::run_batch(pack, resilience, 20, easy, 1, 0.0);
    EXPECT_LE(with.makespan, without.makespan * (1.0 + 1e-9));
  }
}

TEST(Dedicated, AccumulatesFaultsAcrossSoloRuns) {
  Rng rng(14);
  const core::Pack pack = core::Pack::uniform_random(
      4, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = faulty_model(1.0);
  const auto faulty =
      extensions::run_dedicated(pack, resilience, 32, 5, units::years(1.0));
  const auto clean = extensions::run_dedicated(pack, resilience, 32, 5, 0.0);
  EXPECT_GT(faulty.faults_effective, 0);
  EXPECT_GT(faulty.total_makespan, clean.total_makespan);
}

TEST(Batch, SurvivesFaultStorms) {
  Rng rng(11);
  const core::Pack pack = core::Pack::uniform_random(
      8, 5.0e5, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = faulty_model(1.0);
  extensions::BatchConfig config;
  const auto result = extensions::run_batch(pack, resilience, 32, config, 5,
                                            units::years(1.0));
  EXPECT_GT(result.faults_effective, 0);
  EXPECT_GT(result.makespan, 0.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_GE(result.completion_times[static_cast<std::size_t>(i)],
              result.start_times[static_cast<std::size_t>(i)]);
  }
}

TEST(Batch, CoSchedulingWithRedistributionBeatsBatchOnAverage) {
  // Section 2.3's contrast, made quantitative: malleable co-scheduling
  // with redistribution against rigid EASY batch on the same workloads
  // and fault streams.
  RunningStats batch_stats;
  RunningStats cosched_stats;
  const checkpoint::Model resilience = faulty_model(10.0);
  const int p = 64;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng = Rng::child(1234, seed);
    const core::Pack pack = core::Pack::uniform_random(
        8, 1.0e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        rng);
    const auto batch = extensions::run_batch(
        pack, resilience, p, {}, seed, units::years(10.0));
    batch_stats.add(batch.makespan);
    core::Engine engine(pack, resilience, p,
                        {core::EndPolicy::Local,
                         core::FailurePolicy::IteratedGreedy, false});
    fault::ExponentialGenerator faults(p, 1.0 / units::years(10.0),
                                       Rng::child(seed, 0));
    cosched_stats.add(engine.run(faults).makespan);
  }
  EXPECT_LT(cosched_stats.mean(), batch_stats.mean());
}

}  // namespace
}  // namespace coredis
