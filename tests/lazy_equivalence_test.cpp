/// \file lazy_equivalence_test.cpp
/// The incremental-replanning equivalence battery (DESIGN.md sections 6.5
/// and 8.2): the lazy scan machinery (carried EndLocal verdicts, the
/// warm-started flat IteratedGreedy regrow, the tournament tree) and the
/// online scheduler's incremental repair must reproduce the from-scratch
/// decision sequences byte for byte. Three layers:
///
///  * whole-run engine equivalence over randomized grids, both fault
///    laws, every policy pair — lazy (default) vs EngineConfig::
///    eager_scans in the same test run — plus a battery over large idle
///    pools for the widened verdicts and one over large EndGreedy packs
///    for the warm-started regrow, whose work counters are pinned;
///  * online delta-replan vs full-replan (OnlineOptions::eager_replan)
///    over both generated arrival laws, plus the shared-workspace
///    overload vs the self-contained one;
///  * white-box invariants of the carried-verdict cache (the "lazy
///    queue"): a failed scan stores a verdict at the scanned pool and
///    current version, commits invalidate it, and within its horizon the
///    carried drop agrees with an eager re-scan.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "core/engine.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "fault/generator.hpp"
#include "fault/weibull.hpp"
#include "speedup/amdahl.hpp"
#include "speedup/synthetic.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace coredis {
namespace {

core::RunResult run_engine(const core::Pack& pack,
                           const checkpoint::Model& resilience, int p,
                           core::EngineConfig config, bool weibull,
                           std::uint64_t seed) {
  core::Engine engine(pack, resilience, p, config);
  const double mtbf = units::years(10.0);
  if (weibull) {
    fault::WeibullGenerator gen(p, mtbf, 0.7, seed);
    return engine.run(gen);
  }
  fault::ExponentialGenerator gen(p, 1.0 / mtbf, Rng(seed));
  return engine.run(gen);
}

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redistribution_cost, b.redistribution_cost);
  EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
  EXPECT_EQ(a.faults_effective, b.faults_effective);
  EXPECT_EQ(a.faults_discarded, b.faults_discarded);
  EXPECT_EQ(a.time_lost_to_faults, b.time_lost_to_faults);
  ASSERT_EQ(a.completion_times.size(), b.completion_times.size());
  for (std::size_t i = 0; i < a.completion_times.size(); ++i) {
    EXPECT_EQ(a.completion_times[i], b.completion_times[i]);
    EXPECT_EQ(a.final_allocation[i], b.final_allocation[i]);
  }
}

TEST(LazyEquivalence, EngineMatchesEagerScansOnRandomizedGrids) {
  // Randomized packs and platforms through every policy pair under both
  // fault laws: the lazy default and the eager reference must replay the
  // exact same simulation, double for double.
  const core::EndPolicy ends[] = {core::EndPolicy::Local,
                                  core::EndPolicy::Greedy};
  const core::FailurePolicy fails[] = {
      core::FailurePolicy::ShortestTasksFirst,
      core::FailurePolicy::IteratedGreedy};
  Rng rng(20260726ULL);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform01() * 10);
    const int p = 2 * n * (2 + static_cast<int>(rng.uniform01() * 4));
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    const checkpoint::Model resilience({units::years(10.0), 60.0, 1.0,
                                        checkpoint::PeriodRule::Young, 0.0});
    for (const bool weibull : {false, true}) {
      for (const auto end : ends) {
        for (const auto fail : fails) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " p=" << p << " weibull=" << weibull
                       << " end=" << to_string(end)
                       << " fail=" << to_string(fail) << " seed=" << seed);
          core::EngineConfig lazy;
          lazy.end_policy = end;
          lazy.failure_policy = fail;
          core::EngineConfig eager = lazy;
          eager.eager_scans = true;
          expect_identical(
              run_engine(pack, resilience, p, lazy, weibull, seed ^ 0xABCD),
              run_engine(pack, resilience, p, eager, weibull, seed ^ 0xABCD));
        }
      }
    }
  }
}

TEST(LazyEquivalence, WidenedVerdictsMatchEagerScans) {
  // Widened EndLocal verdicts (DESIGN.md section 6.5) only matter once
  // the idle pool outgrows the allocations: large platforms (p up to
  // 20n), the fault-free context with RC (no faults drawn, EndLocal at
  // every completion, the pool growing each time), and checkpoint costs
  // on both sides of c = 1. With c > 1, RC + C falls with the target, so
  // new targets can sit below the covered columns' floor: the floor
  // check must fail over to the exact scan. Lazy and eager must replay
  // the same simulation double for double, and the counters prove every
  // widening branch ran.
  enum class Faults { None, Exponential, Weibull };
  struct Case {
    core::FailurePolicy fail;
    Faults faults;
  };
  const Case cases[] = {
      {core::FailurePolicy::None, Faults::None},
      {core::FailurePolicy::ShortestTasksFirst, Faults::Exponential},
      {core::FailurePolicy::ShortestTasksFirst, Faults::Weibull},
      {core::FailurePolicy::IteratedGreedy, Faults::Exponential},
      {core::FailurePolicy::IteratedGreedy, Faults::Weibull},
  };
  core::EngineProfile work;
  Rng rng(0x00DE1F00ULL);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 10 + static_cast<int>(rng.uniform01() * 191);
    const int p = 2 * n * (1 + static_cast<int>(rng.uniform01() * 10));
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    for (const double c : {0.3, 1.0, 3.0}) {
      for (const double mtbf_years : {10.0, 100.0}) {
        const double mtbf = units::years(mtbf_years);
        const checkpoint::Model resilience(
            {mtbf, 60.0, c, checkpoint::PeriodRule::Young, 0.0});
        for (const Case& cs : cases) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " p=" << p << " c=" << c
                       << " mtbf=" << mtbf_years
                       << " fail=" << to_string(cs.fail)
                       << " faults=" << static_cast<int>(cs.faults)
                       << " seed=" << seed);
          const auto run = [&](bool eager) {
            core::EngineConfig config;
            config.end_policy = core::EndPolicy::Local;
            config.failure_policy = cs.fail;
            config.eager_scans = eager;
            config.profile = !eager;
            core::Engine engine(pack, resilience, p, config);
            if (cs.faults == Faults::None) {
              fault::NullGenerator gen(p);
              return engine.run(gen);
            }
            if (cs.faults == Faults::Weibull) {
              fault::WeibullGenerator gen(p, mtbf, 0.7, seed ^ 0x3A1DULL);
              return engine.run(gen);
            }
            fault::ExponentialGenerator gen(p, 1.0 / mtbf,
                                            Rng(seed ^ 0x3A1DULL));
            return engine.run(gen);
          };
          const core::RunResult lazy = run(false);
          expect_identical(lazy, run(true));
          work.verdict_widenings += lazy.profile.verdict_widenings;
          work.widen_fallbacks += lazy.profile.widen_fallbacks;
          work.floor_fallbacks += lazy.profile.floor_fallbacks;
        }
      }
    }
  }
  EXPECT_GT(work.verdict_widenings, 0);
  EXPECT_GT(work.floor_fallbacks, 0);
  EXPECT_GT(work.widen_fallbacks - work.floor_fallbacks, 0)
      << "no widening failed on its new columns";
}

TEST(LazyEquivalence, WarmRegrowMatchesEagerRebuild) {
  // The warm-started Algorithm 5 regrow (DESIGN.md section 6.5) skips
  // the cold climb up to a threshold T and bounds most walks away; the
  // eager reference climbs pair by pair from one pair per task. EndGreedy
  // rebuilds at every completion, so large packs (n up to 300, p up to
  // 20n) give thousands of warm starts per run: with and without faults
  // (STF or IteratedGreedy at faults, both laws), checkpoint costs on
  // both sides of c = 1, the zero-RC ablation on some packs, and every
  // third pack of identical tasks, whose keys tie and exercise the
  // task-index order against T. Lazy and eager must replay the same
  // simulation double for double, and the counters prove that bound
  // skips, walks and phase-B replays all ran.
  enum class Faults { None, Exponential, Weibull };
  struct Case {
    core::FailurePolicy fail;
    Faults faults;
  };
  const Case cases[] = {
      {core::FailurePolicy::None, Faults::Exponential},
      {core::FailurePolicy::None, Faults::Weibull},
      {core::FailurePolicy::ShortestTasksFirst, Faults::Exponential},
      {core::FailurePolicy::ShortestTasksFirst, Faults::Weibull},
      {core::FailurePolicy::IteratedGreedy, Faults::Exponential},
      {core::FailurePolicy::IteratedGreedy, Faults::Weibull},
  };
  core::EngineProfile work;
  Rng rng(0x3A2B5EA4ULL);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 10 + static_cast<int>(rng.uniform01() * 291);
    const int p = 2 * n * (1 + static_cast<int>(rng.uniform01() * 10));
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    const bool identical = trial % 3 == 2;
    const bool zero_rc = trial % 2 == 1;
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, identical ? 2.0e6 : 1.5e6, identical ? 2.0e6 : 2.5e6,
        std::make_shared<speedup::SyntheticModel>(0.08), pack_rng);
    for (const double c : {0.3, 1.0, 3.0}) {
      const auto run = [&](const checkpoint::Model& resilience, double mtbf,
                           const Case& cs, bool eager) {
        core::EngineConfig config;
        config.end_policy = core::EndPolicy::Greedy;
        config.failure_policy = cs.fail;
        config.zero_redistribution_cost = zero_rc;
        config.eager_scans = eager;
        config.profile = !eager;
        core::Engine engine(pack, resilience, p, config);
        if (cs.faults == Faults::None) {
          fault::NullGenerator gen(p);
          return engine.run(gen);
        }
        if (cs.faults == Faults::Weibull) {
          fault::WeibullGenerator gen(p, mtbf, 0.7, seed ^ 0x5EA7ULL);
          return engine.run(gen);
        }
        fault::ExponentialGenerator gen(p, 1.0 / mtbf, Rng(seed ^ 0x5EA7ULL));
        return engine.run(gen);
      };
      const auto check = [&](const checkpoint::Model& resilience, double mtbf,
                             const Case& cs) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " p=" << p << " c=" << c
                     << " mtbf=" << mtbf << " fail=" << to_string(cs.fail)
                     << " faults=" << static_cast<int>(cs.faults)
                     << " identical=" << identical << " zero_rc=" << zero_rc
                     << " seed=" << seed);
        const core::RunResult lazy = run(resilience, mtbf, cs, false);
        expect_identical(lazy, run(resilience, mtbf, cs, true));
        work.regrows += lazy.profile.regrows;
        work.tournament_replays += lazy.profile.tournament_replays;
        work.walk_skips += lazy.profile.walk_skips;
        work.walk_steps += lazy.profile.walk_steps;
      };
      // The fault-free context: no faults drawn, EndGreedy at every
      // completion on a model with no checkpoints.
      const checkpoint::Model fault_free(
          {0.0, 60.0, c, checkpoint::PeriodRule::Young, 0.0});
      check(fault_free, 0.0, {core::FailurePolicy::None, Faults::None});
      for (const double mtbf_years : {10.0, 100.0}) {
        const double mtbf = units::years(mtbf_years);
        const checkpoint::Model resilience(
            {mtbf, 60.0, c, checkpoint::PeriodRule::Young, 0.0});
        for (const Case& cs : cases) check(resilience, mtbf, cs);
      }
    }
  }
  EXPECT_GT(work.regrows, 0);
  EXPECT_GT(work.walk_skips, 0) << "no task was bounded to its allocation";
  EXPECT_GT(work.walk_steps, 0) << "no warm-start walk ran";
  EXPECT_GT(work.tournament_replays, 0) << "no grant past the warm start";
}

TEST(EngineProfile, WorkCountersArePinned) {
  // The work counters are exact functions of the input, so they are
  // pinned here: a change that does more (or less) work fails this test
  // however noisy the machine. Paper scenario defaults at n = 200,
  // p = 10n on a fresh engine: the fault-free context with RC, and
  // IteratedGreedy under exponential faults with EndLocal and with
  // EndGreedy. The cold Algorithm 5 climb replayed 158,545 tournament
  // re-keys in the EndGreedy run; the warm start leaves 3,499.
  constexpr int n = 200;
  constexpr int p = 10 * n;
  Rng pack_rng(42);
  const core::Pack pack = core::Pack::uniform_random(
      n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const double mtbf = units::years(100.0);
  const checkpoint::Model resilience(
      {mtbf, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  const auto counters = [](const core::EngineProfile& w) {
    return std::vector<long long>{w.events,         w.heuristic_calls,
                                  w.commits,        w.full_scans,
                                  w.verdict_drops,  w.verdict_widenings,
                                  w.widen_fallbacks, w.floor_fallbacks,
                                  w.column_fills,   w.regrows,
                                  w.tournament_replays, w.walk_skips,
                                  w.walk_steps};
  };
  core::EngineConfig config;
  config.end_policy = core::EndPolicy::Local;
  config.profile = true;

  config.failure_policy = core::FailurePolicy::None;
  fault::NullGenerator none(p);
  const core::RunResult rc_ff =
      core::Engine(pack, resilience, p, config).run(none);
  EXPECT_EQ(counters(rc_ff.profile),
            (std::vector<long long>{200, 199, 128, 1772, 816, 2189, 259, 236,
                                    100464, 0, 0, 0, 0}))
      << "fault-free context with RC";

  config.failure_policy = core::FailurePolicy::IteratedGreedy;
  fault::ExponentialGenerator faults(p, 1.0 / mtbf, Rng(7));
  const core::RunResult ig_local =
      core::Engine(pack, resilience, p, config).run(faults);
  EXPECT_EQ(counters(ig_local.profile),
            (std::vector<long long>{210, 196, 34, 1997, 10688, 3286, 234, 231,
                                    114693, 8, 2511, 316, 3130}))
      << "IteratedGreedy-EndLocal";

  config.end_policy = core::EndPolicy::Greedy;
  fault::ExponentialGenerator greedy_faults(p, 1.0 / mtbf, Rng(7));
  const core::RunResult ig_greedy =
      core::Engine(pack, resilience, p, config).run(greedy_faults);
  EXPECT_EQ(counters(ig_greedy.profile),
            (std::vector<long long>{210, 196, 17, 0, 0, 0, 0, 0, 188551, 196,
                                    3499, 16666, 3506}))
      << "IteratedGreedy-EndGreedy";
}

TEST(LazyEquivalence, ZeroRcAblationMatchesEagerScans) {
  Rng pack_rng(77ULL);
  const core::Pack pack = core::Pack::uniform_random(
      8, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(10.0), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  core::EngineConfig lazy;
  lazy.zero_redistribution_cost = true;
  core::EngineConfig eager = lazy;
  eager.eager_scans = true;
  expect_identical(run_engine(pack, resilience, 64, lazy, false, 11ULL),
                   run_engine(pack, resilience, 64, eager, false, 11ULL));
}

void expect_identical_online(const extensions::OnlineResult& a,
                             const extensions::OnlineResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redistribution_cost, b.redistribution_cost);
  EXPECT_EQ(a.faults_effective, b.faults_effective);
  EXPECT_EQ(a.busy_processor_seconds, b.busy_processor_seconds);
  EXPECT_EQ(a.mean_queue_wait, b.mean_queue_wait);
  ASSERT_EQ(a.completion_times.size(), b.completion_times.size());
  for (std::size_t i = 0; i < a.completion_times.size(); ++i) {
    EXPECT_EQ(a.start_times[i], b.start_times[i]);
    EXPECT_EQ(a.completion_times[i], b.completion_times[i]);
    EXPECT_EQ(a.final_allocation[i], b.final_allocation[i]);
  }
}

TEST(OnlineDeltaEquivalence, RepairMatchesFullReplanAcrossArrivalLaws) {
  Rng rng(4242ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 6 + static_cast<int>(rng.uniform01() * 8);
    const int p = 10 * n;
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    const checkpoint::Model resilience({units::years(5.0), 60.0, 1.0,
                                        checkpoint::PeriodRule::Young, 0.0});
    for (const auto law :
         {extensions::ArrivalLaw::Poisson, extensions::ArrivalLaw::Bulk}) {
      for (const double load : {0.5, 2.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " law=" << extensions::to_string(law)
                     << " load=" << load << " seed=" << seed);
        extensions::ArrivalSpec spec;
        spec.law = law;
        spec.load_factor = load;
        Rng arrivals(seed ^ 0xA881ULL);
        const std::vector<double> releases = extensions::make_release_times(
            spec, pack, resilience, p, arrivals);

        extensions::OnlineOptions full;
        full.eager_replan = true;
        fault::ExponentialGenerator ga(p, 1.0 / units::years(5.0),
                                       Rng(seed ^ 0xFA17ULL));
        const extensions::OnlineResult a =
            extensions::run_online(pack, resilience, p, releases, ga, full);

        // Delta repair, over a shared warm workspace (the campaign
        // runner's setup): both axes must be invisible in the results.
        core::Engine engine(pack, resilience, p, {});
        {
          fault::ExponentialGenerator warm(p, 1.0 / units::years(5.0),
                                           Rng(seed ^ 0xBEEF));
          (void)engine.run(warm);
        }
        fault::ExponentialGenerator gb(p, 1.0 / units::years(5.0),
                                       Rng(seed ^ 0xFA17ULL));
        const extensions::OnlineResult b = extensions::run_online(
            pack, resilience, p, releases, gb, engine.model(),
            engine.evaluator());
        expect_identical_online(a, b);
      }
    }
  }
}

// ---- white-box invariants of the carried-verdict cache -------------------

class ScanCacheTest : public ::testing::Test {
 protected:
  // Near-serial Amdahl profile: every task plateaus far below its 8
  // processors (Eq. 10's communication term would keep rewarding growth,
  // so the textbook profile isolates the plateau), and no EndLocal grant
  // can pay the redistribution cost — scans fail deterministically and
  // the carried verdicts are exercised.
  ScanCacheTest()
      : pack_({{2.0e6}, {1.6e6}, {2.4e6}, {1.9e6}},
              std::make_shared<speedup::AmdahlModel>(0.9995)),
        resilience_({units::years(100.0), 60.0, 1.0,
                     checkpoint::PeriodRule::Young, 0.0}),
        model_(pack_, resilience_),
        platform_(40),
        evaluator_(model_, 40) {
    state_.model = &model_;
    state_.platform = &platform_;
    state_.tr = &evaluator_;
    state_.tasks.resize(4);
    state_.build_event_index();
    for (int i = 0; i < 4; ++i) {
      core::detail::TaskRuntime& task = state_.task(i);
      task.sigma = 8;
      task.alpha = 1.0;
      task.tlastR = 0.0;
      task.tU = evaluator_(i, 8, 1.0);
      state_.refresh_projection(i);
      platform_.acquire(i, 8);
    }
    // Leave 8 processors idle so EndLocal has a pool to scan.
    state_.ensure_lazy_state();
  }

  /// Clone the committed task state into a fresh eager EngineState (same
  /// model/evaluator caches — pure values — but no verdict carry).
  core::detail::EngineState eager_clone(platform::Platform& platform) {
    core::detail::EngineState fresh;
    fresh.model = &model_;
    fresh.platform = &platform;
    fresh.tr = &evaluator_;
    fresh.eager_scans = true;
    fresh.tasks = state_.tasks;
    fresh.build_event_index();
    for (int i = 0; i < fresh.n(); ++i) {
      if (!fresh.task(i).done) platform.acquire(i, fresh.task(i).sigma);
      fresh.refresh_projection(i);
    }
    return fresh;
  }

  core::Pack pack_;
  checkpoint::Model resilience_;
  core::ExpectedTimeModel model_;
  platform::Platform platform_;
  core::TrEvaluator evaluator_;
  core::detail::EngineState state_;
};

TEST_F(ScanCacheTest, FailedScanStoresVerdictAtScannedPoolAndVersion) {
  // Pick a time late enough that growing any task cannot pay off against
  // its committed expectation plus RC: the scan fails for every task and
  // each failure must leave a carried verdict at the current version
  // covering the scanned pool.
  const double t = 0.05 * model_.fault_free_time(0, 8);
  const bool changed = core::detail::end_local(state_, t);
  ASSERT_FALSE(changed);
  for (int i = 0; i < state_.n(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(state_.scan_cache[idx].version, state_.version[idx]);
    EXPECT_EQ(state_.scan_cache[idx].k, 8);  // the idle pool it covered
    EXPECT_GE(state_.scan_cache[idx].horizon, t);
  }
}

TEST_F(ScanCacheTest, CommitBumpsVersionAndKillsTheVerdict) {
  const double t = 0.05 * model_.fault_free_time(0, 8);
  ASSERT_FALSE(core::detail::end_local(state_, t));
  const auto cached_version = state_.scan_cache[0].version;

  // Commit a change on task 0 (grow by a pair): its verdict must die.
  std::vector<int> new_sigma{10, 8, 8, 8};
  std::vector<double> alpha_t;
  for (int i = 0; i < 4; ++i)
    alpha_t.push_back(state_.alpha_tentative(i, t + 1.0));
  state_.commit(t + 1.0, /*faulty=*/-1, new_sigma, alpha_t);
  EXPECT_NE(state_.version[0], cached_version);
  EXPECT_EQ(state_.scan_cache[1].version, state_.version[1]);  // untouched
}

TEST_F(ScanCacheTest, CarriedDropAgreesWithEagerWithinHorizon) {
  // Prime the verdicts, then step forward inside every horizon: the lazy
  // state (which drops on the carried verdicts without probing) and a
  // fresh eager state over the same committed tasks must agree that no
  // redistribution happens — and their task states must stay identical.
  const double t0 = 0.2 * model_.fault_free_time(0, 8);
  bool first = false;
  {
    // Clone the committed state BEFORE the lazy call can mutate it: the
    // first calls must agree, whatever the verdict.
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = eager_clone(eager_platform);
    first = core::detail::end_local(state_, t0);
    ASSERT_EQ(first, core::detail::end_local(fresh, t0));
  }
  double horizon = std::numeric_limits<double>::infinity();
  for (int i = 0; i < state_.n(); ++i)
    horizon = std::min(horizon, state_.scan_cache[static_cast<std::size_t>(i)].horizon);
  if (first || !std::isfinite(horizon) || horizon <= t0) return;

  for (const double frac : {0.25, 0.6, 1.0}) {
    const double t1 = t0 + frac * (horizon - t0);
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = eager_clone(eager_platform);
    const bool lazy_changed = core::detail::end_local(state_, t1);
    const bool eager_changed = core::detail::end_local(fresh, t1);
    ASSERT_EQ(lazy_changed, eager_changed) << "t1=" << t1;
    for (int i = 0; i < state_.n(); ++i) {
      EXPECT_EQ(state_.task(i).sigma, fresh.task(i).sigma);
      EXPECT_EQ(state_.task(i).tU, fresh.task(i).tU);
    }
  }
}

TEST(LazyEquivalence, WeibullHeavyIteratedGreedyBattery) {
  // The fig07-regime stressor at test scale: Weibull faults (shape 0.7 —
  // infant-mortality bursts), fragile MTBF, IteratedGreedy under both
  // end policies, several independent grids. Beyond re-proving the
  // carried-verdict machinery under its heaviest rebuild load, this
  // crosses the vector Eq. 4 pass (DESIGN.md section 6.6) with the
  // scalar reference: the lazy path prefs its regrow columns through
  // the batched SIMD probe_many while the eager branch issues scalar
  // one-slot probes, so lazy == eager here also proves SIMD == scalar
  // through whole simulations, double for double.
  Rng rng(0x5EEDF00DULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 10 + static_cast<int>(rng.uniform01() * 14);
    const int p = 10 * n;
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    // 2-year MTBF: roughly 5x the fault pressure of the randomized-grid
    // battery above, so Algorithm 5 rebuilds dominate the run.
    const checkpoint::Model resilience({units::years(2.0), 60.0, 1.0,
                                        checkpoint::PeriodRule::Young, 0.0});
    for (const auto end :
         {core::EndPolicy::Local, core::EndPolicy::Greedy}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p
                                        << " end=" << to_string(end)
                                        << " seed=" << seed);
      core::EngineConfig lazy;
      lazy.end_policy = end;
      lazy.failure_policy = core::FailurePolicy::IteratedGreedy;
      core::EngineConfig eager = lazy;
      eager.eager_scans = true;
      expect_identical(
          run_engine(pack, resilience, p, lazy, /*weibull=*/true,
                     seed ^ 0x77EBULL),
          run_engine(pack, resilience, p, eager, /*weibull=*/true,
                     seed ^ 0x77EBULL));
    }
  }
}

TEST(ParallelFor, EveryThreadCountMatchesTheSerialResult) {
  // Work stealing is a balance optimization, never a semantic one: for a
  // body indexed by i, every thread count — including the
  // COREDIS_THREADS-driven default — must fill the exact same result
  // vector.
  constexpr std::size_t kCount = 97;  // not a multiple of any shard count
  const auto value_of = [](std::size_t i) {
    // Deterministic per-index payload with float content (so any
    // cross-thread reordering of *writes* would be caught bit-exactly).
    return std::exp(std::sin(static_cast<double>(i) * 0.37)) +
           static_cast<double>(i * i);
  };
  std::vector<double> reference(kCount);
  for (std::size_t i = 0; i < kCount; ++i) reference[i] = value_of(i);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7}}) {
    std::vector<double> got(kCount, -1.0);
    parallel_for(kCount, [&](std::size_t i) { got[i] = value_of(i); },
                 threads);
    EXPECT_EQ(got, reference) << "threads=" << threads;
  }

  // COREDIS_THREADS-crossed: the env-driven default thread count feeds
  // the same sharding arithmetic.
  for (const char* env_threads : {"2", "5"}) {
    ASSERT_EQ(0, setenv("COREDIS_THREADS", env_threads, 1));
    std::vector<double> got(kCount, -1.0);
    parallel_for(kCount, [&](std::size_t i) { got[i] = value_of(i); });
    EXPECT_EQ(got, reference) << "COREDIS_THREADS=" << env_threads;
  }
  unsetenv("COREDIS_THREADS");
}

TEST(ParallelFor, StealingPropagatesTheFirstError) {
  // A throwing body aborts the loop promptly and the caller sees a
  // propagated error.
  EXPECT_THROW(parallel_for(64,
                            [](std::size_t i) {
                              if (i % 5 == 0) throw std::runtime_error("boom");
                            },
                            3),
               std::runtime_error);
}

TEST(ProbeMany, BitIdenticalToScalarQueries) {
  Rng pack_rng(5150ULL);
  const core::Pack pack = core::Pack::uniform_random(
      5, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(25.0), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  const core::ExpectedTimeModel model(pack, resilience);
  Rng rng(99ULL);
  std::vector<double> batch(64);
  std::vector<double> reference(64);
  for (int trial = 0; trial < 20; ++trial) {
    const int task = static_cast<int>(rng.uniform01() * 5);
    const double alpha = trial == 0 ? 0.0 : rng.uniform01();
    const int h_begin = static_cast<int>(rng.uniform01() * 10);
    const int h_end = h_begin + 1 + static_cast<int>(rng.uniform01() * 60);
    batch.resize(static_cast<std::size_t>(h_end - h_begin));
    reference.resize(batch.size());
    model.probe_many(task, h_begin, h_end, alpha, batch.data());
    model.probe_many_reference(task, h_begin, h_end, alpha,
                               reference.data());
    for (std::size_t h = 0; h < batch.size(); ++h) {
      // Exact bit equality: both paths must run the same raw_kernel over
      // the same cached coefficient bits.
      EXPECT_EQ(batch[h], reference[h])
          << "task=" << task << " alpha=" << alpha << " h="
          << h_begin + static_cast<int>(h);
    }
  }
}

}  // namespace
}  // namespace coredis
