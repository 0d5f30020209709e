/// \file lazy_equivalence_test.cpp
/// The incremental-replanning equivalence battery (DESIGN.md sections 6.5
/// and 8.2): the lazy scan machinery (the fault-free bound's EndLocal
/// verdicts, the warm-started flat IteratedGreedy regrow, the tournament
/// tree) and the online scheduler's replan (prefilled columns, bulk
/// grants) must reproduce the from-scratch decision sequences byte for
/// byte. Three layers:
///
///  * whole-run engine equivalence over randomized grids, both fault
///    laws, every policy pair — lazy (default) vs EngineConfig::
///    eager_scans in the same test run — plus a battery over large idle
///    pools for the bound's verdicts and widenings, one over a
///    non-monotone speedup profile, and one over large EndGreedy packs
///    for the warm-started regrow, whose work counters are pinned;
///  * run_online vs an OnlineSim that replans with the printed
///    Algorithm 1 (tests/reference_schedule.hpp: uncached Eq. 6, one
///    grant per pop) over both generated arrival laws, the run_online
///    side on a shared warm workspace;
///  * white-box invariants of the verdict cache (the "lazy queue"): a
///    failed scan the bound proves stores a verdict at the scanned pool
///    and current version, commits invalidate it, the cached drop agrees
///    with an eager re-scan at every later time, and near ties of the
///    bound fall to the exact scan.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "core/engine.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "fault/generator.hpp"
#include "fault/weibull.hpp"
#include "reference_schedule.hpp"
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
  // The fault-free bound's EndLocal verdicts (DESIGN.md section 6.5) and
  // their widenings only matter once the idle pool outgrows the
  // allocations: large platforms (p up to 20n), the fault-free context
  // with RC (no faults drawn, EndLocal at every completion, the pool
  // growing each time), and checkpoint costs on both sides of c = 1.
  // Lazy and eager must replay the same simulation double for double,
  // and the counters prove every bound branch ran: a proof, a widening,
  // and a refusal that the exact scan then decided.
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
          work.bound_proofs += lazy.profile.bound_proofs;
          work.bound_widenings += lazy.profile.bound_widenings;
          work.full_scans += lazy.profile.full_scans;
        }
      }
    }
  }
  EXPECT_GT(work.bound_proofs, 0) << "the bound proved no failed scan";
  EXPECT_GT(work.bound_widenings, 0) << "the bound widened no verdict";
  EXPECT_GT(work.full_scans, 0) << "no refusal reached the exact scan";
}

/// A fault-free time that is not monotone in the allocation: every
/// allocation divisible by 4 runs 30% slower than the synthetic profile,
/// so past a few pairs t_{i,j} saw-tooths and the Eq. 6 clamp keeps an
/// earlier allocation's value. speedup::TableModel repairs such samples
/// at construction, so the profile is built here.
class SawtoothModel final : public speedup::Model {
 public:
  [[nodiscard]] double time(double m, int q) const override {
    const double base = inner_.time(m, q);
    return q % 4 == 0 ? 1.3 * base : base;
  }

 private:
  speedup::SyntheticModel inner_{0.08};
};

TEST(LazyEquivalence, NonMonotoneProfileMatchesEagerScans) {
  // The bound must take the running minimum of t_ij over j' <= j, not
  // t_ij at the target: on this profile the two differ at every other
  // target, for EndLocal's proofs and widenings and for the regrow's
  // walk skip alike. Faults on (exponential, IteratedGreedy or STF) and
  // off (the fault-free context, no faults drawn), RC on and off, both
  // end policies; lazy and eager must replay the same simulation double
  // for double.
  core::EngineProfile work;
  Rng rng(0x5A77007ULL);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 8 + static_cast<int>(rng.uniform01() * 60);
    const int p = 2 * n * (2 + static_cast<int>(rng.uniform01() * 8));
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    const bool zero_rc = trial % 3 == 2;
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<SawtoothModel>(), pack_rng);
    for (const double mtbf_years : {0.0, 10.0}) {
      const double mtbf = units::years(mtbf_years);
      const checkpoint::Model resilience(
          {mtbf, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
      for (const auto end : {core::EndPolicy::Local, core::EndPolicy::Greedy}) {
        for (const auto fail : {core::FailurePolicy::IteratedGreedy,
                                core::FailurePolicy::ShortestTasksFirst}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " p=" << p << " mtbf=" << mtbf_years
                       << " end=" << to_string(end)
                       << " fail=" << to_string(fail)
                       << " zero_rc=" << zero_rc << " seed=" << seed);
          const auto run = [&](bool eager) {
            core::EngineConfig config;
            config.end_policy = end;
            config.failure_policy = fail;
            config.zero_redistribution_cost = zero_rc;
            config.eager_scans = eager;
            config.profile = !eager;
            core::Engine engine(pack, resilience, p, config);
            if (mtbf_years == 0.0) {
              fault::NullGenerator gen(p);
              return engine.run(gen);
            }
            fault::ExponentialGenerator gen(p, 1.0 / mtbf,
                                            Rng(seed ^ 0x5A7ULL));
            return engine.run(gen);
          };
          const core::RunResult lazy = run(false);
          expect_identical(lazy, run(true));
          work.bound_proofs += lazy.profile.bound_proofs;
          work.bound_widenings += lazy.profile.bound_widenings;
          work.full_scans += lazy.profile.full_scans;
          work.walk_skips += lazy.profile.walk_skips;
          work.walk_steps += lazy.profile.walk_steps;
        }
      }
    }
  }
  EXPECT_GT(work.bound_proofs, 0);
  EXPECT_GT(work.bound_widenings, 0);
  EXPECT_GT(work.full_scans, 0);
  EXPECT_GT(work.walk_skips, 0);
  EXPECT_GT(work.walk_steps, 0);
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
  // re-keys in the EndGreedy run; the warm start leaves 3,499. The last
  // column pins the model's lazy fill policy: the Eq. 4 fills, the (task,
  // j) row entries a run evaluates Eq. 4 on (the fault-free context with
  // RC clears most scans with the fault-free bound, which reads no row).
  // The two memory gauges pin what the rows and columns hold at the end.
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
    return std::vector<long long>{w.events,          w.heuristic_calls,
                                  w.commits,         w.full_scans,
                                  w.verdict_drops,   w.bound_proofs,
                                  w.bound_widenings, w.column_fills,
                                  w.regrows,         w.tournament_replays,
                                  w.walk_skips,      w.walk_steps,
                                  w.eq4_fills};
  };
  const auto gauges = [](const core::EngineProfile& w) {
    return std::vector<long long>{w.row_bytes, w.column_bytes};
  };
  core::EngineConfig config;
  config.end_policy = core::EndPolicy::Local;
  config.profile = true;

  config.failure_policy = core::FailurePolicy::None;
  fault::NullGenerator none(p);
  const core::RunResult rc_ff =
      core::Engine(pack, resilience, p, config).run(none);
  EXPECT_EQ(counters(rc_ff.profile),
            (std::vector<long long>{200, 199, 128, 197, 1393, 180, 2475, 7148,
                                    0, 0, 0, 0, 2054}))
      << "fault-free context with RC";
  EXPECT_EQ(gauges(rc_ff.profile),
            (std::vector<long long>{129984, 34472}))
      << "fault-free context with RC";

  config.failure_policy = core::FailurePolicy::IteratedGreedy;
  fault::ExponentialGenerator faults(p, 1.0 / mtbf, Rng(7));
  const core::RunResult ig_local =
      core::Engine(pack, resilience, p, config).run(faults);
  EXPECT_EQ(counters(ig_local.profile),
            (std::vector<long long>{210, 196, 34, 233, 11676, 203, 2910, 84775,
                                    8, 2511, 316, 3130, 4038}))
      << "IteratedGreedy-EndLocal";
  EXPECT_EQ(gauges(ig_local.profile),
            (std::vector<long long>{243648, 68848}))
      << "IteratedGreedy-EndLocal";

  config.end_policy = core::EndPolicy::Greedy;
  fault::ExponentialGenerator greedy_faults(p, 1.0 / mtbf, Rng(7));
  const core::RunResult ig_greedy =
      core::Engine(pack, resilience, p, config).run(greedy_faults);
  EXPECT_EQ(counters(ig_greedy.profile),
            (std::vector<long long>{210, 196, 17, 0, 0, 0, 0, 124453, 196,
                                    3499, 16666, 3506, 2988}))
      << "IteratedGreedy-EndGreedy";
  EXPECT_EQ(gauges(ig_greedy.profile),
            (std::vector<long long>{159888, 55032}))
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

        // The reference: the same event loop, replanned from scratch by
        // the printed Algorithm 1 on a fresh model, with no evaluator.
        const core::ExpectedTimeModel model(pack, resilience);
        extensions::OnlineSim sim(model, p, releases);
        std::vector<int> live;
        std::vector<double> alpha_now;
        const auto replan = [&](double t) {
          const int available = sim.admit_live(t, live, alpha_now);
          sim.commit(t, live, alpha_now,
                     core::reference_schedule(model, live, alpha_now,
                                              available, {}));
        };
        fault::ExponentialGenerator ga(p, 1.0 / units::years(5.0),
                                       Rng(seed ^ 0xFA17ULL));
        const extensions::OnlineResult a = sim.run(ga, replan);

        // run_online's replan, over a shared warm workspace (the campaign
        // runner's setup) and over its own fresh one: neither the replan
        // nor the workspace may show in the results.
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
        fault::ExponentialGenerator gc(p, 1.0 / units::years(5.0),
                                       Rng(seed ^ 0xFA17ULL));
        expect_identical_online(
            a, extensions::run_online(pack, resilience, p, releases, gc));
      }
    }
  }
}

// ---- white-box invariants of the verdict cache --------------------------

class ScanCacheTest : public ::testing::Test {
 protected:
  // Near-serial Amdahl profile: every task plateaus far below its 8
  // processors (Eq. 10's communication term would keep rewarding growth,
  // so the textbook profile isolates the plateau), and no EndLocal grant
  // can pay the redistribution cost — scans fail deterministically. The
  // fault-free context makes the bound exact up to its slack, so every
  // failure is a proof and the cached verdicts are exercised.
  ScanCacheTest()
      : pack_({{2.0e6}, {1.6e6}, {2.4e6}, {1.9e6}},
              std::make_shared<speedup::AmdahlModel>(0.9995)),
        resilience_({0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0}),
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
      state_.set_sigma(i, 8);
      task.alpha = 1.0;
      task.tlastR = 0.0;
      task.tU = evaluator_(i, 8, 1.0);
      state_.refresh_projection(i);
      platform_.acquire(i, 8);
    }
    // Leave 8 processors idle so EndLocal has a pool to scan.
    state_.ensure_lazy_state();
  }

  /// Clone the committed task state into a fresh EngineState (same
  /// model/evaluator caches — pure values — but no cached verdict).
  core::detail::EngineState clone(platform::Platform& platform, bool eager) {
    core::detail::EngineState fresh;
    fresh.model = &model_;
    fresh.platform = &platform;
    fresh.tr = &evaluator_;
    fresh.eager_scans = eager;
    fresh.tasks = state_.tasks;
    fresh.build_event_index();
    for (int i = 0; i < fresh.n(); ++i) {
      if (!fresh.task(i).done) platform.acquire(i, fresh.task(i).sigma);
      fresh.refresh_projection(i);
    }
    return fresh;
  }

  /// The earliest fault-free completion of the four tasks.
  [[nodiscard]] double first_end() const {
    double end = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 4; ++i)
      end = std::min(end, model_.fault_free_time(i, 8));
    return end;
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
  // its committed expectation plus RC: the bound proves every failure,
  // and each proof must leave a verdict at the current version covering
  // the scanned pool.
  core::EngineProfile profile;
  state_.profile = &profile;
  const double t = 0.05 * first_end();
  const bool changed = core::detail::end_local(state_, t);
  ASSERT_FALSE(changed);
  EXPECT_EQ(profile.bound_proofs, 4);
  EXPECT_EQ(profile.full_scans, 0);
  for (int i = 0; i < state_.n(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(state_.scan_cache[idx].version, state_.version[idx]);
    EXPECT_EQ(state_.scan_cache[idx].k, 8);  // the idle pool it covered
  }
}

TEST_F(ScanCacheTest, CommitBumpsVersionAndKillsTheVerdict) {
  const double t = 0.05 * first_end();
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

TEST_F(ScanCacheTest, CachedDropAgreesWithEagerAtEveryLaterTime) {
  // A proven verdict has no horizon: prime the verdicts, then step
  // forward up to the first task's end, far past any horizon a margin
  // could price. At every step the lazy state drops all four tasks on
  // their cached verdicts without probing, and a fresh eager state over
  // the same committed tasks must agree that no redistribution happens.
  const double end = first_end();
  const double t0 = 0.05 * end;
  {
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = clone(eager_platform, true);
    ASSERT_FALSE(core::detail::end_local(state_, t0));
    ASSERT_FALSE(core::detail::end_local(fresh, t0));
  }
  core::EngineProfile profile;
  state_.profile = &profile;
  int steps = 0;
  for (const double frac : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999}) {
    const double t1 = frac * end;
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = clone(eager_platform, true);
    const bool lazy_changed = core::detail::end_local(state_, t1);
    const bool eager_changed = core::detail::end_local(fresh, t1);
    ASSERT_EQ(lazy_changed, eager_changed) << "t1=" << t1;
    ASSERT_FALSE(lazy_changed) << "t1=" << t1;
    for (int i = 0; i < state_.n(); ++i) {
      EXPECT_EQ(state_.task(i).sigma, fresh.task(i).sigma);
      EXPECT_EQ(state_.task(i).tU, fresh.task(i).tU);
    }
    ++steps;
  }
  EXPECT_EQ(steps, 7);
  EXPECT_EQ(profile.verdict_drops, 4 * steps);
  EXPECT_EQ(profile.bound_proofs + profile.full_scans, 0);
}

TEST_F(ScanCacheTest, NearTiesOfTheBoundFallToTheExactScan) {
  // Put task 1's tU on fl(B_q + y_q) — the base terms of target 8 + q
  // plus alpha m_q (1 - 2^-30), exactly as the bound pass sums them —
  // and on its two neighbouring doubles. The bound must not prove target
  // q there (its slack also scales tU up by 2^-30), and lazy and eager
  // end_local must take the same decisions.
  constexpr int kTask = 1;
  const double t = 0.05 * first_end();
  const double alpha = state_.alpha_tentative(kTask, t);
  const core::detail::ProbeBase base(state_, t, kTask);
  for (const int q : {2, 4, 8}) {
    double m = std::numeric_limits<double>::infinity();
    for (int j = 2; j <= 8 + q; j += 2)
      m = std::min(m, pack_.fault_free_time(kTask, j));
    const double tie = base(8 + q) + alpha * m * (1.0 - 0x1p-30);
    for (const double tU :
         {std::nextafter(tie, 0.0), tie, std::nextafter(tie, 2.0 * tie)}) {
      SCOPED_TRACE(::testing::Message() << "q=" << q << " tU=" << tU);
      platform::Platform lazy_platform(40);
      platform::Platform eager_platform(40);
      core::detail::EngineState lazy = clone(lazy_platform, false);
      core::detail::EngineState eager = clone(eager_platform, true);
      for (core::detail::EngineState* s : {&lazy, &eager}) {
        s->task(kTask).tU = tU;
        s->refresh_projection(kTask);
      }
      const bool lazy_changed = core::detail::end_local(lazy, t);
      ASSERT_EQ(lazy_changed, core::detail::end_local(eager, t));
      for (int i = 0; i < lazy.n(); ++i) {
        EXPECT_EQ(lazy.task(i).sigma, eager.task(i).sigma) << "task " << i;
        EXPECT_EQ(lazy.task(i).tU, eager.task(i).tU) << "task " << i;
      }
      const auto& cache = lazy.scan_cache[static_cast<std::size_t>(kTask)];
      EXPECT_FALSE(cache.version == lazy.version[kTask] && cache.k >= q)
          << "the bound proved a target on its own tie";
    }
  }
}

/// One task whose fault-free time dips at 10 processors: 10^4 s x 8/q up
/// to q = 8, 0.80 at q = 10 and 0.81 beyond, so every column past 10
/// sits above the dip.
class DipModel final : public speedup::Model {
 public:
  [[nodiscard]] double time(double /*m*/, int q) const override {
    const double shape = q <= 8 ? 8.0 / q : q == 10 ? 0.80 : 0.81;
    return 1.0e4 * shape;
  }
};

TEST(ScanCacheWidening, ResumesTheRunningMinimumAcrossTheCachedTargets) {
  // A task at 8 processors first sees a pool of 2: target 10 cannot pay
  // its RC, and the bound caches that verdict. The pool then grows to 8.
  // Targets 12..16 pay less RC, and with Eq. 6 they inherit the dip at
  // 10: tU is put where 16 improves through the dip but would not on
  // its own column. A widening that restarted its minimum at the new
  // columns would clear them; lazy and eager must both grant.
  const core::Pack pack({{1000.0}}, std::make_shared<DipModel>());
  const checkpoint::Model resilience(
      {0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, 16);
  const auto make_state = [&](platform::Platform& platform, bool eager) {
    core::detail::EngineState s;
    s.model = &model;
    s.platform = &platform;
    s.tr = &evaluator;
    s.eager_scans = eager;
    s.tasks.resize(1);
    s.build_event_index();
    s.set_sigma(0, 8);
    s.task(0).alpha = 1.0;
    s.task(0).tlastR = 0.0;
    platform.acquire(0, 8);
    return s;
  };
  platform::Platform narrow(10);  // a pool of 2
  core::detail::EngineState lazy = make_state(narrow, false);
  core::EngineProfile profile;
  lazy.profile = &profile;

  const double t = 1.0;
  const double alpha = lazy.alpha_tentative(0, t);
  const core::detail::ProbeBase base(lazy, t, 0);
  const double dip = alpha * model.fault_free_time(0, 10);
  const double past = alpha * model.fault_free_time(0, 12);
  const double lo = base(16) + dip;  // target 16's exact tE
  const double hi = std::min(base(16) + past, base(10) + dip);
  ASSERT_LT(lo, hi);
  const double tU = 0.5 * (lo + hi);
  lazy.task(0).tU = tU;
  lazy.refresh_projection(0);

  ASSERT_FALSE(core::detail::end_local(lazy, t));
  ASSERT_EQ(profile.bound_proofs, 1);
  ASSERT_EQ(lazy.scan_cache[0].k, 2);

  platform::Platform wide(16);  // the same task, a pool of 8
  wide.acquire(0, 8);
  lazy.platform = &wide;
  platform::Platform eager_platform(16);
  core::detail::EngineState eager = make_state(eager_platform, true);
  eager.task(0).tU = tU;
  eager.refresh_projection(0);
  EXPECT_TRUE(core::detail::end_local(eager, t));
  EXPECT_TRUE(core::detail::end_local(lazy, t));
  EXPECT_EQ(profile.bound_widenings, 0);
  EXPECT_EQ(lazy.task(0).sigma, eager.task(0).sigma);
  EXPECT_EQ(lazy.task(0).tU, eager.task(0).tU);
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
