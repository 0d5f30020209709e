/// \file golden_test.cpp
/// Golden determinism tests: seeded simulations pinned field-by-field.
///
/// The values below were generated from the seed implementation (the
/// pre-coefficient-table, linear-event-scan engine) and must never
/// drift: the hot-path machinery added since — the per-(task, j)
/// coefficient table, the pinned TrEvaluator columns, the indexed event
/// queues, the heap replace-top grant loops — is pure caching and exact
/// algebraic rewriting, so every seeded run must reproduce the seed's
/// results bit for bit. Four RunResult fields are pinned in the clear;
/// every other field a run reports — the makespan's bits, discarded
/// faults, redistribution cost, time lost, and every task's completion
/// time and final allocation — is pinned by one FNV-1a digest per case,
/// captured from the engine's O(n) linear event scans before they were
/// deleted. The indexed event queues must reproduce them exactly.
///
/// The BenchGolden cases pin the paper-regime scenarios of the retired
/// wall-time harness (p = 10n, MTBF 100 years, Young periods, EndLocal):
/// each scenario's makespan_mean bits, as recorded in its last baseline
/// file (BENCH_PR10.json, %.17g), and the exact EngineProfile work
/// counters each engine scenario sums, so extra counted work fails here
/// however noisy the machine.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "exp/campaign.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "fault/weibull.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace coredis {
namespace {

struct GoldenCase {
  int n;
  int p;
  bool weibull;
  core::EndPolicy end_policy;
  core::FailurePolicy failure_policy;
  std::uint64_t seed;
  // Pinned RunResult fields (seed implementation, %.17g).
  double makespan;
  int redistributions;
  long long checkpoints_taken;
  int faults_effective;
};

// Generated once from the seed implementation; do not regenerate from a
// newer build (that would defeat the test's purpose).
constexpr GoldenCase kGolden[] = {
    {6, 48, false, core::EndPolicy::Local,
     core::FailurePolicy::ShortestTasksFirst, 101ULL,
     28057130.865125518, 13, 37, 6},
    {6, 48, false, core::EndPolicy::Greedy,
     core::FailurePolicy::IteratedGreedy, 101ULL,
     28008060.455199219, 14, 38, 6},
    {6, 48, true, core::EndPolicy::Local,
     core::FailurePolicy::ShortestTasksFirst, 101ULL,
     27278785.570191696, 7, 33, 8},
    {6, 48, true, core::EndPolicy::Greedy,
     core::FailurePolicy::IteratedGreedy, 101ULL,
     27669211.532209367, 13, 35, 7},
    {10, 100, false, core::EndPolicy::Local,
     core::FailurePolicy::IteratedGreedy, 202ULL,
     21350302.779374614, 21, 58, 7},
    {10, 100, false, core::EndPolicy::Greedy,
     core::FailurePolicy::ShortestTasksFirst, 202ULL,
     21556655.198558543, 21, 63, 8},
    {10, 100, true, core::EndPolicy::Local,
     core::FailurePolicy::IteratedGreedy, 202ULL,
     25755883.958173439, 53, 82, 23},
    {10, 100, true, core::EndPolicy::Greedy,
     core::FailurePolicy::ShortestTasksFirst, 202ULL,
     27489179.259895466, 52, 87, 23},
    {16, 200, false, core::EndPolicy::None,
     core::FailurePolicy::None, 303ULL,
     23680496.422157433, 0, 87, 16},
    {16, 200, true, core::EndPolicy::Local,
     core::FailurePolicy::IteratedGreedy, 303ULL,
     21560687.452145703, 72, 129, 23},
};

/// FNV-1a of every RunResult field the four pinned above leave out, one
/// per kGolden case, in order. Captured with the engine's O(n) linear
/// event scans, since deleted, which the indexed queues matched on every
/// case; do not regenerate.
constexpr std::uint64_t kFullFieldDigest[] = {
    0x123cc786baa30b4dULL, 0x49b9b576576d3923ULL, 0x42874542acfb0eb9ULL,
    0xed5cc3bce53ec84aULL, 0x95a2b76fa33fdf9cULL, 0x15091454db4a579cULL,
    0x177e66b58afc28ffULL, 0x946914c29dcd4521ULL, 0x478237c0a92231d4ULL,
    0xc3228acf1f445e6eULL,
};
static_assert(std::size(kFullFieldDigest) == std::size(kGolden));

/// FNV-1a over 64-bit little-endian words: the makespan's bits,
/// faults_discarded, redistribution_cost, time_lost_to_faults, the task
/// count, then each task's completion time and final allocation.
std::uint64_t full_field_digest(const core::RunResult& r) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  mix(bits(r.makespan));
  mix(static_cast<std::uint64_t>(r.faults_discarded));
  mix(bits(r.redistribution_cost));
  mix(bits(r.time_lost_to_faults));
  mix(r.completion_times.size());
  for (std::size_t i = 0; i < r.completion_times.size(); ++i) {
    mix(bits(r.completion_times[i]));
    mix(static_cast<std::uint64_t>(r.final_allocation[i]));
  }
  return hash;
}

core::RunResult run_case(const GoldenCase& c) {
  Rng pack_rng(c.seed);
  const core::Pack pack = core::Pack::uniform_random(
      c.n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(10.0), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  core::EngineConfig config;
  config.end_policy = c.end_policy;
  config.failure_policy = c.failure_policy;
  core::Engine engine(pack, resilience, c.p, config);
  const double mtbf = units::years(10.0);
  if (c.weibull) {
    fault::WeibullGenerator gen(c.p, mtbf, 0.7, c.seed ^ 0xABCDEF);
    return engine.run(gen);
  }
  fault::ExponentialGenerator gen(c.p, 1.0 / mtbf, Rng(c.seed ^ 0xABCDEF));
  return engine.run(gen);
}

TEST(Golden, SeededGridMatchesSeedImplementation) {
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n << " p=" << c.p << " weibull=" << c.weibull
                 << " end=" << to_string(c.end_policy)
                 << " fail=" << to_string(c.failure_policy));
    const core::RunResult r = run_case(c);
    EXPECT_DOUBLE_EQ(r.makespan, c.makespan);
    EXPECT_EQ(r.redistributions, c.redistributions);
    EXPECT_EQ(r.checkpoints_taken, c.checkpoints_taken);
    EXPECT_EQ(r.faults_effective, c.faults_effective);
  }
}

TEST(Golden, EveryFieldMatchesTheLinearScanDigest) {
  for (std::size_t k = 0; k < std::size(kGolden); ++k) {
    const GoldenCase& c = kGolden[k];
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n << " p=" << c.p << " weibull=" << c.weibull
                 << " end=" << to_string(c.end_policy)
                 << " fail=" << to_string(c.failure_policy));
    const std::uint64_t digest = full_field_digest(run_case(c));
    EXPECT_EQ(digest, kFullFieldDigest[k])
        << std::hex << "digest 0x" << digest;
  }
}

TEST(Golden, RepeatedRunsOfOneEngineAreIdentical) {
  // The engine's caches persist across run() calls; a warm second run must
  // replay the cold first one exactly.
  const GoldenCase& c = kGolden[1];
  Rng pack_rng(c.seed);
  const core::Pack pack = core::Pack::uniform_random(
      c.n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(10.0), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  core::Engine engine(pack, resilience, c.p,
                      {c.end_policy, c.failure_policy});
  const double mtbf = units::years(10.0);
  double first = 0.0;
  for (int round = 0; round < 3; ++round) {
    fault::ExponentialGenerator gen(c.p, 1.0 / mtbf, Rng(c.seed ^ 0xABCDEF));
    const core::RunResult r = engine.run(gen);
    if (round == 0) {
      first = r.makespan;
      EXPECT_DOUBLE_EQ(r.makespan, c.makespan);
    } else {
      EXPECT_EQ(r.makespan, first);
    }
  }
}

// ---------------------------------------------------------------------------
// BenchGolden: the retired harness's scenarios, rebuilt exactly. One pack
// per scenario from kBenchSeed, one engine (or one shared model for the
// online cells) warmed by an unpinned run at kBenchSeed ^ 0x5EED, then
// `runs` runs at seeds kBenchSeed + r whose makespans are summed in run
// order and divided by `runs`.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kBenchSeed = 20260726;
constexpr double kBenchMtbfYears = 100.0;

/// The 13 exact counters of EngineProfile.WorkCountersArePinned, in its
/// order, summed over the warm-up and every run of one engine.
using WorkCounters = std::array<long long, 13>;

struct BenchCase {
  const char* name;
  int n;
  int p;
  core::FailurePolicy failure_policy;
  bool weibull;
  int runs;
  double makespan_mean;  ///< BENCH_PR10.json, %.17g
  WorkCounters work;
};

core::Pack bench_pack(int n) {
  Rng pack_rng(kBenchSeed);
  return core::Pack::uniform_random(
      n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
}

const checkpoint::Model& bench_resilience() {
  static const checkpoint::Model model({units::years(kBenchMtbfYears), 60.0,
                                        1.0, checkpoint::PeriodRule::Young,
                                        0.0});
  return model;
}

void add_work(WorkCounters& sum, const core::EngineProfile& w) {
  const WorkCounters run{w.events,         w.heuristic_calls,
                         w.commits,        w.full_scans,
                         w.verdict_drops,  w.bound_proofs,
                         w.bound_widenings, w.column_fills,
                         w.regrows,        w.tournament_replays,
                         w.walk_skips,     w.walk_steps,
                         w.eq4_fills};
  for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += run[i];
}

void expect_bench_case(const BenchCase& c) {
  SCOPED_TRACE(c.name);
  const core::Pack pack = bench_pack(c.n);
  core::EngineConfig config;
  config.end_policy = core::EndPolicy::Local;
  config.failure_policy = c.failure_policy;
  config.profile = true;
  core::Engine engine(pack, bench_resilience(), c.p, config);
  const double mtbf = units::years(kBenchMtbfYears);
  const auto run = [&](std::uint64_t seed) {
    if (c.weibull) {
      fault::WeibullGenerator gen(c.p, mtbf, 0.7, seed);
      return engine.run(gen);
    }
    fault::ExponentialGenerator gen(c.p, 1.0 / mtbf, Rng(seed));
    return engine.run(gen);
  };
  WorkCounters work{};
  add_work(work, run(kBenchSeed ^ 0x5EEDULL).profile);
  double makespan_sum = 0.0;
  for (int r = 0; r < c.runs; ++r) {
    const core::RunResult result =
        run(kBenchSeed + static_cast<std::uint64_t>(r));
    makespan_sum += result.makespan;
    add_work(work, result.profile);
  }
  EXPECT_EQ(makespan_sum / c.runs, c.makespan_mean);
  EXPECT_EQ(work, c.work);
}

TEST(BenchGolden, SmokeCellsMatchTheirBitsAndWork) {
  constexpr BenchCase kCases[] = {
      {"n100_stf_exp", 100, 1000, core::FailurePolicy::ShortestTasksFirst,
       false, 20, 21004989.144187625,
       {2246, 2140, 1312, 2765, 16726, 1950, 5723, 245682, 0, 0, 0, 0, 12037}},
      {"n100_ig_exp", 100, 1000, core::FailurePolicy::IteratedGreedy, false,
       20, 20827925.3092141,
       {2246, 2169, 929, 2097, 28253, 2203, 14739, 358054, 120, 21249, 2098,
        27305, 12135}},
      {"n100_stf_weib", 100, 1000, core::FailurePolicy::ShortestTasksFirst,
       true, 20, 23396962.869762469,
       {2873, 2320, 1374, 2877, 23012, 1930, 5654, 354725, 0, 0, 0, 0, 14779}},
      {"n100_ig_weib", 100, 1000, core::FailurePolicy::IteratedGreedy, true,
       20, 22827486.066949695,
       {2865, 2403, 1182, 2142, 29663, 2433, 10542, 581433, 583, 76553, 16923,
        122808, 12387}},
  };
  for (const BenchCase& c : kCases) expect_bench_case(c);
}

TEST(BenchGolden, PaperScaleCellsMatchTheirBitsAndWork) {
  constexpr BenchCase kCases[] = {
      {"n1000_stf_exp", 1000, 10000, core::FailurePolicy::ShortestTasksFirst,
       false, 5, 22540774.028441243,
       {6415, 4989, 2724, 24572, 638048, 5456, 41120, 6205983, 0, 0, 0, 0,
        65610}},
      {"n1000_ig_exp", 1000, 10000, core::FailurePolicy::IteratedGreedy,
       false, 5, 22153390.533302568,
       {6407, 5237, 1406, 8223, 1399205, 6383, 120156, 12621195, 315, 443951,
        74820, 713491, 74592}},
      {"n1000_stf_weib", 1000, 10000,
       core::FailurePolicy::ShortestTasksFirst, true, 5, 25296369.663024854,
       {8412, 3814, 2715, 16030, 264664, 3593, 15477, 4945327, 0, 0, 0, 0,
        69341}},
      {"n1000_ig_weib", 1000, 10000, core::FailurePolicy::IteratedGreedy,
       true, 5, 24090272.245457999,
       {8342, 4023, 2474, 3897, 361519, 5634, 24937, 11745581, 1675, 2069431,
        473144, 3616910, 101810}},
      // p = 2.4n, not 10n: a leaner pool keeps n = 5000 inside a few tens
      // of MB while still exercising redistribution.
      {"n5000_ig_exp", 5000, 12000, core::FailurePolicy::IteratedGreedy,
       false, 5, 68175356.178971395,
       {31544, 7146, 3219, 22887, 2394909, 8207, 100255, 13423820, 724, 739128,
        71446, 636347, 128672}},
  };
  for (const BenchCase& c : kCases) expect_bench_case(c);
}

TEST(BenchGolden, OnlineCellsMatchTheirBits) {
  // run_online over Poisson releases at two offered loads, on the model
  // and evaluator of one engine shared by every run.
  const struct {
    double load;
    double makespan_mean;  ///< n100_online_load{1,4}, BENCH_PR10.json
  } kCases[] = {{1.0, 689866229.0338124}, {4.0, 180641316.16590473}};
  constexpr int n = 100;
  constexpr int p = 1000;
  constexpr int runs = 20;
  const core::Pack pack = bench_pack(n);
  const double mtbf = units::years(kBenchMtbfYears);
  for (const auto& c : kCases) {
    SCOPED_TRACE(::testing::Message() << "load " << c.load);
    core::Engine engine(pack, bench_resilience(), p, {});
    extensions::ArrivalSpec spec;
    spec.law = extensions::ArrivalLaw::Poisson;
    spec.load_factor = c.load;
    const auto run = [&](std::uint64_t seed) {
      Rng arrivals(seed ^ 0xA881ULL);
      const std::vector<double> releases = extensions::make_release_times(
          spec, pack, bench_resilience(), p, arrivals, engine.model(),
          engine.evaluator());
      fault::ExponentialGenerator gen(p, 1.0 / mtbf, Rng(seed));
      return extensions::run_online(pack, bench_resilience(), p, releases,
                                    gen, engine.model(), engine.evaluator());
    };
    (void)run(kBenchSeed ^ 0x5EEDULL);
    double makespan_sum = 0.0;
    for (int r = 0; r < runs; ++r)
      makespan_sum +=
          run(kBenchSeed + static_cast<std::uint64_t>(r)).makespan;
    EXPECT_EQ(makespan_sum / runs, c.makespan_mean);
  }
}

TEST(BenchGolden, HeterogeneousCampaignPointZeroMatchesItsBits) {
  // The heterogeneous campaign that
  // CampaignDeal.PlanKeepsFourWorkersBusyOnAHeterogeneousGrid deals. Its
  // first point (n = 100, p = 2000, exponential) is pinned by the mean
  // baseline makespan of its four cells.
  const exp::Campaign campaign = exp::parse_campaign(
      "n = 100, 1000\n"
      "p = 2000, 10000\n"
      "runs = 4\n"
      "seed = 20260726\n"
      "mtbf_years = 100\n"
      "fault_law = exponential, weibull\n"
      "configs = baseline, stf_local, ig_local\n");
  const exp::PointResult point =
      exp::run_point(campaign.grid.point(0), campaign.configs);
  EXPECT_EQ(point.baseline_makespan.mean(), 17503204.8035037);
}

}  // namespace
}  // namespace coredis
