/// \file policy_registry_test.cpp
/// The policy registry battery (DESIGN.md section 10). The registry is
/// the only dispatch, and this suite pins what it produces:
///
///  * campaign artifacts: widened offline (paper configs) and
///    online-arrival grids, both fault laws, are pinned by FNV-1a
///    digests of their JSONL bytes, captured from the pre-registry
///    dispatch switch (which matched the registry byte for byte) before
///    that switch was deleted;
///  * registry strings vs presets: `pack(end=..., fail=...)` spellings
///    must replay the preset ConfigSpecs double for double, and the
///    built-in batch policies must keep their defining behaviour (EASY
///    backfills where FCFS waits);
///  * the adaptive policies (bandit, reshape): deterministic in
///    (point seed, rep) — identical cells across repeated runs, across
///    thread counts (GridRunOptions::threads and COREDIS_THREADS), and
///    across the deal+merge fabric — and pinned by a digest too.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_file.hpp"
#include "extensions/batch.hpp"
#include "fault/exponential.hpp"
#include "fault/generator.hpp"
#include "policy/registry.hpp"
#include "speedup/synthetic.hpp"
#include "speedup/table_profile.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace coredis::exp {
namespace {

/// Offline golden grid: every pack-engine configuration of the paper set
/// over three pack sizes and platforms, both fault laws. Its bytes are
/// pinned below (kOfflineGoldenDigest).
const char* const kOfflineGoldenCampaign = R"(
n = 6, 20, 60
p = 120, 600, 1800
runs = 2
seed = 20260726
mtbf_years = 2, 50
fault_law = exponential, weibull
configs = paper
)";

/// Online-arrival golden grid: the three arrival-driven schedulers under
/// both arrival laws, below and above saturation, both fault laws. Its
/// bytes are pinned below (kOnlineGoldenDigest).
const char* const kOnlineGoldenCampaign = R"(
n = 6, 20, 60
p = 120, 600, 1800
runs = 2
seed = 20260731
mtbf_years = 2
fault_law = exponential, weibull
arrival_law = poisson, bulk
load_factor = 0.5, 2
configs = online
)";

/// FNV-1a of the two golden grids' JSONL bytes (66,593 and 70,646
/// bytes), captured from the pre-registry dispatch switch, on which the
/// registry dispatch produced the same bytes; do not regenerate.
constexpr std::uint64_t kOfflineGoldenDigest = 0xbffda4798abdb359ULL;
constexpr std::uint64_t kOnlineGoldenDigest = 0x8943c1b622ca4365ULL;

/// Adaptive-policy grid: the two registry-only baselines next to the
/// malleable reference, over an online workload.
const char* const kAdaptiveCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260807
mtbf_years = 2, 50
fault_law = exponential, weibull
arrival_law = poisson
load_factor = 1
policy = "bandit(window=10, explore=0.25), reshape(gain=0.5), malleable"
)";

/// Adaptive-policy golden grid: bandit and reshape next to the malleable
/// scheduler on packs big enough for deep regrows (p up to 30n), both
/// arrival laws below and above saturation, both fault laws. Its bytes
/// are pinned below (kAdaptiveGoldenDigest).
const char* const kAdaptiveGoldenCampaign = R"(
n = 20, 60
p = 200, 600
runs = 1
seed = 20261017
mtbf_years = 2
fault_law = exponential, weibull
arrival_law = poisson, bulk
load_factor = 0.5, 2
policy = "bandit(window=10, explore=0.25), reshape(gain=0.5), malleable"
)";

/// FNV-1a of the golden grid's JSONL bytes, captured from the
/// implementation that probed tr(pmax) on every pop of the admission
/// greedy; the tr(current + 2) short-circuit must not move a byte.
constexpr std::uint64_t kAdaptiveGoldenDigest = 0xee41e65281a106caULL;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot open " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::filesystem::path temp_jsonl(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("coredis_policy_registry_test_" + tag + ".jsonl");
}

/// RAII override of COREDIS_THREADS (campaign_test.cpp's idiom).
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    const char* previous = std::getenv("COREDIS_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    if (value == nullptr) {
      ::unsetenv("COREDIS_THREADS");
    } else {
      ::setenv("COREDIS_THREADS", value, 1);
    }
  }
  ~ThreadsEnv() {
    if (had_previous_) {
      ::setenv("COREDIS_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("COREDIS_THREADS");
    }
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

/// Run the campaign and return the artifact bytes (the file is removed
/// afterwards).
std::string campaign_bytes(const Campaign& campaign, const std::string& tag,
                           std::size_t threads = 0) {
  const std::filesystem::path file = temp_jsonl(tag);
  std::filesystem::remove(file);
  GridRunOptions options;
  options.jsonl_path = file.string();
  options.threads = threads;
  (void)run_campaign(campaign, options);
  std::string bytes = read_file(file);
  std::filesystem::remove(file);
  return bytes;
}

void expect_pinned(const std::string& bytes, std::uint64_t digest) {
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(fnv1a(bytes), digest)
      << std::hex << "digest 0x" << fnv1a(bytes) << " over " << std::dec
      << bytes.size() << " bytes";
}

TEST(PolicyRegistryGolden, OfflineGridMatchesPinnedDigest) {
  expect_pinned(
      campaign_bytes(parse_campaign(kOfflineGoldenCampaign), "offline"),
      kOfflineGoldenDigest);
}

TEST(PolicyRegistryGolden, OnlineArrivalGridMatchesPinnedDigest) {
  expect_pinned(
      campaign_bytes(parse_campaign(kOnlineGoldenCampaign), "online"),
      kOnlineGoldenDigest);
}

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redistribution_cost, b.redistribution_cost);
  EXPECT_EQ(a.faults_effective, b.faults_effective);
  ASSERT_EQ(a.completion_times.size(), b.completion_times.size());
  for (std::size_t i = 0; i < a.completion_times.size(); ++i) {
    EXPECT_EQ(a.completion_times[i], b.completion_times[i]);
    EXPECT_EQ(a.final_allocation[i], b.final_allocation[i]);
  }
}

void expect_identical_cells(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.baseline, b.baseline);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t c = 0; c < a.results.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "config " << c);
    expect_identical(a.results[c], b.results[c]);
  }
}

TEST(PolicyRegistryDifferential, RegistryStringsMatchPresets) {
  // Every preset, spelled as a registry policy string, must have the
  // preset's canonical string and replay its simulation double for
  // double — both run through the same instantiated policy.
  Scenario scenario;
  scenario.n = 6;
  scenario.p = 24;
  scenario.mtbf_years = 2.0;
  scenario.runs = 2;
  scenario.seed = 20260726ULL;
  scenario.arrival_law = extensions::ArrivalLaw::Poisson;
  scenario.load_factor = 1.0;
  validate_scenario(scenario);

  const struct {
    const char* text;
    ConfigSpec preset;
  } pairs[] = {
      {"pack(end=greedy)", ig_end_greedy()},
      {"pack", ig_end_local()},
      {"pack(fail=stf, end=greedy)", stf_end_greedy()},
      {"pack(end=none, fail=none)", baseline_no_redistribution()},
      // The bare names are preset shortcuts in parse_config_set; the
      // empty option list forces the registry resolution path.
      {"malleable()", online_malleable()},
      {"easy()", online_easy()},
      {"fcfs()", online_fcfs()},
  };
  for (const auto& pair : pairs) {
    SCOPED_TRACE(pair.text);
    const std::vector<ConfigSpec> via_string =
        parse_config_set(pair.text);
    ASSERT_EQ(via_string.size(), 1u);
    EXPECT_FALSE(via_string[0].policy.empty());
    EXPECT_EQ(canonical_policy(via_string[0]), canonical_policy(pair.preset));
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      expect_identical_cells(run_cell(scenario, via_string, rep),
                             run_cell(scenario, {pair.preset}, rep));
    }
  }
}

TEST(PolicyRegistryBuiltins, EasyBackfillsWhereFcfsWaits) {
  // The crafted table-profile pack of
  // OnlineArrivals.BatchBackfillsAReleaseDatedCandidate: job 0 holds 2 of
  // 4 processors until t = 60, job 1 (released at 10) wants all 4 and
  // blocks, job 2 (released at 20, short, 2 processors) fits before the
  // head's shadow time. The EASY shadow rule and FCFS coincide on the
  // paper's profiles (DESIGN.md section 8.2), so only a crafted pack
  // tells the registered `easy` and `fcfs` apart.
  std::vector<core::TaskSpec> tasks;
  const auto table = [](std::vector<std::pair<int, double>> times) {
    return std::make_shared<speedup::TableModel>(1000.0, std::move(times));
  };
  tasks.push_back({1000.0, table({{1, 100.0}, {2, 60.0}})});
  tasks.push_back({1000.0, table({{1, 400.0}, {2, 220.0}, {4, 110.0}})});
  tasks.push_back({1000.0, table({{1, 40.0}, {2, 30.0}})});
  const core::Pack pack(std::move(tasks),
                        std::make_shared<speedup::SyntheticModel>(0.08));
  const checkpoint::Model resilience(
      {0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  const std::vector<double> releases{0.0, 10.0, 20.0};
  const std::function<const std::vector<double>&()> release_times =
      [&]() -> const std::vector<double>& { return releases; };
  // The engine only lends the context its model and evaluator (the batch
  // policies never run it), and it needs p >= 2n: size it for 6.
  core::Engine engine(pack, resilience, 6);
  const auto run = [&](const char* text) {
    fault::NullGenerator none(4);
    const policy::CellContext ctx{pack,           resilience,
                                  4,              none,
                                  engine.model(), engine.evaluator(),
                                  engine,         release_times};
    return policy::resolve(text).make()->run(ctx);
  };
  const core::RunResult easy = run("easy");
  const core::RunResult fcfs = run("fcfs");
  EXPECT_LT(easy.completion_times[2], fcfs.completion_times[2]);

  fault::NullGenerator none(4);
  extensions::BatchConfig backfilling;
  backfilling.backfilling = true;
  const extensions::BatchResult reference =
      extensions::run_batch(pack, resilience, 4, releases, backfilling, none);
  EXPECT_EQ(easy.completion_times, reference.completion_times);
}

// ---- adaptive policies: determinism in (seed, rep) -----------------------

TEST(PolicyAdaptiveDeterminism, CellsReplayBitIdentically) {
  Scenario scenario;
  scenario.n = 6;
  scenario.p = 24;
  scenario.mtbf_years = 2.0;
  scenario.runs = 2;
  scenario.seed = 20260807ULL;
  scenario.arrival_law = extensions::ArrivalLaw::Poisson;
  scenario.load_factor = 1.0;
  validate_scenario(scenario);
  const std::vector<ConfigSpec> configs =
      parse_config_set("bandit(window=10, explore=0.25), reshape(gain=0.5)");
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(::testing::Message() << "rep=" << rep);
    expect_identical_cells(run_cell(scenario, configs, rep),
                           run_cell(scenario, configs, rep));
  }
}

TEST(PolicyAdaptiveDeterminism, GridBytesIndependentOfThreadCount) {
  const Campaign campaign = parse_campaign(kAdaptiveCampaign);
  std::string one;
  std::string two;
  {
    ThreadsEnv env("1");
    one = campaign_bytes(campaign, "adaptive_t1");
  }
  {
    ThreadsEnv env("2");
    two = campaign_bytes(campaign, "adaptive_t2");
  }
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  // Explicit worker override, no env: same bytes again.
  const std::string four = campaign_bytes(campaign, "adaptive_t4", 4);
  EXPECT_EQ(one, four);
}

TEST(PolicyAdaptiveDeterminism, ShardMergeMatchesSingleRun) {
  const Campaign campaign = parse_campaign(kAdaptiveCampaign);
  const std::string single = campaign_bytes(campaign, "adaptive_single");

  const std::filesystem::path merged = temp_jsonl("adaptive_merged");
  std::filesystem::remove(merged);
  for (std::size_t worker = 0; worker < 2; ++worker) {
    GridRunOptions options;
    options.jsonl_path = merged.string();
    run_campaign_shard(campaign, {worker, 2}, options);
  }
  merge_campaign_deal_shards(campaign, 2, merged.string());
  const std::string bytes = read_file(merged);
  std::filesystem::remove(merged);
  for (std::size_t worker = 0; worker < 2; ++worker)
    std::filesystem::remove(shard_path(merged.string(), {worker, 2}));
  EXPECT_EQ(single, bytes);
}

TEST(PolicyAdaptiveGolden, CampaignBytesMatchPinnedDigest) {
  expect_pinned(campaign_bytes(parse_campaign(kAdaptiveGoldenCampaign),
                               "adaptive_golden"),
                kAdaptiveGoldenDigest);
}

TEST(PolicyAdaptiveDegeneracy, ExactlyMalleableAtVanishingLoad) {
  // Releases 1e9 s apart: every job runs alone, so the bandit's two arms
  // place it identically and reshape never resizes it (DESIGN.md
  // section 10.3). Under a faulty stream every adaptive policy must then
  // replay malleable double for double.
  constexpr int kJobs = 8;
  constexpr int kProcessors = 64;
  const checkpoint::Model resilience({units::years(0.5), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  std::vector<double> releases;
  for (int i = 0; i < kJobs; ++i)
    releases.push_back(1.0e9 * static_cast<double>(i));
  const std::function<const std::vector<double>&()> release_times =
      [&]() -> const std::vector<double>& { return releases; };
  const char* const adaptive[] = {"bandit(window=10, explore=0.25)",
                                  "bandit", "reshape(gain=0.5)",
                                  "reshape(gain=1)"};
  int faults = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        kJobs, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    core::Engine engine(pack, resilience, kProcessors);
    const auto run = [&](const char* text) {
      fault::ExponentialGenerator stream(
          kProcessors, 1.0 / units::years(0.5), Rng(seed ^ 0xFA17ULL));
      const policy::CellContext ctx{pack,           resilience,
                                    kProcessors,    stream,
                                    engine.model(), engine.evaluator(),
                                    engine,         release_times,
                                    seed};
      return policy::resolve(text).make()->run(ctx);
    };
    const core::RunResult malleable = run("malleable");
    faults += malleable.faults_effective;
    for (const char* text : adaptive) {
      SCOPED_TRACE(text);
      expect_identical(run(text), malleable);
    }
  }
  EXPECT_GT(faults, 1000);  // a genuinely faulty stream
}

TEST(PolicyAdaptiveDeterminism, OfflineWorkloadsRunToo) {
  // The adaptive policies also accept the static setting (every job
  // released at 0): sanity-check termination and determinism there.
  Scenario scenario;
  scenario.n = 6;
  scenario.p = 24;
  scenario.mtbf_years = 2.0;
  scenario.seed = 7ULL;
  validate_scenario(scenario);
  const std::vector<ConfigSpec> configs = parse_config_set("bandit, reshape");
  const CellResult a = run_cell(scenario, configs, 0);
  const CellResult b = run_cell(scenario, configs, 0);
  expect_identical_cells(a, b);
  for (const core::RunResult& r : a.results) {
    EXPECT_GT(r.makespan, 0.0);
    ASSERT_EQ(r.completion_times.size(), 6u);
    for (double t : r.completion_times) EXPECT_GT(t, 0.0);
  }
}

}  // namespace
}  // namespace coredis::exp
