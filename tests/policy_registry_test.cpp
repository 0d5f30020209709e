/// \file policy_registry_test.cpp
/// The registry differential battery (DESIGN.md section 10): the policy
/// registry is the production dispatch, and this suite locks it against
/// the frozen pre-registry switch byte for byte. Three layers:
///
///  * campaign artifacts: whole grids — offline paper configs, an
///    online-arrival grid, both fault laws — run once per DispatchPath
///    and the JSONL files must compare equal (cmp semantics, the
///    lazy_equivalence pattern at the artifact level);
///  * registry strings vs presets: `pack(end=..., fail=...)` spellings
///    must replay the preset ConfigSpecs double for double;
///  * the adaptive policies (bandit, reshape): deterministic in
///    (point seed, rep) — identical cells across repeated runs, across
///    thread counts (GridRunOptions::threads and COREDIS_THREADS), and
///    across the shard+merge fabric.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_file.hpp"
#include "policy/registry.hpp"

namespace coredis::exp {
namespace {

/// Offline differential grid: every pack-engine cell of the paper set
/// plus both fault laws (the Weibull requirement of the battery).
const char* const kOfflineCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260726
mtbf_years = 2, 50
fault_law = exponential, weibull
configs = paper
)";

/// Online-arrival differential grid: the three arrival-driven
/// schedulers under Poisson releases, again under both fault laws.
const char* const kOnlineCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260731
mtbf_years = 2
fault_law = exponential, weibull
arrival_law = poisson
load_factor = 1
configs = online
)";

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

/// Run the campaign under one dispatch path and return the artifact
/// bytes (the file is removed afterwards).
std::string campaign_bytes(const Campaign& campaign, DispatchPath path,
                           const std::string& tag, std::size_t threads = 0) {
  const std::filesystem::path file = temp_jsonl(tag);
  std::filesystem::remove(file);
  GridRunOptions options;
  options.jsonl_path = file.string();
  options.dispatch = path;
  options.threads = threads;
  (void)run_campaign(campaign, options);
  std::string bytes = read_file(file);
  std::filesystem::remove(file);
  return bytes;
}

TEST(PolicyRegistryDifferential, OfflineGridByteIdentical) {
  const Campaign campaign = parse_campaign(kOfflineCampaign);
  const std::string registry =
      campaign_bytes(campaign, DispatchPath::Registry, "offline_reg");
  const std::string legacy =
      campaign_bytes(campaign, DispatchPath::Legacy, "offline_leg");
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(registry, legacy);
}

TEST(PolicyRegistryDifferential, OnlineArrivalGridByteIdentical) {
  const Campaign campaign = parse_campaign(kOnlineCampaign);
  const std::string registry =
      campaign_bytes(campaign, DispatchPath::Registry, "online_reg");
  const std::string legacy =
      campaign_bytes(campaign, DispatchPath::Legacy, "online_leg");
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(registry, legacy);
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
  // Every legacy SchedulerKind, spelled as a registry policy string,
  // must replay the preset spec's simulation double for double — the
  // canonical strings route both through the same instantiated policy.
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
    EXPECT_EQ(via_string[0].scheduler, SchedulerKind::Registry);
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      expect_identical_cells(
          run_cell(scenario, via_string, rep, DispatchPath::Registry),
          run_cell(scenario, {pair.preset}, rep, DispatchPath::Legacy));
    }
  }
}

TEST(PolicyRegistryDifferential, RegistryOnlySpecsRunUnderLegacyPathRequest) {
  Scenario scenario;
  scenario.n = 4;
  scenario.p = 16;
  scenario.mtbf_years = 0.0;
  validate_scenario(scenario);
  const std::vector<ConfigSpec> bandit = parse_config_set("bandit");
  // Registry-only specs run fine down the (default) registry path even
  // when the caller asks for the legacy one — the legacy switch simply
  // cannot spell them, and plain legacy specs are unaffected.
  (void)run_cell(scenario, bandit, 0, DispatchPath::Legacy);
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
    one = campaign_bytes(campaign, DispatchPath::Registry, "adaptive_t1");
  }
  {
    ThreadsEnv env("2");
    two = campaign_bytes(campaign, DispatchPath::Registry, "adaptive_t2");
  }
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  // Explicit worker override, no env: same bytes again.
  const std::string four =
      campaign_bytes(campaign, DispatchPath::Registry, "adaptive_t4", 4);
  EXPECT_EQ(one, four);
}

TEST(PolicyAdaptiveDeterminism, ShardMergeMatchesSingleRun) {
  const Campaign campaign = parse_campaign(kAdaptiveCampaign);
  const std::string single =
      campaign_bytes(campaign, DispatchPath::Registry, "adaptive_single");

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
  const Campaign campaign = parse_campaign(kAdaptiveGoldenCampaign);
  const std::string bytes =
      campaign_bytes(campaign, DispatchPath::Registry, "adaptive_golden");
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(fnv1a(bytes), kAdaptiveGoldenDigest)
      << std::hex << "digest 0x" << fnv1a(bytes) << " over " << std::dec
      << bytes.size() << " bytes";
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
