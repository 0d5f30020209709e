/// Campaign orchestrator tests (exp/campaign.hpp): grid parsing with
/// line-numbered errors, whole-grid execution equivalence with run_point,
/// byte-identical JSONL under any thread count, the interrupt/resume
/// contract (truncated and corrupted-tail files), and distributed
/// campaigns (fixed-deal ranges, worker files, dealt blocks, the
/// byte-identical merge).

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/cost_model.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_file.hpp"
#include "exp/storage.hpp"
#include "util/atomic_file.hpp"

namespace coredis::exp {
namespace {

/// The pinned smoke campaign of the acceptance criteria: 4 points x 2
/// repetitions = 8 cells, both fault laws, small enough to simulate in
/// milliseconds per cell.
const char* const kSmokeCampaign = R"(
# pinned smoke grid
n = 6
p = 24
runs = 2
seed = 20260726
mtbf_years = 2, 50
fault_law = exponential, weibull
configs = baseline, ig_local, stf_greedy
)";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot open " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(file) << "cannot write " << path;
  file << text;
}

std::filesystem::path temp_jsonl(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("coredis_campaign_test_" + tag + ".jsonl");
}

/// Split JSONL content into lines (each line lost its trailing '\n').
std::vector<std::string> lines_of(const std::string& content) {
  std::vector<std::string> lines;
  std::istringstream stream(content);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

/// RAII override of COREDIS_THREADS, restoring the previous value (the
/// suite itself may run under an override, e.g. CI's COREDIS_THREADS=2).
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

void expect_same_stats(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_same_points(const std::vector<PointResult>& a,
                        const std::vector<PointResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_stats(a[i].baseline_makespan, b[i].baseline_makespan);
    ASSERT_EQ(a[i].configs.size(), b[i].configs.size());
    for (std::size_t c = 0; c < a[i].configs.size(); ++c) {
      EXPECT_EQ(a[i].configs[c].name, b[i].configs[c].name);
      expect_same_stats(a[i].configs[c].makespan, b[i].configs[c].makespan);
      expect_same_stats(a[i].configs[c].normalized, b[i].configs[c].normalized);
      expect_same_stats(a[i].configs[c].redistributions,
                        b[i].configs[c].redistributions);
      expect_same_stats(a[i].configs[c].effective_faults,
                        b[i].configs[c].effective_faults);
    }
  }
}

TEST(CampaignFile, ParsesAxesBaseKeysAndConfigs) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  EXPECT_EQ(campaign.grid.base.n, 6);
  EXPECT_EQ(campaign.grid.base.p, 24);
  EXPECT_EQ(campaign.grid.base.runs, 2);
  EXPECT_EQ(campaign.grid.base.seed, 20260726u);
  ASSERT_EQ(campaign.grid.points(), 4u);
  EXPECT_EQ(campaign.cells(), 8u);
  ASSERT_EQ(campaign.configs.size(), 3u);
  EXPECT_EQ(campaign.configs[0].name, baseline_no_redistribution().name);
  EXPECT_EQ(campaign.configs[1].name, ig_end_local().name);
  EXPECT_EQ(campaign.configs[2].name, stf_end_greedy().name);

  // mtbf_years is the outer axis, fault_law the inner one.
  EXPECT_DOUBLE_EQ(campaign.grid.point(0).mtbf_years, 2.0);
  EXPECT_EQ(campaign.grid.point(0).fault_law, FaultLaw::Exponential);
  EXPECT_DOUBLE_EQ(campaign.grid.point(1).mtbf_years, 2.0);
  EXPECT_EQ(campaign.grid.point(1).fault_law, FaultLaw::Weibull);
  EXPECT_DOUBLE_EQ(campaign.grid.point(2).mtbf_years, 50.0);
  EXPECT_EQ(campaign.grid.point(2).fault_law, FaultLaw::Exponential);
  EXPECT_DOUBLE_EQ(campaign.grid.point(3).mtbf_years, 50.0);
  EXPECT_EQ(campaign.grid.point(3).fault_law, FaultLaw::Weibull);
  EXPECT_EQ(campaign.grid.point_label(3), "mtbf_years=50 fault_law=weibull");
  // Every point inherits the base knobs.
  EXPECT_EQ(campaign.grid.point(3).n, 6);
  EXPECT_EQ(campaign.grid.point(3).seed, 20260726u);
}

TEST(CampaignFile, NamedConfigSetsAndDefault) {
  EXPECT_EQ(parse_campaign("n = 4\np = 8\n").configs.size(),
            paper_curves().size());
  EXPECT_EQ(parse_campaign("n = 4\np = 8\nconfigs = fault_free\n")
                .configs.size(),
            fault_free_curves().size());
  EXPECT_EQ(parse_campaign("n = 4\np = 8\nconfigs = paper\n").configs.size(),
            paper_curves().size());
}

TEST(CampaignFile, ScalarAssignmentOverridesAnEarlierSweep) {
  const Campaign campaign =
      parse_campaign("n = 4\np = 20\nmtbf_years = 1, 2, 3\nmtbf_years = 7\n");
  EXPECT_EQ(campaign.grid.points(), 1u);
  EXPECT_DOUBLE_EQ(campaign.grid.point(0).mtbf_years, 7.0);
}

TEST(CampaignFile, ErrorsNameTheOffendingLine) {
  // Line 3 holds the typo.
  try {
    (void)parse_campaign("n = 4\np = 20\ntypo_key = 3\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("campaign line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("typo_key"), std::string::npos) << what;
  }
  // Sweeping a non-axis key names the line and the axis list.
  try {
    (void)parse_campaign("n = 4\np = 20\nruns = 1, 2\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("campaign line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot be swept"), std::string::npos) << what;
  }
  // Malformed axis elements and unknown configurations, with line context.
  try {
    (void)parse_campaign("mtbf_years = 5, abc\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("campaign line 1"),
              std::string::npos)
        << error.what();
  }
  // A swept key that does not exist at all reads as a typo, not as a
  // non-sweepable key.
  try {
    (void)parse_campaign("mtbf_yeras = 5, 25\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown key 'mtbf_yeras'"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)parse_campaign("configs = paper, nonsense\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_campaign("mtbf_years = 5,, 10\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_campaign("no equals sign\n"), std::runtime_error);
}

TEST(CampaignFile, ValidatesEveryGridPoint) {
  // n = 40 with p = 20 violates p >= 2n on the second point only.
  try {
    (void)parse_campaign("n = 5, 40\np = 20\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("n=40"), std::string::npos) << what;
    EXPECT_NE(what.find("p >= 2n"), std::string::npos) << what;
  }
  // An odd p is refused at parse, naming the key and the point, before
  // any cell could run.
  try {
    (void)parse_campaign("n = 4\np = 18, 19\nconfigs = baseline, easy\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("p=19"), std::string::npos) << what;
    EXPECT_NE(what.find("key 'p' must be even"), std::string::npos) << what;
  }
}

TEST(CampaignGrid, PointLabelFallsBackToBase) {
  const Campaign campaign = parse_campaign("n = 4\np = 8\n");
  EXPECT_EQ(campaign.grid.points(), 1u);
  EXPECT_EQ(campaign.grid.point_label(0), "base");
}

TEST(CampaignRun, GridAggregatesMatchRunPointPerPoint) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<PointResult> grid = run_campaign(campaign);

  std::vector<PointResult> sequential;
  for (std::size_t i = 0; i < campaign.grid.points(); ++i)
    sequential.push_back(run_point(campaign.grid.point(i), campaign.configs));
  expect_same_points(grid, sequential);

  // The baseline configuration reuses the normalizer simulation but must
  // keep its full counters: at MTBF = 2y the no-RC run does see faults.
  EXPECT_GT(grid[0].configs[0].effective_faults.mean(), 0.0);
  EXPECT_EQ(grid[0].configs[0].makespan.mean(),
            grid[0].baseline_makespan.mean());
}

TEST(CampaignRun, JsonlIsByteIdenticalAcrossThreadCounts) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto path = temp_jsonl("threads" + std::to_string(threads));
    std::filesystem::remove(path);
    GridRunOptions options;
    options.jsonl_path = path.string();
    options.threads = threads;
    (void)run_campaign(campaign, options);
    const std::string content = read_file(path);
    if (reference.empty()) {
      reference = content;
      // Header + one record per cell.
      EXPECT_EQ(lines_of(content).size(), 1u + campaign.cells());
      EXPECT_NE(content.find("\"coredis_campaign\":1"), std::string::npos);
    } else {
      EXPECT_EQ(content, reference)
          << "JSONL differs at " << threads << " threads";
    }
    std::filesystem::remove(path);
  }
  // The COREDIS_THREADS environment override goes through the same path.
  const ThreadsEnv env("3");
  const auto path = temp_jsonl("threads_env");
  std::filesystem::remove(path);
  GridRunOptions options;
  options.jsonl_path = path.string();
  (void)run_campaign(campaign, options);
  EXPECT_EQ(read_file(path), reference);
  std::filesystem::remove(path);
}

TEST(CampaignRun, RunPointOutcomeIndependentOfThreadCount) {
  Scenario scenario;
  scenario.n = 6;
  scenario.p = 24;
  scenario.runs = 5;
  scenario.mtbf_years = 2.0;
  scenario.seed = 99;
  std::vector<PointResult> results;
  for (const char* threads : {"1", "8"}) {
    const ThreadsEnv env(threads);
    results.push_back(run_point(scenario, paper_curves()));
  }
  expect_same_points({results[0]}, {results[1]});
}

TEST(CampaignResume, TruncatedFileResumesToIdenticalBytes) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto full_path = temp_jsonl("resume_full");
  std::filesystem::remove(full_path);
  GridRunOptions options;
  options.jsonl_path = full_path.string();
  options.threads = 2;
  const std::vector<PointResult> uninterrupted =
      run_campaign(campaign, options);
  const std::string full = read_file(full_path);
  const std::vector<std::string> lines = lines_of(full);
  ASSERT_EQ(lines.size(), 1u + campaign.cells());

  // Interrupt mid-grid: keep the header and the first 3 cells.
  for (const std::size_t keep : {0u, 1u, 3u, 7u}) {
    const auto path = temp_jsonl("resume_keep" + std::to_string(keep));
    std::string prefix = lines[0] + '\n';
    for (std::size_t k = 0; k < keep; ++k) prefix += lines[1 + k] + '\n';
    write_file(path, prefix);

    GridRunOptions resume = options;
    resume.jsonl_path = path.string();
    resume.resume = true;
    const std::vector<PointResult> resumed = run_campaign(campaign, resume);
    EXPECT_EQ(read_file(path), full) << "resume after " << keep << " cells";
    expect_same_points(resumed, uninterrupted);
    std::filesystem::remove(path);
  }
  std::filesystem::remove(full_path);
}

TEST(CampaignResume, CorruptedLastLineIsDroppedAndRecomputed) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto full_path = temp_jsonl("corrupt_full");
  std::filesystem::remove(full_path);
  GridRunOptions options;
  options.jsonl_path = full_path.string();
  options.threads = 2;
  (void)run_campaign(campaign, options);
  const std::string full = read_file(full_path);
  const std::vector<std::string> lines = lines_of(full);

  // A record torn mid-write: half of cell 2, no trailing newline.
  {
    const auto path = temp_jsonl("corrupt_torn");
    const std::string torn =
        lines[0] + '\n' + lines[1] + '\n' + lines[2] + '\n' +
        lines[3].substr(0, lines[3].size() / 2);
    write_file(path, torn);
    GridRunOptions resume = options;
    resume.jsonl_path = path.string();
    resume.resume = true;
    (void)run_campaign(campaign, resume);
    EXPECT_EQ(read_file(path), full);
    std::filesystem::remove(path);
  }
  // A complete but mangled last line is dropped the same way.
  {
    const auto path = temp_jsonl("corrupt_mangled");
    write_file(path, lines[0] + '\n' + lines[1] + '\n' + "{\"cell\":1,garbage\n");
    GridRunOptions resume = options;
    resume.jsonl_path = path.string();
    resume.resume = true;
    (void)run_campaign(campaign, resume);
    EXPECT_EQ(read_file(path), full);
    std::filesystem::remove(path);
  }
  // Corruption that is not the tail cannot be repaired silently.
  {
    const auto path = temp_jsonl("corrupt_midfile");
    write_file(path,
               lines[0] + '\n' + "{\"cell\":0,garbage\n" + lines[2] + '\n');
    GridRunOptions resume = options;
    resume.jsonl_path = path.string();
    resume.resume = true;
    EXPECT_THROW((void)run_campaign(campaign, resume), std::runtime_error);
    std::filesystem::remove(path);
  }
  std::filesystem::remove(full_path);
}

TEST(CampaignResume, MismatchedCampaignIsRefused) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto path = temp_jsonl("fingerprint");
  std::filesystem::remove(path);
  GridRunOptions options;
  options.jsonl_path = path.string();
  (void)run_campaign(campaign, options);

  Campaign other = campaign;
  other.grid.base.seed = 7;  // different campaign, same grid shape
  GridRunOptions resume = options;
  resume.resume = true;
  EXPECT_THROW((void)run_campaign(other, resume), std::runtime_error);
  EXPECT_THROW((void)summarize_jsonl(other, path.string()),
               std::runtime_error);
  std::filesystem::remove(path);
}

/// The online-arrival workload campaign of the acceptance criteria:
/// Poisson arrivals swept over two loads x 2 repetitions, the three
/// online schedulers (malleable / EASY / FCFS).
const char* const kOnlineCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260726
mtbf_years = 5
arrival_law = poisson
load_factor = 0.5, 4
configs = online
)";

TEST(CampaignOnline, ParsesArrivalAxesAndOnlineConfigs) {
  const Campaign campaign = parse_campaign(kOnlineCampaign);
  ASSERT_EQ(campaign.grid.points(), 2u);
  EXPECT_EQ(campaign.cells(), 4u);
  ASSERT_EQ(campaign.configs.size(), 3u);
  EXPECT_EQ(campaign.configs[0].name, online_malleable().name);
  EXPECT_EQ(campaign.configs[0].policy, "malleable");
  EXPECT_EQ(campaign.configs[1].policy, "easy");
  EXPECT_EQ(campaign.configs[2].policy, "fcfs");
  EXPECT_EQ(campaign.grid.point(0).arrival_law,
            extensions::ArrivalLaw::Poisson);
  EXPECT_DOUBLE_EQ(campaign.grid.point(0).load_factor, 0.5);
  EXPECT_DOUBLE_EQ(campaign.grid.point(1).load_factor, 4.0);
  EXPECT_EQ(campaign.grid.point_label(1), "load_factor=4");
  // Both arrival axes sweep together when listed.
  const Campaign both = parse_campaign(
      "n = 4\np = 8\narrival_law = none, poisson\nload_factor = 1, 2\n");
  EXPECT_EQ(both.grid.points(), 4u);
  EXPECT_EQ(both.grid.point_label(3), "arrival_law=poisson load_factor=2");
}

TEST(CampaignOnline, JsonlIsByteIdenticalAcrossThreadCounts) {
  const Campaign campaign = parse_campaign(kOnlineCampaign);
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto path = temp_jsonl("online_threads" + std::to_string(threads));
    std::filesystem::remove(path);
    GridRunOptions options;
    options.jsonl_path = path.string();
    options.threads = threads;
    (void)run_campaign(campaign, options);
    const std::string content = read_file(path);
    if (reference.empty()) {
      reference = content;
      EXPECT_EQ(lines_of(content).size(), 1u + campaign.cells());
    } else {
      EXPECT_EQ(content, reference)
          << "online JSONL differs at " << threads << " threads";
    }
    std::filesystem::remove(path);
  }
  // The COREDIS_THREADS override goes through the same path.
  const ThreadsEnv env("3");
  const auto path = temp_jsonl("online_threads_env");
  std::filesystem::remove(path);
  GridRunOptions options;
  options.jsonl_path = path.string();
  (void)run_campaign(campaign, options);
  EXPECT_EQ(read_file(path), reference);
  std::filesystem::remove(path);
}

TEST(CampaignOnline, InterruptResumeReproducesIdenticalBytes) {
  const Campaign campaign = parse_campaign(kOnlineCampaign);
  const auto full_path = temp_jsonl("online_resume_full");
  std::filesystem::remove(full_path);
  GridRunOptions options;
  options.jsonl_path = full_path.string();
  options.threads = 2;
  const std::vector<PointResult> uninterrupted =
      run_campaign(campaign, options);
  const std::string full = read_file(full_path);
  const std::vector<std::string> lines = lines_of(full);
  ASSERT_EQ(lines.size(), 1u + campaign.cells());

  for (const std::size_t keep : {0u, 1u, 3u}) {
    const auto path = temp_jsonl("online_resume_keep" + std::to_string(keep));
    std::string prefix = lines[0] + '\n';
    for (std::size_t k = 0; k < keep; ++k) prefix += lines[1 + k] + '\n';
    // Torn tail: half of the next record, no trailing newline.
    prefix += lines[1 + keep].substr(0, lines[1 + keep].size() / 2);
    write_file(path, prefix);

    GridRunOptions resume = options;
    resume.jsonl_path = path.string();
    resume.resume = true;
    const std::vector<PointResult> resumed = run_campaign(campaign, resume);
    EXPECT_EQ(read_file(path), full) << "resume after " << keep << " cells";
    expect_same_points(resumed, uninterrupted);
    std::filesystem::remove(path);
  }
  std::filesystem::remove(full_path);
}

TEST(CampaignOnline, OnlineCellsRewardMalleabilityAtHighLoad) {
  // Sanity on the simulated content (not just the plumbing): at load 4
  // the malleable scheduler must beat both rigid baselines on mean
  // normalized makespan, and the EASY/FCFS pair must not beat it.
  const Campaign campaign = parse_campaign(kOnlineCampaign);
  const std::vector<PointResult> points = run_campaign(campaign);
  const PointResult& high = points[1];
  EXPECT_LT(high.configs[0].normalized.mean(),
            high.configs[1].normalized.mean());
  EXPECT_LE(high.configs[1].normalized.mean(),
            high.configs[2].normalized.mean() * (1.0 + 1e-9));
  // Online runs report their redistribution activity through the same
  // counters as the engine.
  EXPECT_GT(high.configs[0].redistributions.mean(), 0.0);
  EXPECT_EQ(high.configs[1].redistributions.mean(), 0.0);
}

// --- distributed campaigns: fixed deals (DESIGN.md section 7.4) ----------

TEST(CampaignShard, ParsesSpecsAndRejectsMalformedOnes) {
  EXPECT_EQ(parse_shard_spec("1/4").index, 1u);
  EXPECT_EQ(parse_shard_spec("1/4").count, 4u);
  EXPECT_EQ(parse_shard_spec("0/1").count, 1u);
  for (const char* bad : {"4/4", "0/0", "x/4", "1-4", "1/4 ", "1/", "/4", ""})
    EXPECT_THROW((void)parse_shard_spec(bad), std::runtime_error) << bad;
}

TEST(CampaignShard, RangesTileTheCellSpaceInBalance) {
  for (const std::size_t total : {0u, 1u, 7u, 8u, 23u}) {
    for (const std::size_t workers : {1u, 2u, 3u, 5u, 9u}) {
      std::size_t expected_begin = 0;
      std::size_t min_size = total + 1;
      std::size_t max_size = 0;
      for (std::size_t k = 0; k < workers; ++k) {
        const auto [begin, end] = shard_range(total, {k, workers});
        EXPECT_EQ(begin, expected_begin)
            << "shard " << k << "/" << workers << " over " << total;
        EXPECT_LE(begin, end);
        expected_begin = end;
        min_size = std::min(min_size, end - begin);
        max_size = std::max(max_size, end - begin);
      }
      EXPECT_EQ(expected_begin, total);
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(CampaignShard, ShardPathSplicesBeforeTheExtension) {
  EXPECT_EQ(shard_path("out.jsonl", {0, 4}), "out.shard0of4.jsonl");
  EXPECT_EQ(shard_path("noext", {1, 2}), "noext.shard1of2");
  const std::filesystem::path nested =
      std::filesystem::path("dir") / "results.jsonl";
  EXPECT_EQ(shard_path(nested.string(), {2, 3}),
            (std::filesystem::path("dir") / "results.shard2of3.jsonl")
                .string());
}

/// Run every worker's fixed block of `campaign` for `workers` workers
/// into the worker files of `out`, then merge into `out`.
void run_all_shards_and_merge(const Campaign& campaign, std::size_t workers,
                              const std::string& out) {
  for (std::size_t k = 0; k < workers; ++k) {
    GridRunOptions options;
    options.jsonl_path = out;
    options.threads = 2;
    run_campaign_shard(campaign, {k, workers}, options);
  }
  merge_campaign_deal_shards(campaign, workers, out);
}

void remove_shard_files(const std::string& out, std::size_t workers) {
  for (std::size_t k = 0; k < workers; ++k)
    std::filesystem::remove(shard_path(out, {k, workers}));
}

TEST(CampaignShard, MergedShardsAreByteIdenticalToSingleProcess) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto single_path = temp_jsonl("shard_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  options.threads = 2;
  const std::vector<PointResult> single = run_campaign(campaign, options);
  const std::string reference = read_file(single_path);

  // 16 workers > 8 cells: some shards are legitimately empty.
  for (const std::size_t workers : {1u, 2u, 3u, 8u, 16u}) {
    const auto path = temp_jsonl("shard_w" + std::to_string(workers));
    std::filesystem::remove(path);
    run_all_shards_and_merge(campaign, workers, path.string());
    EXPECT_EQ(read_file(path), reference) << workers << " workers";
    // The merged artifact summarizes exactly like the single-process one.
    expect_same_points(summarize_jsonl(campaign, path.string()), single);
    remove_shard_files(path.string(), workers);
    std::filesystem::remove(path);
  }
  std::filesystem::remove(single_path);
}

TEST(CampaignShard, TornShardResumesToAnIdenticalMerge) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto single_path = temp_jsonl("shard_torn_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  options.threads = 2;
  (void)run_campaign(campaign, options);

  const auto out = temp_jsonl("shard_torn");
  std::filesystem::remove(out);
  GridRunOptions shard_options;
  shard_options.jsonl_path = out.string();
  shard_options.threads = 2;
  run_campaign_shard(campaign, {0, 2}, shard_options);
  run_campaign_shard(campaign, {1, 2}, shard_options);

  // Kill simulation: shard 0 loses half of its last record (no newline),
  // exactly what a SIGKILL mid-append leaves behind.
  const std::string shard0 = shard_path(out.string(), {0, 2});
  const std::string full_shard = read_file(shard0);
  const std::vector<std::string> lines = lines_of(full_shard);
  std::string torn;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) torn += lines[i] + '\n';
  torn += lines.back().substr(0, lines.back().size() / 2);
  write_file(shard0, torn);

  // Merging the torn shard refuses loudly and leaves no artifact behind.
  try {
    merge_campaign_deal_shards(campaign, 2, out.string());
    FAIL() << "must refuse a torn shard";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(shard0), std::string::npos) << what;
    EXPECT_NE(what.find("incomplete"), std::string::npos) << what;
  }
  EXPECT_FALSE(std::filesystem::exists(out));

  // The re-issued worker resumes its own shard file; the merge is then
  // byte-identical to the uninterrupted single-process artifact.
  GridRunOptions resume = shard_options;
  resume.resume = true;
  run_campaign_shard(campaign, {0, 2}, resume);
  EXPECT_EQ(read_file(shard0), full_shard);
  merge_campaign_deal_shards(campaign, 2, out.string());
  EXPECT_EQ(read_file(out), read_file(single_path));

  remove_shard_files(out.string(), 2);
  std::filesystem::remove(out);
  std::filesystem::remove(single_path);
}

TEST(CampaignShard, MergeRefusesMissingMismatchedAndOversizedShards) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto out = temp_jsonl("shard_refuse");
  std::filesystem::remove(out);
  GridRunOptions options;
  options.jsonl_path = out.string();
  options.threads = 2;
  run_campaign_shard(campaign, {0, 2}, options);
  const std::string shard0 = shard_path(out.string(), {0, 2});
  const std::string shard1 = shard_path(out.string(), {1, 2});

  // Missing shard 1: the refusal names the missing file.
  try {
    merge_campaign_deal_shards(campaign, 2, out.string());
    FAIL() << "must refuse a missing shard";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(shard1), std::string::npos)
        << error.what();
  }
  EXPECT_FALSE(std::filesystem::exists(out));

  // A shard of a *different* campaign is a fingerprint mismatch.
  Campaign other = campaign;
  other.grid.base.seed = 7;
  GridRunOptions other_options = options;
  run_campaign_shard(other, {1, 2}, other_options);
  EXPECT_THROW(merge_campaign_deal_shards(campaign, 2, out.string()),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(out));

  // Shard files are not campaign files: resuming the final artifact from
  // a shard file (or merging a campaign file as a shard) cannot work.
  GridRunOptions resume = options;
  resume.jsonl_path = shard0;
  resume.resume = true;
  EXPECT_THROW((void)run_campaign(campaign, resume), std::runtime_error);

  remove_shard_files(out.string(), 2);
  std::filesystem::remove(out);
}

TEST(CampaignShard, ShardRunsNeedAnOutputPath) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  EXPECT_THROW(run_campaign_shard(campaign, {0, 2}, GridRunOptions{}),
               std::runtime_error);
}

TEST(CampaignShard, FixedDealResumeAppendsOnlyMissingCells) {
  // A killed --worker k/W leaves a prefix of its fixed block; the resumed
  // worker appends exactly the missing records, and resuming a complete
  // worker file appends nothing.
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto out = temp_jsonl("shard_fixed_resume");
  std::filesystem::remove(out);
  GridRunOptions options;
  options.jsonl_path = out.string();
  options.threads = 2;
  run_campaign_shard(campaign, {1, 2}, options);
  const std::string shard1 = shard_path(out.string(), {1, 2});
  const std::string full = read_file(shard1);
  const std::vector<std::string> lines = lines_of(full);
  ASSERT_EQ(lines.size(), 5u);  // header + cells 4..7
  write_file(shard1, lines[0] + '\n' + lines[1] + '\n');

  GridRunOptions resume = options;
  resume.resume = true;
  run_campaign_shard(campaign, {1, 2}, resume);
  EXPECT_EQ(read_file(shard1), full);
  run_campaign_shard(campaign, {1, 2}, resume);
  EXPECT_EQ(read_file(shard1), full);

  remove_shard_files(out.string(), 2);
}

TEST(CampaignShard, StaticModeWorkerFilesAreRefusedNotAdopted) {
  // A --worker k/W file from before every multi-process run became a
  // deal opens with a "coredis_campaign_shard" header carrying a fixed
  // range. Neither the merge nor a resumed worker may take it for a
  // worker file: both refuse, naming the file, and the resume leaves its
  // bytes alone.
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto out = temp_jsonl("shard_static_mode");
  std::filesystem::remove(out);
  GridRunOptions options;
  options.jsonl_path = out.string();
  options.threads = 2;
  run_campaign_shard(campaign, {0, 2}, options);
  run_campaign_shard(campaign, {1, 2}, options);
  const std::string shard0 = shard_path(out.string(), {0, 2});
  const std::vector<std::string> lines = lines_of(read_file(shard0));
  ASSERT_EQ(lines.size(), 5u);  // header + cells 0..3

  // Same fingerprint and records, static-mode header shape.
  const std::string deal_tag = "{\"coredis_campaign_deal\":1,";
  const std::string identity = "\"worker\":0,\"workers\":2,";
  std::string header = lines[0];
  ASSERT_EQ(header.rfind(deal_tag, 0), 0u) << header;
  const std::size_t at = header.find(identity);
  ASSERT_NE(at, std::string::npos) << header;
  header.replace(at, identity.size(),
                 "\"shard\":0,\"workers\":2,\"begin\":0,\"end\":4,");
  header.replace(0, deal_tag.size(), "{\"coredis_campaign_shard\":1,");
  std::string static_file = header + '\n';
  for (std::size_t i = 1; i < lines.size(); ++i) static_file += lines[i] + '\n';
  write_file(shard0, static_file);

  try {
    merge_campaign_deal_shards(campaign, 2, out.string());
    FAIL() << "must refuse a static-mode worker file";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(shard0), std::string::npos) << what;
    EXPECT_NE(what.find("mismatch"), std::string::npos) << what;
  }
  EXPECT_FALSE(std::filesystem::exists(out));

  GridRunOptions resume = options;
  resume.resume = true;
  try {
    run_campaign_shard(campaign, {0, 2}, resume);
    FAIL() << "must refuse to resume a static-mode worker file";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(shard0), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(read_file(shard0), static_file);

  remove_shard_files(out.string(), 2);
}

TEST(CampaignMerge, LeavesNoTempSiblingAfterSuccess) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto out = temp_jsonl("merge_atomic_clean");
  std::filesystem::remove(out);
  run_all_shards_and_merge(campaign, 2, out.string());
  EXPECT_TRUE(std::filesystem::exists(out));
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(out.string())));
  remove_shard_files(out.string(), 2);
  std::filesystem::remove(out);
}

TEST(CampaignMerge, FailureTouchesNeitherFinalNorTemp) {
  // A merge that cannot complete (missing shard) must leave the final
  // name absent and clean up its temp sibling: readers of the final path
  // expect complete-or-absent, and a lingering temp would mask the next
  // crash's debris.
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto out = temp_jsonl("merge_atomic_fail");
  std::filesystem::remove(out);
  GridRunOptions options;
  options.jsonl_path = out.string();
  options.threads = 2;
  run_campaign_shard(campaign, {0, 2}, options);  // shard 1 never runs
  EXPECT_THROW(merge_campaign_deal_shards(campaign, 2, out.string()),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(out));
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(out.string())));

  // Supplying the missing shard makes the same merge succeed, and a
  // stale temp sibling (a previous crash's debris) is simply truncated.
  write_file(atomic_temp_path(out.string()), "stale debris\n");
  run_campaign_shard(campaign, {1, 2}, options);
  merge_campaign_deal_shards(campaign, 2, out.string());
  EXPECT_FALSE(std::filesystem::exists(atomic_temp_path(out.string())));

  // The recovered artifact is byte-identical to a clean single-process run.
  const auto reference = temp_jsonl("merge_atomic_ref");
  std::filesystem::remove(reference);
  GridRunOptions single;
  single.jsonl_path = reference.string();
  single.threads = 2;
  (void)run_campaign(campaign, single);
  EXPECT_EQ(read_file(out), read_file(reference));

  remove_shard_files(out.string(), 2);
  std::filesystem::remove(out);
  std::filesystem::remove(reference);
}

TEST(CampaignSummarize, MatchesTheRunThatProducedTheFile) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto path = temp_jsonl("summarize");
  std::filesystem::remove(path);
  GridRunOptions options;
  options.jsonl_path = path.string();
  const std::vector<PointResult> ran = run_campaign(campaign, options);

  JsonlCoverage coverage;
  const std::vector<PointResult> summarized =
      summarize_jsonl(campaign, path.string(), &coverage);
  EXPECT_EQ(coverage.cells_present, campaign.cells());
  EXPECT_EQ(coverage.cells_total, campaign.cells());
  EXPECT_FALSE(coverage.dropped_corrupt_tail);
  expect_same_points(summarized, ran);

  // A partial file reports partial coverage and aggregates the prefix.
  const std::vector<std::string> lines = lines_of(read_file(path));
  write_file(path, lines[0] + '\n' + lines[1] + '\n' + lines[2] + '\n');
  const std::vector<PointResult> partial =
      summarize_jsonl(campaign, path.string(), &coverage);
  EXPECT_EQ(coverage.cells_present, 2u);
  EXPECT_EQ(partial[0].baseline_makespan.count(), 2u);
  EXPECT_EQ(partial[2].baseline_makespan.count(), 0u);
  const std::string table = render_campaign_table(campaign, partial);
  EXPECT_NE(table.find("mtbf_years=2 fault_law=exponential"),
            std::string::npos);
  EXPECT_NE(table.find('-'), std::string::npos);
  std::filesystem::remove(path);
}

// --- thread counts: pure scheduling, zero output bytes --------------------

TEST(CampaignSchedule, EveryThreadCountSameBytes) {
  // Work stealing over the longest-predicted-first order at
  // COREDIS_THREADS 1, 2, 3 and 8: the committer retires cells in index
  // order whatever runs first, so the bytes cannot move.
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  std::string reference;
  for (const char* threads : {"1", "2", "3", "8"}) {
    const ThreadsEnv env(threads);
    const auto path = temp_jsonl(std::string("schedule_t") + threads);
    std::filesystem::remove(path);
    GridRunOptions options;
    options.jsonl_path = path.string();
    (void)run_campaign(campaign, options);
    const std::string content = read_file(path);
    if (reference.empty()) {
      reference = content;
    } else {
      EXPECT_EQ(content, reference) << threads << " threads";
    }
    std::filesystem::remove(path);
  }
}

// --- dealt blocks ---------------------------------------------------------

std::vector<std::size_t> campaign_runs(const std::vector<Scenario>& points) {
  std::vector<std::size_t> runs;
  for (const Scenario& point : points)
    runs.push_back(static_cast<std::size_t>(point.runs));
  return runs;
}

void remove_deal_files(const std::string& out, std::size_t workers) {
  for (std::size_t k = 0; k < workers; ++k)
    std::filesystem::remove(shard_path(out, {k, workers}));
}

TEST(CampaignDeal, PlanTilesTheCellSpaceLongestFirst) {
  // Heterogeneous grid: the n=24 point's cells are predicted well above
  // the n=6 point's.
  const Campaign campaign =
      parse_campaign("n = 6, 24\np = 48\nruns = 4\nconfigs = baseline\n");
  const std::vector<Scenario> points = campaign_points(campaign);
  const CellQueue queue(campaign_runs(points));
  const CostModel model(points, campaign.configs);
  for (const std::size_t workers : {1u, 2u, 5u}) {
    std::vector<DealBlock> blocks = plan_deal_blocks(model, queue, workers);
    ASSERT_FALSE(blocks.empty());
    // The first block dealt is (one of) the predicted-longest.
    const auto block_cost = [&](const DealBlock& block) {
      double cost = 0.0;
      for (std::size_t k = block.begin; k < block.end; ++k)
        cost += model.predict(queue.at(k).point);
      return cost;
    };
    for (std::size_t i = 1; i < blocks.size(); ++i)
      EXPECT_GE(block_cost(blocks[0]), block_cost(blocks[i])) << i;
    // Sorted by begin, the blocks tile [0, cells) exactly.
    std::sort(blocks.begin(), blocks.end(),
              [](const DealBlock& a, const DealBlock& b) {
                return a.begin < b.begin;
              });
    std::size_t next = 0;
    for (const DealBlock& block : blocks) {
      EXPECT_EQ(block.begin, next);
      EXPECT_LT(block.begin, block.end);
      next = block.end;
    }
    EXPECT_EQ(next, queue.size());
  }
}

TEST(CampaignDeal, PlanKeepsFourWorkersBusyOnAHeterogeneousGrid) {
  // Cell priors span two orders of magnitude, and the two costliest
  // points, (n = 1000, p = 10000) under both laws, fill the last
  // quarter of the cells: an equal-count contiguous split hands them
  // all to one worker.
  const Campaign campaign = parse_campaign(
      "n = 100, 1000\n"
      "p = 2000, 10000\n"
      "runs = 4\n"
      "seed = 20260726\n"
      "mtbf_years = 100\n"
      "fault_law = exponential, weibull\n"
      "configs = baseline, stf_local, ig_local\n");
  const std::vector<Scenario> points = campaign_points(campaign);
  const CellQueue queue(campaign_runs(points));
  const CostModel model(points, campaign.configs);
  constexpr std::size_t kWorkers = 4;
  // Replay a deal at predicted costs: blocks in plan order, each to the
  // earliest-free worker. Total work over the critical path is the
  // speedup over one worker.
  const auto speedup = [&](const std::vector<DealBlock>& blocks) {
    std::vector<double> busy(kWorkers, 0.0);
    double total = 0.0;
    for (const DealBlock& block : blocks) {
      double cost = 0.0;
      for (std::size_t k = block.begin; k < block.end; ++k)
        cost += model.predict(queue.at(k).point);
      *std::min_element(busy.begin(), busy.end()) += cost;
      total += cost;
    }
    return total / *std::max_element(busy.begin(), busy.end());
  };
  EXPECT_GE(speedup(plan_deal_blocks(model, queue, kWorkers)), 2.5);
  // The bound separates the plan from the dealer degenerated to an
  // equal-count contiguous split.
  std::vector<DealBlock> equal_count;
  for (std::size_t w = 0; w < kWorkers; ++w)
    equal_count.push_back({queue.size() * w / kWorkers,
                           queue.size() * (w + 1) / kWorkers});
  EXPECT_LT(speedup(equal_count), 2.5);
}

TEST(CampaignDeal, DealtBlocksMergeByteIdenticalToSingleProcess) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const auto single_path = temp_jsonl("deal_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  const std::vector<PointResult> single = run_campaign(campaign, options);
  const std::string reference = read_file(single_path);

  const auto out = temp_jsonl("deal_merge");
  std::filesystem::remove(out);
  GridRunOptions worker_options;
  worker_options.jsonl_path = out.string();
  {
    // Two workers, blocks dealt out of cell order — completion order in
    // each shard file differs from cell order, the merge restores it.
    DealWorker w0(points, campaign.configs, 0, 2, worker_options);
    DealWorker w1(points, campaign.configs, 1, 2, worker_options);
    w0.run_block(6, 8);
    w1.run_block(2, 6);
    w0.run_block(0, 2);
  }
  merge_deal_shards(points, campaign.configs, 2, out.string());
  EXPECT_EQ(read_file(out), reference);
  expect_same_points(summarize_jsonl(campaign, out.string()), single);
  remove_deal_files(out.string(), 2);
  std::filesystem::remove(out);
  std::filesystem::remove(single_path);
}

TEST(CampaignDeal, RedealtOverlappingBlocksDedupeByteIdentically) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const auto single_path = temp_jsonl("deal_overlap_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  (void)run_campaign(campaign, options);
  const std::string reference = read_file(single_path);

  const auto out = temp_jsonl("deal_overlap");
  std::filesystem::remove(out);
  GridRunOptions worker_options;
  worker_options.jsonl_path = out.string();
  {
    // Worker 0 died after flushing [0, 5) but before its ack: the
    // coordinator re-dealt the whole block to worker 1. Cells 3 and 4
    // exist in both files; the duplicates are byte-identical and the
    // merge keeps the first it saw.
    DealWorker w0(points, campaign.configs, 0, 2, worker_options);
    DealWorker w1(points, campaign.configs, 1, 2, worker_options);
    w0.run_block(0, 5);
    w1.run_block(3, 8);
  }
  merge_deal_shards(points, campaign.configs, 2, out.string());
  EXPECT_EQ(read_file(out), reference);
  remove_deal_files(out.string(), 2);
  std::filesystem::remove(out);
  std::filesystem::remove(single_path);
}

TEST(CampaignDeal, TornTailResumesAndRedealCompletesTheMerge) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const auto single_path = temp_jsonl("deal_torn_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  (void)run_campaign(campaign, options);
  const std::string reference = read_file(single_path);

  const auto out = temp_jsonl("deal_torn");
  std::filesystem::remove(out);
  GridRunOptions worker_options;
  worker_options.jsonl_path = out.string();
  {
    DealWorker w0(points, campaign.configs, 0, 1, worker_options);
    w0.run_block(0, 8);
  }
  // Tear the file mid-last-record, as a kill mid-write would.
  const std::string shard = shard_path(out.string(), {0, 1});
  const std::string bytes = read_file(shard);
  write_file(shard, bytes.substr(0, bytes.size() - 17));
  {
    // The respawned worker adopts the valid prefix (7 of 8 records) and,
    // handed the whole block again, appends exactly the one missing
    // record.
    GridRunOptions resume_options = worker_options;
    resume_options.resume = true;
    DealWorker again(points, campaign.configs, 0, 1, resume_options);
    EXPECT_EQ(again.resumed_records(), 7u);
    again.run_block(0, 8);
  }
  EXPECT_EQ(read_file(shard), bytes);
  merge_deal_shards(points, campaign.configs, 1, out.string());
  EXPECT_EQ(read_file(out), reference);
  remove_deal_files(out.string(), 1);
  std::filesystem::remove(out);
  std::filesystem::remove(single_path);
}

TEST(CampaignDeal, MergeRefusesGaps) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const auto out = temp_jsonl("deal_refuse");
  std::filesystem::remove(out);
  GridRunOptions worker_options;
  worker_options.jsonl_path = out.string();
  {
    DealWorker w0(points, campaign.configs, 0, 2, worker_options);
    DealWorker w1(points, campaign.configs, 1, 2, worker_options);
    w0.run_block(0, 3);
    w1.run_block(5, 8);  // cells 3 and 4 never dealt
  }
  try {
    merge_deal_shards(points, campaign.configs, 2, out.string());
    FAIL() << "must refuse an incomplete deal";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("incomplete"), std::string::npos) << what;
    EXPECT_NE(what.find("cell 3"), std::string::npos) << what;
    EXPECT_NE(what.find("--resume"), std::string::npos) << what;
    // Cell 3 lies in worker 0's fixed block of 8 cells over 2 workers.
    EXPECT_NE(what.find("--worker 0/2"), std::string::npos) << what;
  }
  EXPECT_FALSE(std::filesystem::exists(out));
  remove_deal_files(out.string(), 2);
}

TEST(CampaignDeal, FollowingTheMergeHintCompletesADealtCampaign) {
  // Dealt and fixed-deal workers write one file shape, so the remedy the
  // merge names for a gap — --worker k/W --resume over the fixed block
  // holding the first missing cell — finishes a dealt campaign: each
  // resumed worker appends only the cells its file lacks.
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const auto single_path = temp_jsonl("deal_hint_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  (void)run_campaign(campaign, options);

  const auto out = temp_jsonl("deal_hint");
  std::filesystem::remove(out);
  GridRunOptions worker_options;
  worker_options.jsonl_path = out.string();
  {
    DealWorker w0(points, campaign.configs, 0, 2, worker_options);
    DealWorker w1(points, campaign.configs, 1, 2, worker_options);
    w1.run_block(5, 8);
    w0.run_block(0, 3);  // cells 3 and 4 never dealt
  }
  const auto records_in = [&](std::size_t worker) {
    return lines_of(read_file(shard_path(out.string(), {worker, 2}))).size() -
           1;
  };
  GridRunOptions resume = worker_options;
  resume.resume = true;
  for (const ShardSpec& owner : {ShardSpec{0, 2}, ShardSpec{1, 2}}) {
    const std::string hint =
        "--worker " + std::to_string(owner.index) + "/2 --resume";
    try {
      merge_deal_shards(points, campaign.configs, 2, out.string());
      FAIL() << "must refuse an incomplete deal";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      ASSERT_NE(what.find(hint), std::string::npos) << what;
    }
    run_campaign_shard(campaign, owner, resume);
  }
  EXPECT_EQ(records_in(0), 4u);  // cells 0..2 dealt, cell 3 resumed
  EXPECT_EQ(records_in(1), 4u);  // cells 5..7 dealt, cell 4 resumed
  merge_deal_shards(points, campaign.configs, 2, out.string());
  EXPECT_EQ(read_file(out), read_file(single_path));
  remove_deal_files(out.string(), 2);
  std::filesystem::remove(out);
  std::filesystem::remove(single_path);
}

TEST(CampaignDeal, OverlappingBlocksInOneSessionAppendEachCellOnce) {
  // A live worker may be handed a block overlapping one it already
  // finished (a re-deal after a lost ack). The session knows which cells
  // its file holds and appends only the missing ones.
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const auto single_path = temp_jsonl("deal_session_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  (void)run_campaign(campaign, options);
  const std::vector<std::string> reference = lines_of(read_file(single_path));

  const auto out = temp_jsonl("deal_session");
  std::filesystem::remove(out);
  GridRunOptions worker_options;
  worker_options.jsonl_path = out.string();
  {
    DealWorker w0(points, campaign.configs, 0, 1, worker_options);
    w0.run_block(0, 5);
    w0.run_block(3, 8);
    w0.run_block(0, 8);
  }
  // Header, then every cell exactly once, in the order first computed —
  // here cell order, so the records match the artifact's line for line.
  const std::vector<std::string> lines =
      lines_of(read_file(shard_path(out.string(), {0, 1})));
  ASSERT_EQ(lines.size(), reference.size());
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], reference[i]) << "line " << i;
  remove_deal_files(out.string(), 1);
  std::filesystem::remove(out);
  std::filesystem::remove(single_path);
}

TEST(CampaignDeal, IndexLocatesEachCellsFirstRecord) {
  // index_deal_shards is what a resumed coordinator deals around: for
  // every cell, the first worker file (in worker order) holding it and
  // the exact byte span of its record there; a worker that never started
  // counts as an empty file.
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const auto single_path = temp_jsonl("deal_index_single");
  std::filesystem::remove(single_path);
  GridRunOptions options;
  options.jsonl_path = single_path.string();
  (void)run_campaign(campaign, options);
  const std::vector<std::string> reference = lines_of(read_file(single_path));

  const auto out = temp_jsonl("deal_index");
  std::filesystem::remove(out);
  GridRunOptions worker_options;
  worker_options.jsonl_path = out.string();
  {
    DealWorker w2(points, campaign.configs, 2, 3, worker_options);
    DealWorker w0(points, campaign.configs, 0, 3, worker_options);
    w2.run_block(4, 7);
    w0.run_block(2, 5);  // cell 4 lands in files 0 and 2
  }
  ASSERT_FALSE(std::filesystem::exists(shard_path(out.string(), {1, 3})));

  const std::vector<DealRecord> index =
      index_deal_shards(points, campaign.configs, 3, out.string());
  ASSERT_EQ(index.size(), campaign.cells());
  for (std::size_t cell = 0; cell < index.size(); ++cell) {
    const DealRecord& slot = index[cell];
    const bool dealt = cell >= 2 && cell < 7;
    ASSERT_EQ(slot.present, dealt) << "cell " << cell;
    if (!dealt) continue;
    EXPECT_EQ(slot.worker, cell < 5 ? 0u : 2u) << "cell " << cell;
    std::ifstream file(shard_path(out.string(), {slot.worker, 3}),
                       std::ios::binary);
    file.seekg(static_cast<std::streamoff>(slot.offset));
    std::string record(slot.length, '\0');
    file.read(record.data(), static_cast<std::streamsize>(slot.length));
    ASSERT_TRUE(file) << "cell " << cell;
    EXPECT_EQ(record, reference[1 + cell]) << "cell " << cell;
  }
  remove_deal_files(out.string(), 3);
  std::filesystem::remove(out);
  std::filesystem::remove(single_path);
}

}  // namespace
}  // namespace coredis::exp
