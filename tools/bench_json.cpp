/// \file bench_json.cpp
/// Tracked performance baseline: run a pinned scenario grid and emit a
/// machine-readable JSON report (wall seconds per run, simulation events
/// per second, faults per run), so every PR has a perf trajectory to
/// compare against. The committed baseline lives in BENCH_PR2.json at the
/// repository root; CI re-runs the small grid (`--smoke`) and fails when a
/// scenario regresses past `--tolerance` times the baseline's
/// seconds_per_run (`--check`).
///
/// The grid covers both failure policies under both fault laws at the
/// paper's n = 100 scale and at the beyond-paper n = 1000 scale
/// (p = 10 n, per-processor MTBF 100 years, Young periods — the fig07
/// regime). Runs are single-threaded and re-use one Engine per scenario,
/// which also exercises the cross-run persistence of the coefficient
/// table (DESIGN.md section 6).
///
/// The full (non-smoke) grid additionally times whole-campaign
/// scenarios: the pinned bench campaign single-process at one thread
/// (`grid_w1`) and at 8 threads (`grid_ram8`, so commits arrive out of
/// order and the committer's spill engages). Every scenario runs in a
/// forked child on POSIX so the report can record a true per-scenario
/// peak RSS next to its timings.
///
/// The grid_hetero_* scenarios (PR 10) time the heterogeneous campaign
/// — n 100 vs 1000 under both fault laws, a ~2-orders-of-magnitude
/// cell-cost spread — single-process (`grid_hetero_w1`) and through the
/// cost-guided dealer's 4-worker critical path (`grid_hetero_w4`);
/// `--check-deal-gap R` gates the parallel efficiency
/// grid_hetero_w1 / grid_hetero_w4 >= R within one run. Reports carry
/// two machine probes, `calibration_seconds` (compute) and
/// `calibration_mem_seconds` (memory bandwidth); `--check` normalizes by
/// their geometric blend.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#define COREDIS_BENCH_FORK 1
#endif

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "exp/campaign.hpp"
#include "exp/cost_model.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "fault/weibull.hpp"
#include "speedup/synthetic.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace coredis;

constexpr double kMtbfYears = 100.0;
constexpr std::uint64_t kSeed = 20260726;

struct GridPoint {
  std::string name;
  int n;
  int p;                ///< platform size (p = 10n for the paper regime)
  core::FailurePolicy failure_policy;
  bool weibull;
  /// Repetition multiplier over --runs: sub-millisecond scenarios need
  /// more attempts for a stable min-over-runs (the gate's estimator).
  int runs_scale = 1;
  /// Online-workload point: run_online over Poisson releases at this
  /// offered load instead of the engine (0 = engine scenario).
  double online_load = 0.0;
  /// Whole-campaign point: run the pinned bench campaign through this
  /// many dealt workers instead of the engine (0 = not a grid scenario;
  /// 1 = single process).
  int grid_workers = 0;
  /// Grid scenario only: threads per worker (1 mirrors a real worker on
  /// this runner; 8 creates the commit reordering the spill feeds on).
  int grid_threads = 1;
  /// Grid scenario only: campaign text override (null = kGridCampaign).
  const char* grid_campaign = nullptr;
};

struct Measurement {
  GridPoint point;
  int runs = 0;
  double seconds_per_run = 0.0;      ///< mean over the timed runs
  double seconds_per_run_min = 0.0;  ///< fastest run; what --check gates on
  double events_per_sec = 0.0;
  double faults_per_run = 0.0;
  double makespan_mean = 0.0;
  double checkpoints_per_run = 0.0;
  long peak_rss_kb = 0;  ///< per-scenario when fork-isolated, else harness
};

/// This process's high-water resident set, in KB (0 where unsupported).
long self_peak_rss_kb() {
#if defined(COREDIS_BENCH_FORK)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long>(usage.ru_maxrss / 1024);  // bytes there
#else
  return static_cast<long>(usage.ru_maxrss);  // KB on Linux
#endif
#else
  return 0;
#endif
}

/// The heterogeneous campaign behind the grid_hetero_* scenarios: the
/// n x p cross spans a ~2-orders-of-magnitude cell-cost spread (an
/// (n=1000, p=10000) cell costs ~100x an (n=100, p=1000) one) under
/// both fault laws and both whole-allocation heuristics. Point order
/// clusters the two most expensive points — (n=1000, p=10000) x both
/// laws — into the *last* quarter of the cells, so an equal-count
/// contiguous split would leave the most expensive cells on one worker:
/// exactly the workload shape cost-guided dealing is for.
constexpr const char* kHeteroCampaign =
    "n = 100, 1000\n"
    "p = 2000, 10000\n"
    "runs = 4\n"
    "seed = 20260726\n"
    "mtbf_years = 100\n"
    "fault_law = exponential, weibull\n"
    "configs = baseline, stf_local, ig_local\n";

std::vector<GridPoint> pinned_grid(bool smoke) {
  std::vector<GridPoint> grid;
  for (const int n : {100, 1000}) {
    if (smoke && n > 100) continue;  // CI runs the small half only
    for (const bool weibull : {false, true}) {
      for (const auto policy : {core::FailurePolicy::ShortestTasksFirst,
                                core::FailurePolicy::IteratedGreedy}) {
        std::string name = "n";
        name += std::to_string(n);
        name += policy == core::FailurePolicy::ShortestTasksFirst ? "_stf"
                                                                  : "_ig";
        name += weibull ? "_weib" : "_exp";
        // The n = 100 runs finish in well under a millisecond: multiply
        // the repetitions so the min-over-runs estimator has enough
        // attempts to shed scheduler noise.
        grid.push_back({std::move(name), n, 10 * n, policy, weibull,
                        n <= 100 ? 4 : 1, 0.0});
      }
    }
  }
  // Online-workload cells: the malleable scheduler over Poisson releases
  // (DESIGN.md section 8), at a moderate and a saturating offered load.
  for (const double load : {1.0, 4.0}) {
    std::string name = "n100_online_load";
    name += load == 1.0 ? "1" : "4";
    grid.push_back({std::move(name), 100, 1000,
                    core::FailurePolicy::IteratedGreedy, false, 4, load});
  }
  if (!smoke) {
    // Beyond-paper scale. p = 2.4n (not the paper's 10n): the coefficient
    // table is dense per task up to the deepest probed allocation, and a
    // leaner pool keeps the n = 5000 grid point inside a few hundred MB
    // (DESIGN.md section 6.2) while still exercising redistribution.
    grid.push_back({"n5000_stf_exp", 5000, 12000,
                    core::FailurePolicy::ShortestTasksFirst, false, 1, 0.0});
    grid.push_back({"n5000_ig_exp", 5000, 12000,
                    core::FailurePolicy::IteratedGreedy, false, 1, 0.0});
    // Whole-campaign scenarios (kGridCampaign): grid_w1 single-threaded
    // like a real local worker here, grid_ram8 at 8 threads so commits
    // arrive out of order and the spill engages. One grid is one "run";
    // the n/p columns echo the campaign's workload.
    GridPoint grid_point{"grid_w1", 100, 1000,
                         core::FailurePolicy::IteratedGreedy, false, 1, 0.0};
    grid_point.grid_workers = 1;
    grid.push_back(grid_point);
    grid_point.name = "grid_ram8";
    grid_point.grid_threads = 8;
    grid.push_back(grid_point);
    // Heterogeneity scenarios (kHeteroCampaign): a grid whose points
    // differ by ~2 orders of magnitude in cell cost, the regime the
    // cost-guided dealer exists for. grid_hetero_w1 is the
    // single-process floor and grid_hetero_w4 estimates the dealer's
    // 4-worker critical path — their ratio is the parallel efficiency
    // gated by --check-deal-gap.
    GridPoint hetero{"grid_hetero_w1", 1000, 10000,
                     core::FailurePolicy::IteratedGreedy, true, 1, 0.0};
    hetero.grid_campaign = kHeteroCampaign;
    hetero.grid_workers = 1;
    grid.push_back(hetero);
    hetero.name = "grid_hetero_w4";
    hetero.grid_workers = 4;
    grid.push_back(hetero);
  }
  return grid;
}

/// Online-workload measurement: run_online over a shared warm workspace
/// (one engine per scenario, exactly like the campaign runner's cell
/// workspace), Poisson releases redrawn per repetition.
Measurement run_online_point(const GridPoint& point, int runs) {
  Measurement m;
  m.point = point;
  m.runs = runs;

  const int p = point.p;
  Rng pack_rng(kSeed);
  const core::Pack pack = core::Pack::uniform_random(
      point.n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(kMtbfYears), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  core::Engine engine(pack, resilience, p, {});
  extensions::ArrivalSpec spec;
  spec.law = extensions::ArrivalLaw::Poisson;
  spec.load_factor = point.online_load;
  const double mtbf = units::years(kMtbfYears);

  const auto one_run = [&](std::uint64_t seed) {
    Rng arrivals(seed ^ 0xA881ULL);
    const std::vector<double> releases = extensions::make_release_times(
        spec, pack, resilience, p, arrivals, engine.model(),
        engine.evaluator());
    fault::ExponentialGenerator gen(p, 1.0 / mtbf, Rng(seed));
    return extensions::run_online(pack, resilience, p, releases, gen,
                                  engine.model(), engine.evaluator());
  };

  (void)one_run(kSeed ^ 0x5EEDULL);  // untimed warm-up (coefficient table)
  long long events = 0, faults = 0;
  double makespan_sum = 0.0, total_seconds = 0.0;
  double min_seconds = std::numeric_limits<double>::infinity();
  for (int run = 0; run < runs; ++run) {
    const auto start = std::chrono::steady_clock::now();
    const extensions::OnlineResult result =
        one_run(kSeed + static_cast<std::uint64_t>(run));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    total_seconds += elapsed.count();
    min_seconds = std::min(min_seconds, elapsed.count());
    // Events: admission/replan points (arrivals + completions) + faults.
    events += 2 * point.n + result.faults_effective;
    faults += result.faults_effective;
    makespan_sum += result.makespan;
  }
  m.seconds_per_run = total_seconds / runs;
  m.seconds_per_run_min = min_seconds;
  m.events_per_sec =
      total_seconds > 0.0 ? static_cast<double>(events) / total_seconds : 0.0;
  m.faults_per_run = static_cast<double>(faults) / runs;
  m.makespan_mean = makespan_sum / runs;
  m.checkpoints_per_run = 0.0;  // run_online does not count checkpoints
  return m;
}

/// The pinned campaign behind the grid_w1/grid_ram8 scenarios: one grid
/// point with enough repetitions that a grid is seconds, not
/// milliseconds, of work.
constexpr const char* kGridCampaign =
    "n = 100\n"
    "p = 1000\n"
    "runs = 600\n"
    "seed = 20260726\n"
    "mtbf_years = 10\n"
    "fault_law = exponential\n"
    "configs = baseline, stf_local, ig_local\n";

/// Whole-campaign scenario: time one pass of the campaign.
/// grid_workers == 1 times run_campaign directly; W > 1 estimates the
/// dealer's W-worker wall-clock (see below).
Measurement run_grid_point(const GridPoint& point) {
  namespace fs = std::filesystem;
  Measurement m;
  m.point = point;
  m.runs = 1;

  const exp::Campaign campaign = exp::parse_campaign(
      point.grid_campaign != nullptr ? point.grid_campaign : kGridCampaign);
  const std::string base =
      (fs::temp_directory_path() / ("coredis_bench_" + point.name + ".jsonl"))
          .string();
  const std::size_t workers = static_cast<std::size_t>(point.grid_workers);
  fs::remove(base);
  fs::remove(exp::shard_path(base, {0, 1}));

  exp::GridRunOptions options;
  options.jsonl_path = base;
  options.threads = static_cast<std::size_t>(point.grid_threads);

  const auto seconds_of = [](const auto& body) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
  };

  double wall = 0.0;
  if (workers <= 1) {
    std::vector<exp::PointResult> points;
    wall = seconds_of([&] { points = exp::run_campaign(campaign, options); });
    m.makespan_mean = points.at(0).baseline_makespan.mean();
  } else {
    // The dealer's critical path on a one-core runner: plan the
    // cost-balanced blocks, execute each once (timed, through a real
    // DealWorker so the merge is the production path), then replay the
    // deal — blocks in plan order, each to the earliest-free of W
    // virtual workers at its measured cost. The estimate is the replay
    // makespan plus the (timed) merge.
    const std::vector<exp::Scenario> grid_points =
        exp::campaign_points(campaign);
    std::vector<std::size_t> runs_per_point;
    for (const exp::Scenario& grid_point : grid_points)
      runs_per_point.push_back(static_cast<std::size_t>(grid_point.runs));
    const exp::CellQueue queue(runs_per_point);
    const exp::CostModel model(grid_points, campaign.configs);
    const std::vector<exp::DealBlock> blocks =
        exp::plan_deal_blocks(model, queue, workers);
    std::vector<double> block_seconds;
    {
      exp::DealWorker worker(grid_points, campaign.configs, 0, 1, options);
      for (const exp::DealBlock& block : blocks)
        block_seconds.push_back(seconds_of(
            [&] { worker.run_block(block.begin, block.end); }));
    }
    std::vector<double> busy(workers, 0.0);
    for (std::size_t i = 0; i < blocks.size(); ++i)
      *std::min_element(busy.begin(), busy.end()) += block_seconds[i];
    wall = *std::max_element(busy.begin(), busy.end());
    wall += seconds_of([&] {
      exp::merge_deal_shards(grid_points, campaign.configs, 1, base);
    });
    m.makespan_mean =
        exp::summarize_jsonl(campaign, base).at(0).baseline_makespan.mean();
    fs::remove(exp::shard_path(base, {0, 1}));
  }
  fs::remove(base);

  m.seconds_per_run = wall;
  m.seconds_per_run_min = wall;
  m.events_per_sec =
      wall > 0.0 ? static_cast<double>(campaign.cells()) / wall : 0.0;
  return m;
}

Measurement run_point(const GridPoint& point, int runs) {
  if (point.grid_workers > 0) return run_grid_point(point);
  if (point.online_load > 0.0) return run_online_point(point, runs);
  Measurement m;
  m.point = point;
  m.runs = runs;

  const int p = point.p;
  Rng pack_rng(kSeed);
  const core::Pack pack = core::Pack::uniform_random(
      point.n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(kMtbfYears), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  core::EngineConfig config;
  config.end_policy = core::EndPolicy::Local;
  config.failure_policy = point.failure_policy;
  core::Engine engine(pack, resilience, p, config);

  const double mtbf = units::years(kMtbfYears);
  long long events = 0, faults = 0, checkpoints = 0;
  double makespan_sum = 0.0;
  double total_seconds = 0.0;
  double min_seconds = std::numeric_limits<double>::infinity();
  {
    // Untimed warm-up: fills the coefficient table and the allocator pools
    // so the timed runs measure steady state, not first-touch cost. Uses
    // the scenario's own fault law so the warmed state matches.
    if (point.weibull) {
      fault::WeibullGenerator gen(p, mtbf, 0.7, kSeed ^ 0x5EEDULL);
      (void)engine.run(gen);
    } else {
      fault::ExponentialGenerator gen(p, 1.0 / mtbf, Rng(kSeed ^ 0x5EEDULL));
      (void)engine.run(gen);
    }
  }
  for (int run = 0; run < runs; ++run) {
    const auto start = std::chrono::steady_clock::now();
    core::RunResult result;
    if (point.weibull) {
      fault::WeibullGenerator gen(p, mtbf, 0.7,
                                  kSeed + static_cast<std::uint64_t>(run));
      result = engine.run(gen);
    } else {
      fault::ExponentialGenerator gen(
          p, 1.0 / mtbf, Rng(kSeed + static_cast<std::uint64_t>(run)));
      result = engine.run(gen);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    total_seconds += elapsed.count();
    min_seconds = std::min(min_seconds, elapsed.count());
    events += result.faults_drawn + point.n;  // faults + completions
    faults += result.faults_effective;
    checkpoints += result.checkpoints_taken;
    makespan_sum += result.makespan;
  }

  m.seconds_per_run = total_seconds / runs;
  m.seconds_per_run_min = min_seconds;
  m.events_per_sec =
      total_seconds > 0.0 ? static_cast<double>(events) / total_seconds : 0.0;
  m.faults_per_run = static_cast<double>(faults) / runs;
  m.makespan_mean = makespan_sum / runs;
  m.checkpoints_per_run = static_cast<double>(checkpoints) / runs;
  return m;
}

#if defined(COREDIS_BENCH_FORK)
/// The numeric fields of a Measurement, piped back from the forked
/// child; the parent re-attaches the GridPoint (which owns a string and
/// cannot cross the pipe as raw bytes).
struct WireMeasurement {
  int runs;
  double seconds_per_run;
  double seconds_per_run_min;
  double events_per_sec;
  double faults_per_run;
  double makespan_mean;
  double checkpoints_per_run;
  long peak_rss_kb;
};
#endif

/// Run one scenario in a forked child so its getrusage high-water mark is
/// (close to) the scenario's own peak RSS, not the running maximum over
/// every scenario before it. Falls back to an in-process run — where
/// peak_rss_kb is that cumulative harness maximum — when fork or the
/// pipe is unavailable, or the child fails.
Measurement measure_point(const GridPoint& point, int runs) {
#if defined(COREDIS_BENCH_FORK)
  int fd[2];
  if (pipe(fd) == 0) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
      close(fd[0]);
      int status = 1;
      WireMeasurement wire{};
      try {
        const Measurement m = run_point(point, runs);
        wire = {m.runs,           m.seconds_per_run, m.seconds_per_run_min,
                m.events_per_sec, m.faults_per_run,  m.makespan_mean,
                m.checkpoints_per_run, self_peak_rss_kb()};
        status = 0;
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s: %s\n", point.name.c_str(), error.what());
      }
      const char* bytes = reinterpret_cast<const char*>(&wire);
      std::size_t sent = 0;
      while (status == 0 && sent < sizeof wire) {
        const ssize_t n = write(fd[1], bytes + sent, sizeof wire - sent);
        if (n <= 0) status = 1;
        else sent += static_cast<std::size_t>(n);
      }
      close(fd[1]);
      std::_Exit(status);
    }
    if (pid > 0) {
      close(fd[1]);
      WireMeasurement wire{};
      char* bytes = reinterpret_cast<char*>(&wire);
      std::size_t got = 0;
      while (got < sizeof wire) {
        const ssize_t n = read(fd[0], bytes + got, sizeof wire - got);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      close(fd[0]);
      int status = 0;
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (got == sizeof wire && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        Measurement m;
        m.point = point;
        m.runs = wire.runs;
        m.seconds_per_run = wire.seconds_per_run;
        m.seconds_per_run_min = wire.seconds_per_run_min;
        m.events_per_sec = wire.events_per_sec;
        m.faults_per_run = wire.faults_per_run;
        m.makespan_mean = wire.makespan_mean;
        m.checkpoints_per_run = wire.checkpoints_per_run;
        m.peak_rss_kb = wire.peak_rss_kb;
        return m;
      }
      std::fprintf(stderr, "%s: isolated run failed; re-running in-process\n",
                   point.name.c_str());
    } else {
      close(fd[0]);
      close(fd[1]);
    }
  }
#endif
  Measurement m = run_point(point, runs);
  m.peak_rss_kb = self_peak_rss_kb();
  return m;
}

std::string to_json(const std::vector<Measurement>& measurements,
                    double calibration, double mem_calibration) {
  std::ostringstream out;
  out.precision(17);
  out << "{\n  \"schema\": \"coredis-bench-v1\",\n  \"calibration_seconds\": "
      << calibration << ",\n  \"calibration_mem_seconds\": " << mem_calibration
      << ",\n  \"harness_peak_rss_kb\": " << self_peak_rss_kb()
      << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    out << "    {\"name\": \"" << m.point.name << "\", \"n\": " << m.point.n
        << ", \"p\": " << m.point.p << ", \"runs\": " << m.runs
        << ",\n     \"seconds_per_run\": " << m.seconds_per_run
        << ", \"seconds_per_run_min\": " << m.seconds_per_run_min
        << ", \"events_per_sec\": " << m.events_per_sec
        << ",\n     \"faults_per_run\": " << m.faults_per_run
        << ", \"checkpoints_per_run\": " << m.checkpoints_per_run
        << ", \"makespan_mean\": " << m.makespan_mean
        << ", \"peak_rss_kb\": " << m.peak_rss_kb << "}"
        << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    cli.describe("runs", "repetitions per scenario (default 5, smoke 2)")
        .describe("smoke",
                  "run only the n = 100 half of the grid (skips the n = 5000 "
                  "and whole-campaign grid_* scenarios)")
        .describe("scenarios",
                  "comma-separated scenario names to run (default: all); "
                  "unknown names are an error so CI gates cannot silently "
                  "skip a cell")
        .describe("out", "write the JSON report to this path")
        .describe("check",
                  "baseline JSON to compare against; exits 1 on regression")
        .describe("tolerance",
                  "seconds_per_run ratio treated as a regression (default 2)")
        .describe("check-makespan",
                  "with --check: fail when a scenario's makespan_mean "
                  "differs from the baseline's at matching run counts "
                  "(catches silent semantic drift)")
        .describe("check-deal-gap",
                  "fail unless grid_hetero_w1 / grid_hetero_w4 in THIS run "
                  "is at least this ratio (the dealer's parallel "
                  "efficiency on the heterogeneous campaign; both "
                  "scenarios must have been measured)");
    if (cli.wants_help()) {
      std::cout << cli.usage("Pinned-grid performance baseline (JSON)");
      return 0;
    }
    cli.reject_unknown();

    const bool smoke = cli.get_bool("smoke");
    const int runs = static_cast<int>(cli.get_int("runs", smoke ? 2 : 5));
    const double tolerance = cli.get_double("tolerance", 2.0);
    const bool check_makespan = cli.get_bool("check-makespan");

    std::vector<GridPoint> grid = pinned_grid(smoke);
    const std::string only = cli.get_string("scenarios", "");
    if (!only.empty()) {
      std::vector<GridPoint> selected;
      std::stringstream names(only);
      for (std::string name; std::getline(names, name, ',');) {
        if (name.empty()) continue;
        const auto it = std::find_if(
            grid.begin(), grid.end(),
            [&](const GridPoint& g) { return g.name == name; });
        if (it == grid.end())
          throw std::runtime_error("unknown scenario: " + name);
        selected.push_back(*it);
      }
      if (selected.empty())
        throw std::runtime_error("--scenarios selected nothing");
      grid = std::move(selected);
    }

    const double calibration = bench::calibration_seconds();
    const double mem_calibration = bench::calibration_mem_seconds();
    std::fprintf(stderr, "calibration: %.4f s compute, %.4f s membw\n",
                 calibration, mem_calibration);
    std::vector<Measurement> measurements;
    for (const GridPoint& point : grid) {
      measurements.push_back(measure_point(point, runs * point.runs_scale));
      const Measurement& m = measurements.back();
      std::fprintf(stderr,
                   "%-16s %8.4f s/run %12.0f events/s %7.1f faults "
                   "%8ld KB peak\n",
                   m.point.name.c_str(), m.seconds_per_run, m.events_per_sec,
                   m.faults_per_run, m.peak_rss_kb);
    }
    // The dealer's scaling at a glance: one worker over four on the
    // heterogeneous campaign (0 unless both ran; a grid is one run).
    double hetero_w1 = 0.0, hetero_w4 = 0.0;
    for (const Measurement& m : measurements) {
      if (m.point.name == "grid_hetero_w1") hetero_w1 = m.seconds_per_run_min;
      if (m.point.name == "grid_hetero_w4") hetero_w4 = m.seconds_per_run_min;
    }
    const double gap =
        hetero_w1 > 0.0 && hetero_w4 > 0.0 ? hetero_w1 / hetero_w4 : 0.0;
    if (gap > 0.0)
      std::fprintf(stderr, "hetero dealing: 4 workers %.2fx vs 1\n", gap);

    const std::string json = to_json(measurements, calibration,
                                     mem_calibration);
    const std::string out_path = cli.get_string("out", "");
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) throw std::runtime_error("cannot write " + out_path);
      out << json;
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    } else {
      std::cout << json;
    }

    // Gate the parallel efficiency *after* the report is written, so a
    // failing run still uploads its JSON for inspection. The ratio is
    // within-run — both sides ran on this machine seconds apart — so no
    // calibration enters it.
    const double min_gap = cli.get_double("check-deal-gap", 0.0);
    if (min_gap > 0.0) {
      if (gap <= 0.0)
        throw std::runtime_error(
            "--check-deal-gap needs both grid_hetero_w1 and grid_hetero_w4 "
            "in this run");
      if (gap < min_gap) {
        std::fprintf(stderr,
                     "deal gap %.2fx below the required %.2fx  REGRESSION\n",
                     gap, min_gap);
        return 1;
      }
      std::fprintf(stderr, "deal gap %.2fx (>= %.2fx required)\n", gap,
                   min_gap);
    }

    const std::string baseline_path = cli.get_string("check", "");
    if (baseline_path.empty()) return 0;

    const std::string baseline = bench::slurp_file(baseline_path);

    // Normalize by the two machines' probes — compute and memory
    // bandwidth, blended geometrically (bench_common.hpp): the
    // comparison is then "slowdown relative to what this machine should
    // deliver", so the tolerance is a regression margin, not a
    // hardware-speed ratio. Baselines without one or both probes
    // degrade to the compute ratio or raw seconds.
    const double base_cal = bench::baseline_calibration(baseline, calibration);
    const double base_mem = bench::baseline_mem_calibration(baseline, 0.0);
    const double speed_ratio = bench::blended_speed_ratio(
        calibration, base_cal, mem_calibration, base_mem);
    std::fprintf(stderr, "machine speed vs baseline: %.2fx\n", speed_ratio);

    bool regressed = false;
    bool drifted = false;
    for (const Measurement& m : measurements) {
      // Gate on the fastest run of each side: the minimum is the classic
      // noise-robust benchmark estimator (scheduler hiccups only ever add
      // time), so a small grid point does not flake on one slow run.
      double base =
          bench::baseline_value(baseline, m.point.name, "seconds_per_run_min");
      double mine = m.seconds_per_run_min;
      if (base <= 0.0) {  // pre-min baseline: fall back to the mean
        base = bench::baseline_value(baseline, m.point.name, "seconds_per_run");
        mine = m.seconds_per_run;
      }
      if (base <= 0.0) {
        std::fprintf(stderr, "%-16s not in baseline; skipped\n",
                     m.point.name.c_str());
        continue;
      }
      const double base_runs = bench::baseline_value(baseline, m.point.name, "runs");
      if (base_runs > 0.0 && static_cast<int>(base_runs) != m.runs) {
        std::fprintf(stderr,
                     "%-16s warning: %d runs vs %d in baseline — run seeds "
                     "differ, comparison is between different workloads\n",
                     m.point.name.c_str(), m.runs,
                     static_cast<int>(base_runs));
      } else if (check_makespan) {
        // Same workload definition: the simulated results must be the
        // exact bits the baseline recorded (%.17g round-trips doubles).
        const double base_makespan =
            bench::baseline_value(baseline, m.point.name, "makespan_mean");
        if (base_makespan > 0.0 && base_makespan != m.makespan_mean) {
          drifted = true;
          std::fprintf(stderr,
                       "%-16s makespan_mean drift: %.17g vs baseline %.17g\n",
                       m.point.name.c_str(), m.makespan_mean, base_makespan);
        }
      }
      const double ratio = mine / (base * speed_ratio);
      const bool bad = ratio > tolerance;
      regressed = regressed || bad;
      std::fprintf(stderr, "%-16s %.2fx vs baseline (normalized)%s\n",
                   m.point.name.c_str(), ratio, bad ? "  REGRESSION" : "");
    }
    if (drifted)
      std::fprintf(stderr, "makespan drift detected: simulated results "
                           "changed relative to the baseline\n");
    return regressed || drifted ? 1 : 0;
  } catch (const std::exception& error) {
    std::cerr << "bench_json: " << error.what() << "\n";
    return 2;
  }
}
