/// \file grid.cpp
/// grid_small: a campaign of tiny cells (n = 4, p = 16), where the
/// campaign machinery — queue, cost model, committer, JSONL, dealing and
/// merge — carries a real share of the time and Algorithm 1 is trivial.
/// Pass A runs it with run_campaign at T threads; pass B deals the same
/// grid to W in-process DealWorker sessions and merges their shards. The
/// two artifacts must be byte-identical.

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exp/cost_model.hpp"
#include "exp/storage.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace coredis;

namespace {

constexpr const char* kConfigs =
    "baseline, stf_local, ig_greedy, rc_fault_free, malleable, "
    "bandit(window=50, explore=0.1)";

/// Digest of the pass A artifact at the default seed and full size.
constexpr const char* kPinnedArtifact = "2e7b4324abf39951";

/// DealWorker sessions of pass B.
constexpr std::size_t kWorkers = 2;

/// Cold cells per point timed after each pass.
constexpr std::size_t kColdSlice = 50;

struct Passes {
  std::vector<double> cells_per_s;  ///< pass A, one per pass
  std::vector<double> block_s;      ///< pass B, one per dealt block
  std::vector<std::vector<double>> cold_s;  ///< per point, one per cold cell
};

}  // namespace

Campaign grid_campaign(const Options& options, int runs) {
  return exp::parse_campaign(
      "n = 4\np = 16\nmtbf_years = 1\nruns = " + std::to_string(runs) +
      "\nseed = " + std::to_string(options.seed) +
      "\nfault_law = exponential, weibull\narrival_law = none, poisson\n"
      "configs = " +
      std::string(kConfigs) + "\n");
}

std::vector<double> deal_pass(const std::vector<Scenario>& points,
                              const std::vector<exp::ConfigSpec>& configs,
                              std::size_t workers, std::size_t threads,
                              const std::string& path) {
  std::vector<std::size_t> runs;
  for (const Scenario& point : points)
    runs.push_back(static_cast<std::size_t>(point.runs));
  const exp::CostModel model(points, configs);
  const std::unique_ptr<exp::CellQueue> queue =
      exp::make_cell_queue(exp::StorageKind::Ram, runs);
  const std::vector<exp::DealBlock> blocks =
      exp::plan_deal_blocks(model, *queue, workers);

  exp::GridRunOptions options;
  options.jsonl_path = path;
  options.threads = std::max<std::size_t>(1, threads / workers);
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<double>> seconds(workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> sessions;
  for (std::size_t w = 0; w < workers; ++w)
    sessions.emplace_back([&, w] {
      try {
        exp::DealWorker worker(points, configs, w, workers, options);
        for (std::size_t b = next++; b < blocks.size(); b = next++) {
          Span span("exp.run_block", b);
          worker.run_block(blocks[b].begin, blocks[b].end);
          seconds[w].push_back(span.stop());
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  for (std::thread& session : sessions) session.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  std::vector<double> all;
  for (const std::vector<double>& s : seconds)
    all.insert(all.end(), s.begin(), s.end());
  return all;
}

void grid_small(Context& ctx) {
  namespace fs = std::filesystem;
  const Options& options = ctx.options;
  const Campaign campaign = grid_campaign(options, options.tiny ? 20 : 2500);
  const std::vector<Scenario> points = exp::campaign_points(campaign);
  const std::vector<exp::ConfigSpec>& configs = campaign.configs;
  const std::size_t cells = campaign.cells();
  const bool pinned = options.seed == kDefaultSeed && !options.tiny;
  ctx.ready();
  if (options.setup_only) return;
  Report::info("grid_small: " + std::to_string(cells) + " cells, T = " +
               std::to_string(ctx.threads) +
               " threads, W = " + std::to_string(kWorkers) + " workers");

  const auto passes = [&](double budget) {
    Passes out;
    const Clock::time_point start = Clock::now();
    for (std::size_t pass = 0; pass < 3 || elapsed_s(start) < budget;
         ++pass) {
      exp::GridRunOptions a;
      a.jsonl_path = "pass_a.jsonl";
      a.threads = ctx.threads;
      Span span("exp.run_campaign", pass);
      (void)exp::run_campaign(campaign, a);
      out.cells_per_s.push_back(static_cast<double>(cells) / span.stop());

      const std::vector<double> blocks =
          deal_pass(points, configs, kWorkers, ctx.threads, "pass_b.jsonl");
      out.block_s.insert(out.block_s.end(), blocks.begin(), blocks.end());
      {
        Span merge("exp.merge_deal_shards", pass);
        exp::merge_deal_shards(points, configs, kWorkers, "pass_b.jsonl");
      }

      ctx.report.attempt(2 * cells);
      const std::string artifact = read_file("pass_a.jsonl");
      if (read_file("pass_b.jsonl") != artifact)
        ctx.report.fail("pass B's merged artifact differs from pass A's");
      Digest digest;
      digest.add(artifact);
      if (pass == 0) Report::info("pass A artifact digest " + digest.hex());
      if (pinned && digest.hex() != kPinnedArtifact)
        ctx.report.fail("pass A artifact digest " + digest.hex() +
                        " differs from the pinned " + kPinnedArtifact);
      for (const fs::directory_entry& entry : fs::directory_iterator("."))
        if (entry.path().extension() == ".jsonl") fs::remove(entry.path());

      // A slice of cold cells after every pass, so their median spans
      // the whole run rather than one moment of it.
      out.cold_s.resize(points.size());
      for (std::size_t p = 0; p < points.size(); ++p)
        for (std::size_t rep = pass * kColdSlice;
             rep < (pass + 1) * kColdSlice; ++rep) {
          const std::size_t r = rep % static_cast<std::size_t>(points[p].runs);
          Span cold("exp.run_cell", r);
          const CellResult cell = exp::run_cell(points[p], configs, r);
          out.cold_s[p].push_back(cold.stop());
          ctx.report.attempt();
          std::string why;
          if (!cell_ok(cell, configs.size(), why))
            ctx.report.fail("cold cell " + std::to_string(r) + ": " + why);
        }
    }
    return out;
  };

  if (!options.trace) {
    const Passes run = passes(options.seconds);
    double cold_s = 0.0;
    for (const std::vector<double>& point : run.cold_s) cold_s += median(point);
    cold_s /= static_cast<double>(run.cold_s.size());
    std::vector<double> block_ms;
    for (const double s : run.block_s) block_ms.push_back(1e3 * s);
    const auto [tail_ms, percentile] = tail(block_ms);
    Report::info("tail_ms is p" + std::to_string(percentile) + " of " +
                 std::to_string(block_ms.size()) + " dealt blocks");
    ctx.report.metric("cell_s", cold_s, "s");
    ctx.report.metric("cells_per_s", median(run.cells_per_s), "1/s");
    ctx.report.metric("p50_ms", median(block_ms), "ms");
    ctx.report.metric("tail_ms", tail_ms, "ms");
    return;
  }

  const Passes reference = passes(options.seconds / 2);
  Tracer::instance().start(options.workload);
  const Passes traced = passes(options.seconds / 2);
  ctx.report.metric("harness.trace_overhead",
                    median(reference.cells_per_s) / median(traced.cells_per_s),
                    "ratio");
  core_probe(ctx, points.front());
  report_cfg_loop(ctx, cfg_loop(ctx, points, options.tiny ? 2 : 25,
                                options.tiny ? 8 : 100));
  exp_probe(ctx, campaign, kWorkers);
  small_serve_probe(ctx);
}

}  // namespace perfbench
