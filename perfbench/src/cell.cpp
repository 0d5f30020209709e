/// \file cell.cpp
/// cell_n1000: cold paper cells at n = 1000, p = 10n, run exactly as a
/// campaign runs them — run_cell on one thread, a fresh workspace per
/// repetition — so every cell pays the cold coefficient fill.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

using namespace coredis;

namespace {

/// cell_digest of repetitions 0, 1, ... at the default seed and full size.
constexpr const char* kPinnedCells[] = {
    "9ad83fdfa2233074", "bfa83627fb841d31", "3abaefdf46096592",
    "139eee711e0c98ed", "bf3ac89ee6f45815", "9cd1e53cedc631f9",
    "b14883ae9891ac73", "40b24c7bd26fd225", "c347d8fcde488724",
    "150d2a1f28c9200d", "d55a262a60b0cfbf", "a9960eac3ee28236",
    "4747aa7290b6bc85", "219eec32b895aade", "b84373b1d895a9b0",
};

Scenario cell_scenario(const Options& options) {
  Scenario scenario;
  scenario.n = options.tiny ? 20 : 1000;
  scenario.p = 10 * scenario.n;
  scenario.fault_law = exp::FaultLaw::Exponential;
  scenario.mtbf_years = 100.0;
  scenario.period_rule = checkpoint::PeriodRule::Young;
  scenario.seed = options.seed;
  return scenario;
}

}  // namespace

std::string cell_digest(const CellResult& cell) {
  Digest digest;
  digest.add(cell.baseline);
  for (const core::RunResult& r : cell.results) {
    digest.add(r.makespan);
    digest.add(static_cast<long long>(r.faults_drawn));
    digest.add(static_cast<long long>(r.faults_effective));
    digest.add(static_cast<long long>(r.faults_discarded));
    digest.add(static_cast<long long>(r.redistributions));
    digest.add(r.checkpoints_taken);
  }
  return digest.hex();
}

bool cell_ok(const CellResult& cell, std::size_t configs, std::string& why) {
  if (cell.results.size() != configs) {
    why = "cell has " + std::to_string(cell.results.size()) +
          " results for " + std::to_string(configs) + " configurations";
    return false;
  }
  if (!(std::isfinite(cell.baseline) && cell.baseline > 0.0)) {
    why = "baseline makespan is not a positive number";
    return false;
  }
  for (const core::RunResult& r : cell.results)
    if (!(std::isfinite(r.makespan) && r.makespan > 0.0)) {
      why = "a makespan is not a positive number";
      return false;
    }
  if (cell.results.front().makespan != cell.baseline) {
    why = "the baseline configuration differs from the cell's normalizer";
    return false;
  }
  return true;
}

std::string scenario_line(const Scenario& s) {
  std::string line = "n = " + std::to_string(s.n) +
                     "; p = " + std::to_string(s.p) + "; mtbf_years = ";
  char mtbf[32];
  std::snprintf(mtbf, sizeof mtbf, "%.17g", s.mtbf_years);
  line += mtbf;
  line += s.fault_law == exp::FaultLaw::Weibull ? "; fault_law = weibull"
                                                 : "; fault_law = exponential";
  line += s.arrival_law == extensions::ArrivalLaw::Poisson
              ? "; arrival_law = poisson"
              : "; arrival_law = none";
  line += s.period_rule == checkpoint::PeriodRule::Daly ? "; period_rule = daly"
                                                         : "; period_rule = young";
  line += "; seed = " + std::to_string(s.seed);
  return line;
}

void cell_n1000(Context& ctx) {
  const Options& options = ctx.options;
  const Scenario scenario = cell_scenario(options);
  const std::vector<exp::ConfigSpec> configs = exp::paper_curves();
  const bool pinned = options.seed == kDefaultSeed && !options.tiny;
  ctx.ready();
  if (options.setup_only) return;

  // The measured loop. In a traced run it is the untraced reference,
  // over half the time, that the traced replay below is compared with.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget));
  std::vector<double> latency;
  std::vector<std::string> digests;
  for (std::uint64_t rep = 0; rep < 3 || Clock::now() < deadline; ++rep) {
    Span span("exp.run_cell", rep);
    const CellResult cell = exp::run_cell(scenario, configs, rep);
    latency.push_back(span.stop());
    ctx.report.attempt();
    std::string why;
    if (!cell_ok(cell, configs.size(), why)) {
      ctx.report.fail("cell " + std::to_string(rep) + ": " + why);
      continue;
    }
    digests.push_back(cell_digest(cell));
    if (pinned && rep < std::size(kPinnedCells) &&
        digests.back() != kPinnedCells[rep])
      ctx.report.fail("cell " + std::to_string(rep) + " digest " +
                      digests.back() + " differs from the pinned " +
                      kPinnedCells[rep]);
    if (rep < std::size(kPinnedCells))
      Report::info("cell " + std::to_string(rep) + " digest " + digests.back());
  }

  if (!options.trace) {
    double total = 0.0;
    for (const double s : latency) total += s;
    const auto [tail_s, percentile] = tail(latency);
    Report::info("tail_ms is p" + std::to_string(percentile) + " of " +
                 std::to_string(latency.size()) + " cells");
    ctx.report.metric("cell_s", median(latency), "s");
    ctx.report.metric("cells_per_s",
                      static_cast<double>(latency.size()) / total, "1/s");
    ctx.report.metric("p50_ms", 1e3 * median(latency), "ms");
    ctx.report.metric("tail_ms", 1e3 * tail_s, "ms");
    return;
  }

  // Traced: replay the same repetitions configuration by configuration;
  // the cells must come out bit-identical to run_cell's.
  Tracer::instance().start(options.workload);
  const CfgLoop loop = cfg_loop(ctx, {scenario}, latency.size(), 1);
  for (std::size_t i = 0; i < loop.digests.size() && i < digests.size(); ++i)
    if (loop.digests[i] != digests[i])
      ctx.report.fail("cell " + std::to_string(i) +
                      " evaluated per configuration differs from run_cell");
  report_cfg_loop(ctx, loop);
  ctx.report.metric("harness.trace_overhead",
                    median(loop.cell_s) / median(latency), "ratio");

  core_probe(ctx, scenario);
  small_exp_probe(ctx);
  small_serve_probe(ctx);
}

}  // namespace perfbench
