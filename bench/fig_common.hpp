#pragma once

/// \file fig_common.hpp
/// Shared plumbing of the figure-reproduction binaries: uniform CLI
/// (--runs/--seed/--full/--csv), sweep execution, and output formatting.
///
/// Every binary prints, in order: a header describing the experiment, the
/// normalized-makespan table in the orientation of the paper's plot, the
/// qualitative shape checks, and (with --csv) writes the raw series.
/// Default sweeps are trimmed for laptop runtimes; --full restores the
/// paper's grids and --runs 50 its repetition count.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_file.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace coredis::bench {

struct FigureOptions {
  int runs = 8;
  std::uint64_t seed = 42;
  bool full = false;
  std::string csv;
  std::string scenario_file;  ///< optional scenario overrides (see apply())
  std::string jsonl;          ///< stream per-cell results here (campaign format)
  bool resume = false;        ///< continue an interrupted --jsonl file
  std::string checks;         ///< append ShapeCheck verdicts here (JSONL)
  std::string figure;         ///< binary basename (stable figure id)
  std::string command;        ///< reconstructed command line, minus --checks

  /// Apply the file overrides (if any) on top of a figure's per-point
  /// scenario, then re-apply the sweep-critical fields the caller set.
  /// Overrides affect the workload/platform knobs; `runs` and `seed` from
  /// the command line win.
  [[nodiscard]] exp::Scenario apply(exp::Scenario scenario) const {
    if (!scenario_file.empty())
      scenario = exp::load_scenario(scenario_file, scenario);
    scenario.runs = runs;
    scenario.seed = seed;
    return scenario;
  }

  /// Orchestrator options for run_sweep: JSONL streaming and resume.
  /// Binaries that run several sweeps (figure panels) pass a distinct
  /// `tag` per sweep so each panel streams to its own file
  /// ("out.jsonl" -> "out.<tag>.jsonl").
  [[nodiscard]] exp::GridRunOptions grid_options(
      const std::string& tag = "") const {
    exp::GridRunOptions options;
    options.jsonl_path = jsonl;
    if (!jsonl.empty() && !tag.empty()) {
      // Splice the tag before the extension of the *basename* only — a
      // dot in a directory component must not be mistaken for one.
      const auto slash = jsonl.find_last_of("/\\");
      const auto dot = jsonl.rfind('.');
      const bool has_extension =
          dot != std::string::npos &&
          (slash == std::string::npos || dot > slash);
      options.jsonl_path = has_extension
                               ? jsonl.substr(0, dot) + "." + tag +
                                     jsonl.substr(dot)
                               : jsonl + "." + tag;
    }
    options.resume = resume;
    return options;
  }
};

/// Parse the uniform figure CLI. `sweep_flags` adds --jsonl/--resume;
/// binaries that do not execute their experiment through run_sweep pass
/// false so the flags are rejected instead of silently ignored.
inline FigureOptions parse_options(int argc, const char* const* argv,
                                   const std::string& summary,
                                   int default_runs,
                                   bool sweep_flags = true) {
  CliParser cli(argc, argv);
  cli.describe("runs", "Monte-Carlo repetitions per point (paper: 50)")
      .describe("seed", "campaign master seed")
      .describe("full", "use the paper's full sweep grid")
      .describe("csv", "write the series to this CSV file")
      .describe("scenario",
                "scenario file overriding workload/platform knobs "
                "(see src/exp/scenario_file.hpp)")
      .describe("checks",
                "append shape-check verdicts to this JSONL file "
                "(aggregated into EXPERIMENTS.md by coredis_report)");
  if (sweep_flags) {
    cli.describe("jsonl",
                 "stream per-cell results to this JSONL file "
                 "(campaign format, see src/exp/campaign.hpp)")
        .describe("resume", "skip cells already present in the --jsonl file");
  }
  if (cli.wants_help()) {
    std::cout << cli.usage(summary);
    std::exit(0);
  }
  cli.reject_unknown();
  FigureOptions options;
  options.runs = static_cast<int>(cli.get_int("runs", default_runs));
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  options.full = cli.get_bool("full");
  options.csv = cli.get_string("csv", "");
  options.scenario_file = cli.get_string("scenario", "");
  options.checks = cli.get_string("checks", "");
  if (sweep_flags) {
    options.jsonl = cli.get_string("jsonl", "");
    options.resume = cli.get_bool("resume");
    if (options.resume && options.jsonl.empty())
      throw std::invalid_argument(
          "--resume requires --jsonl (there is no file to resume from)");
  }
  // Identity for check records: the binary basename plus the command
  // line that produced the verdicts — minus the --checks sink itself, so
  // the committed EXPERIMENTS.md shows the reproduction command, not the
  // temp file CI streamed into.
  {
    const std::string argv0 = argc > 0 ? argv[0] : "";
    const auto slash = argv0.find_last_of("/\\");
    options.figure =
        slash == std::string::npos ? argv0 : argv0.substr(slash + 1);
    options.command = options.figure;
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      if (arg == "--checks") {
        ++a;  // skip the sink path too
        continue;
      }
      if (arg.rfind("--checks=", 0) == 0) continue;
      options.command += ' ';
      options.command += arg;
    }
  }
  return options;
}

/// Append the checks to options.checks (no-op without the flag); the
/// custom-output binaries (fig09, baselines) call this directly,
/// print_figure calls it for everyone else.
inline void write_checks(const FigureOptions& options, const std::string& title,
                         const std::vector<exp::ShapeCheck>& checks) {
  if (options.checks.empty() || checks.empty()) return;
  exp::append_check_records(options.checks,
                            {options.figure, title, options.command, checks});
}

/// Run one sweep: scenario(x) configures each point. Every (point,
/// repetition) cell of the sweep goes through exp::run_grid's single
/// global work queue, so the machine stays busy across point boundaries;
/// the reported numbers are identical to running exp::run_point on each
/// point in sequence. Pass FigureOptions::grid_options() to stream cells
/// to JSONL and make the sweep resumable.
inline exp::Sweep run_sweep(const std::string& x_label,
                            const std::vector<double>& xs,
                            const std::function<exp::Scenario(double)>& scenario,
                            const std::vector<exp::ConfigSpec>& configs,
                            const exp::GridRunOptions& grid = {}) {
  exp::Sweep sweep;
  sweep.x_label = x_label;
  sweep.x = xs;
  std::vector<exp::Scenario> points;
  points.reserve(xs.size());
  std::size_t cells = 0;
  for (double x : xs) {
    points.push_back(scenario(x));
    cells += static_cast<std::size_t>(points.back().runs);
  }
  std::fprintf(stderr, "  sweeping %zu %s points (%zu cells, one queue)...\n",
               points.size(), x_label.c_str(), cells);
  sweep.points = exp::run_grid(points, configs, grid);
  return sweep;
}

inline void print_figure(const std::string& title, const exp::Sweep& sweep,
                         const std::vector<exp::ShapeCheck>& checks,
                         const FigureOptions& options) {
  std::cout << "== " << title << " ==\n\n";
  std::cout << "Normalized execution time (1.0 = fault context without "
               "redistribution):\n";
  std::cout << exp::render_normalized_table(sweep) << '\n';
  if (sweep.x.size() >= 2)
    std::cout << exp::render_normalized_plot(sweep) << '\n';
  if (!checks.empty()) {
    std::cout << "Shape checks against the paper:\n"
              << exp::render_checks(checks) << '\n';
  }
  write_checks(options, title, checks);
  if (!options.csv.empty()) {
    exp::save_sweep_csv(sweep, options.csv);
    std::cout << "series written to " << options.csv << '\n';
  }
}

/// Wrap a bench main body with uniform error reporting.
inline int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}

}  // namespace coredis::bench
