#pragma once

/// \file report.hpp
/// Rendering and shape-checking of figure reproductions.
///
/// Every fig* bench binary produces a Sweep (one PointResult per x-value)
/// and prints it as the paper's plot transposed into a table, plus a list
/// of qualitative shape checks ("redistribution gains at least X%",
/// "IteratedGreedy beats ShortestTasksFirst", ...). With `--checks
/// <file>` a binary also streams each verdict as one JSON record
/// (append_check_records); `tools/coredis_report` aggregates those
/// records into the committed EXPERIMENTS.md reproduction-status table
/// (regenerated by tools/regen_experiments.sh, drift-checked in CI).

#include <cstddef>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace coredis::exp {

struct Sweep {
  std::string x_label;
  std::vector<double> x;
  std::vector<PointResult> points;  ///< one per x
};

/// Normalized-makespan table: one row per x, one column per configuration
/// (mean over repetitions; the baseline column is identically 1).
[[nodiscard]] std::string render_normalized_table(const Sweep& sweep,
                                                  int precision = 4);

/// ASCII line chart of the normalized series (the paper's plot shape).
[[nodiscard]] std::string render_normalized_plot(const Sweep& sweep);

/// Mean-makespan-in-seconds table (same layout).
[[nodiscard]] std::string render_makespan_table(const Sweep& sweep);

/// CSV with x, then per config: mean normalized, ci95, mean makespan.
void save_sweep_csv(const Sweep& sweep, const std::string& path);

/// One qualitative reproduction check.
struct ShapeCheck {
  std::string description;
  bool pass = false;
  std::string detail;  ///< measured numbers backing the verdict
};

/// Render "[PASS]/[FAIL] description (detail)" lines.
[[nodiscard]] std::string render_checks(const std::vector<ShapeCheck>& checks);

/// One experiment's contribution to EXPERIMENTS.md: a stable figure id
/// (the binary name), the experiment title, the exact command that
/// produced the verdicts, and the checks themselves.
struct CheckReport {
  std::string figure;
  std::string title;
  std::string command;
  std::vector<ShapeCheck> checks;
};

/// Append one JSON record per check to `path` (created on first use):
/// {"figure":...,"title":...,"command":...,"check":...,"pass":...,
/// "detail":...}. The figure binaries call this behind their `--checks`
/// flag; records from several binaries may share one file.
void append_check_records(const std::string& path, const CheckReport& report);

/// Parse a check-records file back into reports: consecutive records
/// with the same (figure, title, command) form one CheckReport, in file
/// order. Throws std::runtime_error on unreadable files or malformed
/// records (naming the line).
[[nodiscard]] std::vector<CheckReport> load_check_records(
    const std::string& path);

/// Render the generated EXPERIMENTS.md: a status table (figure, command,
/// checks passed, PASS/FAIL) followed by one detail section per report.
/// Pure function of `reports`, so the document is byte-stable for a
/// pinned grid.
[[nodiscard]] std::string render_experiments_markdown(
    const std::vector<CheckReport>& reports);

/// Mean of a configuration's normalized makespan across all sweep points.
[[nodiscard]] double mean_normalized(const Sweep& sweep, std::size_t config);

/// Normalized value of one configuration at one x index.
[[nodiscard]] double normalized_at(const Sweep& sweep, std::size_t x_index,
                                   std::size_t config);

}  // namespace coredis::exp
