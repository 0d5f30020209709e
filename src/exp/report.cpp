#include "exp/report.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/detail/jsonl.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/plot.hpp"
#include "util/table.hpp"

namespace coredis::exp {

namespace {

std::vector<std::string> header_row(const Sweep& sweep) {
  COREDIS_EXPECTS(!sweep.points.empty());
  std::vector<std::string> headers{sweep.x_label};
  for (const ConfigOutcome& config : sweep.points.front().configs)
    headers.push_back(config.name);
  return headers;
}

// Check records are line-oriented JSON sharing the campaign JSONL's
// escaping and scanning discipline (exp/detail/jsonl.hpp).

using detail::expect_token;
using detail::json_escape;
using detail::scan_quoted;

struct CheckRecord {
  std::string figure;
  std::string title;
  std::string command;
  ShapeCheck check;
};

bool parse_check_record(const std::string& line, CheckRecord& out) {
  std::size_t pos = 0;
  if (!expect_token(line, pos, "{\"figure\":")) return false;
  if (!scan_quoted(line, pos, out.figure)) return false;
  if (!expect_token(line, pos, ",\"title\":")) return false;
  if (!scan_quoted(line, pos, out.title)) return false;
  if (!expect_token(line, pos, ",\"command\":")) return false;
  if (!scan_quoted(line, pos, out.command)) return false;
  if (!expect_token(line, pos, ",\"check\":")) return false;
  if (!scan_quoted(line, pos, out.check.description)) return false;
  if (!expect_token(line, pos, ",\"pass\":")) return false;
  if (expect_token(line, pos, "true")) {
    out.check.pass = true;
  } else if (expect_token(line, pos, "false")) {
    out.check.pass = false;
  } else {
    return false;
  }
  if (!expect_token(line, pos, ",\"detail\":")) return false;
  if (!scan_quoted(line, pos, out.check.detail)) return false;
  if (!expect_token(line, pos, "}")) return false;
  return pos == line.size();
}

}  // namespace

std::string render_normalized_table(const Sweep& sweep, int precision) {
  TextTable table(header_row(sweep));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    std::vector<double> row;
    row.reserve(sweep.points[i].configs.size());
    for (const ConfigOutcome& config : sweep.points[i].configs)
      row.push_back(config.normalized.mean());
    table.add_row(sweep.x[i], row, precision);
  }
  return table.to_string();
}

std::string render_normalized_plot(const Sweep& sweep) {
  std::vector<PlotSeries> series;
  const std::size_t configs = sweep.points.front().configs.size();
  for (std::size_t c = 0; c < configs; ++c) {
    PlotSeries s;
    s.name = sweep.points.front().configs[c].name;
    for (const PointResult& point : sweep.points)
      s.y.push_back(point.configs[c].normalized.mean());
    series.push_back(std::move(s));
  }
  PlotOptions options;
  options.x_label = sweep.x_label;
  options.y_label = "normalized time";
  // Figures share the paper's 0.5..1.05 band unless the data escapes it.
  options.y_min = 0.45;
  options.y_max = 1.05;
  for (const PlotSeries& s : series)
    for (double v : s.y) {
      options.y_min = std::min(options.y_min, v - 0.02);
      options.y_max = std::max(options.y_max, v + 0.02);
    }
  return render_plot(sweep.x, series, options);
}

std::string render_makespan_table(const Sweep& sweep) {
  TextTable table(header_row(sweep));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    std::vector<std::string> cells{format_double(sweep.x[i], 0)};
    for (const ConfigOutcome& config : sweep.points[i].configs) {
      std::ostringstream cell;
      cell.precision(6);
      cell << config.makespan.mean();
      cells.push_back(cell.str());
    }
    table.add_row(std::move(cells));
  }
  return table.to_string();
}

void save_sweep_csv(const Sweep& sweep, const std::string& path) {
  std::vector<std::string> headers{sweep.x_label};
  for (const ConfigOutcome& config : sweep.points.front().configs) {
    headers.push_back(config.name + " (normalized)");
    headers.push_back(config.name + " (ci95)");
    headers.push_back(config.name + " (makespan s)");
  }
  CsvWriter csv(std::move(headers));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    std::vector<double> row{sweep.x[i]};
    for (const ConfigOutcome& config : sweep.points[i].configs) {
      row.push_back(config.normalized.mean());
      row.push_back(config.normalized.ci95_halfwidth());
      row.push_back(config.makespan.mean());
    }
    csv.add_row(row);
  }
  csv.save(path);
}

std::string render_checks(const std::vector<ShapeCheck>& checks) {
  std::ostringstream out;
  for (const ShapeCheck& check : checks) {
    out << (check.pass ? "[PASS] " : "[FAIL] ") << check.description;
    if (!check.detail.empty()) out << "  (" << check.detail << ")";
    out << '\n';
  }
  return out.str();
}

void append_check_records(const std::string& path, const CheckReport& report) {
  std::ofstream file(path, std::ios::binary | std::ios::app);
  if (!file) throw std::runtime_error("cannot append check records: " + path);
  for (const ShapeCheck& check : report.checks) {
    file << "{\"figure\":\"" << json_escape(report.figure) << "\",\"title\":\""
         << json_escape(report.title) << "\",\"command\":\""
         << json_escape(report.command) << "\",\"check\":\""
         << json_escape(check.description) << "\",\"pass\":"
         << (check.pass ? "true" : "false") << ",\"detail\":\""
         << json_escape(check.detail) << "\"}\n";
  }
  if (!file) throw std::runtime_error("failed writing check records: " + path);
}

std::vector<CheckReport> load_check_records(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open check records: " + path);
  std::vector<CheckReport> reports;
  std::string line;
  std::size_t number = 0;
  while (std::getline(file, line)) {
    ++number;
    if (line.empty()) continue;
    CheckRecord record;
    if (!parse_check_record(line, record))
      throw std::runtime_error("malformed check record at " + path + ":" +
                               std::to_string(number));
    const bool same_report =
        !reports.empty() && reports.back().figure == record.figure &&
        reports.back().title == record.title &&
        reports.back().command == record.command;
    if (!same_report)
      reports.push_back({record.figure, record.title, record.command, {}});
    reports.back().checks.push_back(std::move(record.check));
  }
  return reports;
}

std::string render_experiments_markdown(
    const std::vector<CheckReport>& reports) {
  std::ostringstream out;
  out << "# EXPERIMENTS — reproduction status\n"
         "\n"
         "<!-- Generated by tools/coredis_report. Do not edit by hand:\n"
         "     regenerate with tools/regen_experiments.sh (CI re-runs the\n"
         "     same pinned smoke grid and fails when this file drifts). -->\n"
         "\n"
         "Each figure/ablation driver streams its qualitative shape-check\n"
         "verdicts with `--checks <file>`; `coredis_report` folds them into\n"
         "this table. The verdicts below come from the pinned smoke grid\n"
         "(trimmed sweeps, `--runs 2`, seed 42) — deterministic for any\n"
         "thread count; pass `--full --runs 50` to the drivers for the\n"
         "paper-scale grids. See README.md (\"Reproduction status\") and\n"
         "DESIGN.md section 8 for the online-arrival workload.\n"
         "\n";
  std::size_t passed_reports = 0;
  for (const CheckReport& report : reports) {
    const bool all = std::all_of(report.checks.begin(), report.checks.end(),
                                 [](const ShapeCheck& c) { return c.pass; });
    passed_reports += all ? 1 : 0;
  }
  out << reports.size() << " experiments, " << passed_reports
      << " fully passing.\n\n";
  out << "| figure | experiment | command | checks | status |\n";
  out << "| --- | --- | --- | --- | --- |\n";
  for (const CheckReport& report : reports) {
    std::size_t passed = 0;
    for (const ShapeCheck& check : report.checks) passed += check.pass ? 1 : 0;
    out << "| " << report.figure << " | " << report.title << " | `"
        << report.command << "` | " << passed << "/" << report.checks.size()
        << " | " << (passed == report.checks.size() ? "PASS" : "FAIL")
        << " |\n";
  }
  for (const CheckReport& report : reports) {
    out << "\n## " << report.figure << " — " << report.title << "\n\n"
        << "`" << report.command << "`\n\n";
    for (const ShapeCheck& check : report.checks) {
      out << "- " << (check.pass ? "[PASS] " : "[FAIL] ")
          << check.description;
      if (!check.detail.empty()) out << " — " << check.detail;
      out << "\n";
    }
  }
  return out.str();
}

double mean_normalized(const Sweep& sweep, std::size_t config) {
  RunningStats stats;
  for (const PointResult& point : sweep.points)
    stats.add(point.configs[config].normalized.mean());
  return stats.mean();
}

double normalized_at(const Sweep& sweep, std::size_t x_index,
                     std::size_t config) {
  return sweep.points[x_index].configs[config].normalized.mean();
}

}  // namespace coredis::exp
