/// Golden tests for the report renderers (exp/report.hpp): the
/// normalized/makespan tables, the ASCII plot, the check list, the sweep
/// CSV, and the EXPERIMENTS.md check-record pipeline — previously only
/// exercised indirectly through the fig binaries.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/report.hpp"

namespace coredis::exp {
namespace {

/// Deterministic two-point, two-config sweep with hand-computable means:
/// normalized IG = {0.80, 0.82} -> 0.81 at x=100, {0.70, 0.72} -> 0.71
/// at x=200.
Sweep make_sweep() {
  Sweep sweep;
  sweep.x_label = "#procs";
  sweep.x = {100.0, 200.0};
  for (int i = 0; i < 2; ++i) {
    PointResult point;
    ConfigOutcome base;
    base.name = "baseline";
    ConfigOutcome ig;
    ig.name = "IG-EndLocal";
    for (int r = 0; r < 2; ++r) {
      base.normalized.add(1.0);
      base.makespan.add(1000.0 + 100.0 * i + 10.0 * r);
      ig.normalized.add(0.8 - 0.1 * i + 0.02 * r);
      ig.makespan.add(800.0 + 50.0 * i + 10.0 * r);
    }
    point.configs = {base, ig};
    sweep.points.push_back(point);
  }
  return sweep;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot open " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(Report, NormalizedTableGolden) {
  const std::string expected =
      "  #procs  baseline  IG-EndLocal\n"
      "-------------------------------\n"
      "100.0000    1.0000       0.8100\n"
      "200.0000    1.0000       0.7100\n";
  EXPECT_EQ(render_normalized_table(make_sweep()), expected);
}

TEST(Report, NormalizedTableHonorsPrecision) {
  const std::string expected =
      "#procs  baseline  IG-EndLocal\n"
      "-----------------------------\n"
      " 100.0       1.0          0.8\n"
      " 200.0       1.0          0.7\n";
  EXPECT_EQ(render_normalized_table(make_sweep(), 1), expected);
}

TEST(Report, MakespanTableGolden) {
  const std::string expected =
      "#procs  baseline  IG-EndLocal\n"
      "-----------------------------\n"
      "   100      1005          805\n"
      "   200      1105          855\n";
  EXPECT_EQ(render_makespan_table(make_sweep()), expected);
}

TEST(Report, NormalizedPlotShapeAndLegend) {
  const std::string plot = render_normalized_plot(make_sweep());
  // Deterministic: same sweep, same bytes.
  EXPECT_EQ(plot, render_normalized_plot(make_sweep()));
  std::vector<std::string> lines;
  std::istringstream stream(plot);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 5u);
  // The paper's normalized band is the default frame.
  EXPECT_EQ(lines.front().rfind("1.05 |", 0), 0u) << plot;
  // Legend lines are exact; the axis line names the sweep variable and
  // its bounds.
  EXPECT_EQ(lines[lines.size() - 2], "  * = baseline") << plot;
  EXPECT_EQ(lines.back(), "  + = IG-EndLocal") << plot;
  const std::string& axis = lines[lines.size() - 3];
  EXPECT_NE(axis.find("#procs"), std::string::npos) << plot;
  EXPECT_NE(axis.find("100"), std::string::npos) << plot;
  EXPECT_NE(axis.find("200"), std::string::npos) << plot;
  // The baseline series sits pinned at 1.0: one full row of '*'.
  bool baseline_row = false;
  for (const std::string& row : lines)
    baseline_row = baseline_row || row.find("****") != std::string::npos;
  EXPECT_TRUE(baseline_row) << plot;
}

TEST(Report, ChecksRenderGolden) {
  const std::vector<ShapeCheck> checks{{"first check", true, "a=1 b=2"},
                                       {"second check", false, ""}};
  EXPECT_EQ(render_checks(checks),
            "[PASS] first check  (a=1 b=2)\n"
            "[FAIL] second check\n");
  EXPECT_EQ(render_checks({}), "");
}

TEST(Report, MeanAndPointAccessors) {
  const Sweep sweep = make_sweep();
  EXPECT_DOUBLE_EQ(normalized_at(sweep, 0, 1), 0.81);
  EXPECT_DOUBLE_EQ(normalized_at(sweep, 1, 1), 0.71);
  EXPECT_DOUBLE_EQ(mean_normalized(sweep, 0), 1.0);
  EXPECT_DOUBLE_EQ(mean_normalized(sweep, 1), 0.76);
}

TEST(Report, SweepCsvRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "coredis_report_test_sweep.csv";
  std::filesystem::remove(path);
  save_sweep_csv(make_sweep(), path.string());
  const std::string expected =
      "#procs,baseline (normalized),baseline (ci95),baseline (makespan s),"
      "IG-EndLocal (normalized),IG-EndLocal (ci95),IG-EndLocal (makespan s)\n"
      "100,1,0,1005,0.81,0.0196,805\n"
      "200,1,0,1105,0.71,0.0196,855\n";
  EXPECT_EQ(read_file(path), expected);
  std::filesystem::remove(path);
}

TEST(Report, CheckRecordsRoundTripWithEscaping) {
  const auto path = std::filesystem::temp_directory_path() /
                    "coredis_report_test_checks.jsonl";
  std::filesystem::remove(path);
  CheckReport first;
  first.figure = "fig99_demo";
  first.title = "Demo \"quoted\" panel";
  first.command = "fig99_demo --runs 2 --scenario a\\b.txt";
  first.checks = {{"gain\nholds", true, "x=1"}, {"plain", false, ""}};
  append_check_records(path.string(), first);
  CheckReport second;
  second.figure = "fig99_demo";
  second.title = "Another panel";  // new title => new report group
  second.command = first.command;
  second.checks = {{"tail check", true, "detail"}};
  append_check_records(path.string(), second);

  const std::vector<CheckReport> loaded = load_check_records(path.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].figure, first.figure);
  EXPECT_EQ(loaded[0].title, first.title);
  EXPECT_EQ(loaded[0].command, first.command);
  ASSERT_EQ(loaded[0].checks.size(), 2u);
  EXPECT_EQ(loaded[0].checks[0].description, "gain\nholds");
  EXPECT_TRUE(loaded[0].checks[0].pass);
  EXPECT_EQ(loaded[0].checks[0].detail, "x=1");
  EXPECT_FALSE(loaded[0].checks[1].pass);
  EXPECT_EQ(loaded[1].title, "Another panel");
  ASSERT_EQ(loaded[1].checks.size(), 1u);
  std::filesystem::remove(path);
}

TEST(Report, CheckRecordsRejectMalformedLines) {
  const auto path = std::filesystem::temp_directory_path() /
                    "coredis_report_test_badchecks.jsonl";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << "{\"figure\":\"f\",garbage\n";
  }
  try {
    (void)load_check_records(path.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(":1"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)load_check_records("/nonexistent/coredis_checks"),
               std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Report, ExperimentsMarkdownGolden) {
  CheckReport pass;
  pass.figure = "fig07_impact_n";
  pass.title = "Figure 7";
  pass.command = "fig07_impact_n --runs 2";
  pass.checks = {{"gain grows", true, "n_max=0.55"}, {"IG beats STF", true, ""}};
  CheckReport fail;
  fail.figure = "fig08_impact_p";
  fail.title = "Figure 8";
  fail.command = "fig08_impact_p --runs 2";
  fail.checks = {{"gain shrinks", false, "worst=0.99"}};
  const std::string doc = render_experiments_markdown({pass, fail});

  // Stable: a pure function of its input.
  EXPECT_EQ(doc, render_experiments_markdown({pass, fail}));
  EXPECT_NE(doc.find("# EXPERIMENTS — reproduction status"),
            std::string::npos);
  EXPECT_NE(doc.find("Generated by tools/coredis_report"), std::string::npos);
  EXPECT_NE(doc.find("2 experiments, 1 fully passing.\n"), std::string::npos);
  EXPECT_NE(doc.find("| figure | experiment | command | checks | status |\n"),
            std::string::npos);
  EXPECT_NE(
      doc.find("| fig07_impact_n | Figure 7 | `fig07_impact_n --runs 2` | "
               "2/2 | PASS |\n"),
      std::string::npos);
  EXPECT_NE(
      doc.find("| fig08_impact_p | Figure 8 | `fig08_impact_p --runs 2` | "
               "0/1 | FAIL |\n"),
      std::string::npos);
  EXPECT_NE(doc.find("## fig07_impact_n — Figure 7\n"), std::string::npos);
  EXPECT_NE(doc.find("- [PASS] gain grows — n_max=0.55\n"), std::string::npos);
  EXPECT_NE(doc.find("- [PASS] IG beats STF\n"), std::string::npos);
  EXPECT_NE(doc.find("- [FAIL] gain shrinks — worst=0.99\n"),
            std::string::npos);
}

}  // namespace
}  // namespace coredis::exp
