/// Unit tests for the utility substrate: RNG determinism and distribution
/// moments, streaming statistics, parallel_for, CLI parsing, tables, CSV.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/indexed_heap.hpp"
#include "util/parallel.hpp"
#include "util/plot.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace coredis {
namespace {

TEST(Rng, DeterministicBySeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a() == b();
  EXPECT_LT(equal, 5);
}

TEST(Rng, ChildStreamsAreIndependentAndDeterministic) {
  Rng a = Rng::child(42, 0);
  Rng a2 = Rng::child(42, 0);
  Rng b = Rng::child(42, 1);
  EXPECT_EQ(a(), a2());
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a() == b();
  EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.uniform_int(3, 10));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 10u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  const double rate = 1.0 / 250.0;
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 250.0, 5.0);
}

TEST(Rng, ExponentialIsMemorylessInDistribution) {
  // P(X > a + b | X > a) == P(X > b): compare tail frequencies.
  Rng rng(17);
  const double rate = 1.0;
  int beyond_1 = 0;
  int beyond_2_given_1 = 0;
  int beyond_1_overall = 0;
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.exponential(rate);
    if (x > 1.0) {
      ++beyond_1;
      if (x > 2.0) ++beyond_2_given_1;
    }
    if (x > 1.0) ++beyond_1_overall;
  }
  const double conditional =
      static_cast<double>(beyond_2_given_1) / static_cast<double>(beyond_1);
  const double unconditional =
      static_cast<double>(beyond_1_overall) / static_cast<double>(trials);
  EXPECT_NEAR(conditional, unconditional, 0.01);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng rng(19);
  RunningStats weibull;
  for (int i = 0; i < 100000; ++i) weibull.add(rng.weibull(1.0, 100.0));
  EXPECT_NEAR(weibull.mean(), 100.0, 2.0);
  // Exponential has CV = 1; check the Weibull k=1 matches.
  EXPECT_NEAR(weibull.stddev() / weibull.mean(), 1.0, 0.05);
}

TEST(RunningStats, MeanVarianceExtrema) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev_population(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 17.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.ci95_halfwidth(), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median_of({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
}

TEST(ThreadBudget, SplitsTheMachineBudgetFairly) {
  // Pin the machine budget via COREDIS_THREADS so the assertions are
  // deterministic on any host (restored below; the suite may itself run
  // under an override, e.g. CI's COREDIS_THREADS=2).
  const char* previous = std::getenv("COREDIS_THREADS");
  const std::string saved = previous == nullptr ? "" : previous;
  ::setenv("COREDIS_THREADS", "7", 1);

  EXPECT_EQ(thread_budget_share(1, 0), 7u);
  // 7 threads over 3 workers: 3 + 2 + 2, covering the budget exactly.
  EXPECT_EQ(thread_budget_share(3, 0), 3u);
  EXPECT_EQ(thread_budget_share(3, 1), 2u);
  EXPECT_EQ(thread_budget_share(3, 2), 2u);
  std::size_t covered = 0;
  for (std::size_t k = 0; k < 7; ++k) covered += thread_budget_share(7, k);
  EXPECT_EQ(covered, 7u);
  // More workers than threads: every worker still makes progress.
  EXPECT_EQ(thread_budget_share(16, 0), 1u);
  EXPECT_EQ(thread_budget_share(16, 15), 1u);
  // Degenerate "no split" spelling falls back to the whole budget.
  EXPECT_EQ(thread_budget_share(0, 0), 7u);

  if (previous == nullptr) {
    ::unsetenv("COREDIS_THREADS");
  } else {
    ::setenv("COREDIS_THREADS", saved.c_str(), 1);
  }
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, ThrowingBodyStopsWorkersFromDrainingTheQueue) {
  // Regression: with a deep queue, one throwing body must abort the whole
  // loop quickly. Every non-throwing body sleeps, so if the workers kept
  // draining after the throw this test would take tens of seconds and
  // `executed` would approach `count`.
  constexpr std::size_t count = 20000;
  std::atomic<int> executed{0};
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(
      parallel_for(
          count,
          [&](std::size_t i) {
            if (i == 0) throw std::runtime_error("boom");
            executed.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          },
          8),
      std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  // The workers in flight when index 0 threw may finish their current body
  // and at most begin one more before observing the stop flag.
  EXPECT_LT(executed.load(), 1000);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
}

TEST(ParallelFor, ConcurrentThrowsPropagateExactlyOneException) {
  // Contention on the error slot: every body throws. One of them must come
  // back (no deadlock, no terminate from a lost exception), and it must be
  // one that was actually thrown.
  constexpr std::size_t count = 1000;
  std::string caught;
  try {
    parallel_for(
        count,
        [](std::size_t i) { throw std::runtime_error(std::to_string(i)); }, 8);
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& error) {
    caught = error.what();
  }
  ASSERT_FALSE(caught.empty());
  const std::size_t index = std::stoull(caught);
  EXPECT_LT(index, count);
}

TEST(ParallelFor, ExceptionWinnerIsTheFirstRecorded) {
  // Only index 3 throws; the propagated exception must be that one even
  // when many indices are queued behind it.
  try {
    parallel_for(
        10000,
        [](std::size_t i) {
          if (i == 3) throw std::runtime_error("the-one");
        },
        4);
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "the-one");
  }
}

TEST(ParallelFor, SingleThreadFallback) {
  int sum = 0;
  parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, StealingVisitsEveryIndexExactlyOnce) {
  // Exactly-once across awkward (count, threads) pairs: counts that do
  // not tile the shard arithmetic, single-index shards, more threads
  // than indices.
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{97},
        std::size_t{1000}}) {
    for (const std::size_t threads :
         {std::size_t{2}, std::size_t{3}, std::size_t{8}, std::size_t{13}}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for(count, [&](std::size_t i) { hits[i].fetch_add(1); },
                   threads);
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1)
            << "i=" << i << " count=" << count << " threads=" << threads;
    }
  }
}

TEST(ParallelFor, StealingBalancesAFrontLoadedQueue) {
  // A front-loaded cost profile under the stealing schedule: all the
  // slow indices sit in the low shards. The gate only requires the loop
  // to land far under the 64 ms a serialized slow half would cost —
  // catching a stealing bug that degenerates to one worker — with a
  // wide margin so the test stays robust on loaded runners.
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  const auto started = std::chrono::steady_clock::now();
  parallel_for(kCount,
               [&](std::size_t i) {
                 if (i < kCount / 2)
                   std::this_thread::sleep_for(std::chrono::milliseconds(2));
                 hits[i].fetch_add(1);
               },
               8);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Sequential slow half is 64 ms; eight stealing workers should land
  // far under half of that even on a noisy single-core runner we only
  // require "meaningfully better than sequential".
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            60);
}

TEST(ParallelFor, StealingStopsWorkersAfterAThrow) {
  constexpr std::size_t count = 20000;
  std::atomic<int> executed{0};
  EXPECT_THROW(
      parallel_for(
          count,
          [&](std::size_t i) {
            if (i == 0) throw std::runtime_error("boom");
            executed.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          },
          8),
      std::runtime_error);
  EXPECT_LT(executed.load(), 1000);
}

TEST(Cli, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog", "--runs", "12", "--seed=99", "--verbose"};
  CliParser cli(5, argv);
  EXPECT_EQ(cli.get_int("runs", 0), 12);
  EXPECT_EQ(cli.get_int("seed", 0), 99);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_EQ(cli.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("absent", 1.5), 1.5);
}

TEST(Cli, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--runs", "abc"};
  CliParser cli(3, argv);
  EXPECT_THROW((void)cli.get_int("runs", 0), std::invalid_argument);
}

TEST(Cli, RejectsTrailingCharactersNamingFlagAndValue) {
  const char* argv[] = {"prog", "--n", "6x", "--mtbf", "5years",
                        "--p=24", "--mtbf-scale", "2.5e1"};
  CliParser cli(8, argv);
  const auto message = [&cli](auto get) {
    try {
      (void)get(cli);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string n =
      message([](const CliParser& c) { return c.get_int("n", 0); });
  EXPECT_NE(n.find("--n"), std::string::npos) << n;
  EXPECT_NE(n.find("'6x'"), std::string::npos) << n;
  const std::string mtbf =
      message([](const CliParser& c) { return c.get_double("mtbf", 0.0); });
  EXPECT_NE(mtbf.find("--mtbf"), std::string::npos) << mtbf;
  EXPECT_NE(mtbf.find("'5years'"), std::string::npos) << mtbf;
  // Whole numbers still parse, in every spelling std::stol/stod accept.
  EXPECT_EQ(cli.get_int("p", 0), 24);
  EXPECT_DOUBLE_EQ(cli.get_double("mtbf-scale", 0.0), 25.0);
  const char* empty[] = {"prog", "--runs="};
  EXPECT_THROW((void)CliParser(2, empty).get_int("runs", 0),
               std::invalid_argument);
  const char* integer_as_double[] = {"prog", "--runs", "2.5"};
  EXPECT_THROW((void)CliParser(3, integer_as_double).get_int("runs", 0),
               std::invalid_argument);
}

TEST(Cli, RejectsRepeatedFlagsNamingBothValues) {
  const char* argv[] = {"prog", "--mtbf", "5", "--mtbf", "0"};
  try {
    CliParser cli(5, argv);
    FAIL() << "a repeated flag was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--mtbf"), std::string::npos) << what;
    EXPECT_NE(what.find("'5'"), std::string::npos) << what;
    EXPECT_NE(what.find("'0'"), std::string::npos) << what;
  }
  // Every spelling counts: `=`, separate value, bare boolean.
  const char* mixed[] = {"prog", "--seed=1", "--seed", "1"};
  EXPECT_THROW(CliParser(4, mixed), std::invalid_argument);
  const char* booleans[] = {"prog", "--gantt", "--gantt"};
  EXPECT_THROW(CliParser(3, booleans), std::invalid_argument);
  // Distinct flags sharing a prefix are not repeats.
  const char* distinct[] = {"prog", "--mtbf", "5", "--mtbf-scale", "2"};
  EXPECT_NO_THROW(CliParser(5, distinct));
}

TEST(Cli, RejectsUnknownWhenAsked) {
  const char* argv[] = {"prog", "--tpyo", "1"};
  CliParser cli(3, argv);
  cli.describe("runs", "number of runs");
  EXPECT_THROW(cli.reject_unknown(), std::invalid_argument);
}

TEST(Cli, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliParser(2, argv), std::invalid_argument);
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"x", "longheader"});
  table.add_row({"1", "2"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("longheader"), std::string::npos);
  EXPECT_NE(out.find('\n'), std::string::npos);
}

TEST(Csv, EscapesAndRoundTrips) {
  CsvWriter csv({"a", "b"});
  csv.add_row(std::vector<std::string>{"plain", "with,comma"});
  csv.add_row(std::vector<std::string>{"with\"quote", "x"});
  const std::string out = csv.to_string();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Welch, DetectsClearSeparation) {
  RunningStats a;
  RunningStats b;
  Rng rng(31);
  for (int i = 0; i < 30; ++i) {
    a.add(10.0 + rng.uniform(-0.5, 0.5));
    b.add(12.0 + rng.uniform(-0.5, 0.5));
  }
  const WelchResult result = welch_t_test(a, b);
  EXPECT_LT(result.t, -5.0);
  EXPECT_LT(result.p_two_sided, 0.001);
  EXPECT_TRUE(result.a_significantly_smaller());
}

TEST(Welch, NoFalsePositiveOnIdenticalDistributions) {
  RunningStats a;
  RunningStats b;
  Rng rng(37);
  for (int i = 0; i < 50; ++i) {
    a.add(rng.uniform(0.0, 1.0));
    b.add(rng.uniform(0.0, 1.0));
  }
  const WelchResult result = welch_t_test(a, b);
  EXPECT_GT(result.p_two_sided, 0.01);
}

TEST(Welch, DegenerateSamplesAreSafe) {
  RunningStats a;
  RunningStats b;
  a.add(1.0);
  b.add(2.0);
  const WelchResult tiny = welch_t_test(a, b);  // < 2 samples each
  EXPECT_EQ(tiny.p_two_sided, 1.0);
  a.add(1.0);
  b.add(2.0);
  const WelchResult zero_var = welch_t_test(a, b);
  EXPECT_TRUE(zero_var.a_significantly_smaller());
}

TEST(Plot, RendersMarkersAxesAndLegend) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  std::vector<PlotSeries> series;
  series.push_back({"rising", {0.0, 1.0, 2.0, 3.0}});
  series.push_back({"falling", {3.0, 2.0, 1.0, 0.0}});
  PlotOptions options;
  options.x_label = "x";
  const std::string plot = render_plot(x, series, options);
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find('+'), std::string::npos);
  EXPECT_NE(plot.find("* = rising"), std::string::npos);
  EXPECT_NE(plot.find("+ = falling"), std::string::npos);
  EXPECT_NE(plot.find('|'), std::string::npos);   // y axis
  EXPECT_NE(plot.find("+--"), std::string::npos);  // x axis
}

TEST(Plot, ExtremesLandOnOppositeRows) {
  const std::vector<double> x{0.0, 1.0};
  std::vector<PlotSeries> series{{"s", {0.0, 10.0}}};
  PlotOptions options;
  options.height = 8;
  options.width = 20;
  const std::string plot = render_plot(x, series, options);
  // First raster line holds the maximum, last raster line the minimum.
  std::istringstream stream(plot);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  EXPECT_NE(lines.front().find('*'), std::string::npos);
  EXPECT_NE(lines[7].find('*'), std::string::npos);
}

TEST(Plot, RejectsMismatchedSeries) {
  std::vector<PlotSeries> series{{"s", {1.0}}};
  EXPECT_DEATH((void)render_plot({1.0, 2.0}, series), "precondition");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::years(1.0), 365.25 * 24 * 3600);
  EXPECT_DOUBLE_EQ(units::to_years(units::years(120.0)), 120.0);
  EXPECT_DOUBLE_EQ(units::days(2.0), 2 * 86400.0);
  EXPECT_DOUBLE_EQ(units::hours(3.0), 3 * 3600.0);
}

TEST(IndexedHeap, MinOrderMatchesLinearScanWithTies) {
  util::IndexedHeap<util::MinKeyThenId> heap;
  heap.reset(6);
  const double keys[] = {5.0, 2.0, 2.0, 9.0, 1.0, 2.0};
  for (int id = 0; id < 6; ++id) heap.update(id, keys[id]);
  EXPECT_EQ(heap.top(), 4);
  heap.remove(4);
  // Three-way tie at 2.0: the smallest id must win, like a `<` scan.
  EXPECT_EQ(heap.top(), 1);
  heap.remove(1);
  EXPECT_EQ(heap.top(), 2);
  heap.update(5, 0.5);  // decrease-key repositions in place
  EXPECT_EQ(heap.top(), 5);
  heap.update(5, 99.0);  // increase-key too
  EXPECT_EQ(heap.top(), 2);
}

TEST(IndexedHeap, MaxOrderAndRemoval) {
  util::IndexedHeap<util::MaxKeyThenId> heap;
  heap.reset(4);
  for (int id = 0; id < 4; ++id) heap.update(id, static_cast<double>(id));
  EXPECT_EQ(heap.top(), 3);
  EXPECT_DOUBLE_EQ(heap.top_key(), 3.0);
  heap.remove(3);
  heap.remove(3);  // removing an absent id is a no-op
  EXPECT_EQ(heap.top(), 2);
  EXPECT_EQ(heap.size(), 3);
  EXPECT_FALSE(heap.contains(3));
}

TEST(IndexedHeap, ForEachAtOrBeforeVisitsExactlyTheBoundedSet) {
  util::IndexedHeap<util::MinKeyThenId> heap;
  heap.reset(10);
  for (int id = 0; id < 10; ++id) heap.update(id, static_cast<double>(9 - id));
  std::set<int> visited;
  heap.for_each_at_or_before(4.0, [&](int id) { visited.insert(id); });
  // Keys <= 4.0 belong to ids 5..9; the bound itself is included.
  EXPECT_EQ(visited, (std::set<int>{5, 6, 7, 8, 9}));
  visited.clear();
  heap.for_each_at_or_before(-1.0, [&](int id) { visited.insert(id); });
  EXPECT_TRUE(visited.empty());
}

TEST(ThreadEnv, ParseThreadCountAcceptsPlainDecimals) {
  std::size_t count = 99;
  std::string error;
  EXPECT_TRUE(parse_thread_count("0", count, error));
  EXPECT_EQ(count, 0u);  // 0 means "auto" downstream, and must parse
  EXPECT_TRUE(parse_thread_count("1", count, error));
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(parse_thread_count("8", count, error));
  EXPECT_EQ(count, 8u);
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(parse_thread_count(std::to_string(max_thread_override()),
                                 count, error));
  EXPECT_EQ(count, max_thread_override());
}

TEST(ThreadEnv, ParseThreadCountRejectionsNameTheValue) {
  // Every rejection must carry the offending text: the value comes from
  // an environment variable, and "invalid thread count" with no echo
  // would send the operator hunting through their shell profile.
  const char* const rejected[] = {"abc", "8x", "-1", " 8", "8 ", "0x8", "1e3"};
  for (const char* text : rejected) {
    std::size_t count = 0;
    std::string error;
    EXPECT_FALSE(parse_thread_count(text, count, error)) << text;
    EXPECT_NE(error.find(text), std::string::npos) << error;
  }
  std::size_t count = 0;
  std::string error;
  EXPECT_FALSE(parse_thread_count("", count, error));
  EXPECT_NE(error.find("empty"), std::string::npos) << error;
  // Beyond the cap — including values that would overflow size_t if the
  // parser multiplied blindly — the error names the maximum.
  for (const char* text : {"65537", "18446744073709551616",
                           "99999999999999999999999999"}) {
    EXPECT_FALSE(parse_thread_count(text, count, error)) << text;
    EXPECT_NE(error.find(std::to_string(max_thread_override())),
              std::string::npos)
        << error;
  }
}

TEST(ThreadEnv, DefaultThreadCountFallsBackLoudlyOnGarbage) {
  // Garbage in COREDIS_THREADS must not silently become 0 threads (which
  // parallel_for would treat as "auto" — masking the typo) or crash; it
  // falls back to hardware concurrency, which is never 0.
  const char* previous = std::getenv("COREDIS_THREADS");
  const std::string saved = previous == nullptr ? "" : previous;
  ::setenv("COREDIS_THREADS", "not-a-number", 1);
  EXPECT_GT(default_thread_count(), 0u);
  ::setenv("COREDIS_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  if (previous == nullptr)
    ::unsetenv("COREDIS_THREADS");
  else
    ::setenv("COREDIS_THREADS", saved.c_str(), 1);
}

}  // namespace
}  // namespace coredis
