/// Tests of the scenario-file parser (exp/scenario_file.hpp).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "exp/scenario_file.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace coredis::exp {
namespace {

TEST(ScenarioFile, ParsesAllKeys) {
  const Scenario scenario = parse_scenario(R"(
# a commented line
n = 50
p = 600           # trailing comment
m_inf = 1e5
m_sup = 2.5e6
sequential_fraction = 0.1
mtbf_years = 10
downtime_seconds = 120
checkpoint_unit_cost = 0.5
period_rule = daly
fault_law = weibull
weibull_shape = 0.65
runs = 25
seed = 7
)");
  EXPECT_EQ(scenario.n, 50);
  EXPECT_EQ(scenario.p, 600);
  EXPECT_DOUBLE_EQ(scenario.m_inf, 1e5);
  EXPECT_DOUBLE_EQ(scenario.m_sup, 2.5e6);
  EXPECT_DOUBLE_EQ(scenario.sequential_fraction, 0.1);
  EXPECT_DOUBLE_EQ(scenario.mtbf_years, 10.0);
  EXPECT_DOUBLE_EQ(scenario.downtime_seconds, 120.0);
  EXPECT_DOUBLE_EQ(scenario.checkpoint_unit_cost, 0.5);
  EXPECT_EQ(scenario.period_rule, checkpoint::PeriodRule::Daly);
  EXPECT_EQ(scenario.fault_law, FaultLaw::Weibull);
  EXPECT_DOUBLE_EQ(scenario.weibull_shape, 0.65);
  EXPECT_EQ(scenario.runs, 25);
  EXPECT_EQ(scenario.seed, 7u);
}

TEST(ScenarioFile, UnspecifiedKeysKeepBaseValues) {
  Scenario base;
  base.n = 10;
  base.p = 100;
  base.runs = 3;
  const Scenario scenario = parse_scenario("mtbf_years = 42\n", base);
  EXPECT_EQ(scenario.n, 10);
  EXPECT_EQ(scenario.p, 100);
  EXPECT_EQ(scenario.runs, 3);
  EXPECT_DOUBLE_EQ(scenario.mtbf_years, 42.0);
}

TEST(ScenarioFile, ShortAliases) {
  const Scenario scenario = parse_scenario("f = 0.2\nc = 0.1\nd = 30\n");
  EXPECT_DOUBLE_EQ(scenario.sequential_fraction, 0.2);
  EXPECT_DOUBLE_EQ(scenario.checkpoint_unit_cost, 0.1);
  EXPECT_DOUBLE_EQ(scenario.downtime_seconds, 30.0);
}

TEST(ScenarioFile, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)parse_scenario("typo_key = 3\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("n = abc\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("n 100\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("n =\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("fault_law = gamma\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("period_rule = fixed\n"),
               std::runtime_error);
}

TEST(ScenarioFile, RejectsInconsistentScenarios) {
  EXPECT_THROW((void)parse_scenario("n = 100\np = 50\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("m_inf = 10\nm_sup = 5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("runs = 0\n"), std::runtime_error);
}

TEST(ScenarioFile, ParsesArrivalKeys) {
  const Scenario scenario = parse_scenario(R"(
arrival_law = poisson
load_factor = 2.5
bulk_phases = 6
)");
  EXPECT_EQ(scenario.arrival_law, extensions::ArrivalLaw::Poisson);
  EXPECT_DOUBLE_EQ(scenario.load_factor, 2.5);
  EXPECT_EQ(scenario.bulk_phases, 6);
  // `load` aliases load_factor; the trace path keeps its case.
  const Scenario alias = parse_scenario(
      "load = 0.25\narrival_law = trace\narrival_trace = /Tmp/Trace.TXT\n");
  EXPECT_DOUBLE_EQ(alias.load_factor, 0.25);
  EXPECT_EQ(alias.arrival_law, extensions::ArrivalLaw::Trace);
  EXPECT_EQ(alias.arrival_trace, "/Tmp/Trace.TXT");
}

TEST(ScenarioFile, RejectsBadArrivalSettings) {
  // Unknown laws name the accepted list; cross-field rules fail loudly.
  try {
    (void)parse_scenario("arrival_law = uniform\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("none|poisson|bulk|trace"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)parse_scenario("load_factor = 0\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("load_factor = -1\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("bulk_phases = 0\n"), std::runtime_error);
  // Trace law without a file, and a file without the trace law.
  EXPECT_THROW((void)parse_scenario("arrival_law = trace\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("arrival_trace = /tmp/t.txt\n"),
               std::runtime_error);
}

TEST(ScenarioFile, ArrivalKeysRoundTripThroughFormat) {
  Scenario original;
  original.arrival_law = extensions::ArrivalLaw::Bulk;
  original.load_factor = 0.125;
  original.bulk_phases = 3;
  const Scenario round_trip = parse_scenario(format_scenario(original));
  EXPECT_EQ(round_trip.arrival_law, original.arrival_law);
  EXPECT_DOUBLE_EQ(round_trip.load_factor, original.load_factor);
  EXPECT_EQ(round_trip.bulk_phases, original.bulk_phases);

  Scenario with_trace;
  with_trace.arrival_law = extensions::ArrivalLaw::Trace;
  with_trace.arrival_trace = "/tmp/releases.txt";
  const Scenario trace_trip = parse_scenario(format_scenario(with_trace));
  EXPECT_EQ(trace_trip.arrival_law, extensions::ArrivalLaw::Trace);
  EXPECT_EQ(trace_trip.arrival_trace, with_trace.arrival_trace);
}

TEST(ScenarioFile, FormatParsesBackIdentically) {
  Scenario original;
  original.n = 33;
  original.p = 444;
  original.mtbf_years = 55.5;
  original.fault_law = FaultLaw::Weibull;
  original.weibull_shape = 0.51;
  original.period_rule = checkpoint::PeriodRule::Daly;
  original.seed = 123456789;
  const Scenario round_trip = parse_scenario(format_scenario(original));
  EXPECT_EQ(round_trip.n, original.n);
  EXPECT_EQ(round_trip.p, original.p);
  EXPECT_DOUBLE_EQ(round_trip.mtbf_years, original.mtbf_years);
  EXPECT_EQ(round_trip.fault_law, original.fault_law);
  EXPECT_DOUBLE_EQ(round_trip.weibull_shape, original.weibull_shape);
  EXPECT_EQ(round_trip.period_rule, original.period_rule);
  EXPECT_EQ(round_trip.seed, original.seed);
}

/// Run `text` through the parser and return the error message, failing
/// the test if it parses cleanly.
std::string parse_error_of(const std::string& text) {
  try {
    (void)parse_scenario(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a parse error for: " << text;
  return "";
}

void expect_exact_round_trip(const Scenario& original) {
  const std::string text = format_scenario(original);
  const Scenario r = parse_scenario(text);
  EXPECT_EQ(r.n, original.n) << text;
  EXPECT_EQ(r.p, original.p) << text;
  // EXPECT_EQ on doubles is exact (operator==): the format must
  // reproduce every bit, not just be close.
  EXPECT_EQ(r.m_inf, original.m_inf) << text;
  EXPECT_EQ(r.m_sup, original.m_sup) << text;
  EXPECT_EQ(r.sequential_fraction, original.sequential_fraction) << text;
  EXPECT_EQ(r.mtbf_years, original.mtbf_years) << text;
  EXPECT_EQ(r.downtime_seconds, original.downtime_seconds) << text;
  EXPECT_EQ(r.checkpoint_unit_cost, original.checkpoint_unit_cost) << text;
  EXPECT_EQ(r.period_rule, original.period_rule) << text;
  EXPECT_EQ(r.fault_law, original.fault_law) << text;
  EXPECT_EQ(r.weibull_shape, original.weibull_shape) << text;
  EXPECT_EQ(r.arrival_law, original.arrival_law) << text;
  EXPECT_EQ(r.load_factor, original.load_factor) << text;
  EXPECT_EQ(r.bulk_phases, original.bulk_phases) << text;
  EXPECT_EQ(r.arrival_trace, original.arrival_trace) << text;
  EXPECT_EQ(r.runs, original.runs) << text;
  EXPECT_EQ(r.seed, original.seed) << text;
}

/// lambda_j tau at m_sup of a faulty scenario, from the period rule's
/// closed form in x = c m_sup / mu (Young: sqrt(2x) + x; Daly: 1 + x from
/// x >= 2 on, where the period is mu_j + C_j).
double exposure_at_m_sup(const Scenario& s) {
  const double x =
      s.checkpoint_unit_cost * s.m_sup / units::years(s.mtbf_years);
  if (s.period_rule == checkpoint::PeriodRule::Young)
    return std::sqrt(2.0 * x) + x;
  if (x >= 2.0) return 1.0 + x;
  return std::sqrt(2.0 * x) * (1.0 + std::sqrt(x / 2.0) / 3.0 + x / 18.0) +
         x;
}

TEST(ScenarioFile, RoundTripPropertyOverRandomizedScenarios) {
  Rng rng(20260726);
  int refused = 0;
  int odd = 0;
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  for (int iteration = 0; iteration < 200; ++iteration) {
    Scenario s;
    s.n = 1 + static_cast<int>(rng.uniform_int(0, 499));
    s.p = 2 * s.n + static_cast<int>(rng.uniform_int(0, 5000));
    s.m_inf = 1.0 + log_uniform(1e-6, 1e12);
    s.m_sup = s.m_inf * log_uniform(1.0, 1e6);
    s.sequential_fraction = rng.uniform01();
    s.mtbf_years = iteration % 5 == 0 ? 0.0 : log_uniform(1e-3, 1e5);
    s.downtime_seconds = log_uniform(1e-3, 1e6);
    s.checkpoint_unit_cost = log_uniform(1e-9, 1e3);
    s.period_rule = iteration % 2 == 0 ? checkpoint::PeriodRule::Young
                                       : checkpoint::PeriodRule::Daly;
    s.fault_law =
        iteration % 3 == 0 ? FaultLaw::Weibull : FaultLaw::Exponential;
    s.weibull_shape = rng.uniform(0.05, 5.0);
    switch (iteration % 4) {
      case 0: s.arrival_law = extensions::ArrivalLaw::None; break;
      case 1: s.arrival_law = extensions::ArrivalLaw::Poisson; break;
      case 2: s.arrival_law = extensions::ArrivalLaw::Bulk; break;
      default:
        s.arrival_law = extensions::ArrivalLaw::Trace;
        s.arrival_trace = "/tmp/trace_" + std::to_string(iteration);
        break;
    }
    s.load_factor = log_uniform(1e-3, 1e3);
    s.bulk_phases = 1 + static_cast<int>(rng.uniform_int(0, 19));
    s.runs = 1 + static_cast<int>(rng.uniform_int(0, 99));
    s.seed = rng();  // the full 64-bit range, beyond double precision
    // An odd platform is refused by 'p' before the exposure keys; its
    // even twin p + 1 takes the branches below.
    if (s.p % 2 != 0) {
      ++odd;
      const std::string error = parse_error_of(format_scenario(s));
      EXPECT_NE(error.find("key 'p' must be even"), std::string::npos)
          << "iteration " << iteration << ": " << error;
      ++s.p;
    }
    // A faulty draw whose checkpoint periods almost never complete is
    // refused by the three keys that set its exposure.
    if (s.mtbf_years > 0.0 && exposure_at_m_sup(s) > 10.0 * std::log(2.0)) {
      ++refused;
      const std::string error = parse_error_of(format_scenario(s));
      for (const char* key :
           {"'mtbf_years'", "'checkpoint_unit_cost'", "'m_sup'"})
        EXPECT_NE(error.find(key), std::string::npos)
            << "iteration " << iteration << ": " << error;
      continue;
    }
    expect_exact_round_trip(s);
  }
  // 35 of the 160 faulty draws sit past the bound; the other 125 and the
  // 40 fault-free ones round-trip. 103 draws have an odd p, 17 of them
  // also past the bound.
  EXPECT_EQ(refused, 35);
  EXPECT_EQ(odd, 103);
}

TEST(ScenarioFile, RoundTripSurvivesExtremeValues) {
  Scenario s;
  s.n = 1;
  s.p = 2;
  s.m_inf = std::nextafter(1.0, 2.0);  // smallest legal window start
  s.m_sup = 1e300;
  s.sequential_fraction = 0x1.fffffffffffffp-1;  // largest double < 1
  // The fault-free spelling: a faulty model at these m_sup and c would
  // have no checkpoint period that leaves room for work (below).
  s.mtbf_years = 0.0;
  // Denormals are out: std::stod throws out_of_range on ERANGE underflow.
  s.downtime_seconds = std::numeric_limits<double>::min();
  s.checkpoint_unit_cost = std::numeric_limits<double>::max();
  s.weibull_shape = 0.12345678901234567;
  s.runs = 1 << 20;  // the largest runs validate_scenario accepts
  s.seed = std::numeric_limits<std::uint64_t>::max();  // > 2^53
  expect_exact_round_trip(s);
  // A tiny MTBF runs when the checkpoints shrink with it: c m_sup / mu
  // stays about 1/13, as at the paper's defaults it is about 1/1260.
  Scenario faulty = s;
  faulty.m_sup = 2.5e6;
  faulty.mtbf_years = 1e-100;
  faulty.checkpoint_unit_cost = 1e-100;
  expect_exact_round_trip(faulty);
  s.mtbf_years = 1e-300;
  const std::string refused = parse_error_of(format_scenario(s));
  EXPECT_NE(refused.find("'mtbf_years'"), std::string::npos) << refused;
}

TEST(ScenarioFile, SeedParsesAsFullWidthInteger) {
  const Scenario s =
      parse_scenario("n = 1\np = 2\nseed = 18446744073709551615\n");
  EXPECT_EQ(s.seed, std::numeric_limits<std::uint64_t>::max());
  // Scientific notation still works through the double path.
  EXPECT_EQ(parse_scenario("n = 1\np = 2\nseed = 1e6\n").seed, 1000000u);
  EXPECT_THROW((void)parse_scenario("seed = -3\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("seed = 12abc\n"), std::runtime_error);
  // A fractional seed is a typo, not a truncation request.
  EXPECT_THROW((void)parse_scenario("seed = 1.5\n"), std::runtime_error);
}

TEST(ScenarioFile, ParseErrorsNameTheOffendingLine) {
  try {
    (void)parse_scenario("n = 5\np = 10\nmtbf_years = oops\n");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("mtbf_years = oops"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioFile, NumberErrorsNameTheOffendingKey) {
  // Scenario files are hand-edited; a bare "malformed number" without the
  // key makes a 40-line grid a guessing game. Each stod/stoull path must
  // echo the key and the rejected value.
  std::string error = parse_error_of("n = 12x\n");
  EXPECT_NE(error.find("key 'n'"), std::string::npos) << error;
  EXPECT_NE(error.find("12x"), std::string::npos) << error;

  error = parse_error_of("n = 1\np = 2\nmtbf_years = 1e999\n");
  EXPECT_NE(error.find("key 'mtbf_years'"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  error = parse_error_of("n = 1\np = 2\nsequential_fraction = oops\n");
  EXPECT_NE(error.find("key 'sequential_fraction'"), std::string::npos)
      << error;
}

TEST(ScenarioFile, IntegerKeysRefuseToWrap) {
  // 3e9 overflows int; the cast must fail loudly instead of wrapping
  // through UB into a negative task count.
  std::string error = parse_error_of("n = 3e9\n");
  EXPECT_NE(error.find("key 'n'"), std::string::npos) << error;
  EXPECT_NE(error.find("does not fit a 32-bit integer"), std::string::npos)
      << error;
  error = parse_error_of("n = 1\np = 2\nruns = 1e18\n");
  EXPECT_NE(error.find("key 'runs'"), std::string::npos) << error;
}

TEST(ScenarioFile, PlatformCheckHoldsWhereTwoNOverflowsInt) {
  // 2n exceeds INT_MAX for both n: the p >= 2n check must not wrap into
  // accepting a platform smaller than the pack needs.
  for (const char* text : {"n = 1500000000\np = 2000000000\n",
                           "n = 1073741824\np = 2000000000\n"}) {
    const std::string error = parse_error_of(text);
    EXPECT_NE(error.find("need p >= 2n"), std::string::npos)
        << text << " -> " << error;
  }
}

TEST(ScenarioFile, BoundaryIntegersAreAcceptedOrRefusedByKey) {
  // Every integer key at 0, -1, 2^31 - 1, 2^31, 2^63 - 1 and 2^63, over
  // the default scenario (n = 100, p = 1000); parse and validate only.
  // 'A' marks a value that is accepted; any other is refused with an
  // error naming its key. p = 2^31 - 1 passes p >= 2n but not p <= 2^20,
  // runs = 2^31 - 1 not runs <= 2^20.
  const char* const values[] = {"0",
                                "-1",
                                "2147483647",
                                "2147483648",
                                "9223372036854775807",
                                "9223372036854775808"};
  const struct {
    const char* key;
    const char* verdicts;  ///< one per value
  } rows[] = {
      {"n", "RRRRRR"},    {"p", "RRRRRR"},           {"runs", "RRRRRR"},
      {"seed", "ARAAAA"}, {"bulk_phases", "RRARRR"},
  };
  for (const auto& row : rows) {
    for (std::size_t v = 0; v < std::size(values); ++v) {
      const std::string text = std::string(row.key) + " = " + values[v];
      SCOPED_TRACE(text);
      std::string error;
      try {
        (void)parse_scenario(text);
      } catch (const std::runtime_error& refused) {
        error = refused.what();
      }
      if (row.verdicts[v] == 'A') {
        EXPECT_EQ(error, "");
      } else {
        EXPECT_NE(error.find(std::string("'") + row.key + "'"),
                  std::string::npos)
            << error;
      }
    }
  }
}

TEST(ScenarioFile, RunsCeilingIsTwoToTheTwentieth) {
  // Parse and validate only: a run would size one cell per repetition.
  EXPECT_EQ(parse_scenario("runs = 1048576\n").runs, 1 << 20);
  EXPECT_EQ(parse_error_of("runs = 1048577\n"),
            "scenario: key 'runs' must be <= 2^20 = 1048576, got 1048577");
}

TEST(ScenarioFile, IntegerKeysRefuseFractions) {
  const std::string error = parse_error_of("n = 6.5\n");
  EXPECT_NE(error.find("key 'n'"), std::string::npos) << error;
  EXPECT_NE(error.find("not an integer"), std::string::npos) << error;
  EXPECT_EQ(parse_scenario("n = 6e0\np = 24\n").n, 6);
}

TEST(ScenarioFile, OutOfDomainValuesAreRejectedByKey) {
  // Each value parses as a number, and each would abort a run on a
  // contract deep in the model, or (a NaN MTBF) silently run fault-free.
  // The error names the key the file spelled, alias or not.
  const struct {
    const char* text;
    const char* key;
  } rows[] = {
      {"c = 0\n", "'c'"},
      {"checkpoint_unit_cost = -1\n", "'checkpoint_unit_cost'"},
      {"c = inf\n", "'c'"},
      {"f = 2\n", "'f'"},
      {"f = -0.25\n", "'f'"},
      {"sequential_fraction = nan\n", "'sequential_fraction'"},
      {"d = -1\n", "'d'"},
      {"downtime_seconds = inf\n", "'downtime_seconds'"},
      {"m_inf = nan\n", "'m_inf'"},
      {"m_sup = inf\n", "'m_sup'"},
      {"fault_law = weibull\nweibull_shape = 0\n", "'weibull_shape'"},
      {"weibull_shape = nan\n", "'weibull_shape'"},
      {"mtbf_years = nan\n", "'mtbf_years'"},
      {"mtbf_years = -1\n", "'mtbf_years'"},
      {"mtbf_years = inf\n", "'mtbf_years'"},
      {"m_inf = 1\n", "'m_inf'"},
      {"m_inf = 10\nm_sup = 5\n", "'m_sup'"},
      {"load_factor = 0\n", "'load_factor'"},
      {"load = nan\n", "'load'"},
      // t(m_sup, 1) overflows, fault-free or not.
      {"mtbf_years = 0\nm_inf = 1e306\nm_sup = 1e306\n", "'m_sup'"},
      // At c = 1 and MTBF 100 y, tau - C rounds to 0 (m = 1e100) or tau
      // overflows (m = 1e300): the first Eq. 4 fill would abort a run.
      {"m_inf = 1e100\nm_sup = 1e100\n", "'m_sup'"},
      {"m_inf = 1e300\nm_sup = 1e300\n", "'m_sup'"},
      {"m_inf = 1e100\nm_sup = 1e100\n", "'checkpoint_unit_cost'"},
      {"m_inf = 1e100\nm_sup = 1e100\n", "'mtbf_years'"},
      // Periods that almost never complete: at c = 1 and MTBF 100 y, x =
      // c m / mu is about 3,200 (m = 1e13) or 6 (m = 1.893456e10), past
      // the Young exposure sqrt(2x) + x <= 10 ln 2 (x <= 4.08). The runs
      // would crawl for hours, not abort.
      {"m_inf = 1e13\nm_sup = 1e13\n", "'m_sup'"},
      {"m_inf = 1e13\nm_sup = 1e13\n", "'checkpoint_unit_cost'"},
      {"m_inf = 1e13\nm_sup = 1e13\n", "'mtbf_years'"},
      {"m_sup = 1.893456e10\n", "'m_sup'"},
      // Allocations are buddy pairs: the engine refuses an odd platform
      // and the online simulators round it down.
      {"n = 5\np = 19\n", "'p'"},
  };
  for (const auto& row : rows) {
    const std::string error = parse_error_of(row.text);
    EXPECT_NE(error.find(row.key), std::string::npos)
        << row.text << " -> " << error;
  }
  EXPECT_EQ(parse_error_of("m_inf = 10\nm_sup = 5\n"),
            "scenario: key 'm_sup' must be >= m_inf = 10, got 5");
  EXPECT_EQ(parse_error_of("load_factor = -1\n"),
            "scenario: key 'load_factor' (alias 'load') must be > 0, got -1");
  EXPECT_EQ(parse_error_of("p = 1001\n"),
            "scenario: key 'p' must be even (processors pair as buddies), "
            "got 1001");
  // The same m_sup runs fault-free, and a faulty model runs it where the
  // checkpoints shrink with it.
  EXPECT_EQ(parse_scenario("mtbf_years = 0\nm_inf = 1e100\nm_sup = 1e100\n")
                .m_sup,
            1e100);
  EXPECT_EQ(parse_scenario("c = 1e-95\nm_inf = 1e100\nm_sup = 1e100\n")
                .m_sup,
            1e100);
  // Just inside the exposure bound (x about 3.96) still runs.
  EXPECT_EQ(parse_scenario("m_inf = 1.25e10\nm_sup = 1.25e10\n").m_sup,
            1.25e10);
  // The domains' edges are in, and 0 stays the fault-free spelling.
  const Scenario edges =
      parse_scenario("mtbf_years = 0\nf = 0\nd = 0\nc = 1e-9\n");
  EXPECT_DOUBLE_EQ(edges.mtbf_years, 0.0);
  EXPECT_DOUBLE_EQ(parse_scenario("f = 1\n").sequential_fraction, 1.0);
}

TEST(ScenarioFile, SeedRejectionsNameTheKeyAndConstraint) {
  const std::string error = parse_error_of("n = 1\np = 2\nseed = -3\n");
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_NE(error.find("non-negative"), std::string::npos) << error;
}

TEST(ScenarioFile, EmptyValuesAreRejected) {
  EXPECT_NE(parse_error_of("n =\n").find("missing value"), std::string::npos);
  EXPECT_NE(parse_error_of("= 5\n").find("missing key"), std::string::npos);
}

TEST(ScenarioFile, LoadsFromDisk) {
  const auto path =
      std::filesystem::temp_directory_path() / "coredis_scenario_test.txt";
  {
    std::ofstream file(path);
    file << "n = 5\np = 40\nruns = 2\n";
  }
  const Scenario scenario = load_scenario(path.string());
  EXPECT_EQ(scenario.n, 5);
  EXPECT_EQ(scenario.p, 40);
  std::filesystem::remove(path);
  EXPECT_THROW((void)load_scenario(path.string()), std::runtime_error);
}

}  // namespace
}  // namespace coredis::exp
