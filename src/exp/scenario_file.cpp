#include "exp/scenario_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "checkpoint/model.hpp"
#include "speedup/synthetic.hpp"

namespace coredis::exp {

namespace detail {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

bool split_assignment(const std::string& raw, std::string& key,
                      std::string& value) {
  std::string line = trim(raw);
  const auto comment = line.find('#');
  if (comment != std::string::npos) line = trim(line.substr(0, comment));
  if (line.empty()) return false;
  const auto eq = line.find('=');
  if (eq == std::string::npos) throw std::runtime_error("missing '='");
  key = lower(trim(line.substr(0, eq)));
  value = trim(line.substr(eq + 1));
  if (key.empty()) throw std::runtime_error("missing key");
  if (value.empty()) throw std::runtime_error("missing value");
  return true;
}

}  // namespace detail

namespace {

using detail::lower;
using detail::trim;

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("scenario: " + why);
}

/// Every std::stod/std::stoull path below names the offending key in its
/// error: a campaign file is edited by hand, and "malformed number"
/// without the key makes a 40-line grid a guessing game. The exception
/// taxonomy matters too — out_of_range (overflow) must not masquerade as
/// a generic malformed value, and no input may reach the caller as a
/// silently wrapped cast.
double parse_number(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size())
      fail("key '" + key + "': trailing characters in '" + value + "'");
    return parsed;
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::out_of_range&) {
    fail("key '" + key + "': number out of range in '" + value + "'");
  } catch (const std::exception&) {
    fail("key '" + key + "': malformed number '" + value + "'");
  }
}

/// Integer-valued keys (n, p, runs, bulk_phases) parse through the double
/// path for the file format's scientific notation, then range-check
/// before the cast — a value like 3e9 must fail loudly, not wrap through
/// undefined behaviour into a negative task count, and 6.5 is not 6.
int parse_int(const std::string& key, const std::string& value) {
  const double parsed = parse_number(key, value);
  constexpr double kMax = std::numeric_limits<int>::max();
  if (!(parsed >= -kMax && parsed <= kMax))
    fail("key '" + key + "': value '" + value +
         "' does not fit a 32-bit integer");
  if (parsed != std::floor(parsed))
    fail("key '" + key + "': value '" + value + "' is not an integer");
  return static_cast<int>(parsed);
}

/// The shortest text that reads back as the value: runs = 1048577 must
/// not print as 1.04858e+06, which looks in range.
std::string exact(double value) {
  char text[32];
  const auto end = std::to_chars(text, text + sizeof text, value).ptr;
  return std::string(text, end);
}

/// A real-valued key outside its domain, named with its alias if it has
/// one: the value parsed, but the model would abort on it (a contract
/// deep in a run) or misread it (a NaN MTBF runs fault-free).
void require(bool in_domain, const std::string& key, const std::string& domain,
             double value) {
  if (in_domain) return;
  fail("key " + key + " must be " + domain + ", got " + exact(value));
}

/// Whether a faulty model leaves useful work in every checkpoint period:
/// Eq. 2 divides by tau - C, which the Eq. 4 fill asserts is positive.
/// In exact arithmetic (tau - C) / C depends on c m_i / mu only, not on
/// j, so it is tightest at m_sup; rounding moves it where the products
/// of the period rule overflow (j = 2) or C_{i,j} nears the subnormals
/// (j = p). Each corner must keep tau finite and tau - C >= 2^-40 C,
/// margin enough that no j in between rounds it to 0.
bool periods_leave_work(const Scenario& scenario) {
  const checkpoint::Model resilience(scenario.resilience_params());
  for (const double m : {scenario.m_inf, scenario.m_sup}) {
    for (const int j : {2, scenario.p}) {
      const double seq = resilience.sequential_cost(m);
      const double cost = resilience.cost(seq, j);
      const double tau = resilience.period(seq, j);
      if (!(std::isfinite(tau) && tau - cost >= 0x1p-40 * cost)) return false;
    }
  }
  return true;
}

/// Whether a faulty run gets through its checkpoint periods: Eq. 4
/// retries a period e^{lambda_j tau_{i,j}} times on average, and the
/// exposure lambda_j tau_{i,j} is j-independent in exact arithmetic
/// (sqrt(2x) + x under Young, x = c m_i / mu) and grows with m_i. Past
/// 10 ln 2, more than 2^10 expected attempts per period, a run crawls:
/// at n = 4, p = 16 under Young, x = 4 takes 2.5 M events and x = 6 takes
/// 61.5 M. Checked at m_sup, j = 2 and j = p, with the model's own rate
/// and period.
bool periods_complete(const Scenario& scenario) {
  const checkpoint::Model resilience(scenario.resilience_params());
  const double seq = resilience.sequential_cost(scenario.m_sup);
  for (const int j : {2, scenario.p})
    if (!(resilience.task_rate(j) * resilience.period(seq, j) <=
          10.0 * std::log(2.0)))
      return false;
  return true;
}

/// Seeds are 64-bit and must round-trip exactly, so they are parsed as a
/// decimal integer first; scientific notation ("1e6") still works through
/// the double path as long as the value fits in 53 bits.
std::uint64_t parse_seed(const std::string& key, const std::string& value) {
  if (!value.empty() && value.front() != '-') {
    try {
      std::size_t used = 0;
      const unsigned long long parsed = std::stoull(value, &used, 10);
      if (used == value.size()) return parsed;
    } catch (const std::exception&) {
      // fall through to the double path
    }
  }
  const double parsed = parse_number(key, value);
  if (!(parsed >= 0.0) || parsed >= 0x1.0p64 ||
      parsed != std::floor(parsed))
    fail("key '" + key + "': seed must be a non-negative 64-bit integer, got '" +
         value + "'");
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

bool apply_scenario_key(Scenario& scenario, const std::string& key,
                        const std::string& value) {
  if (key == "n") {
    scenario.n = parse_int(key, value);
  } else if (key == "p") {
    scenario.p = parse_int(key, value);
  } else if (key == "m_inf") {
    scenario.m_inf = parse_number(key, value);
  } else if (key == "m_sup") {
    scenario.m_sup = parse_number(key, value);
  } else if (key == "sequential_fraction" || key == "f") {
    scenario.sequential_fraction = parse_number(key, value);
  } else if (key == "mtbf_years") {
    scenario.mtbf_years = parse_number(key, value);
  } else if (key == "downtime_seconds" || key == "d") {
    scenario.downtime_seconds = parse_number(key, value);
  } else if (key == "checkpoint_unit_cost" || key == "c") {
    scenario.checkpoint_unit_cost = parse_number(key, value);
  } else if (key == "runs") {
    scenario.runs = parse_int(key, value);
  } else if (key == "seed") {
    scenario.seed = parse_seed(key, value);
  } else if (key == "weibull_shape") {
    scenario.weibull_shape = parse_number(key, value);
  } else if (key == "arrival_law") {
    const std::string law = lower(trim(value));
    if (law == "none") {
      scenario.arrival_law = extensions::ArrivalLaw::None;
    } else if (law == "poisson") {
      scenario.arrival_law = extensions::ArrivalLaw::Poisson;
    } else if (law == "bulk") {
      scenario.arrival_law = extensions::ArrivalLaw::Bulk;
    } else if (law == "trace") {
      scenario.arrival_law = extensions::ArrivalLaw::Trace;
    } else {
      fail("unknown arrival law (none|poisson|bulk|trace)");
    }
  } else if (key == "load_factor" || key == "load") {
    scenario.load_factor = parse_number(key, value);
  } else if (key == "bulk_phases") {
    scenario.bulk_phases = parse_int(key, value);
  } else if (key == "arrival_trace") {
    scenario.arrival_trace = value;  // verbatim path; not lower-cased
  } else if (key == "fault_law") {
    const std::string law = lower(trim(value));
    if (law == "exponential") {
      scenario.fault_law = FaultLaw::Exponential;
    } else if (law == "weibull") {
      scenario.fault_law = FaultLaw::Weibull;
    } else {
      fail("unknown fault law (exponential|weibull)");
    }
  } else if (key == "period_rule") {
    const std::string rule = lower(trim(value));
    if (rule == "young") {
      scenario.period_rule = checkpoint::PeriodRule::Young;
    } else if (rule == "daly") {
      scenario.period_rule = checkpoint::PeriodRule::Daly;
    } else {
      fail("unknown period rule (young|daly)");
    }
  } else {
    return false;
  }
  return true;
}

void validate_scenario(const Scenario& scenario) {
  require(scenario.n >= 1, "'n'", ">= 1", scenario.n);
  // In 64 bits: 2n overflows int from n = 2^30 on.
  if (scenario.p < 2 * std::int64_t{scenario.n})
    fail("keys 'n' and 'p': platform cannot hold the pack (need p >= 2n), "
         "got n = " + std::to_string(scenario.n) +
         ", p = " + std::to_string(scenario.p));
  // Platform::Platform alone holds three ints per processor, so p is
  // bounded by what a run can hold; the largest pinned scenario uses
  // 12,000.
  require(scenario.p <= (1 << 20), "'p'", "<= 2^20 = 1048576", scenario.p);
  // Allocations are buddy pairs: every simulator runs on an even platform.
  require(scenario.p % 2 == 0, "'p'", "even (processors pair as buddies)",
          scenario.p);
  require(std::isfinite(scenario.m_inf), "'m_inf'", "finite", scenario.m_inf);
  require(std::isfinite(scenario.m_sup), "'m_sup'", "finite", scenario.m_sup);
  require(scenario.m_inf > 1.0, "'m_inf'", "> 1", scenario.m_inf);
  require(scenario.m_sup >= scenario.m_inf, "'m_sup'",
          ">= m_inf = " + exact(scenario.m_inf), scenario.m_sup);
  const double f = scenario.sequential_fraction;
  require(f >= 0.0 && f <= 1.0, "'sequential_fraction' (alias 'f')",
          "in [0, 1]", f);
  // Eq. 10 at the largest task and one processor, its longest time.
  require(std::isfinite(
              speedup::SyntheticModel(f).sequential_time(scenario.m_sup)),
          "'m_sup'", "small enough that t(m_sup, 1) is finite",
          scenario.m_sup);
  // 0 is the fault-free spelling.
  require(std::isfinite(scenario.mtbf_years) && scenario.mtbf_years >= 0.0,
          "'mtbf_years'", "finite and >= 0 (0 = fault-free)",
          scenario.mtbf_years);
  require(std::isfinite(scenario.downtime_seconds) &&
              scenario.downtime_seconds >= 0.0,
          "'downtime_seconds' (alias 'd')", "finite and >= 0",
          scenario.downtime_seconds);
  require(std::isfinite(scenario.checkpoint_unit_cost) &&
              scenario.checkpoint_unit_cost > 0.0,
          "'checkpoint_unit_cost' (alias 'c')", "finite and > 0",
          scenario.checkpoint_unit_cost);
  if (scenario.mtbf_years > 0.0 && !periods_leave_work(scenario))
    fail("keys 'mtbf_years', 'checkpoint_unit_cost' (alias 'c') and "
         "'m_sup' leave a checkpoint period no room for work (need tau - C "
         ">= 2^-40 C for every j in [2, p]), got mtbf_years = " +
         exact(scenario.mtbf_years) +
         ", c = " + exact(scenario.checkpoint_unit_cost) +
         ", m_sup = " + exact(scenario.m_sup));
  if (scenario.mtbf_years > 0.0 && !periods_complete(scenario))
    fail("keys 'mtbf_years', 'checkpoint_unit_cost' (alias 'c') and "
         "'m_sup' make a checkpoint period fail too often to complete "
         "(need lambda_j tau <= 10 ln 2, at most 2^10 expected attempts "
         "per period), got mtbf_years = " +
         exact(scenario.mtbf_years) +
         ", c = " + exact(scenario.checkpoint_unit_cost) +
         ", m_sup = " + exact(scenario.m_sup));
  require(std::isfinite(scenario.weibull_shape) &&
              scenario.weibull_shape > 0.0,
          "'weibull_shape'", "finite and > 0", scenario.weibull_shape);
  require(scenario.runs >= 1, "'runs'", ">= 1", scenario.runs);
  // run_point sizes one CellResult per repetition before the first cell
  // runs, so runs is bounded like p; the paper uses 50. bulk_phases needs
  // no bound: make_release_times clamps it to n.
  require(scenario.runs <= (1 << 20), "'runs'", "<= 2^20 = 1048576",
          scenario.runs);
  require(scenario.load_factor > 0.0, "'load_factor' (alias 'load')", "> 0",
          scenario.load_factor);
  require(scenario.bulk_phases >= 1, "'bulk_phases'", ">= 1",
          scenario.bulk_phases);
  if (scenario.arrival_law == extensions::ArrivalLaw::Trace &&
      scenario.arrival_trace.empty())
    fail("arrival_law = trace requires arrival_trace = <file>");
  if (scenario.arrival_law != extensions::ArrivalLaw::Trace &&
      !scenario.arrival_trace.empty())
    fail("arrival_trace requires arrival_law = trace");
}

Scenario parse_scenario(const std::string& text, Scenario base) {
  std::istringstream stream(text);
  std::string raw;
  while (std::getline(stream, raw)) {
    try {
      std::string key;
      std::string value;
      if (!detail::split_assignment(raw, key, value)) continue;
      if (!apply_scenario_key(base, key, value))
        fail("unknown key '" + key + "'");
    } catch (const std::runtime_error& error) {
      throw std::runtime_error(std::string(error.what()) + " in line '" + raw +
                               "'");
    }
  }
  validate_scenario(base);
  return base;
}

Scenario load_scenario(const std::string& path, Scenario base) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_scenario(text.str(), base);
}

std::string format_scenario(const Scenario& scenario) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "n = " << scenario.n << '\n';
  out << "p = " << scenario.p << '\n';
  out << "m_inf = " << scenario.m_inf << '\n';
  out << "m_sup = " << scenario.m_sup << '\n';
  out << "sequential_fraction = " << scenario.sequential_fraction << '\n';
  out << "mtbf_years = " << scenario.mtbf_years << '\n';
  out << "downtime_seconds = " << scenario.downtime_seconds << '\n';
  out << "checkpoint_unit_cost = " << scenario.checkpoint_unit_cost << '\n';
  out << "period_rule = "
      << (scenario.period_rule == checkpoint::PeriodRule::Daly ? "daly"
                                                               : "young")
      << '\n';
  out << "fault_law = "
      << (scenario.fault_law == FaultLaw::Weibull ? "weibull" : "exponential")
      << '\n';
  out << "weibull_shape = " << scenario.weibull_shape << '\n';
  out << "arrival_law = " << extensions::to_string(scenario.arrival_law)
      << '\n';
  out << "load_factor = " << scenario.load_factor << '\n';
  out << "bulk_phases = " << scenario.bulk_phases << '\n';
  // split_assignment rejects empty values, so the (default) empty trace
  // path is expressed by omitting the line; parse(format(s)) still
  // round-trips because the base scenario's path is empty too.
  if (!scenario.arrival_trace.empty())
    out << "arrival_trace = " << scenario.arrival_trace << '\n';
  out << "runs = " << scenario.runs << '\n';
  out << "seed = " << scenario.seed << '\n';
  return out.str();
}

}  // namespace coredis::exp
