#pragma once

/// \file scenario_file.hpp
/// Plain-text scenario files: every knob of exp::Scenario as `key = value`
/// lines (# comments allowed), so campaigns are scriptable without
/// recompiling. The figure binaries accept `--scenario file` overrides.
///
/// Example:
///   # my cluster
///   n = 50
///   p = 600
///   mtbf_years = 10
///   m_inf = 1e5
///   m_sup = 2.5e6
///   fault_law = weibull
///   weibull_shape = 0.7
///   period_rule = daly
///   arrival_law = poisson     # none|poisson|bulk|trace (DESIGN.md section 8)
///   load_factor = 2           # offered load rho of the arrival process
///   runs = 25
///   seed = 7

#include <string>

#include "exp/scenario.hpp"

namespace coredis::exp {

/// Parse the `key = value` text into a Scenario, starting from `base`
/// (unspecified keys keep their base values). Throws std::runtime_error
/// with the offending line on unknown keys or malformed values.
[[nodiscard]] Scenario parse_scenario(const std::string& text,
                                      Scenario base = {});

/// Load a scenario file (see parse_scenario). Throws std::runtime_error
/// on I/O failure.
[[nodiscard]] Scenario load_scenario(const std::string& path,
                                     Scenario base = {});

/// Serialize a scenario in the same format. Doubles are printed with
/// max_digits10 significant digits and the seed as a decimal integer, so
/// parse(format(s)) reproduces every field of `s` exactly.
[[nodiscard]] std::string format_scenario(const Scenario& scenario);

/// Apply one `key = value` assignment to `scenario`, with the same key set
/// and aliases as the file format (`key` must already be trimmed and
/// lower-case). Returns false when the key is unknown. Throws
/// std::runtime_error — without line context; callers that read files wrap
/// the message with the offending line — on malformed values. The campaign
/// grid parser (exp/campaign.hpp) reuses this so sweep axes and scalar
/// overrides share one set of value semantics.
bool apply_scenario_key(Scenario& scenario, const std::string& key,
                        const std::string& value);

/// Check the invariants every parsed scenario must satisfy (p >= 2n,
/// p <= 2^20, a sane data-size window, 1 <= runs <= 2^20, and every
/// real-valued key finite and inside its domain: c > 0, f in [0, 1],
/// d >= 0, weibull_shape > 0, mtbf_years >= 0 with 0 fault-free). Throws
/// std::runtime_error naming the violated constraint, and the key where
/// one is at fault.
void validate_scenario(const Scenario& scenario);

namespace detail {

/// Shared lexing for the scenario and campaign file formats.
[[nodiscard]] std::string trim(const std::string& text);
[[nodiscard]] std::string lower(std::string text);

/// Strip `#` comments and surrounding whitespace from one raw line and
/// split it at '='. Returns false for a blank line. Throws
/// std::runtime_error (without line context) on a missing '=', key, or
/// value. `key` comes back trimmed and lower-cased, `value` trimmed.
bool split_assignment(const std::string& raw, std::string& key,
                      std::string& value);

}  // namespace detail

}  // namespace coredis::exp
