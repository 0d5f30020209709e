#pragma once

/// \file options.hpp
/// Typed, documented policy options and the policy-string grammar
/// (DESIGN.md section 10).
///
/// A policy string is a name with an optional option list:
///
///   bandit
///   bandit(window=50, explore=0.1)
///   pack(end=greedy, fail=stf)
///
/// Names and option keys are identifiers ([A-Za-z_][A-Za-z0-9_]*);
/// values are typed per the policy's declared OptionSpecs (integer,
/// floating point, boolean, or an enumerated choice). Parsing is strict:
/// unknown keys, malformed values, duplicate keys, unbalanced
/// parentheses and trailing garbage all throw std::runtime_error naming
/// the offending token — never abort.
///
/// Every policy string has one *canonical* form: the policy name alone
/// when every option is at its default, otherwise the name with the
/// non-default options in spec-declaration order, doubles printed with
/// the fewest digits that round-trip. parse(format(values)) == values
/// for every representable option set (the policy-string property test
/// pins this for every registered policy).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace coredis::policy {

enum class OptionType { Int, Double, Bool, Enum };

/// One documented option of a policy: the registry's unit of
/// self-description (--list-policies renders these) and of validation.
struct OptionSpec {
  std::string name;           ///< identifier, unique within the policy
  OptionType type = OptionType::Int;
  std::string default_value;  ///< canonical text of the default
  std::string doc;            ///< one-line description
  std::vector<std::string> choices;  ///< Enum only: accepted values
  double min_value = 0.0;     ///< Int/Double only; min > max = unbounded
  double max_value = -1.0;

  [[nodiscard]] bool bounded() const noexcept { return min_value <= max_value; }
};

/// OptionSpec builders, one per type: name, default, the type's
/// constraint (bounds or choices), then the one-line doc.
[[nodiscard]] OptionSpec int_option(std::string name,
                                    std::string default_value,
                                    double min_value, double max_value,
                                    std::string doc);
[[nodiscard]] OptionSpec double_option(std::string name,
                                       std::string default_value,
                                       double min_value, double max_value,
                                       std::string doc);
[[nodiscard]] OptionSpec bool_option(std::string name, bool default_value,
                                     std::string doc);
[[nodiscard]] OptionSpec enum_option(std::string name,
                                     std::string default_value,
                                     std::vector<std::string> choices,
                                     std::string doc);

/// A validated assignment of values to one policy's OptionSpecs. Values
/// are stored as canonical text aligned with the spec vector; the typed
/// accessors re-parse (cheap, and the single source of truth stays the
/// canonical text the formatter emits).
class OptionSet {
 public:
  OptionSet() = default;
  OptionSet(const std::vector<OptionSpec>* specs,
            std::vector<std::string> values)
      : specs_(specs), values_(std::move(values)) {}

  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  /// Enum accessor: the canonical choice string.
  [[nodiscard]] const std::string& get_enum(const std::string& name) const;

  /// Canonical text of option `name` (any type).
  [[nodiscard]] const std::string& raw(const std::string& name) const;

  [[nodiscard]] const std::vector<OptionSpec>& specs() const {
    return *specs_;
  }
  [[nodiscard]] const std::vector<std::string>& values() const {
    return values_;
  }

 private:
  [[nodiscard]] std::size_t index_of(const std::string& name) const;

  const std::vector<OptionSpec>* specs_ = nullptr;
  std::vector<std::string> values_;
};

/// A tokenized (not yet validated) policy string: the name plus the
/// key=value pairs in written order.
struct RawPolicy {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;
};

/// Split a policy string into name and raw key=value pairs. Throws
/// std::runtime_error naming the offending token on malformed input
/// (bad identifier, missing '=', empty value, duplicate key, unbalanced
/// parentheses, trailing garbage).
[[nodiscard]] RawPolicy tokenize_policy(const std::string& text);

/// Validate `raw.options` against `specs`: every key must name a spec,
/// every value must parse as the spec's type (and choice / bounds).
/// Unset options take their defaults. Errors name the offending key or
/// value and list what would have been accepted; `policy` labels the
/// messages.
[[nodiscard]] OptionSet validate_options(const std::string& policy,
                                         const std::vector<OptionSpec>& specs,
                                         const RawPolicy& raw);

/// The canonical policy string for `values`: name alone when everything
/// is at its default, otherwise name(k=v, ...) over the non-default
/// options in spec order.
[[nodiscard]] std::string format_policy(const std::string& name,
                                        const OptionSet& values);

/// Canonical text of a double: the fewest %.Ng digits that strtod back
/// to the same bits. Shared with the formatter so values round-trip.
[[nodiscard]] std::string canonical_double(double value);

/// "int" / "float" / "bool" / "a|b|c" — the type column of the
/// self-listing.
[[nodiscard]] std::string describe_type(const OptionSpec& spec);

}  // namespace coredis::policy
