#pragma once

/// \file cli.hpp
/// Minimal command-line option parser for the bench / example binaries.
///
/// Every figure-reproduction binary accepts `--runs`, `--seed`, `--csv`,
/// etc.; this parser keeps them uniform. Flags are `--name value` or
/// `--name=value`; bare `--name` reads as boolean true. Unknown flags,
/// repeated flags and numbers with trailing characters are errors, so
/// typos do not silently fall back to defaults or to one of two values.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace coredis {

class CliParser {
 public:
  /// Parse argv. Throws std::invalid_argument on malformed input,
  /// naming the flag (a flag given twice names both values).
  CliParser(int argc, const char* const* argv);

  /// Declare an option so --help can document it and unknown-flag checking
  /// can accept it. Returns *this for chaining.
  CliParser& describe(std::string_view name, std::string_view help);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const;

  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string_view fallback) const;
  [[nodiscard]] long get_int(std::string_view name, long fallback) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback = false) const;

  /// True when --help was passed; callers print usage() and exit 0.
  [[nodiscard]] bool wants_help() const { return has("help"); }
  [[nodiscard]] std::string usage(std::string_view program_summary) const;

  /// Abort with a readable message when an undeclared flag was supplied.
  void reject_unknown() const;

 private:
  struct Option {
    std::string name;
    std::string value;
  };
  struct Described {
    std::string name;
    std::string help;
  };
  std::vector<Option> options_;
  std::vector<Described> described_;
  std::string program_;
};

}  // namespace coredis
