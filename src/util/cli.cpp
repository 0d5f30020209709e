#include "util/cli.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace coredis {

CliParser::CliParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  describe("help", "print this message and exit");
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("positional arguments are not supported: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    Option option;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      option = {std::string(arg.substr(0, eq)),
                std::string(arg.substr(eq + 1))};
    } else if (i + 1 < argc &&
               !std::string_view(argv[i + 1]).starts_with("--")) {
      // `--name value` unless the next token is another flag (then boolean).
      option = {std::string(arg), argv[i + 1]};
      ++i;
    } else {
      option = {std::string(arg), "true"};
    }
    // A repeated flag would silently keep one of its values.
    for (const Option& seen : options_)
      if (seen.name == option.name)
        throw std::invalid_argument("--" + option.name +
                                    " given more than once ('" + seen.value +
                                    "', then '" + option.value + "')");
    options_.push_back(std::move(option));
  }
}

CliParser& CliParser::describe(std::string_view name, std::string_view help) {
  described_.push_back({std::string(name), std::string(help)});
  return *this;
}

bool CliParser::has(std::string_view name) const {
  return std::any_of(options_.begin(), options_.end(),
                     [&](const Option& o) { return o.name == name; });
}

std::optional<std::string> CliParser::get(std::string_view name) const {
  for (const Option& o : options_)
    if (o.name == name) return o.value;
  return std::nullopt;
}

std::string CliParser::get_string(std::string_view name,
                                  std::string_view fallback) const {
  if (auto v = get(name)) return *v;
  return std::string(fallback);
}

long CliParser::get_int(std::string_view name, long fallback) const {
  if (auto v = get(name)) {
    try {
      std::size_t used = 0;
      const long value = std::stol(*v, &used);
      if (used == v->size()) return value;  // `6x` is not 6
    } catch (const std::exception&) {
    }
    throw std::invalid_argument("--" + std::string(name) +
                                " expects an integer, got '" + *v + "'");
  }
  return fallback;
}

double CliParser::get_double(std::string_view name, double fallback) const {
  if (auto v = get(name)) {
    try {
      std::size_t used = 0;
      const double value = std::stod(*v, &used);
      if (used == v->size()) return value;  // `5years` is not 5
    } catch (const std::exception&) {
    }
    throw std::invalid_argument("--" + std::string(name) +
                                " expects a number, got '" + *v + "'");
  }
  return fallback;
}

bool CliParser::get_bool(std::string_view name, bool fallback) const {
  if (auto v = get(name)) {
    if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
    if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
    throw std::invalid_argument("--" + std::string(name) +
                                " expects a boolean, got '" + *v + "'");
  }
  return fallback;
}

std::string CliParser::usage(std::string_view program_summary) const {
  std::ostringstream out;
  out << program_ << " — " << program_summary << "\n\nOptions:\n";
  for (const Described& d : described_)
    out << "  --" << d.name << "\n      " << d.help << "\n";
  return out.str();
}

void CliParser::reject_unknown() const {
  for (const Option& o : options_) {
    const bool known =
        std::any_of(described_.begin(), described_.end(),
                    [&](const Described& d) { return d.name == o.name; });
    if (!known)
      throw std::invalid_argument("unknown option --" + o.name +
                                  " (see --help)");
  }
}

}  // namespace coredis
