#include "policy/options.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace coredis::policy {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void skip_ws(const std::string& text, std::size_t& pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])))
    ++pos;
}

std::string scan_ident(const std::string& text, std::size_t& pos,
                       const char* what) {
  skip_ws(text, pos);
  if (pos >= text.size() || !ident_start(text[pos])) {
    std::string got;
    if (pos >= text.size()) {
      got += "end of string";
    } else {
      got += '\'';
      got.append(text, pos, 16);
      got += '\'';
    }
    std::string message = "expected ";
    message += what;
    message += ", got ";
    message += got;
    message += " in policy string '";
    message += text;
    message += '\'';
    throw std::runtime_error(message);
  }
  const std::size_t start = pos;
  while (pos < text.size() && ident_char(text[pos])) ++pos;
  return text.substr(start, pos - start);
}

[[noreturn]] void bad_value(const std::string& policy, const OptionSpec& spec,
                            const std::string& value,
                            const std::string& expected) {
  throw std::runtime_error("policy '" + policy + "': option '" + spec.name +
                           "' expects " + expected + ", got '" + value + "'");
}

std::string bounds_text(const OptionSpec& spec) {
  if (!spec.bounded()) return "";
  return " in [" + canonical_double(spec.min_value) + ", " +
         canonical_double(spec.max_value) + "]";
}

/// Parse + range-check one value against its spec, returning the
/// canonical text (so e.g. `explore=0.10` stores as `0.1` and the
/// formatter round-trips).
std::string canonicalize_value(const std::string& policy,
                               const OptionSpec& spec,
                               const std::string& value) {
  switch (spec.type) {
    case OptionType::Int: {
      const char* begin = value.c_str();
      char* end = nullptr;
      const long long parsed = std::strtoll(begin, &end, 10);
      if (end == begin || *end != '\0')
        bad_value(policy, spec, value, "an integer" + bounds_text(spec));
      if (spec.bounded() && (static_cast<double>(parsed) < spec.min_value ||
                             static_cast<double>(parsed) > spec.max_value))
        bad_value(policy, spec, value, "an integer" + bounds_text(spec));
      return std::to_string(parsed);
    }
    case OptionType::Double: {
      const char* begin = value.c_str();
      char* end = nullptr;
      const double parsed = std::strtod(begin, &end);
      if (end == begin || *end != '\0' || !std::isfinite(parsed))
        bad_value(policy, spec, value, "a finite number" + bounds_text(spec));
      if (spec.bounded() &&
          (parsed < spec.min_value || parsed > spec.max_value))
        bad_value(policy, spec, value, "a number" + bounds_text(spec));
      return canonical_double(parsed);
    }
    case OptionType::Bool: {
      if (value == "true" || value == "false") return value;
      bad_value(policy, spec, value, "true or false");
    }
    case OptionType::Enum: {
      for (const std::string& choice : spec.choices)
        if (value == choice) return value;
      bad_value(policy, spec, value, "one of " + describe_type(spec));
    }
  }
  bad_value(policy, spec, value, "a value");  // unreachable
}

}  // namespace

OptionSpec int_option(std::string name, std::string default_value,
                      double min_value, double max_value, std::string doc) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Int;
  spec.default_value = std::move(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

OptionSpec double_option(std::string name, std::string default_value,
                         double min_value, double max_value, std::string doc) {
  OptionSpec spec = int_option(std::move(name), std::move(default_value),
                               min_value, max_value, std::move(doc));
  spec.type = OptionType::Double;
  return spec;
}

OptionSpec bool_option(std::string name, bool default_value, std::string doc) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Bool;
  spec.default_value = default_value ? "true" : "false";
  spec.doc = std::move(doc);
  return spec;
}

OptionSpec enum_option(std::string name, std::string default_value,
                       std::vector<std::string> choices, std::string doc) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Enum;
  spec.default_value = std::move(default_value);
  spec.choices = std::move(choices);
  spec.doc = std::move(doc);
  return spec;
}

std::size_t OptionSet::index_of(const std::string& name) const {
  const std::vector<OptionSpec>& specs = *specs_;
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].name == name) return i;
  throw std::logic_error("policy option '" + name + "' is not declared");
}

long long OptionSet::get_int(const std::string& name) const {
  return std::strtoll(values_[index_of(name)].c_str(), nullptr, 10);
}

double OptionSet::get_double(const std::string& name) const {
  return std::strtod(values_[index_of(name)].c_str(), nullptr);
}

bool OptionSet::get_bool(const std::string& name) const {
  return values_[index_of(name)] == "true";
}

const std::string& OptionSet::get_enum(const std::string& name) const {
  return values_[index_of(name)];
}

const std::string& OptionSet::raw(const std::string& name) const {
  return values_[index_of(name)];
}

RawPolicy tokenize_policy(const std::string& text) {
  std::size_t pos = 0;
  skip_ws(text, pos);
  if (pos >= text.size())
    throw std::runtime_error("empty policy string");
  RawPolicy raw;
  raw.name = scan_ident(text, pos, "a policy name");
  skip_ws(text, pos);
  if (pos < text.size() && text[pos] == '(') {
    ++pos;
    skip_ws(text, pos);
    if (pos < text.size() && text[pos] == ')') {
      ++pos;  // empty option list: name()
    } else {
      for (;;) {
        const std::string key = scan_ident(text, pos, "an option key");
        for (const auto& [seen, value] : raw.options)
          if (seen == key)
            throw std::runtime_error("duplicate option '" + key +
                                     "' in policy string '" + text + "'");
        skip_ws(text, pos);
        if (pos >= text.size() || text[pos] != '=')
          throw std::runtime_error("expected '=' after option '" + key +
                                   "' in policy string '" + text + "'");
        ++pos;
        skip_ws(text, pos);
        const std::size_t start = pos;
        while (pos < text.size() && text[pos] != ',' && text[pos] != ')' &&
               text[pos] != '(')
          ++pos;
        if (pos < text.size() && text[pos] == '(')
          throw std::runtime_error("unexpected '(' in value of option '" +
                                   key + "' in policy string '" + text + "'");
        std::size_t stop = pos;
        while (stop > start &&
               std::isspace(static_cast<unsigned char>(text[stop - 1])))
          --stop;
        if (stop == start)
          throw std::runtime_error("empty value for option '" + key +
                                   "' in policy string '" + text + "'");
        raw.options.emplace_back(key, text.substr(start, stop - start));
        if (pos >= text.size())
          throw std::runtime_error("unbalanced parentheses in policy string '" +
                                   text + "' (missing ')')");
        if (text[pos] == ')') {
          ++pos;
          break;
        }
        ++pos;  // ','
      }
    }
  }
  skip_ws(text, pos);
  if (pos != text.size())
    throw std::runtime_error("trailing characters '" + text.substr(pos) +
                             "' after policy '" + raw.name +
                             "' in policy string '" + text + "'");
  return raw;
}

OptionSet validate_options(const std::string& policy,
                           const std::vector<OptionSpec>& specs,
                           const RawPolicy& raw) {
  std::vector<std::string> values;
  values.reserve(specs.size());
  for (const OptionSpec& spec : specs) values.push_back(spec.default_value);
  for (const auto& [key, value] : raw.options) {
    std::size_t index = specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (specs[i].name == key) {
        index = i;
        break;
      }
    if (index == specs.size()) {
      std::string accepted;
      for (const OptionSpec& spec : specs) {
        if (!accepted.empty()) accepted += ", ";
        accepted += spec.name;
      }
      throw std::runtime_error(
          "policy '" + policy + "' has no option '" + key + "'" +
          (accepted.empty() ? " (it takes no options)"
                            : " (options: " + accepted + ")"));
    }
    values[index] = canonicalize_value(policy, specs[index], value);
  }
  return OptionSet(&specs, std::move(values));
}

std::string format_policy(const std::string& name, const OptionSet& values) {
  std::string args;
  const std::vector<OptionSpec>& specs = values.specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (values.values()[i] == specs[i].default_value) continue;
    if (!args.empty()) args += ", ";
    args += specs[i].name;
    args += '=';
    args += values.values()[i];
  }
  return args.empty() ? name : name + "(" + args + ")";
}

std::string canonical_double(double value) {
  char buffer[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string describe_type(const OptionSpec& spec) {
  switch (spec.type) {
    case OptionType::Int: return "int";
    case OptionType::Double: return "float";
    case OptionType::Bool: return "bool";
    case OptionType::Enum: {
      std::string out;
      for (const std::string& choice : spec.choices) {
        if (!out.empty()) out += '|';
        out += choice;
      }
      return out;
    }
  }
  return "?";
}

}  // namespace coredis::policy
