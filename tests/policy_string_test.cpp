/// \file policy_string_test.cpp
/// The policy-string grammar battery (DESIGN.md section 10): the
/// round-trip property `resolve(format(p)).canonical == p.canonical`
/// fuzzed over every *registered* policy with randomized option values
/// (new policies are auto-covered — the tables iterate
/// registered_policies(), never a hand-kept list), plus a malformed-
/// string table asserting that every parse error is a std::runtime_error
/// naming the offending token — never an abort, never a silent default.

#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "policy/options.hpp"
#include "policy/registry.hpp"
#include "util/rng.hpp"

namespace coredis::policy {
namespace {

/// Draw a random valid value for `spec` as text (not necessarily
/// canonical text — e.g. "0.2500" or "007" — so the round trip also
/// exercises canonicalization).
std::string random_value(const OptionSpec& spec, Rng& rng) {
  switch (spec.type) {
    case OptionType::Int: {
      const long long lo =
          spec.bounded() ? static_cast<long long>(spec.min_value) : 1;
      const long long span =
          spec.bounded()
              ? std::min<long long>(
                    static_cast<long long>(spec.max_value) - lo, 1000)
              : 1000;
      const auto value =
          lo + static_cast<long long>(rng.uniform01() * (span + 1));
      return std::to_string(value);
    }
    case OptionType::Double: {
      const double lo = spec.bounded() ? spec.min_value : 0.0;
      const double hi = spec.bounded() ? spec.max_value : 100.0;
      const double value = lo + rng.uniform01() * (hi - lo);
      return canonical_double(value);
    }
    case OptionType::Bool:
      return rng.uniform01() < 0.5 ? "true" : "false";
    case OptionType::Enum: {
      const auto pick = static_cast<std::size_t>(
          rng.uniform01() * static_cast<double>(spec.choices.size()));
      return spec.choices[std::min(pick, spec.choices.size() - 1)];
    }
  }
  return "";
}

TEST(PolicyStringRoundTrip, CanonicalFormsAreFixpointsForEveryPolicy) {
  // parse(format(p)) == p over randomized option values, every
  // registered policy, including spellings with redundant whitespace
  // and default-valued options (which the canonical form drops).
  Rng rng(0xF0110C + 20260807ULL);
  for (const PolicyInfo& info : registered_policies()) {
    for (int trial = 0; trial < 20; ++trial) {
      std::string text = info.name;
      if (!info.options.empty()) {
        text += "( ";
        bool first = true;
        for (const OptionSpec& spec : info.options) {
          // Randomly include each option; excluded ones take defaults.
          if (rng.uniform01() < 0.4) continue;
          if (!first) text += " , ";
          first = false;
          text += spec.name;
          text += " = ";
          text += random_value(spec, rng);
        }
        text += " )";
        if (first) text = info.name;  // all skipped: bare name
      }
      SCOPED_TRACE(::testing::Message()
                   << "policy=" << info.name << " text='" << text << "'");
      const ResolvedPolicy once = resolve(text);
      const ResolvedPolicy twice = resolve(once.canonical);
      EXPECT_EQ(once.canonical, twice.canonical);
      ASSERT_EQ(once.options.values().size(), twice.options.values().size());
      for (std::size_t i = 0; i < once.options.values().size(); ++i)
        EXPECT_EQ(once.options.values()[i], twice.options.values()[i]);
      // The canonical string instantiates (the factory accepts every
      // validated option set).
      EXPECT_NE(twice.make(), nullptr);
    }
  }
}

TEST(PolicyStringRoundTrip, BareNameIsTheCanonicalAllDefaultsForm) {
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    EXPECT_EQ(resolve(info.name).canonical, info.name);
    // Spelling every default explicitly collapses back to the bare name.
    std::string text = info.name;
    if (!info.options.empty()) {
      text += '(';
      for (std::size_t i = 0; i < info.options.size(); ++i) {
        if (i > 0) text += ", ";
        text += info.options[i].name;
        text += '=';
        text += info.options[i].default_value;
      }
      text += ')';
    }
    EXPECT_EQ(resolve(text).canonical, info.name);
  }
}

TEST(PolicyStringRoundTrip, DoublesUseShortestRoundTrip) {
  EXPECT_EQ(resolve("bandit(explore=0.2500)").canonical,
            "bandit(explore=0.25)");
  EXPECT_EQ(resolve("bandit(window=007)").canonical, "bandit(window=7)");
  EXPECT_EQ(resolve("reshape(gain=0.1)").canonical, "reshape(gain=0.1)");
}

/// Assert resolve(text) throws a std::runtime_error whose message
/// contains every listed fragment (the offending token among them).
void expect_error(const std::string& text,
                  const std::vector<std::string>& fragments) {
  SCOPED_TRACE("text='" + text + "'");
  try {
    (void)resolve(text);
    FAIL() << "expected resolve to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    for (const std::string& fragment : fragments)
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
  }
}

TEST(PolicyStringErrors, MalformedStringsNameTheOffendingToken) {
  expect_error("", {"empty policy string"});
  expect_error("   ", {"empty policy string"});
  expect_error("7pack", {"expected a policy name", "7pack"});
  expect_error("no_such_policy", {"unknown policy", "no_such_policy"});
  expect_error("pack(end=local", {"unbalanced parentheses", "missing ')'"});
  expect_error("pack(end local)", {"expected '='", "end"});
  expect_error("pack(end=)", {"empty value", "end"});
  expect_error("pack(end=local, end=greedy)", {"duplicate option", "end"});
  expect_error("pack(end=sideways)",
               {"pack", "end", "none|local|greedy", "sideways"});
  expect_error("easy(pairs=x)", {"easy", "pairs", "integer", "x"});
  expect_error("easy(pairs=0)", {"easy", "pairs", "integer", "0"});
  expect_error("bandit(explore=2)", {"bandit", "explore", "[0, 1]", "2"});
  expect_error("bandit(explore=nan)", {"bandit", "explore", "nan"});
  expect_error("bandit(window=0)", {"bandit", "window", "0"});
  expect_error("pack() extra", {"trailing characters", "extra"});
  expect_error("pack(end=lo(cal))", {"unexpected '('", "end"});
  // Instrumentation and reference-path switches are EngineConfig fields
  // for direct callers, not options of the simulation grammar.
  const char* const pack_keys = "options: end, fail, zero_rc, blackout_faults";
  expect_error("pack(linear_scan=true)", {"pack", "linear_scan", pack_keys});
  expect_error("pack(profile=true)", {"pack", "profile", pack_keys});
  expect_error("pack(record_trace=true)", {"pack", "record_trace", pack_keys});
  expect_error("malleable(eager_replan=true)",
               {"malleable", "eager_replan", "takes no options"});
}

TEST(PolicyStringErrors, UnknownKeysListTheAcceptedOnesForEveryPolicy) {
  // Table-driven over the registry: a policy added tomorrow is covered
  // the moment it registers.
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    std::vector<std::string> fragments = {info.name, "definitely_not_real"};
    for (const OptionSpec& spec : info.options) fragments.push_back(spec.name);
    expect_error(info.name + "(definitely_not_real=1)", fragments);
  }
}

TEST(PolicyStringErrors, UnknownPolicyListsTheRegisteredNames) {
  std::vector<std::string> fragments = {"unknown policy", "zzz"};
  for (const PolicyInfo& info : registered_policies())
    fragments.push_back(info.name);
  expect_error("zzz", fragments);
}

TEST(PolicyStringErrors, ConfigSelectorSuggestsThePresets) {
  try {
    (void)exp::parse_config_set("not_a_policy_or_preset");
    FAIL() << "expected parse_config_set to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("not_a_policy_or_preset"), std::string::npos) << what;
    EXPECT_NE(what.find("paper|fault_free|online"), std::string::npos) << what;
  }
}

TEST(PolicyRegistry, ListingCoversEveryPolicyWithTypedOptions) {
  const std::string table = list_policies_markdown();
  EXPECT_NE(table.find("| policy | options (default) | description |"),
            std::string::npos);
  for (const PolicyInfo& info : registered_policies()) {
    SCOPED_TRACE(info.name);
    EXPECT_NE(table.find("`" + info.name + "`"), std::string::npos);
    for (const OptionSpec& spec : info.options)
      EXPECT_NE(
          table.find("`" + spec.name + "=" + spec.default_value + "`"),
          std::string::npos);
  }
}

TEST(PolicyRegistry, FindPolicyAndRegistrationGuards) {
  EXPECT_NE(find_policy("pack"), nullptr);
  EXPECT_EQ(find_policy("nope"), nullptr);
  EXPECT_THROW(register_policy({"pack", "dup", {}, nullptr}),
               std::logic_error);
  EXPECT_THROW(register_policy({"bad name", "space", {}, nullptr}),
               std::logic_error);
}

}  // namespace
}  // namespace coredis::policy
