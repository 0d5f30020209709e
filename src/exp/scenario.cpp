#include "exp/scenario.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "exp/scenario_file.hpp"
#include "policy/builtin.hpp"
#include "policy/registry.hpp"

namespace coredis::exp {

checkpoint::ResilienceParams Scenario::resilience_params() const {
  checkpoint::ResilienceParams params;
  params.processor_mtbf = mtbf_seconds();
  params.downtime = downtime_seconds;
  params.checkpoint_unit_cost = checkpoint_unit_cost;
  params.period_rule = period_rule;
  return params;
}

extensions::ArrivalSpec Scenario::arrival_spec() const {
  extensions::ArrivalSpec spec;
  spec.law = arrival_law;
  spec.load_factor = load_factor;
  spec.bulk_phases = bulk_phases;
  spec.trace_path = arrival_trace;
  return spec;
}

ConfigSpec baseline_no_redistribution() {
  return {"Fault context without RC",
          {core::EndPolicy::None, core::FailurePolicy::None, false},
          false};
}

ConfigSpec ig_end_greedy() {
  return {"IteratedGreedy-EndGreedy",
          {core::EndPolicy::Greedy, core::FailurePolicy::IteratedGreedy, false},
          false};
}

ConfigSpec ig_end_local() {
  return {"IteratedGreedy-EndLocal",
          {core::EndPolicy::Local, core::FailurePolicy::IteratedGreedy, false},
          false};
}

ConfigSpec stf_end_greedy() {
  return {"ShortestTasksFirst-EndGreedy",
          {core::EndPolicy::Greedy, core::FailurePolicy::ShortestTasksFirst,
           false},
          false};
}

ConfigSpec stf_end_local() {
  return {"ShortestTasksFirst-EndLocal",
          {core::EndPolicy::Local, core::FailurePolicy::ShortestTasksFirst,
           false},
          false};
}

ConfigSpec fault_free_with_rc_local() {
  return {"Fault-free context with RC (local)",
          {core::EndPolicy::Local, core::FailurePolicy::None, false},
          true};
}

std::vector<ConfigSpec> paper_curves() {
  return {baseline_no_redistribution(), ig_end_greedy(), ig_end_local(),
          stf_end_greedy(), stf_end_local(), fault_free_with_rc_local()};
}

ConfigSpec online_malleable() {
  return {"Online malleable (RC)", {}, false, "malleable"};
}

ConfigSpec online_easy() {
  return {"Online EASY backfilling", {}, false, "easy"};
}

ConfigSpec online_fcfs() {
  return {"Online FCFS (rigid)", {}, false, "fcfs"};
}

std::vector<ConfigSpec> online_curves() {
  return {online_malleable(), online_easy(), online_fcfs()};
}

std::vector<ConfigSpec> fault_free_curves() {
  ConfigSpec without{"Without RC",
                     {core::EndPolicy::None, core::FailurePolicy::None, false},
                     true};
  ConfigSpec greedy{"With RC (greedy)",
                    {core::EndPolicy::Greedy, core::FailurePolicy::None, false},
                    true};
  ConfigSpec local{"With RC (local decisions)",
                   {core::EndPolicy::Local, core::FailurePolicy::None, false},
                   true};
  return {without, greedy, local};
}

std::string canonical_policy(const ConfigSpec& spec) {
  return spec.policy.empty() ? policy::pack_canonical(spec.engine)
                             : spec.policy;
}

namespace {

/// Split a config selector at top-level commas only: commas inside a
/// policy string's parentheses — `bandit(window=50, explore=0.1)` —
/// belong to its option list.
std::vector<std::string> split_selector(const std::string& spec) {
  std::vector<std::string> items;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i < spec.size() && spec[i] == '(') ++depth;
    if (i < spec.size() && spec[i] == ')' && depth > 0) --depth;
    if (i == spec.size() || (spec[i] == ',' && depth == 0)) {
      items.push_back(detail::trim(spec.substr(start, i - start)));
      start = i + 1;
    }
  }
  return items;
}

}  // namespace

std::vector<ConfigSpec> parse_config_set(const std::string& value) {
  std::string spec = detail::lower(detail::trim(value));
  // Campaign files may quote a selector whose policy strings carry
  // spaces or commas: policy = "bandit(window=50, explore=0.1)".
  if (spec.size() >= 2 && spec.front() == '"' && spec.back() == '"')
    spec = detail::trim(spec.substr(1, spec.size() - 2));
  if (spec == "paper") return paper_curves();
  if (spec == "fault_free") return fault_free_curves();
  if (spec == "online") return online_curves();
  std::vector<ConfigSpec> configs;
  for (const std::string& name : split_selector(spec)) {
    if (name == "baseline") {
      configs.push_back(baseline_no_redistribution());
    } else if (name == "ig_greedy") {
      configs.push_back(ig_end_greedy());
    } else if (name == "ig_local") {
      configs.push_back(ig_end_local());
    } else if (name == "stf_greedy") {
      configs.push_back(stf_end_greedy());
    } else if (name == "stf_local") {
      configs.push_back(stf_end_local());
    } else if (name == "rc_fault_free") {
      configs.push_back(fault_free_with_rc_local());
    } else if (name == "malleable") {
      configs.push_back(online_malleable());
    } else if (name == "easy") {
      configs.push_back(online_easy());
    } else if (name == "fcfs") {
      configs.push_back(online_fcfs());
    } else {
      // Not a preset: resolve against the policy registry. The canonical
      // string becomes both the display name and the policy field, so
      // two spellings of one policy coalesce everywhere names key
      // behavior (serve's config-union batching, campaign JSONL).
      policy::ResolvedPolicy resolved;
      try {
        resolved = policy::resolve(name);
      } catch (const std::runtime_error& error) {
        throw std::runtime_error(
            std::string(error.what()) +
            " — or use a preset: paper|fault_free|online|baseline|"
            "ig_greedy|ig_local|stf_greedy|stf_local|rc_fault_free|"
            "malleable|easy|fcfs");
      }
      ConfigSpec config;
      config.name = resolved.canonical;
      config.policy = resolved.canonical;
      configs.push_back(std::move(config));
    }
  }
  return configs;
}

}  // namespace coredis::exp
