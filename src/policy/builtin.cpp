#include "policy/builtin.hpp"

#include <memory>
#include <string>
#include <vector>

#include "extensions/batch.hpp"
#include "extensions/online.hpp"
#include "policy/registry.hpp"

namespace coredis::policy {

namespace {

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

OptionSpec bool_option(std::string name, bool default_value, std::string doc) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Bool;
  spec.default_value = default_value ? "true" : "false";
  spec.doc = std::move(doc);
  return spec;
}

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

// --- pack: the paper's engine --------------------------------------------

const std::vector<OptionSpec>& pack_options() {
  static const std::vector<OptionSpec> specs = {
      enum_option("end", "local", {"none", "local", "greedy"},
                  "task-end redistribution (Algorithms 4/6)"),
      enum_option("fail", "ig", {"none", "stf", "ig"},
                  "failure redistribution (Algorithm 5 variants)"),
      bool_option("zero_rc", false, "ablation: free redistributions"),
      bool_option("blackout_faults", false,
                  "faults in blackout restart the window"),
  };
  return specs;
}

core::EngineConfig engine_config_of(const OptionSet& options) {
  core::EngineConfig config;
  const std::string& end = options.get_enum("end");
  config.end_policy = end == "none"    ? core::EndPolicy::None
                      : end == "local" ? core::EndPolicy::Local
                                       : core::EndPolicy::Greedy;
  const std::string& fail = options.get_enum("fail");
  config.failure_policy = fail == "none" ? core::FailurePolicy::None
                          : fail == "stf"
                              ? core::FailurePolicy::ShortestTasksFirst
                              : core::FailurePolicy::IteratedGreedy;
  config.zero_redistribution_cost = options.get_bool("zero_rc");
  config.faults_in_blackout = options.get_bool("blackout_faults");
  return config;
}

class PackPolicy final : public Policy {
 public:
  explicit PackPolicy(core::EngineConfig config) : config_(config) {}
  core::RunResult run(const CellContext& ctx) const override {
    core::EngineConfig config = config_;
    config.profile = ctx.profile;
    return ctx.engine.run(ctx.faults, config);
  }

 private:
  core::EngineConfig config_;
};

// --- malleable: the online-arrival co-scheduler ---------------------------

class MalleablePolicy final : public Policy {
 public:
  core::RunResult run(const CellContext& ctx) const override {
    extensions::OnlineResult r = extensions::run_online(
        ctx.pack, ctx.resilience, ctx.processors, ctx.release_times(),
        ctx.faults, ctx.model, ctx.evaluator);
    core::RunResult out;
    out.makespan = r.makespan;
    out.faults_effective = r.faults_effective;
    out.redistributions = r.redistributions;
    out.redistribution_cost = r.redistribution_cost;
    out.completion_times = std::move(r.completion_times);
    out.final_allocation = std::move(r.final_allocation);
    return out;
  }
};

// --- easy / fcfs: the rigid batch baselines -------------------------------

const std::vector<OptionSpec>& batch_options() {
  static const std::vector<OptionSpec> specs = {
      enum_option("rule", "best_useful", {"best_useful", "fixed_pairs"},
                  "rigid allocation request rule"),
      int_option("pairs", "2", 1.0, 1e9,
                 "pairs per job under rule=fixed_pairs"),
  };
  return specs;
}

extensions::BatchConfig batch_config_of(const OptionSet& options,
                                        bool backfilling) {
  extensions::BatchConfig config;
  config.rule = options.get_enum("rule") == "fixed_pairs"
                    ? extensions::RequestRule::FixedPairs
                    : extensions::RequestRule::BestUseful;
  config.fixed_pairs = static_cast<int>(options.get_int("pairs"));
  config.backfilling = backfilling;
  return config;
}

class BatchPolicy final : public Policy {
 public:
  explicit BatchPolicy(extensions::BatchConfig config) : config_(config) {}
  core::RunResult run(const CellContext& ctx) const override {
    extensions::BatchResult r = extensions::run_batch(
        ctx.pack, ctx.resilience, ctx.processors, ctx.release_times(),
        config_, ctx.faults, ctx.model, ctx.evaluator);
    core::RunResult out;
    out.makespan = r.makespan;
    out.faults_effective = r.faults_effective;
    out.completion_times = std::move(r.completion_times);
    out.final_allocation = std::move(r.allocations);
    return out;
  }

 private:
  extensions::BatchConfig config_;
};

}  // namespace

void register_builtin_policies() {
  register_policy(
      {"pack",
       "the paper's engine on a static pack (redistribution heuristics)",
       pack_options(), [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<PackPolicy>(engine_config_of(options));
       }});
  register_policy(
      {"malleable",
       "online malleable co-scheduling: re-pack at every arrival/completion",
       {},
       [](const OptionSet&) -> std::unique_ptr<Policy> {
         return std::make_unique<MalleablePolicy>();
       }});
  register_policy(
      {"easy", "EASY backfilling over rigid job requests", batch_options(),
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<BatchPolicy>(batch_config_of(options, true));
       }});
  register_policy(
      {"fcfs", "plain FCFS over rigid job requests (no backfilling)",
       batch_options(),
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<BatchPolicy>(batch_config_of(options, false));
       }});
}

std::string pack_canonical(const core::EngineConfig& config) {
  const std::vector<OptionSpec>& specs = pack_options();
  std::vector<std::string> values;
  values.reserve(specs.size());
  const auto text_bool = [](bool value) {
    return std::string(value ? "true" : "false");
  };
  values.push_back(config.end_policy == core::EndPolicy::None    ? "none"
                   : config.end_policy == core::EndPolicy::Local ? "local"
                                                                 : "greedy");
  values.push_back(config.failure_policy == core::FailurePolicy::None ? "none"
                   : config.failure_policy ==
                           core::FailurePolicy::ShortestTasksFirst
                       ? "stf"
                       : "ig");
  values.push_back(text_bool(config.zero_redistribution_cost));
  values.push_back(text_bool(config.faults_in_blackout));
  return format_policy("pack", OptionSet(&specs, std::move(values)));
}

}  // namespace coredis::policy
