#pragma once

/// \file registry.hpp
/// The pluggable policy registry (DESIGN.md section 10).
///
/// A *policy* is one scheduler/admission strategy that can simulate a
/// campaign cell: it receives the cell's warm simulation state (pack,
/// resilience model, shared expected-time model and evaluator, the warm
/// engine, the fault stream and the lazily built release dates) and
/// returns a core::RunResult. Policies register themselves with a name,
/// a one-line doc string and typed, documented options
/// (policy/options.hpp); a campaign selects one by string —
/// `bandit(window=50, explore=0.1)` — and the registry resolves, parses
/// and instantiates it. Adding a policy is one new file: implement
/// Policy::run, describe the options, call register_policy from that
/// file's registration hook; no exp-stack edits.
///
/// Registration is explicit, not static-initializer magic: the library
/// is linked statically, where unreferenced translation units are free
/// to drop their initializers, so registry.cpp calls every module's
/// registration hook once under std::call_once. A new policy file adds
/// its hook to that one list — still one line outside the new file, but
/// linker-proof.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/engine.hpp"
#include "core/expected_time.hpp"
#include "core/pack.hpp"
#include "core/types.hpp"
#include "fault/generator.hpp"
#include "policy/options.hpp"

namespace coredis::policy {

/// The warm per-(scenario, repetition) state a policy simulates over —
/// exactly what exp::CellWorkspace holds (DESIGN.md section 7.1). All
/// references outlive the run() call; `faults` is this configuration's
/// own stream (already fault-free when the spec forces it), and
/// `release_times` builds the arrival stream on first use so
/// engine-only policies never touch the arrival machinery.
struct CellContext {
  const core::Pack& pack;
  const checkpoint::Model& resilience;
  int processors = 0;
  fault::Generator& faults;
  const core::ExpectedTimeModel& model;
  core::TrEvaluator& evaluator;
  core::Engine& engine;
  /// Lazily built release dates (one per pack task).
  const std::function<const std::vector<double>&()>& release_times;
  /// Policy-private randomness seed, deterministic in (campaign seed,
  /// repetition) and independent of the workload/fault/arrival streams.
  std::uint64_t policy_seed = 0;
  /// Collect the engine's per-phase breakdown and work counters into
  /// RunResult::profile. A run option, not a policy option: no policy
  /// string sets it and simulated results do not depend on it.
  bool profile = false;
};

/// One instantiated policy (a parsed option set bound to behavior).
/// Implementations must be deterministic in (CellContext streams,
/// policy_seed): a policy may keep no mutable state across run() calls.
class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual core::RunResult run(const CellContext& ctx) const = 0;
};

using PolicyFactory =
    std::function<std::unique_ptr<Policy>(const OptionSet&)>;

/// A registered policy: self-description plus factory.
struct PolicyInfo {
  std::string name;  ///< identifier; the policy-string head
  std::string doc;   ///< one line for --list-policies
  std::vector<OptionSpec> options;
  PolicyFactory factory;
};

/// Register `info` (call from a registration hook; see file comment).
/// Throws std::logic_error on a duplicate or non-identifier name.
void register_policy(PolicyInfo info);

/// Every registered policy, in registration order (deterministic).
[[nodiscard]] const std::vector<PolicyInfo>& registered_policies();

/// Look up a policy by exact name; nullptr when unknown.
[[nodiscard]] const PolicyInfo* find_policy(const std::string& name);

/// A resolved policy string: the registry entry, the validated options
/// and the canonical spelling (format_policy over the options).
struct ResolvedPolicy {
  const PolicyInfo* info = nullptr;
  OptionSet options;
  std::string canonical;

  [[nodiscard]] std::unique_ptr<Policy> make() const {
    return info->factory(options);
  }
};

/// Parse + validate a policy string against the registry. Throws
/// std::runtime_error naming the offending token: unknown policies list
/// the registered names, unknown keys list the policy's options, bad
/// values state the expected type/range.
[[nodiscard]] ResolvedPolicy resolve(const std::string& text);

/// The markdown table behind `coredis_sim --list-policies`: one row per
/// registered policy (name, options with defaults and types, doc). The
/// README "Policies" table embeds exactly this text, drift-checked by
/// tools/check_policy_docs.sh.
[[nodiscard]] std::string list_policies_markdown();

}  // namespace coredis::policy
