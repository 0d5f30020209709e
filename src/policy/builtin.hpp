#pragma once

/// \file builtin.hpp
/// The built-in schedulers as registered policies: the paper's pack
/// engine, the online malleable scheduler and the EASY/FCFS batch
/// baselines. Their options are the knobs that change a simulation —
/// `pack` spells the end and failure heuristics plus the two ablations;
/// instrumentation (traces, timelines, profiles) and the eager reference
/// scans stay EngineConfig fields for direct callers, and profiling is
/// a run option (CellContext::profile). Campaign artifacts of these
/// policies are pinned by digests in tests/policy_registry_test.cpp.

#include <string>

#include "core/types.hpp"

namespace coredis::policy {

/// Registration hook (called once by the registry; see registry.hpp).
void register_builtin_policies();

/// The canonical `pack(...)` policy string for an engine configuration:
/// `pack` when every option is at its default, otherwise the non-default
/// options in option order. EngineConfig fields the grammar does not
/// spell are ignored. exp::canonical_policy uses this to give every
/// preset ConfigSpec a registry spelling.
[[nodiscard]] std::string pack_canonical(const core::EngineConfig& config);

}  // namespace coredis::policy
