#pragma once

/// \file scenario.hpp
/// Campaign scenarios: the simulation settings of paper section 6.1.
///
/// One Scenario bundles every knob of a parameter point. Defaults are the
/// paper's: n = 100 tasks, m_i ~ U[1.5e6, 2.5e6], sequential fraction
/// f = 0.08, checkpoint unit cost c = 1, MTBF 100 years per processor,
/// x Monte-Carlo repetitions per point.

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/types.hpp"
#include "extensions/online.hpp"
#include "util/units.hpp"

namespace coredis::exp {

/// Inter-arrival law of the injected faults (the scheduler's internal
/// model always assumes exponential, Eq. 1/4; running the engine under a
/// Weibull stream measures its robustness to model mis-specification).
enum class FaultLaw { Exponential, Weibull };

struct Scenario {
  int n = 100;     ///< tasks in the pack
  int p = 1000;    ///< platform processors
  double m_inf = 1'500'000.0;  ///< workload heterogeneity window (section 6.1)
  double m_sup = 2'500'000.0;
  double sequential_fraction = 0.08;  ///< the paper's f
  double mtbf_years = 100.0;  ///< per-processor MTBF; <= 0 means fault-free
  double downtime_seconds = 60.0;          ///< D (platform constant)
  double checkpoint_unit_cost = 1.0;       ///< c in C_i = c * m_i
  checkpoint::PeriodRule period_rule = checkpoint::PeriodRule::Young;
  FaultLaw fault_law = FaultLaw::Exponential;
  double weibull_shape = 0.7;  ///< only for FaultLaw::Weibull
  int runs = 8;                ///< Monte-Carlo repetitions (paper: 50)
  std::uint64_t seed = 42;     ///< campaign master seed

  // Online-arrival workload (DESIGN.md section 8). `None` keeps the
  // paper's static pack; otherwise jobs carry release dates drawn from
  // the law at the given offered load, and the online scheduler
  // configurations (online_curves) become meaningful.
  extensions::ArrivalLaw arrival_law = extensions::ArrivalLaw::None;
  double load_factor = 1.0;    ///< offered load rho (> 0)
  int bulk_phases = 4;         ///< Bulk law: number of release waves
  std::string arrival_trace;   ///< Trace law: release-date file

  [[nodiscard]] double mtbf_seconds() const noexcept {
    return mtbf_years > 0.0 ? units::years(mtbf_years) : 0.0;
  }
  [[nodiscard]] checkpoint::ResilienceParams resilience_params() const;
  [[nodiscard]] extensions::ArrivalSpec arrival_spec() const;
};

/// One configuration to evaluate at a scenario point.
struct ConfigSpec {
  std::string name;
  /// The pack engine's knobs, read only while `policy` is empty and only
  /// through the options the `pack(...)` grammar spells. `profile` is
  /// the exception: the cell runner hands it to every policy as a run
  /// option (policy::CellContext::profile).
  core::EngineConfig engine;
  /// Run this configuration under an empty fault stream regardless of the
  /// scenario MTBF (the "fault-free context with RC" curve of Figs. 7-14).
  bool force_fault_free = false;
  /// Registry policy string (policy/registry.hpp grammar). Empty for the
  /// pack-engine presets — their registry spelling is *derived* on
  /// demand (canonical_policy), so mutating `engine` after construction,
  /// as the ablation benches do, cannot leave a stale string behind.
  /// Set for the online presets and for specs built from policy strings.
  std::string policy;
};

/// The canonical registry policy string of a spec: `spec.policy` when
/// set, otherwise `engine` rendered through the `pack(...)` grammar. Two
/// specs with equal canonical strings and equal force_fault_free run the
/// exact same simulation.
[[nodiscard]] std::string canonical_policy(const ConfigSpec& spec);

/// The named configurations of section 6.2.
[[nodiscard]] ConfigSpec baseline_no_redistribution();
[[nodiscard]] ConfigSpec ig_end_greedy();
[[nodiscard]] ConfigSpec ig_end_local();
[[nodiscard]] ConfigSpec stf_end_greedy();
[[nodiscard]] ConfigSpec stf_end_local();
[[nodiscard]] ConfigSpec fault_free_with_rc_local();

/// The six curves of Figures 7, 8, 10-14, in the paper's legend order:
/// baseline, the four heuristic combinations, fault-free + RC.
[[nodiscard]] std::vector<ConfigSpec> paper_curves();

/// The three curves of Figures 5-6 (fault-free redistribution study):
/// without RC, with RC (greedy), with RC (local decisions).
[[nodiscard]] std::vector<ConfigSpec> fault_free_curves();

/// The online-arrival workload schedulers (DESIGN.md section 8).
[[nodiscard]] ConfigSpec online_malleable();
[[nodiscard]] ConfigSpec online_easy();
[[nodiscard]] ConfigSpec online_fcfs();

/// The three online-arrival curves: malleable co-scheduling, EASY
/// backfilling, plain FCFS — the comparison of bench/fig_online_load.cpp.
[[nodiscard]] std::vector<ConfigSpec> online_curves();

/// Parse a `configs = ...` selector into ConfigSpecs: one of the curve
/// sets (`paper`, `fault_free`, `online`), or a comma-separated list
/// whose items are configuration names (`baseline`, `ig_greedy`,
/// `ig_local`, `stf_greedy`, `stf_local`, `rc_fault_free`, `malleable`,
/// `easy`, `fcfs`) or registry policy strings —
/// `bandit(window=50, explore=0.1)`, `pack(end=greedy)` — resolved
/// against policy/registry.hpp (commas inside parentheses do not split;
/// optional surrounding double quotes are stripped). A policy-built
/// spec is named by its canonical policy string. Shared by campaign
/// files (campaign.hpp) and the serving protocol (serve/protocol.hpp),
/// so both spell configurations identically. Throws std::runtime_error
/// naming an unknown selector or the offending policy-string token.
[[nodiscard]] std::vector<ConfigSpec> parse_config_set(
    const std::string& value);

}  // namespace coredis::exp
