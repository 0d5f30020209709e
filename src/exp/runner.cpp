#include "exp/runner.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "fault/weibull.hpp"
#include "policy/registry.hpp"
#include "speedup/synthetic.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace coredis::exp {

namespace {

/// Derived, per-repetition seeds: workload, fault, arrival and
/// policy-private streams must be independent of each other but shared
/// across configurations.
constexpr std::uint64_t kWorkloadStream = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kFaultStream = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kArrivalStream = 0x5851F42D4C957F2DULL;
constexpr std::uint64_t kPolicyStream = 0x94D049BB133111EBULL;

core::Pack make_pack(const Scenario& scenario, std::uint64_t run) {
  Rng rng = Rng::child(scenario.seed ^ kWorkloadStream, run);
  auto model =
      std::make_shared<speedup::SyntheticModel>(scenario.sequential_fraction);
  return core::Pack::uniform_random(scenario.n, scenario.m_inf, scenario.m_sup,
                                    std::move(model), rng);
}

fault::GeneratorPtr make_faults(const Scenario& scenario, std::uint64_t run,
                                bool force_fault_free) {
  const double mtbf = scenario.mtbf_seconds();
  if (force_fault_free || mtbf <= 0.0)
    return std::make_unique<fault::NullGenerator>(scenario.p);
  if (scenario.fault_law == FaultLaw::Weibull) {
    // Derive a plain integer seed for the per-processor substreams.
    std::uint64_t sm = scenario.seed ^ kFaultStream;
    const std::uint64_t base = splitmix64(sm);
    return std::make_unique<fault::WeibullGenerator>(
        scenario.p, mtbf, scenario.weibull_shape, base ^ run);
  }
  return std::make_unique<fault::ExponentialGenerator>(
      scenario.p, 1.0 / mtbf,
      Rng::child(scenario.seed ^ kFaultStream, run));
}

/// True when the two specs would run the exact same simulation. The
/// canonical policy string encodes every semantics-bearing knob — the
/// policy and every option it takes — so equal strings plus an equal
/// fault-stream switch mean one run can stand in for the other (an
/// ablation variant that only flips e.g. faults_in_blackout spells a
/// different string and is never aliased). `profile` is a run option no
/// policy string spells: a profiled spec must run to fill its counters,
/// so it never stands in for an unprofiled one or the reverse.
bool same_simulation(const ConfigSpec& a, const ConfigSpec& b) {
  return a.force_fault_free == b.force_fault_free &&
         a.engine.profile == b.engine.profile &&
         canonical_policy(a) == canonical_policy(b);
}

}  // namespace

// The cell workspace (DESIGN.md section 7.1): one engine — hence one
// expected-time model, one coefficient table, one evaluator cache —
// serves the baseline and every configuration of the cell. The cached
// entries are pure functions of (pack, resilience), which every
// configuration of a cell shares, so the simulations are identical to
// building a fresh engine per configuration; what disappears is the
// per-configuration transcendental warm-up and allocation churn. The
// arrival-driven schedulers run over the same model and evaluator.
CellWorkspace::CellWorkspace(const Scenario& scenario, std::uint64_t rep)
    : scenario_(scenario),
      rep_(rep),
      baseline_spec_(baseline_no_redistribution()),
      pack_(make_pack(scenario, rep)),
      resilience_(scenario.resilience_params()),
      engine_(pack_, resilience_, scenario.p, baseline_spec_.engine) {
  // Policy-private randomness (e.g. the bandit's exploration draws):
  // sharded like the fault stream — a plain integer seed derived per
  // (campaign seed, rep), independent of the other streams.
  std::uint64_t sm = scenario.seed ^ kPolicyStream;
  policy_seed_ = splitmix64(sm) ^ rep;
}

// Release dates, shared by every non-engine configuration of this cell
// (the arrival stream shards like the workload/fault streams: it is a
// pure function of (point seed, rep)). Built lazily — engine-only cells
// never touch the arrival machinery.
const std::vector<double>& CellWorkspace::release_times() {
  if (!releases_built_) {
    releases_built_ = true;
    Rng arrivals = Rng::child(scenario_.seed ^ kArrivalStream, rep_);
    releases_ = extensions::make_release_times(
        scenario_.arrival_spec(), pack_, resilience_, scenario_.p, arrivals,
        engine_.model(), engine_.evaluator());
  }
  return releases_;
}

CellResult CellWorkspace::evaluate(const std::vector<ConfigSpec>& configs) {
  CellResult cell;
  // Baseline: no redistribution, faults as configured. It also normalizes
  // the online-workload configurations — every scheduler of a repetition
  // divides by the same static no-RC pack makespan, so ratios stay
  // comparable across the load_factor axis. Cached across evaluations:
  // it is a pure function of the workspace's streams.
  if (!baseline_run_) {
    baseline_run_ = true;
    auto faults = make_faults(scenario_, rep_, baseline_spec_.force_fault_free);
    baseline_ = engine_.run(*faults);
  }
  cell.baseline = baseline_.makespan;
  cell.results.reserve(configs.size());
  const std::function<const std::vector<double>&()> releases =
      [this]() -> const std::vector<double>& { return release_times(); };
  for (const ConfigSpec& spec : configs) {
    if (same_simulation(spec, baseline_spec_)) {
      // The baseline itself: reuse the full simulation above, so its
      // fault/redistribution counters survive into reports and JSONL.
      cell.results.push_back(baseline_);
      continue;
    }
    // Resolve the spec's canonical policy string and run the instantiated
    // policy over the cell's warm state (DESIGN.md section 10.2): one
    // engine, one shared model/evaluator, lazily built releases.
    auto faults = make_faults(scenario_, rep_, spec.force_fault_free);
    const policy::ResolvedPolicy resolved =
        policy::resolve(canonical_policy(spec));
    const policy::CellContext ctx{pack_,           resilience_,
                                  scenario_.p,     *faults,
                                  engine_.model(), engine_.evaluator(),
                                  engine_,         releases,
                                  policy_seed_,    spec.engine.profile};
    cell.results.push_back(resolved.make()->run(ctx));
  }
  return cell;
}

CellResult run_cell(const Scenario& scenario,
                    const std::vector<ConfigSpec>& configs,
                    std::uint64_t rep) {
  CellWorkspace workspace(scenario, rep);
  return workspace.evaluate(configs);
}

PointResult make_point_frame(const std::vector<ConfigSpec>& configs) {
  PointResult point;
  point.configs.resize(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c)
    point.configs[c].name = configs[c].name;
  return point;
}

void fold_cell(PointResult& point, const CellResult& cell) {
  point.baseline_makespan.add(cell.baseline);
  for (std::size_t c = 0; c < point.configs.size(); ++c) {
    const core::RunResult& r = cell.results[c];
    ConfigOutcome& out = point.configs[c];
    out.makespan.add(r.makespan);
    out.normalized.add(r.makespan / cell.baseline);
    out.redistributions.add(static_cast<double>(r.redistributions));
    out.effective_faults.add(static_cast<double>(r.faults_effective));
  }
}

PointResult aggregate_point(const std::vector<ConfigSpec>& configs,
                            const std::vector<CellResult>& cells) {
  PointResult point = make_point_frame(configs);
  for (const CellResult& cell : cells) fold_cell(point, cell);
  return point;
}

PointResult run_point(const Scenario& scenario,
                      const std::vector<ConfigSpec>& configs) {
  const auto runs = static_cast<std::size_t>(scenario.runs);

  // Per-rep cells gathered first, aggregated after in rep order, so that
  // thread scheduling cannot perturb the reported statistics.
  std::vector<CellResult> cells(runs);
  parallel_for(runs,
               [&](std::size_t rep) { cells[rep] = run_cell(scenario, configs, rep); });

  PointResult point = aggregate_point(configs, cells);
  COREDIS_LOG_DEBUG("point n=" << scenario.n << " p=" << scenario.p
                               << " baseline mean="
                               << point.baseline_makespan.mean());
  return point;
}

}  // namespace coredis::exp
