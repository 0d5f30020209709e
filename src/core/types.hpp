#pragma once

/// \file types.hpp
/// Public configuration and result types of the co-scheduling engine.

#include <string>
#include <vector>

namespace coredis::core {

/// Redistribution policy at task terminations (paper section 5.2).
enum class EndPolicy {
  None,    ///< never redistribute released processors (baseline)
  Local,   ///< EndLocal, Algorithm 3: grow the longest task pair by pair
  Greedy,  ///< EndGreedy: rebuild the whole allocation, RC-aware
};

/// Redistribution policy at failures (paper section 5.3).
enum class FailurePolicy {
  None,                ///< rollback only, never redistribute (baseline)
  ShortestTasksFirst,  ///< Algorithm 4: local decisions, steal from shortest
  IteratedGreedy,      ///< Algorithm 5: rebuild the whole allocation
};

[[nodiscard]] std::string to_string(EndPolicy policy);
[[nodiscard]] std::string to_string(FailurePolicy policy);

struct EngineConfig {
  EndPolicy end_policy = EndPolicy::Local;
  FailurePolicy failure_policy = FailurePolicy::IteratedGreedy;
  /// Record one FaultRecord per handled fault (Figure 9 instrumentation).
  bool record_trace = false;
  /// Ablation: pretend redistributions are free (the simplified setting of
  /// Theorem 2). Heuristic decisions and committed baselines drop RC.
  bool zero_redistribution_cost = false;
  /// Ablation: faults striking a task during downtime/recovery/
  /// redistribution restart that blackout window instead of being
  /// discarded (the paper discards them, section 6.1).
  bool faults_in_blackout = false;
  /// Record the allocation timeline (one segment per constant-sigma span
  /// per task) for Gantt-style inspection; see core/timeline.hpp.
  bool record_timeline = false;
  /// Debug/validation: run the heuristics' from-scratch improvability
  /// scans instead of the lazy stale-bound machinery (DESIGN.md section
  /// 6.5). Decisions are identical either way — the lazy scans re-probe
  /// exactly every target their conservative bounds cannot clear — and
  /// the golden and equivalence tests drive both paths.
  bool eager_scans = false;
  /// Collect the per-phase wall-time breakdown into RunResult::profile
  /// (a few steady_clock reads per event; simulated results unchanged).
  bool profile = false;
};

/// One constant-allocation span of a task's execution.
struct AllocationSegment {
  int task = -1;
  double start = 0.0;
  double end = 0.0;
  int processors = 0;
  /// False for the final stretch of an early-released task (Alg. 2 line
  /// 28): it still computes on `processors`, but the ledger has already
  /// promised them to the faulty task (which stays in its blackout until
  /// this stretch ends). Summing only ledger-owned segments never
  /// exceeds p; summing all segments may, by design.
  bool ledger_owned = true;
};

/// The four named heuristic combinations evaluated in section 6.2, plus
/// the two baselines, for convenient sweeping.
struct HeuristicCombo {
  std::string name;
  EndPolicy end_policy;
  FailurePolicy failure_policy;
};

/// Per-phase wall-time breakdown of one engine run
/// (EngineConfig::profile; `coredis_sim --profile` prints it). Phases
/// partition the run loop: Algorithm 1's initial allocation, event
/// dispatch (queue peeks, fault attribution, rollbacks, completion
/// bookkeeping), the heuristics' probe scans and heap traffic, and the
/// allocation commits. Counters give the per-phase denominators.
///
/// The work counters below are exact functions of the run's inputs and
/// of the engine's cache state (a fresh engine, or the same sequence of
/// earlier runs), so tests can pin them: they move only when the work
/// does, however noisy the machine. The EndLocal and Algorithm 5 ones
/// follow DESIGN.md section 6.5.
struct EngineProfile {
  double algorithm1_seconds = 0.0;  ///< initial Algorithm 1 build
  double dispatch_seconds = 0.0;    ///< event selection + rollbacks
  double scan_seconds = 0.0;        ///< heuristic probe scans + heap work
  double commit_seconds = 0.0;      ///< allocation commits (ledger, tU)
  long long events = 0;             ///< dispatched events (faults + ends)
  long long heuristic_calls = 0;    ///< end/failure policy invocations
  long long commits = 0;            ///< commit batches applied
  long long full_scans = 0;         ///< EndLocal exact O(sigma+k) scans
  long long verdict_drops = 0;      ///< EndLocal tasks dropped on a cached verdict
  /// EndLocal failures the fault-free bound cleared, no Eq. 4 value read
  long long bound_proofs = 0;
  /// cached verdicts the bound widened to a larger pool (new targets only)
  long long bound_widenings = 0;
  long long column_fills = 0;       ///< Eq. 4 column elements filled
  long long eq4_fills = 0;          ///< coefficient row entries filled
  long long regrows = 0;            ///< Algorithm 5 rebuilds (EndGreedy, IG)
  long long tournament_replays = 0; ///< regrow grants past the warm start
  long long walk_skips = 0;         ///< tasks the bound sent to sigma_init
  long long walk_steps = 0;         ///< keys the warm-start walks computed
  /// Memory gauges, read when the run ends: the bytes the model's
  /// coefficient rows and the evaluator's columns hold (both persist
  /// across the runs of one engine).
  long long row_bytes = 0;
  long long column_bytes = 0;
};

/// Per-fault instrumentation record (Figure 9).
struct FaultRecord {
  double time = 0.0;                ///< fault date t_f
  int task = -1;                    ///< struck task
  double predicted_makespan = 0.0;  ///< max expected finish after handling
  double allocation_stddev = 0.0;   ///< stddev of sigma over live tasks
  bool redistributed = false;       ///< did the failure heuristic commit?
};

/// Outcome of one simulated execution of a pack.
struct RunResult {
  double makespan = 0.0;             ///< completion time of the last task
  int faults_drawn = 0;              ///< faults produced by the generator
  int faults_effective = 0;          ///< faults that rolled a task back
  int faults_discarded = 0;          ///< faults in blackout / on idle procs
  int redistributions = 0;           ///< committed redistribution events
  double redistribution_cost = 0.0;  ///< total RC seconds paid
  /// Checkpoints completed across all tasks (periodic ones plus the
  /// initial checkpoint after every redistribution).
  long long checkpoints_taken = 0;
  /// Faults that struck the *buddy* of a processor whose pair was still
  /// inside its downtime+recovery window. Under the double-checkpointing
  /// scheme these would be fatal (both checkpoint copies lost, paper
  /// section 2.2); the engine follows the paper's abstraction and treats
  /// them as discarded blackout faults, but reports the count so users
  /// can verify the abstraction is harmless at their scale.
  int buddy_fatal_risks = 0;
  /// Time lost to faults: un-checkpointed work thrown away at rollbacks
  /// plus every downtime + recovery, summed over tasks (seconds).
  double time_lost_to_faults = 0.0;
  std::vector<double> completion_times;  ///< per task
  std::vector<int> final_allocation;     ///< sigma at each task's end
  std::vector<FaultRecord> trace;        ///< only when record_trace
  std::vector<AllocationSegment> timeline;  ///< only when record_timeline
  EngineProfile profile;                 ///< only when EngineConfig::profile
};

}  // namespace coredis::core
