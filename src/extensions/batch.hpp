#pragma once

/// \file batch.hpp
/// Batch scheduling with EASY backfilling — the dynamic counterpart the
/// paper positions co-scheduling against (section 2.3: "co-scheduling
/// with packs can be seen as the static counterpart of batch scheduling
/// techniques").
///
/// Jobs are the pack's tasks. Each job carries a *release date* (all
/// zero reproduces the paper's static setting; extensions/online.hpp
/// generates Poisson / bulk / trace arrival processes) and requests a
/// *fixed* (rigid) allocation at submission. A job becomes eligible only
/// once released; the scheduler starts eligible jobs FCFS in release
/// order (ties by index), optionally backfilling later jobs into idle
/// processors under the classic EASY rule: a backfilled job must either
/// finish before the queue head's reservation (the "shadow time") or
/// only use processors the head will not need. The scheduler is a
/// callback on extensions::OnlineSim, the event loop of the malleable
/// schedulers: running jobs checkpoint and roll back on faults exactly
/// like theirs, but their allocations never change — which is precisely
/// what the malleable schedulers (the engine's redistribution, and
/// extensions::run_online for this arrival setting) add.

#include <cstdint>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/expected_time.hpp"
#include "core/pack.hpp"
#include "extensions/online.hpp"
#include "fault/generator.hpp"

namespace coredis::extensions {

/// Smallest even allocation reaching the task's best clamped expected
/// time within the platform (the Eq. 6 threshold made concrete): the
/// rigid request of a sensible moldable submission, and the per-job
/// demand estimate of the online arrival-rate calibration
/// (extensions/online.hpp). Both simulators share this single
/// definition so request sizes and load calibration cannot diverge.
[[nodiscard]] int best_useful_allocation(core::TrEvaluator& evaluator,
                                         int task, int processors);

/// How a job chooses its rigid allocation request.
enum class RequestRule {
  /// The smallest allocation reaching the task's best expected time (the
  /// Eq. 6 threshold): a sensible moldable submission.
  BestUseful,
  /// A fixed number of pairs for every job (naive submission).
  FixedPairs,
};

struct BatchConfig {
  RequestRule rule = RequestRule::BestUseful;
  int fixed_pairs = 2;      ///< only for RequestRule::FixedPairs
  bool backfilling = true;  ///< EASY backfilling vs plain FCFS
};

/// An online result (each final_allocation is the job's rigid request;
/// no redistributions) plus the backfill count.
struct BatchResult : OnlineResult {
  int backfilled_jobs = 0;  ///< jobs started out of order
};

/// Simulate the batch execution with per-job release dates (one per pack
/// task, non-negative; all zero is the paper's static setting). Faults
/// come from `faults`; the scheduler re-runs its FCFS + backfilling pass
/// at every release and completion event. `processors` is rounded down
/// to even, as in OnlineSim. Deterministic in (pack, release_times,
/// fault stream).
[[nodiscard]] BatchResult run_batch(const core::Pack& pack,
                                    const checkpoint::Model& resilience,
                                    int processors,
                                    const std::vector<double>& release_times,
                                    const BatchConfig& config,
                                    fault::Generator& faults);

/// run_batch over a caller-provided expected-time model and evaluator
/// (both built over the same pack and resilience): the campaign runner
/// shares one warm coefficient table across every scheduler of a cell.
/// Cached entries are pure in (task, j, alpha), so results are identical
/// to the self-contained overload.
[[nodiscard]] BatchResult run_batch(const core::Pack& pack,
                                    const checkpoint::Model& resilience,
                                    int processors,
                                    const std::vector<double>& release_times,
                                    const BatchConfig& config,
                                    fault::Generator& faults,
                                    const core::ExpectedTimeModel& model,
                                    core::TrEvaluator& evaluator);

/// Static-release convenience overload: every job released at time 0,
/// faults drawn from an exponential stream seeded with `fault_seed`
/// (mtbf_seconds <= 0 gives the fault-free variant).
[[nodiscard]] BatchResult run_batch(const core::Pack& pack,
                                    const checkpoint::Model& resilience,
                                    int processors, const BatchConfig& config,
                                    std::uint64_t fault_seed,
                                    double mtbf_seconds);

}  // namespace coredis::extensions
