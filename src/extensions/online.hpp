#pragma once

/// \file online.hpp
/// Online-arrival malleable co-scheduling (DESIGN.md section 8).
///
/// The paper studies the static case: every task of the pack is released
/// at time 0. Batch schedulers face the dynamic counterpart — jobs arrive
/// over time — and section 2.3 positions packs as "the static counterpart
/// of batch scheduling techniques". This extension closes the loop: jobs
/// carry release dates drawn from a configurable arrival law, wait in a
/// pending queue, and are admitted by re-running the paper's pack
/// machinery (Algorithm 1 over the remaining work fractions) at every
/// arrival and completion event. Admitted jobs are *malleable*: an
/// admission may shrink running jobs to make room, and a completion grows
/// them back — each change paying the section 3.3 redistribution cost
/// plus an initial checkpoint, exactly like the engine's redistributions.
///
/// Faults roll the struck job back to its last checkpoint with the
/// engine's arithmetic, but never trigger a redistribution here: the
/// online scheduler re-plans at arrivals and completions only. Every
/// arrival-driven scheduler runs on the one event loop of OnlineSim and
/// differs only in its replanning callback: run_online and the adaptive
/// policies (policy/adaptive.hpp) replan through core::grant_pairs, the
/// engine's Algorithm 1 grant loop (core/optimal_schedule.hpp), and the
/// rigid baselines (EASY backfilling / plain FCFS, extensions/batch.hpp)
/// start jobs on fixed requests from their own FCFS queue.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/expected_time.hpp"
#include "core/pack.hpp"
#include "core/types.hpp"
#include "fault/generator.hpp"
#include "util/rng.hpp"

namespace coredis::extensions {

/// How release dates are generated. `None` is the paper's static setting
/// (everything released at time 0).
enum class ArrivalLaw {
  None,     ///< all jobs released at time 0 (the paper's pack)
  Poisson,  ///< i.i.d. exponential inter-arrival times
  Bulk,     ///< evenly spaced bulk phases of n / phases jobs each
  Trace,    ///< explicit release dates loaded from a file
};

[[nodiscard]] std::string to_string(ArrivalLaw law);

/// The arrival process of one scenario. `load_factor` is the offered load
/// rho: the arrival rate is chosen so the long-run arriving
/// processor-seconds per second equal rho * p, where each job's demand is
/// estimated as (best-useful allocation) x (fault-free time on it). Thus
/// rho -> 0 isolates every job (all schedulers converge) and rho >= 1
/// saturates the platform (the workload degenerates toward the paper's
/// simultaneous pack).
struct ArrivalSpec {
  ArrivalLaw law = ArrivalLaw::None;
  double load_factor = 1.0;  ///< offered load rho; > 0
  int bulk_phases = 4;       ///< Bulk only: number of release waves
  std::string trace_path;    ///< Trace only: release dates, one per line
};

/// Release dates for the pack's jobs, deterministic in (spec, pack, rng
/// state). Poisson draws come from `rng` (pass Rng::child(seed, rep) for
/// campaign sharding); Bulk and Trace never touch it. Trace dates are
/// read from `spec.trace_path` (>= pack.size() entries, seconds, sorted
/// ascending after load) and divided by the load factor so the same
/// trace sweeps in density. Throws std::runtime_error on an unreadable
/// or short trace file.
[[nodiscard]] std::vector<double> make_release_times(
    const ArrivalSpec& spec, const core::Pack& pack,
    const checkpoint::Model& resilience, int processors, Rng& rng);

/// Outcome of one online simulation.
struct OnlineResult {
  double makespan = 0.0;                 ///< latest completion
  std::vector<double> start_times;       ///< first admission per job
  std::vector<double> completion_times;  ///< per job
  std::vector<int> final_allocation;     ///< sigma at each job's end
  int faults_effective = 0;              ///< faults that rolled a job back
  int redistributions = 0;               ///< committed allocation changes
  double redistribution_cost = 0.0;      ///< total RC seconds paid
  double busy_processor_seconds = 0.0;   ///< for energy accounting
  double mean_queue_wait = 0.0;          ///< mean (start - release)
};

/// The policy registry's view of an online run: makespan, effective
/// faults, redistributions, completion times and final allocations.
[[nodiscard]] core::RunResult to_run_result(OnlineResult result);

/// The one online event loop (DESIGN.md section 8.2) and the job
/// lifecycle the online schedulers share. A scheduler is the
/// `reschedule` callback it hands to run(), built from admit_live,
/// tentative_alpha, core::grant_pairs and place/resize/commit, or, for
/// the rigid batch schedulers, from take_released and start. Per
/// iteration the loop resolves, in this order:
///
///  * a fault strictly before every other event: processor indices are
///    laid out over the admitted jobs in index order, idle slots last; a
///    fault on an idle slot or inside a blackout window is dropped, any
///    other rolls its job back (ExpectedTimeModel::rollback) and calls
///    `on_fault`. Faults never replan;
///  * a release, or the end of a blackout window while jobs wait in
///    OnlineSim's queue: the released jobs queue in arrival order
///    (release date, ties by index) and the loop replans. A release wins
///    a tie with a completion (the admission pass sees the completing
///    job as still running, harmlessly); a blackout exit tying a
///    completion defers to it;
///  * the earliest completion (ties to the smallest index), which
///    replans while jobs remain.
class OnlineSim {
 public:
  /// Runtime state of one online job.
  struct Job {
    bool admitted = false;
    bool done = false;
    double alpha = 1.0;     ///< remaining work fraction, committed at baseline
    int sigma = 0;          ///< current (even) allocation; 0 before placement
    double baseline = 0.0;  ///< start of the current checkpoint pattern;
                            ///< also the end of any blackout window
    double proj_end = 0.0;  ///< fault-free projected completion
    double busy_mark = 0.0; ///< last allocation change (busy accounting)
  };

  /// A core::grant_pairs cap that never binds.
  static constexpr int kUncapped = std::numeric_limits<int>::max();

  /// Replans at a release, blackout-exit or completion time.
  using Reschedule = std::function<void(double t)>;
  /// Sees the job a fault just rolled back.
  using OnFault = std::function<void(int job)>;

  /// One job per pack task of `model`, released at `release_times`
  /// (non-negative). `processors` is rounded down to even (allocations
  /// are buddy pairs). Every referent must outlive the simulation.
  OnlineSim(const core::ExpectedTimeModel& model, int processors,
            const std::vector<double>& release_times);

  /// Simulate to the last completion; deterministic in (release dates,
  /// fault stream, callbacks). Call once.
  [[nodiscard]] OnlineResult run(fault::Generator& faults,
                                 const Reschedule& reschedule,
                                 const OnFault& on_fault = {});

  /// The admission pass at time t. `live` receives the admitted,
  /// unfinished jobs outside any blackout window — none under
  /// `hold_running`, which keeps every running allocation as it is —
  /// then released jobs in arrival order while one pair per live job
  /// still fits; sorted by index. `alpha_now` receives each live job's
  /// tentative_alpha at t. Returns the processors left beyond one pair
  /// per live job.
  int admit_live(double t, std::vector<int>& live,
                 std::vector<double>& alpha_now, bool hold_running = false);

  /// Remaining work fraction of job i at time t (Eq. 8).
  [[nodiscard]] double tentative_alpha(int i, double t) const {
    const Job& job = jobs_[static_cast<std::size_t>(i)];
    return model_.remaining_after(i, job.sigma, job.alpha, t - job.baseline);
  }

  /// Move the released, unadmitted jobs, in arrival order, to the back
  /// of `queue`: a scheduler that keeps its own queue (the rigid batch
  /// schedulers) drains OnlineSim's, so no blackout exit wakes it.
  void take_released(std::vector<int>& queue);

  /// Admit job i at t and place it on `sigma` processors.
  void start(int i, int sigma, double t);

  /// First placement at t: no data to move, the pattern starts here.
  void place(int i, int sigma, double t);

  /// Malleable resize at t: commit `alpha_now`, pay the Eq. 9
  /// redistribution plus an initial checkpoint on the new allocation, and
  /// black out until both complete.
  void resize(int i, int sigma, double alpha_now, double t);

  /// Commit a re-pack: place each fresh live job, resize each one whose
  /// target differs.
  void commit(double t, const std::vector<int>& live,
              const std::vector<double>& alpha_now,
              const std::vector<int>& target);

  [[nodiscard]] const Job& job(int i) const {
    return jobs_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int processors() const noexcept { return p_; }
  [[nodiscard]] int size() const noexcept { return n_; }
  [[nodiscard]] const core::ExpectedTimeModel& model() const noexcept {
    return model_;
  }

 private:
  const core::ExpectedTimeModel& model_;
  const std::vector<double>& releases_;
  int p_ = 0;
  int n_ = 0;
  std::vector<Job> jobs_;
  /// Released, not yet admitted, in arrival order: a consumed-prefix
  /// cursor instead of front-erasure (quadratic in queue depth).
  std::vector<int> waiting_;
  std::size_t waiting_head_ = 0;
  OnlineResult result_;
};

/// Simulate the malleable online execution: jobs released per
/// `release_times` (one per pack task, non-negative), admitted and
/// re-balanced by the Algorithm 1 greedy over remaining work at every
/// arrival and completion event, rolled back on faults. Deterministic in
/// (pack, release_times, fault stream). `processors` is rounded down to
/// even (allocations are buddy pairs); a job in a blackout window
/// (paying a redistribution or recovering from a fault) keeps its
/// allocation until the next event after the window ends.
[[nodiscard]] OnlineResult run_online(const core::Pack& pack,
                                      const checkpoint::Model& resilience,
                                      int processors,
                                      const std::vector<double>& release_times,
                                      fault::Generator& faults);

/// run_online over a caller-provided expected-time model and evaluator
/// (both built over the same pack and resilience): the campaign runner
/// shares one warm coefficient table across every scheduler of a cell.
/// Cached entries are pure in (task, j, alpha), so results are identical
/// to the self-contained overload.
[[nodiscard]] OnlineResult run_online(const core::Pack& pack,
                                      const checkpoint::Model& resilience,
                                      int processors,
                                      const std::vector<double>& release_times,
                                      fault::Generator& faults,
                                      const core::ExpectedTimeModel& model,
                                      core::TrEvaluator& evaluator);

/// make_release_times over a shared evaluator (same sharing rationale).
[[nodiscard]] std::vector<double> make_release_times(
    const ArrivalSpec& spec, const core::Pack& pack,
    const checkpoint::Model& resilience, int processors, Rng& rng,
    const core::ExpectedTimeModel& model, core::TrEvaluator& evaluator);

}  // namespace coredis::extensions
