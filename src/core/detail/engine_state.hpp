#pragma once

/// \file engine_state.hpp
/// Internal mutable state shared between the event engine (Algorithm 2)
/// and the redistribution heuristics (Algorithms 3-5). Not part of the
/// public API; include only from core/*.cpp and white-box tests.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"
#include "core/types.hpp"
#include "platform/platform.hpp"
#include "redistrib/cost.hpp"
#include "util/indexed_heap.hpp"

namespace coredis::core::detail {

struct EngineState;

/// The column-free part of a candidate probe: the cost of moving a task
/// from its committed sigma_init to `target` at time t, paying the
/// redistribution and the initial checkpoint on the new allocation,
///
///   base(target) = t + RC^{sigma_init -> target}_i + C_{i,target}.
///
/// Eq. 9 and C_{i,j} = C_i / j are inlined term for term (the same
/// arithmetic as redistrib::cost and the coefficient table's cost field,
/// so results are bit-identical), with no coefficient record fetched.
class ProbeBase {
 public:
  ProbeBase(const EngineState& s, double t, int i);

  /// RC^{sigma_init -> target}_i (Eq. 9).
  [[nodiscard]] double rc(int target) const {
    if (target == from_ || zero_rc_) return 0.0;
    // rounds * (1 / target) * (m / from), the exact operation order of
    // redistrib::cost (m / from is cached; same bits).
    const int delta = target > from_ ? target - from_ : from_ - target;
    const double r = static_cast<double>(std::max(std::min(from_, target),
                                                  delta));
    return r * (1.0 / static_cast<double>(target)) * m_over_from_;
  }

  /// C_{i,target} (0 in the fault-free context).
  [[nodiscard]] double checkpoint(int target) const {
    return seq_ckpt_ / static_cast<double>(target);
  }

  [[nodiscard]] double operator()(int target) const {
    return t_ + rc(target) + checkpoint(target);
  }

 private:
  double t_;
  int from_;
  double m_over_from_;  ///< data_size / sigma_init, Eq. 9's cached factor
  double seq_ckpt_;     ///< C_i (0 in the fault-free context: C_{i,j} = 0)
  bool zero_rc_;
};

/// Pinned-column candidate prober: computes the tE of moving a task to
/// `target` at time t (Alg. 3 line 12 / Alg. 4 line 16 / Alg. 5 line 17):
///
///   tE(target) = base(target) + Tr(i, target, alpha)
///
/// One prober serves every probe of a (task, alpha) scan: it caches the
/// redistribution-cost constants and binds the TrEvaluator column once,
/// so a warm probe is pure flops plus one dense array read.
class CandidateProber {
 public:
  CandidateProber(EngineState& s, double t, int i, double alpha);

  [[nodiscard]] double operator()(int target) const {
    return base_(target) + column_(target);
  }

  [[nodiscard]] const ProbeBase& base() const noexcept { return base_; }

 private:
  ProbeBase base_;
  TrEvaluator::Column column_;
};

/// Dynamic execution state of one task (paper Table 1 notations).
struct TaskRuntime {
  double alpha = 1.0;      ///< remaining fraction of work, committed at tlastR
  int sigma = 0;           ///< current processor count (even)
  double tlastR = 0.0;     ///< time of last redistribution / failure baseline
  double tU = 0.0;         ///< expected finish time (decision metric)
  double proj_end = 0.0;   ///< fault-free projected completion (event time)
  bool done = false;       ///< finished
  bool released = false;   ///< processors surrendered early (Alg. 2 line 28)
  double finish_time = -1.0;
};

struct EngineState {
  const ExpectedTimeModel* model = nullptr;
  platform::Platform* platform = nullptr;
  TrEvaluator* tr = nullptr;
  bool zero_redistribution_cost = false;  ///< Theorem 2 ablation knob
  /// Validate/debug: run the heuristics' from-scratch probe scans instead
  /// of the lazy stale-bound machinery (EngineConfig::eager_scans).
  bool eager_scans = false;
  std::vector<TaskRuntime> tasks;

  /// --profile sink (engine-owned, null when profiling is off):
  /// commit_changes adds its wall time and batch count, EndLocal its
  /// scan, verdict and widening counters, the Algorithm 5 regrow its
  /// rebuild, replay and warm-start counters.
  EngineProfile* profile = nullptr;

  // Counters surfaced in RunResult.
  int redistributions = 0;
  double redistribution_cost_total = 0.0;
  long long checkpoints_taken = 0;
  double time_lost_to_faults = 0.0;

  // Optional allocation-timeline recording (EngineConfig::record_timeline):
  // commit() closes a segment whenever a task's sigma changes; the engine
  // closes the final segment at completion.
  std::vector<AllocationSegment>* timeline = nullptr;
  std::vector<double> segment_start;

  // Indexed event queues (DESIGN.md section 6): every unfinished task sits
  // in both, keyed by its fault-free projected completion (dispatch order)
  // and by its expected finish tU (the Alg. 2 line 30 "did the faulty task
  // become the longest?" test). refresh_projection keeps both keys in
  // sync, mark_done removes completed tasks, so event dispatch is O(log n)
  // instead of an O(n) rescan. build_event_index() must run once `tasks`
  // is sized, before the first refresh_projection.
  util::IndexedHeap<util::MinKeyThenId> projection_queue;
  util::IndexedHeap<util::MaxKeyThenId> tu_queue;

  // Lazy stale-bound scan state (DESIGN.md section 6.5). `version[i]`
  // counts mutations of task i's committed runtime (commit, rollback,
  // blackout restart); a cached no-improvement verdict is valid only at
  // the version it was computed at. `scan_cache[i]` carries EndLocal's
  // failed improvability scans across events: while the task's version is
  // unchanged, the pool no larger and the time before the conservative
  // horizon, the task is provably still unimprovable and is dropped in
  // O(1) without probing anything. A larger pool only has to clear its
  // new targets, against the floor the covered columns keep (widening).
  std::vector<std::uint32_t> version;
  struct ScanCache {
    std::uint32_t version = 0;
    int k = -1;  ///< pool size the failed scan covered; -1 = no verdict
    double horizon = -std::numeric_limits<double>::infinity();
    /// Every covered Eq. 4 column (j <= sigma + k) provably stays >= floor
    /// until the horizon; -infinity when nothing is proven beyond now.
    double floor = -std::numeric_limits<double>::infinity();
  };
  std::vector<ScanCache> scan_cache;
  /// IteratedGreedy's per-task committed-state constants — the free-return
  /// tE (tlastR + Tr at the committed allocation and alpha) and Eq. 9's
  /// m_i / sigma_init — memoized against the task version: stable between
  /// commits, so the regrow setup skips one evaluator bind and one pack
  /// record fetch per task per call.
  struct FreeReturnCache {
    std::uint32_t version = ~0U;
    double tE = 0.0;
    double m_over = 0.0;
  };
  std::vector<FreeReturnCache> free_return;

  /// Reusable per-call buffers of the heuristics (Algorithms 3-5 run once
  /// or twice per simulation event; reallocating five vectors each time
  /// showed up in profiles). Contents are dead between calls.
  struct Scratch {
    std::vector<int> new_sigma;
    std::vector<double> alpha_t;
    std::vector<double> tU;
    std::vector<char> included;
    std::vector<std::pair<double, int>> heap;  ///< max-heap via push_heap
    std::vector<std::optional<CandidateProber>> probers;  ///< per-task binds
    std::vector<int> changed;  ///< ascending commit change-list
    /// Flat per-task probe state of IteratedGreedy's incremental regrow
    /// (heuristics.cpp): the column data pointer, Eq. 9 constants and the
    /// precomputed free-return tE packed into one cache line per task, so
    /// a warm grant-scan probe touches the row, the key array and one
    /// prefix-min entry and nothing else.
    struct RegrowRow {
      const double* pm = nullptr;  ///< tentative column prefix-min data
      double m_over = 0.0;         ///< m_i / sigma_init (Eq. 9 factor)
      double seq = 0.0;            ///< C_i (0 in the fault-free context)
      double free_tE = 0.0;        ///< key at sigma_init: the free return
                                   ///< (Alg. 5 line 16), or tU at 2
      int pm_len = 0;              ///< filled prefix-min depth
      int sigma_init = 0;          ///< committed allocation
    };
    std::vector<RegrowRow> rows;
    std::vector<int> tourney;  ///< winner tree over included tasks
    std::vector<int> leaf_of;  ///< task -> tournament leaf slot
    /// EndLocal widening: running minimum of the new columns' Eq. 4 values
    std::vector<double> widened;
  };
  Scratch scratch;

  [[nodiscard]] int n() const noexcept {
    return static_cast<int>(tasks.size());
  }
  [[nodiscard]] TaskRuntime& task(int i) { return tasks[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const TaskRuntime& task(int i) const {
    return tasks[static_cast<std::size_t>(i)];
  }

  /// Size the lazy-scan bookkeeping to the tasks vector (idempotent; the
  /// heuristics call it on entry so hand-built states — white-box tests —
  /// need no explicit setup).
  void ensure_lazy_state() {
    if (static_cast<int>(version.size()) != n()) {
      version.assign(static_cast<std::size_t>(n()), 0);
      scan_cache.assign(static_cast<std::size_t>(n()), ScanCache{});
      free_return.assign(static_cast<std::size_t>(n()), FreeReturnCache{});
    }
  }

  /// Record a mutation of task i's committed runtime (alpha, sigma, tlastR
  /// or tU): cached scan verdicts computed against the old state die.
  void touch(int i) { ++version[static_cast<std::size_t>(i)]; }

  /// A task participates in a redistribution at time t iff it is live,
  /// still owns its processors, and is not inside a blackout window
  /// (Alg. 2 line 15: tasks with t <= tlastR are temporarily removed).
  /// The faulty task is the exception handled by the callers: its tlastR
  /// was just pushed past t by the rollback, yet it stays eligible.
  [[nodiscard]] bool included(int i, double t) const {
    const TaskRuntime& task = tasks[static_cast<std::size_t>(i)];
    return !task.done && !task.released && t > task.tlastR;
  }

  /// Tentative remaining fraction alpha^t_i at time t (Alg. 3 line 8 and
  /// Alg. 4/5 preambles): the committed alpha minus all work performed
  /// since tlastR, where elapsed time minus completed checkpoints counts
  /// as work (an immediate checkpoint would preserve the running period).
  [[nodiscard]] double alpha_tentative(int i, double t) const;

  /// Redistribution cost RC^{sigma_i -> to}_i in seconds (Eq. 9).
  [[nodiscard]] double redistribution_cost(int i, int to) const;

  /// Refresh proj_end from (alpha, sigma, tlastR) and re-key an
  /// unfinished task i in both event queues (callers always rewrite tU
  /// before calling this, so one sync point covers both keys).
  void refresh_projection(int i);

  /// (Re)build the event index over the current tasks vector.
  void build_event_index();

  /// Mark task i finished and drop it from the event queues.
  void mark_done(int i);

  /// Unfinished task with the earliest proj_end, ties to the smallest
  /// index; -1 when every task is done.
  [[nodiscard]] int earliest_unfinished() const;

  /// Largest tU over unfinished tasks (0 when none).
  [[nodiscard]] double longest_expected_finish() const;

  /// Ascending-index list of unfinished tasks with proj_end <= bound (the
  /// Alg. 2 line 28 surrender candidates), excluding `except`: a pruned
  /// heap descent, then a sort of the matches.
  void unfinished_ending_by(double bound, int except,
                            std::vector<int>& out) const;

  /// Apply the allocation changes committed by a heuristic. `new_sigma`
  /// and `alpha_t` are indexed by task; only entries whose sigma differs
  /// from the current one are committed (paying RC + initial checkpoint,
  /// updating alpha/tlastR/tU/proj and the platform ledger; shrinks are
  /// applied before growths so the pool never goes negative). For the
  /// faulty task (faulty >= 0) the new baseline keeps the downtime +
  /// recovery already folded into its tlastR (section 3.3.2). Scans all
  /// n tasks for changes; the heuristics pass their exact change-list to
  /// commit_changes below instead.
  void commit(double t, int faulty, const std::vector<int>& new_sigma,
              const std::vector<double>& alpha_t);

  /// commit() restricted to `changed` — the ascending list of exactly the
  /// live tasks whose new_sigma differs from their current sigma. Same
  /// shrink-before-grow pass order over the list, so the platform ledger
  /// sees the identical grant/revoke sequence as the full scan.
  void commit_changes(double t, int faulty, const std::vector<int>& new_sigma,
                      const std::vector<double>& alpha_t,
                      const std::vector<int>& changed);
};

/// Algorithm 3 (EndLocal): grow the currently-longest tasks with the k
/// idle processors, pair by pair. Returns true if anything was committed.
bool end_local(EngineState& state, double t);

/// EndGreedy (section 5.2): full RC-aware rebuild at a task termination.
bool end_greedy(EngineState& state, double t);

/// Algorithm 4 (ShortestTasksFirst) at a failure of task `faulty`.
bool shortest_tasks_first(EngineState& state, double t, int faulty);

/// Algorithm 5 (IteratedGreedy) at a failure of task `faulty`.
bool iterated_greedy(EngineState& state, double t, int faulty);

inline ProbeBase::ProbeBase(const EngineState& s, double t, int i)
    : t_(t),
      from_(s.task(i).sigma),
      m_over_from_(s.model->pack().task(i).data_size /
                   static_cast<double>(s.task(i).sigma)),
      seq_ckpt_(s.model->resilience().fault_free()
                    ? 0.0
                    : s.model->sequential_checkpoint(i)),
      zero_rc_(s.zero_redistribution_cost) {}

inline CandidateProber::CandidateProber(EngineState& s, double t, int i,
                                        double alpha)
    : base_(s, t, i), column_(s.tr->column(i, alpha)) {}

}  // namespace coredis::core::detail
