#pragma once

/// \file expected_time.hpp
/// Expected completion-time model t^R_{i,j}(alpha) (paper section 3.2).
///
/// For a task T_i running on j processors with a remaining fraction of work
/// alpha, the expected time to completion under exponential faults with
/// periodic checkpointing is (Eqs. 2-4):
///
///   N^ff_{i,j}(alpha) = floor( alpha * t_{i,j} / (tau_{i,j} - C_{i,j}) )
///   tau_last          = alpha * t_{i,j} - N^ff * (tau_{i,j} - C_{i,j})
///   t^R_{i,j}(alpha)  = e^{lambda_j R_{i,j}} (1/lambda_j + D)
///                       ( N^ff (e^{lambda_j tau_{i,j}} - 1)
///                         + (e^{lambda_j tau_last} - 1) )
///
/// with lambda_j = j * lambda. Adding processors eventually hurts (larger
/// failure rate), so Eq. 6 clamps the model to be non-increasing in j:
/// the *effective* expected time at j is the minimum of the raw values over
/// even allocations j' <= j. TrEvaluator provides that clamped quantity
/// with incremental caching, because the greedy heuristics probe thousands
/// of (task, j) pairs per event.
///
/// In the fault-free context (lambda = 0) no checkpoint is taken and the
/// model degenerates to alpha * t_{i,j} exactly (section 3.3.1).
///
/// Everything in the formula except alpha is fixed per (task, j), so the
/// model memoizes a lazily-built coefficient table: one row per task, one
/// 64-byte record per probed j, holding t_{i,j}, tau, lambda_j, tau - C,
/// the two precomputed transcendental factors e^{lambda_j R}(1/lambda_j+D)
/// and e^{lambda_j tau} - 1, and C_{i,j}/R_{i,j} (DESIGN.md section 6). A
/// warm query is a handful of flops plus at most one expm1 for the
/// trailing partial period; the speedup-profile virtual call, sqrt
/// (period) and exp only run the first time a (task, j) pair is seen over
/// the model's lifetime. The cache is transparent: cached queries are
/// arithmetic-identical (bit for bit) to the *_reference straight-line
/// evaluations kept for tests and benches.
///
/// The incremental-replanning machinery (DESIGN.md section 6.5) adds
/// batched entry points over the same records: probe_many() evaluates a
/// dense run of consecutive even allocations through the shared
/// raw_kernel (bit-identical to the scalar query, locked by tests),
/// probe_tasks() evaluates one exact Eq. 4 query per element across
/// tasks, and row_records() exposes a task's dense record row so the
/// heuristics' lazy bound passes can stream coefficients one cache line
/// per allocation. Odd j (sequential baselines, tests) lives in a
/// separate table that stays empty during simulations.
///
/// The batched paths run on vector lanes where the machine allows it
/// (DESIGN.md section 6.6): the even rows are mirrored field-by-field
/// into structure-of-arrays lanes as they densify, and the AVX2+FMA
/// kernel of core/detail/eq4_simd evaluates Eq. 4 four allocations at a
/// time — bit-identical to raw_kernel by construction and by a one-time
/// process self-check that otherwise retires the vector path for good.
/// The AoS records stay authoritative for every scalar accessor and for
/// the cold paths; the mirror costs five extra doubles per probed even
/// allocation in the fault-aware context only.
///
/// Thread-compatibility: the const query methods fill the table, so a
/// single instance must not be probed from multiple threads concurrently.
/// Engine owns one model per instance and the campaign runner builds one
/// engine per repetition, so the parallel_for over repetitions is safe.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/pack.hpp"
#include "util/contracts.hpp"

namespace coredis::core {

class ExpectedTimeModel {
 public:
  /// Per-(task, j) coefficients of Eqs. 1-4; everything except alpha.
  /// One 64-byte record: every hot accessor and the bound passes touch a
  /// single cache line per (task, j).
  struct Coeffs {
    double t_ij = -1.0;     ///< fault-free time; < 0 flags an unfilled slot
    double tau = 0.0;       ///< checkpointing period tau_{i,j} (Eq. 1)
    double cost = 0.0;      ///< C_{i,j}
    double recovery = 0.0;  ///< R_{i,j}
    double lambda_j = 0.0;  ///< j * lambda
    double tau_minus_cost = 0.0;  ///< tau - C, the useful work per period
    double factor = 0.0;     ///< e^{lambda_j R} (1/lambda_j + D)
    double expm1_tau = 0.0;  ///< e^{lambda_j tau} - 1
  };

  /// Both referents must outlive the model.
  ExpectedTimeModel(const Pack& pack, const checkpoint::Model& resilience);

  [[nodiscard]] const Pack& pack() const noexcept { return *pack_; }
  [[nodiscard]] const checkpoint::Model& resilience() const noexcept {
    return *resilience_;
  }

  /// Fault-free time t_{i,j} of the full task.
  [[nodiscard]] double fault_free_time(int task, int j) const {
    return coeffs(task, j).t_ij;
  }

  /// Sequential checkpoint footprint C_i = c * m_i.
  [[nodiscard]] double sequential_checkpoint(int task) const {
    COREDIS_EXPECTS(task >= 0 && task < pack_->size());
    return seq_ckpt_[static_cast<std::size_t>(task)];
  }

  /// C_{i,j} = C_i / j; 0 in the fault-free context (no checkpoints).
  [[nodiscard]] double checkpoint_cost(int task, int j) const {
    if (resilience_->fault_free()) return 0.0;  // no checkpoint ever taken
    return coeffs(task, j).cost;
  }

  /// R_{i,j} = C_{i,j}.
  [[nodiscard]] double recovery_time(int task, int j) const {
    if (resilience_->fault_free()) return 0.0;
    return coeffs(task, j).recovery;
  }

  /// Checkpointing period tau_{i,j} (Eq. 1); +infinity when fault-free.
  [[nodiscard]] double period(int task, int j) const {
    if (resilience_->fault_free())
      return std::numeric_limits<double>::infinity();
    return coeffs(task, j).tau;
  }

  /// N^ff_{i,j}(alpha), the checkpoint count of a fault-free execution of
  /// the fraction alpha (Eq. 2). 0 when fault-free (no checkpoints).
  [[nodiscard]] double checkpoint_count(int task, int j, double alpha) const {
    COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
    if (resilience_->fault_free() || alpha == 0.0) return 0.0;
    const Coeffs& c = coeffs(task, j);
    COREDIS_ASSERT(c.tau_minus_cost > 0.0);
    return std::floor(alpha * c.t_ij / c.tau_minus_cost);  // Eq. 2
  }

  /// The exact Eq. 4 arithmetic shared by every cached evaluation path
  /// (the scalar query below and the probe_many batch): callers pass the
  /// cached coefficient bits, so any two paths agree bit for bit.
  [[nodiscard]] static double raw_kernel(double alpha, const Coeffs& c) {
    const double work = alpha * c.t_ij;
    const double n_ff = std::floor(work / c.tau_minus_cost);  // Eq. 2
    const double tau_last = work - n_ff * c.tau_minus_cost;   // Eq. 3
    COREDIS_ASSERT(tau_last >= -1e-9);
    // Eq. 4 on the cached coefficients. exp arguments stay small in sane
    // regimes (lambda_j * tau does not grow with j because tau ~ 1/j);
    // extreme parameters may produce +inf, which propagates harmlessly
    // through the min-based heuristics.
    return c.factor *
           (n_ff * c.expm1_tau +
            std::expm1(c.lambda_j * std::max(tau_last, 0.0)));
  }

  /// The (task, j) coefficient record itself — one cache line with every
  /// alpha-independent quantity, filled on first access like the named
  /// accessors. Meaningful only in the fault-aware context (fault-free
  /// fills t_ij alone).
  [[nodiscard]] const Coeffs& record(int task, int j) const {
    return coeffs(task, j);
  }

  /// Raw Eq. 4 (no monotonicity clamp). O(1) on a warm coefficient row:
  /// a handful of flops plus one expm1 for the trailing partial period.
  [[nodiscard]] double expected_time_raw(int task, int j, double alpha) const {
    COREDIS_EXPECTS(j >= 1);
    COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
    if (alpha == 0.0) return 0.0;
    const Coeffs& c = coeffs(task, j);
    if (resilience_->fault_free()) return alpha * c.t_ij;  // section 3.3.1
    return raw_kernel(alpha, c);
  }

  /// Eq. 6: min over even j' <= j of the raw value. j must be even >= 2.
  /// O(j) scan; use TrEvaluator in hot paths.
  [[nodiscard]] double expected_time(int task, int j, double alpha) const;

  /// Wall-clock duration of executing the remaining fraction alpha on j
  /// processors with *no* fault: work plus one checkpoint per completed
  /// period (the trailing partial period needs no final checkpoint). This
  /// is what the event simulator uses to schedule completion events.
  [[nodiscard]] double simulated_duration(int task, int j,
                                          double alpha) const {
    COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
    if (alpha == 0.0) return 0.0;
    const Coeffs& c = coeffs(task, j);
    const double work = alpha * c.t_ij;
    if (resilience_->fault_free()) return work;
    const double ratio = work / c.tau_minus_cost;
    double full_periods = std::floor(ratio);
    // Snap floating-point noise around an exact boundary before deciding.
    if (ratio - full_periods > 1.0 - 1e-9) full_periods += 1.0;
    const double remainder = work - full_periods * c.tau_minus_cost;
    // A run ending exactly on a period boundary skips the final checkpoint.
    if (remainder <= 1e-9 * work && full_periods > 0.0) full_periods -= 1.0;
    return work + full_periods * c.cost;
  }

  /// Eq. 8: the remaining fraction of a task that kept `alpha` at its
  /// last baseline and has run on j processors for `elapsed` seconds
  /// since. Elapsed time minus the completed checkpoints counts as work
  /// (a redistribution starts with a checkpoint that saves the running
  /// period); `alpha` itself while elapsed <= 0 (a blackout window). One
  /// record fetch.
  [[nodiscard]] double remaining_after(int task, int j, double alpha,
                                       double elapsed) const {
    if (elapsed <= 0.0) return alpha;
    const Coeffs& c = coeffs(task, j);
    double completed = 0.0;  // N_{i,j}, Eq. 8
    double cost = 0.0;
    if (!resilience_->fault_free()) {
      completed = std::floor(elapsed / c.tau);
      cost = c.cost;
    }
    const double done_fraction = (elapsed - completed * cost) / c.t_ij;
    return std::clamp(alpha - done_fraction, 0.0, 1.0);
  }

  /// Outcome of one fault on a running task (rollback below).
  struct Rollback {
    double periods = 0.0;  ///< checkpoints completed since the baseline
    double alpha = 1.0;    ///< remaining fraction at the last checkpoint
    double restart = 0.0;  ///< new baseline: fault + downtime + recovery
    double lost = 0.0;     ///< seconds the fault cost: uncheckpointed
                           ///< work, downtime and recovery
  };

  /// Alg. 2 lines 23-26: a fault at `time` rolls a task that kept `alpha`
  /// at `baseline` and has run on j processors since back to its last
  /// checkpoint; the task restarts after the downtime and a recovery.
  /// One record fetch.
  [[nodiscard]] Rollback rollback(int task, int j, double alpha,
                                  double baseline, double time) const {
    const Coeffs& c = coeffs(task, j);
    Rollback back;
    double kept = 0.0;  // work seconds the completed checkpoints saved
    double recovery = 0.0;
    if (!resilience_->fault_free()) {
      back.periods = std::floor((time - baseline) / c.tau);
      kept = back.periods * c.tau_minus_cost;
      recovery = c.recovery;
    }
    back.alpha = std::clamp(alpha - kept / c.t_ij, 0.0, 1.0);
    back.restart = time + resilience_->downtime() + recovery;
    back.lost = (time - baseline) - kept + resilience_->downtime() + recovery;
    return back;
  }

  /// Batched Eq. 4 over consecutive even allocations: writes
  /// expected_time_raw(task, 2 * (h + 1), alpha) to out[h - h_begin] for
  /// every h in [h_begin, h_end). The records are densified once and the
  /// kernel streams them one cache line per allocation; the result is
  /// bit-identical to the scalar loop (probe_many_reference, locked by
  /// tests) because both run raw_kernel on the same coefficient bits.
  void probe_many(int task, int h_begin, int h_end, double alpha,
                  double* out) const;

  /// Scalar reference of probe_many: one expected_time_raw call per slot.
  void probe_many_reference(int task, int h_begin, int h_end, double alpha,
                            double* out) const;

  /// Batched exact Eq. 4 across tasks: out[k] = expected_time_raw(
  /// tasks[k], js[k], alphas[k]) for every k in [0, count), bit for bit
  /// (locked by tests). The cross-task sibling of probe_many for the
  /// heuristics' per-task setup sweeps: coefficients are gathered into
  /// transposed lanes once and the vector kernel amortizes the Eq. 4
  /// transcendentals over lane width; without live vector lanes it is
  /// the scalar loop it replaces.
  void probe_tasks(const int* tasks, const int* js, const double* alphas,
                   std::size_t count, double* out) const;

  /// Dense view of task's even-j records: entry h covers j = 2 * (h + 1),
  /// filled through at least h_count entries. For the heuristics' lazy
  /// bound passes (DESIGN.md section 6.5). The pointer is invalidated by
  /// any query of a deeper j on the same task.
  [[nodiscard]] const Coeffs* row_records(int task,
                                          std::size_t h_count) const {
    ensure_even_row(task, h_count);
    // Even j = 2(h+1) lives at index h + 1 (index 0 is unused: it would
    // be j = 0); the view starts at entry h = 0 <=> j = 2.
    return table_even_[static_cast<std::size_t>(task)].data() + 1;
  }

  /// Straight-line Eq. 4 bypassing the coefficient table: re-derives every
  /// intermediate quantity from the pack and resilience models on each
  /// call. Reference for the kernel-equivalence property tests and the
  /// cached-vs-uncached microbenchmarks; never use in hot paths.
  [[nodiscard]] double expected_time_raw_reference(int task, int j,
                                                   double alpha) const;

  /// Uncached counterpart of simulated_duration (see
  /// expected_time_raw_reference).
  [[nodiscard]] double simulated_duration_reference(int task, int j,
                                                    double alpha) const;

 private:
  /// Row lookup, filling the slot on first access. Every hot-path probe
  /// uses an even j (allocations are processor pairs), so even columns
  /// live in a dense row indexed by j / 2 — half the footprint of a
  /// j-indexed row. Rows grow to the deepest allocation any scan probed
  /// (DESIGN.md section 6.2), a few entries at a time. Odd j (sequential
  /// baselines, tests) goes to a separate table that stays empty during
  /// simulations.
  const Coeffs& coeffs(int task, int j) const {
    COREDIS_EXPECTS(task >= 0 && task < pack_->size());
    COREDIS_EXPECTS(j >= 1);
    auto& row = (j % 2 == 0 ? table_even_ : table_odd_)[
        static_cast<std::size_t>(task)];
    const auto slot = static_cast<std::size_t>(j) / 2;  // odd j=1 -> 0
    // resize grows the capacity geometrically on its own; a reserve(2 *
    // size()) here would always fall short of the next step's request
    // and copy the whole row on every deepening.
    if (row.size() <= slot) [[unlikely]] row.resize(slot + 1);
    Coeffs& c = row[slot];
    if (c.t_ij < 0.0) [[unlikely]]
      fill_coeffs(task, j, c);
    return c;
  }

  /// Densify even slots [1, h_count] (j = 2 .. 2 * h_count) of the
  /// task's row. The dense-prefix check is inline — the batched probes
  /// re-ask for the same densified prefix millions of times per run, so
  /// the warm case must be a load and a compare — and the cold growth
  /// (which also appends the SoA mirror) stays out of line.
  void ensure_even_row(int task, std::size_t h_count) const {
    COREDIS_EXPECTS(task >= 0 && task < pack_->size());
    if (even_dense_[static_cast<std::size_t>(task)] < h_count) [[unlikely]]
      grow_even_row(task, h_count);
  }

  /// Cold path of ensure_even_row: fill [dense, h_count) and append the
  /// SoA mirror alongside.
  void grow_even_row(int task, std::size_t h_count) const;

  /// Cold path of coeffs(): derive every alpha-independent quantity of
  /// Eqs. 1-4 once for this (task, j).
  void fill_coeffs(int task, int j, Coeffs& c) const;

  /// Structure-of-arrays mirror of one task's even row (DESIGN.md
  /// section 6.6): entry h covers j = 2 (h + 1) — no unused slot 0,
  /// unlike the AoS row — and the five arrays are exactly raw_kernel's
  /// inputs, copied from the records as grow_even_row densifies them.
  /// Dense to even_dense_[task]; fault-aware context only (the
  /// fault-free batch is a plain multiply over t_ij).
  struct SoaRow {
    std::vector<double> t_ij;
    std::vector<double> tau_minus_cost;
    std::vector<double> lambda_j;
    std::vector<double> factor;
    std::vector<double> expm1_tau;
  };

  const Pack* pack_;
  const checkpoint::Model* resilience_;
  std::vector<double> seq_ckpt_;  ///< C_i per task, filled eagerly
  /// [task][j/2] for even j, [task][(j-1)/2] for odd j; both lazy.
  mutable std::vector<std::vector<Coeffs>> table_even_;
  mutable std::vector<std::vector<Coeffs>> table_odd_;
  /// Dense-prefix mark per task: even slots [1, mark] are known filled.
  mutable std::vector<std::size_t> even_dense_;
  mutable std::vector<SoaRow> soa_even_;  ///< per-field vector lanes
  /// Transposed coefficient scratch of probe_tasks (per-call contents;
  /// single-threaded use per the thread-compatibility note above).
  mutable std::vector<double> gather_;
};

/// Incrementally cached evaluator of the Eq. 6 clamped expected time.
///
/// For each task it memoizes the prefix-minimum of raw t^R values over even
/// j at a fixed alpha (the greedy loops probe ascending j at the alpha they
/// froze for the current event, so the prefix fills once and every further
/// probe is O(1)). Three alpha slots are kept per task: slot 0 is pinned
/// to alpha = 1.0 — the full-work column that Algorithm 1 reads at the
/// start of *every* run (to one entry past the task's allocation, deeper
/// only on a plateau of the clamp), so it survives the whole simulation
/// and every subsequent run of the same engine — and the other two hold
/// the committed alpha_i and the tentative alpha^t_i that IteratedGreedy
/// evaluates for the same task within one event (Alg. 5 lines 16-17).
///
/// The engine brackets each simulation event with begin_event(), which
/// advances an epoch counter. Slots touched in the current epoch are hot:
/// eviction prefers a slot left over from an earlier event, so a rebuild
/// that alternates between a task's committed and tentative alphas keeps
/// both columns warm for the whole event instead of thrashing on LRU age
/// alone. Cached values are pure in (task, j, alpha) and therefore never
/// stale; epochs only steer eviction.
///
class TrEvaluator {
 private:
  struct Slot {
    double alpha = -1.0;                // key; -1 = empty
    std::vector<double> prefix_min;     // prefix_min[h] covers j = 2(h+1)
    std::uint64_t last_used = 0;
    std::uint64_t epoch = 0;            // last begin_event() that touched it
  };

 public:
  explicit TrEvaluator(const ExpectedTimeModel& model, int max_processors);

  /// A column pinned to one (task, alpha): the heuristics' probe loops
  /// bind once per scan and then pay only an array read per warm probe,
  /// skipping the slot search of operator(). At most two columns per task
  /// may be live at once (the committed and the tentative alpha — exactly
  /// what the non-pinned slots hold); binding a third evicts the least
  /// recently *bound* of the two, invalidating its outstanding Column.
  class Column {
   public:
    /// Clamped expected time (Eq. 6) at even j; extends the prefix-min
    /// lazily like operator() and is arithmetic-identical to it. Grant
    /// loops deepen columns one probe at a time (inline single fill);
    /// larger gaps — fresh columns probed deep at once — go through the
    /// batched probe_many, which runs the same raw_kernel bits.
    [[nodiscard]] double operator()(int j) const {
      const auto want = static_cast<std::size_t>(j / 2);
      auto& pm = slot_->prefix_min;
      if (pm.size() < want) [[unlikely]] {
        if (want - pm.size() > 2) {
          // Batched: independent expm1 calls overlap in the pipeline
          // (~7x the throughput of the dependency-chained step loop).
          extend(want);
        } else {
          while (pm.size() < want) {
            const int next_j = 2 * (static_cast<int>(pm.size()) + 1);
            const double raw =
                model_->expected_time_raw(task_, next_j, alpha_);
            pm.push_back(pm.empty() ? raw : std::min(pm.back(), raw));
            ++*fills_;
          }
        }
      }
      return pm[want - 1];
    }

    /// Read-only view of the underlying Eq. 6 prefix-min array (entry h
    /// covers j = 2(h+1)), valid to the column's current fill depth. The
    /// heuristics' verdict pricing (DESIGN.md section 6.5) walks it after
    /// a failed scan instead of re-probing.
    [[nodiscard]] const std::vector<double>& prefix() const {
      return slot_->prefix_min;
    }

   private:
    friend class TrEvaluator;
    Column(const ExpectedTimeModel* model, Slot* slot, std::uint64_t* fills,
           int task, double alpha)
        : model_(model), slot_(slot), fills_(fills), task_(task),
          alpha_(alpha) {}

    /// Batched fill of the missing prefix entries via probe_many.
    void extend(std::size_t want) const;

    const ExpectedTimeModel* model_;
    Slot* slot_;
    std::uint64_t* fills_;  ///< the evaluator's fills() tally
    int task_;
    double alpha_;
  };

  /// Bind (task, alpha) to its slot — reusing a cached column when the
  /// alpha matches, evicting per the epoch/LRU policy otherwise — and
  /// return the pinned fast-path handle.
  [[nodiscard]] Column column(int task, double alpha);

  /// Clamped expected time (Eq. 6) for even j in [2, max_processors].
  [[nodiscard]] double operator()(int task, int j, double alpha) {
    COREDIS_EXPECTS(j >= 2 && j % 2 == 0 && j <= max_j_);
    return column(task, alpha)(j);
  }

  /// Start a new simulation event: slots not reused since this call become
  /// the preferred eviction victims (see class comment).
  void begin_event() noexcept { ++epoch_; }

  /// Drop cached values of one task (alpha changed in a way the alpha-keyed
  /// slots cannot capture; cheap, slots rebuild lazily).
  void invalidate(int task);

  /// Prefix-min entries filled over the evaluator's lifetime, one raw
  /// Eq. 4 evaluation each: the engine reports a run's share as
  /// EngineProfile::column_fills.
  [[nodiscard]] std::uint64_t fills() const noexcept { return fills_; }

 private:
  /// Slot 0 is the pinned alpha = 1.0 column; eviction only ever
  /// considers the remaining slots.
  static constexpr std::size_t kSlotsPerTask = 3;

  const ExpectedTimeModel* model_;
  int max_j_;
  std::uint64_t clock_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t fills_ = 0;
  std::vector<std::array<Slot, kSlotsPerTask>> slots_;
};

}  // namespace coredis::core
