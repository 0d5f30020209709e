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
/// Everything in Eq. 4 except alpha is fixed per (task, j), so the model
/// memoizes a lazily-built coefficient table (DESIGN.md section 6): one
/// row per task, six lanes per entry (t_{i,j}, tau, C_{i,j}, which is
/// also R_{i,j}, lambda_j and the two precomputed transcendental factors
/// e^{lambda_j R}(1/lambda_j+D) and e^{lambda_j tau} - 1), 48 bytes. An
/// entry fills on the first Eq. 4 read of its (task, j), so only a faulty
/// model holds rows, and only there are the sqrt (period), exp and expm1
/// paid; the t_{i,j} lane of a growing row comes from one batched
/// speedup-profile call. A warm query is a handful of flops plus at most
/// one expm1 for the trailing partial period. What the fault-free bound,
/// the fault-free context and the C terms of the scans read is priced on
/// the fly instead: t_{i,j} from the pack's profile (Eq. 10 is closed
/// form) and C_{i,j} = C_i / j, one divide. The cache is transparent:
/// cached queries are arithmetic-identical (bit for bit) to the
/// *_reference straight-line evaluations kept for tests and benches.
///
/// The incremental-replanning machinery (DESIGN.md section 6.5) adds a
/// batched entry point over the same lanes: probe_many() evaluates a
/// dense run of consecutive even allocations. Odd j (sequential
/// baselines, tests) lives in a separate row that stays empty during
/// simulations.
///
/// The lanes are what the AVX2+FMA kernel of core/detail/eq4_simd reads
/// (DESIGN.md section 6.6): probe_many evaluates Eq. 4 four allocations
/// at a time straight off a task's even row — bit-identical to
/// raw_kernel by construction and by a one-time process self-check that
/// otherwise retires the vector path for good. The scalar accessors read
/// the same lanes; there is no second copy.
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
#include <memory>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/detail/eq4_simd.hpp"
#include "core/pack.hpp"
#include "util/contracts.hpp"

namespace coredis::core {

class ExpectedTimeModel {
 public:
  /// Both referents must outlive the model.
  ExpectedTimeModel(const Pack& pack, const checkpoint::Model& resilience);

  [[nodiscard]] const Pack& pack() const noexcept { return *pack_; }
  [[nodiscard]] const checkpoint::Model& resilience() const noexcept {
    return *resilience_;
  }

  /// Fault-free time t_{i,j} of the full task, from the pack's speedup
  /// profile (no row is read or filled).
  [[nodiscard]] double fault_free_time(int task, int j) const {
    return pack_->fault_free_time(task, j);
  }

  /// Sequential checkpoint footprint C_i = c * m_i.
  [[nodiscard]] double sequential_checkpoint(int task) const {
    COREDIS_EXPECTS(task >= 0 && task < pack_->size());
    return seq_ckpt_[static_cast<std::size_t>(task)];
  }

  /// C_{i,j} = C_i / j (checkpoint::Model::cost); 0 in the fault-free
  /// context (no checkpoints).
  [[nodiscard]] double checkpoint_cost(int task, int j) const {
    if (resilience_->fault_free()) return 0.0;  // no checkpoint ever taken
    return resilience_->cost(sequential_checkpoint(task), j);
  }

  /// R_{i,j} = C_{i,j} (the Eq. 4 fill asserts the equality).
  [[nodiscard]] double recovery_time(int task, int j) const {
    return checkpoint_cost(task, j);
  }

  /// Checkpointing period tau_{i,j} (Eq. 1); +infinity when fault-free.
  [[nodiscard]] double period(int task, int j) const {
    if (resilience_->fault_free())
      return std::numeric_limits<double>::infinity();
    return coeffs(task, j).tau[0];
  }

  /// The exact Eq. 4 arithmetic on entry k of the lanes, shared by every
  /// cached evaluation path (the scalar query below, the probe_many batch
  /// and the vector kernel's self-check): callers pass the cached
  /// coefficient bits, so any two paths agree bit for bit.
  [[nodiscard]] static double raw_kernel(double alpha,
                                         const detail::Eq4Lanes& c,
                                         std::size_t k) {
    const double work = alpha * c.t_ij[k];
    const double period_work = c.tau[k] - c.cost[k];  // the fill's tau - C
    const double n_ff = std::floor(work / period_work);  // Eq. 2
    const double tau_last = work - n_ff * period_work;   // Eq. 3
    COREDIS_ASSERT(tau_last >= -1e-9);
    // Eq. 4 on the cached coefficients. exp arguments stay small in sane
    // regimes (lambda_j * tau does not grow with j because tau ~ 1/j);
    // extreme parameters may produce +inf, which propagates harmlessly
    // through the min-based heuristics.
    return c.factor[k] *
           (n_ff * c.expm1_tau[k] +
            std::expm1(c.lambda_j[k] * std::max(tau_last, 0.0)));
  }

  /// Raw Eq. 4 (no monotonicity clamp). O(1) on a warm coefficient row:
  /// a handful of flops plus one expm1 for the trailing partial period.
  [[nodiscard]] double expected_time_raw(int task, int j, double alpha) const {
    COREDIS_EXPECTS(j >= 1);
    COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
    if (alpha == 0.0) return 0.0;
    if (resilience_->fault_free())
      return alpha * fault_free_time(task, j);  // section 3.3.1
    return raw_kernel(alpha, coeffs(task, j), 0);
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
    if (resilience_->fault_free()) return alpha * fault_free_time(task, j);
    const detail::Eq4Lanes c = coeffs(task, j);
    const double work = alpha * c.t_ij[0];
    const double period_work = c.tau[0] - c.cost[0];
    const double ratio = work / period_work;
    double full_periods = std::floor(ratio);
    // Snap floating-point noise around an exact boundary before deciding.
    if (ratio - full_periods > 1.0 - 1e-9) full_periods += 1.0;
    const double remainder = work - full_periods * period_work;
    // A run ending exactly on a period boundary skips the final checkpoint.
    if (remainder <= 1e-9 * work && full_periods > 0.0) full_periods -= 1.0;
    return work + full_periods * c.cost[0];
  }

  /// The alpha-independent coefficients of Eq. 8 at one (task, j):
  /// t_{i,j}, tau_{i,j} and C_{i,j}. In the fault-free context tau is
  /// +infinity and C is 0, and Eq. 8 reduces to alpha - elapsed / t_{i,j}
  /// bit for bit.
  struct Eq8 {
    double t_ij = 0.0;
    double tau = 0.0;
    double cost = 0.0;
  };

  /// Eq. 8's coefficients at (task, j), computed from the pack and the
  /// resilience model with the row's own calls (same bits as its lanes),
  /// and no row read or filled. The engine keeps them per task at its
  /// committed allocation.
  [[nodiscard]] Eq8 eq8(int task, int j) const {
    return {fault_free_time(task, j),
            resilience_->period(sequential_checkpoint(task), j),
            checkpoint_cost(task, j)};
  }

  /// Eq. 8: the remaining fraction of a task that kept `alpha` at its
  /// last baseline and has run for `elapsed` seconds since, on the
  /// allocation `c` describes. Elapsed time minus the completed
  /// checkpoints counts as work (a redistribution starts with a
  /// checkpoint that saves the running period); `alpha` itself while
  /// elapsed <= 0 (a blackout window). The one definition of Eq. 8.
  [[nodiscard]] static double remaining_after(const Eq8& c, double alpha,
                                              double elapsed) {
    if (elapsed <= 0.0) return alpha;
    const double completed = std::floor(elapsed / c.tau);  // 0 fault-free
    const double done_fraction = (elapsed - completed * c.cost) / c.t_ij;
    return std::clamp(alpha - done_fraction, 0.0, 1.0);
  }

  /// Eq. 8 on j processors, the coefficients read off the task's row (a
  /// faulty model) or the pack (a fault-free one).
  [[nodiscard]] double remaining_after(int task, int j, double alpha,
                                       double elapsed) const {
    if (elapsed <= 0.0) return alpha;
    if (resilience_->fault_free())
      return remaining_after(eq8(task, j), alpha, elapsed);
    const detail::Eq4Lanes c = coeffs(task, j);
    return remaining_after(Eq8{c.t_ij[0], c.tau[0], c.cost[0]}, alpha,
                           elapsed);
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
  /// One slot fetch.
  [[nodiscard]] Rollback rollback(int task, int j, double alpha,
                                  double baseline, double time) const {
    Rollback back;
    double kept = 0.0;  // work seconds the completed checkpoints saved
    double recovery = 0.0;
    double t_ij = 0.0;
    if (resilience_->fault_free()) {
      t_ij = fault_free_time(task, j);
    } else {
      const detail::Eq4Lanes c = coeffs(task, j);
      back.periods = std::floor((time - baseline) / c.tau[0]);
      kept = back.periods * (c.tau[0] - c.cost[0]);
      recovery = c.cost[0];  // R_{i,j} = C_{i,j}
      t_ij = c.t_ij[0];
    }
    back.alpha = std::clamp(alpha - kept / t_ij, 0.0, 1.0);
    back.restart = time + resilience_->downtime() + recovery;
    back.lost = (time - baseline) - kept + resilience_->downtime() + recovery;
    return back;
  }

  /// Batched Eq. 4 over consecutive even allocations: writes
  /// expected_time_raw(task, 2 * (h + 1), alpha) to out[h - h_begin] for
  /// every h in [h_begin, h_end). A faulty model densifies the row once
  /// through h_end and the kernel streams its lanes; a fault-free one
  /// writes alpha t_{i,j} straight from the pack's batched profile call.
  /// The result is bit-identical to the scalar loop (probe_many_reference,
  /// locked by tests) because both run the same arithmetic on the same
  /// bits.
  void probe_many(int task, int h_begin, int h_end, double alpha,
                  double* out) const;

  /// Scalar reference of probe_many: one expected_time_raw call per slot.
  void probe_many_reference(int task, int h_begin, int h_end, double alpha,
                            double* out) const;

  /// All six lanes of task's even row, filled through at least h_count
  /// entries (entry h covers j = 2 * (h + 1)): what probe_many streams
  /// into the vector kernel. A faulty model only (a fault-free one never
  /// evaluates Eq. 4). The pointers are invalidated by any query of a
  /// deeper j on the same task.
  [[nodiscard]] detail::Eq4Lanes eq4_lanes(int task,
                                           std::size_t h_count) const {
    COREDIS_EXPECTS(!resilience_->fault_free());
    ensure_row(task, h_count);
    return even_[static_cast<std::size_t>(task)].lanes(0);
  }

  /// Row entries filled over the model's lifetime, one per (task, j)
  /// whose Eq. 4 coefficients were first read (the sqrt, exp and expm1
  /// paid): the engine reports a run's share as EngineProfile::eq4_fills.
  [[nodiscard]] std::uint64_t eq4_fills() const noexcept {
    return eq4_fills_;
  }

  /// Bytes the rows hold now: six lanes of `capacity` doubles per
  /// allocated row, even and odd (EngineProfile::row_bytes). 0 for a
  /// fault-free model.
  [[nodiscard]] std::uint64_t row_bytes() const noexcept;

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
  /// A task's coefficient row: the six lanes in Eq4Lanes order (t_ij,
  /// tau, cost, lambda_j, factor, expm1_tau) in one buffer, lane after
  /// lane and `capacity` entries each, so deepening a row is one
  /// allocation. Entry k covers j = 2 (k + 1) in an even row and
  /// j = 2 k + 1 in an odd one; lane 0 < 0 flags it unfilled.
  struct Row {
    static constexpr std::size_t kLanes = 6;

    std::unique_ptr<double[]> buffer;
    std::size_t size = 0;      ///< entries in use per lane
    std::size_t capacity = 0;  ///< entries per lane in the buffer
    std::size_t dense = 0;     ///< entries [0, dense) known filled

    /// Grow every lane to n > size entries, the new ones flagged
    /// unfilled.
    void resize(std::size_t n);

    [[nodiscard]] double* lane(std::size_t l) const {
      return buffer.get() + l * capacity;
    }
    [[nodiscard]] bool filled(std::size_t k) const {
      return k < size && !(buffer[k] < 0.0);
    }
    /// All six lanes from entry k on.
    [[nodiscard]] detail::Eq4Lanes lanes(std::size_t k) const {
      return {lane(0) + k, lane(1) + k, lane(2) + k,
              lane(3) + k, lane(4) + k, lane(5) + k};
    }
  };

  /// The row holding (task, j), at entry (j - 1) / 2. Every hot-path
  /// probe uses an even j (allocations are processor pairs), so even
  /// columns live in a dense row indexed by j / 2 - 1. Rows grow to
  /// the deepest allocation whose Eq. 4 any scan read (DESIGN.md section
  /// 6.2), a few entries at a time. Odd j (sequential baselines, tests)
  /// goes to a separate row that stays empty during simulations.
  Row& row_of(int task, int j) const {
    COREDIS_EXPECTS(task >= 0 && task < pack_->size());
    COREDIS_EXPECTS(j >= 1);
    return (j % 2 == 0 ? even_ : odd_)[static_cast<std::size_t>(task)];
  }

  /// All six lanes at (task, j), entry 0 being that pair, filled on
  /// first access. Faulty models only.
  detail::Eq4Lanes coeffs(int task, int j) const {
    Row& row = row_of(task, j);
    const auto k = static_cast<std::size_t>(j - 1) / 2;
    if (!row.filled(k)) [[unlikely]] fill(task, j, row, k);
    return row.lanes(k);
  }

  /// Densify even entries [0, h_count) (j = 2 .. 2 * h_count) of the
  /// task's row. The dense-prefix check is inline — the batched probes
  /// re-ask for the same densified prefix millions of times per run, so
  /// the warm case must be a load and a compare — and the cold growth
  /// stays out of line.
  void ensure_row(int task, std::size_t h_count) const {
    COREDIS_EXPECTS(task >= 0 && task < pack_->size());
    const Row& row = even_[static_cast<std::size_t>(task)];
    if (row.dense < h_count) [[unlikely]] grow_row(task, h_count);
  }

  /// Cold path of ensure_row: fill the unfilled entries of [dense,
  /// h_count), each run of them with one batched t_{i,j} call.
  void grow_row(int task, std::size_t h_count) const;

  /// Cold path of coeffs(): entry k of the row, growing it to cover k.
  void fill(int task, int j, Row& row, std::size_t k) const;

  /// Every lane but t_{i,j} of entry k, whose t lane is written: the
  /// alpha-independent quantities of Eqs. 1-4.
  void fill_eq4(int task, int j, Row& row, std::size_t k) const;

  const Pack* pack_;
  const checkpoint::Model* resilience_;
  std::vector<double> seq_ckpt_;  ///< C_i per task, filled eagerly
  /// One even and one odd row per task; both lazy.
  mutable std::vector<Row> even_;
  mutable std::vector<Row> odd_;
  mutable std::uint64_t eq4_fills_ = 0;  ///< eq4_fills()
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
    /// heuristics' exact scans and the regrow (DESIGN.md section 6.5)
    /// read it in place instead of probing entry by entry.
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

  /// Prefix-min entries filled over the evaluator's lifetime, one raw
  /// Eq. 4 evaluation each: the engine reports a run's share as
  /// EngineProfile::column_fills.
  [[nodiscard]] std::uint64_t fills() const noexcept { return fills_; }

  /// Bytes the columns hold now: the prefix-min capacity of every slot
  /// (EngineProfile::column_bytes).
  [[nodiscard]] std::uint64_t column_bytes() const noexcept;

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
