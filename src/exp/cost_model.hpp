#pragma once

/// \file cost_model.hpp
/// Predicted per-cell cost for heterogeneity-aware campaign scheduling
/// (DESIGN.md section 12.1).
///
/// A campaign grid is heterogeneous: one cell simulates `runs` faults
/// over an n-task pack on p processors under a set of heuristics, so a
/// large-n Weibull IteratedGreedy cell costs orders of magnitude more
/// than a small-n baseline cell. Feeding the worker pool (or the
/// cross-process dealer) cells longest-predicted-first (LPT) bounds the
/// makespan overhead of the last straggler by one cell instead of one
/// unlucky contiguous shard.
///
/// The model is deliberately crude and self-correcting: a structural
/// prior derived from the scenario knobs the cost actually scales with
/// (n, p, fault law, arrival law) seeds the ordering, and every
/// completed cell's measured wall-clock refines a per-point estimate
/// plus a global prior->seconds scale, so points not yet observed
/// inherit calibration from those that were. The prior carries no
/// per-configuration weight: every point of a campaign runs the same
/// configurations, so such a weight would scale every prior by one
/// constant, which the learned scale and every ordering absorb.
/// Predictions steer *scheduling only* — they are invisible in every
/// output byte (the committer retires cells in index order regardless).

#include <cstddef>
#include <vector>

#include <mutex>

#include "exp/scenario.hpp"
#include "exp/storage.hpp"

namespace coredis::exp {

/// Structural prior for one cell of `point`, in arbitrary units
/// comparable across points of one campaign: the n * p simulation size
/// times fault-law and arrival-law factors. Deterministic and > 0.
[[nodiscard]] double cell_cost_prior(const Scenario& point);

/// Online-refined cell cost estimates for one campaign grid.
/// Thread-safe: workers call observe() concurrently with predict().
class CostModel {
 public:
  /// `configs` is unused (the prior has no per-configuration weight; see
  /// the file comment), kept only because perfbench/src/grid.cpp spells
  /// `CostModel(points, configs)` and the benchmark's sources change only
  /// together with the benchmark; the next benchmark change can drop it.
  CostModel(const std::vector<Scenario>& points,
            const std::vector<ConfigSpec>& configs);

  [[nodiscard]] std::size_t points() const noexcept { return priors_.size(); }

  /// Predicted cost of one cell of grid point `point`: the running
  /// estimate (seconds) once the point has observations; otherwise the
  /// prior bridged into seconds through the global scale learned from
  /// *other* points' observations; the raw prior before any observation
  /// at all. Units are therefore only comparable within one model —
  /// exactly what ordering needs.
  [[nodiscard]] double predict(std::size_t point) const;

  /// Record one completed cell of `point` at `seconds` wall-clock.
  /// Moves the point's estimate toward the observation (exponentially
  /// weighted, so drifting machines re-converge) and refines the global
  /// prior->seconds scale. Non-finite or non-positive samples are
  /// ignored — a clock hiccup must not poison the ordering.
  void observe(std::size_t point, double seconds);

  /// Attribute a contiguous cell block's total seconds across its
  /// cells, each weighted by its current prediction — the only signal a
  /// cross-process dealer gets back per block is one number. The
  /// EM-style split keeps relative point estimates consistent with the
  /// block totals actually measured.
  void observe_span(const CellQueue& queue, std::size_t begin,
                    std::size_t end, double seconds);

  /// Observations folded into the point's estimate so far.
  [[nodiscard]] std::size_t observations(std::size_t point) const;

 private:
  std::vector<double> priors_;
  struct Estimate {
    double seconds = 0.0;     ///< EWMA of observed cell seconds
    std::size_t count = 0;
  };
  std::vector<Estimate> observed_;
  double scale_ = 0.0;  ///< EWMA of seconds / prior across all points
  bool scale_seen_ = false;
  mutable std::mutex mutex_;
};

/// Longest-predicted-first execution order for the `count` cells at
/// global indices [first, first + count): a permutation `perm` of
/// [0, count) such that running relative index perm[i] visits cells by
/// descending predicted cost, ties broken by ascending cell index — so
/// a homogeneous grid keeps plain index order and the pre-cost-model
/// artifact-producing schedule is the LPT order's degenerate case.
[[nodiscard]] std::vector<std::size_t> lpt_cell_order(const CostModel& model,
                                                      const CellQueue& queue,
                                                      std::size_t first,
                                                      std::size_t count);

}  // namespace coredis::exp
