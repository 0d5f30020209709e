#pragma once

/// \file model.hpp
/// Speedup profiles: fault-free execution time of a task as a function of
/// its processor allocation.
///
/// Paper section 1: "a speedup profile determines the performance of the
/// application for a given number of processors", assumed "known (or
/// estimated) before execution, through benchmarking campaigns". Section
/// 6.1 instantiates a synthetic profile (Eq. 10); this interface also
/// admits Amdahl profiles and tabulated (measured) profiles so that the
/// library is usable beyond the paper's campaign.
///
/// Contract required by the scheduling model (section 3.2):
///  * time(m, q) is non-increasing in q (more processors never slow the
///    fault-free execution), and
///  * work q * time(m, q) is non-decreasing in q (parallelization is never
///    free).
/// Models provided here satisfy both; property tests verify it.

#include <cstddef>
#include <memory>

namespace coredis::speedup {

/// Abstract fault-free execution-time profile t(m, q).
class Model {
 public:
  virtual ~Model() = default;

  /// Fault-free execution time of a problem of size m on q >= 1 processors,
  /// in seconds. This is the t_{i,j} of the paper for m = m_i, q = j.
  [[nodiscard]] virtual double time(double m, int q) const = 0;

  /// The even-allocation row the scheduler scans, batched: out[k] =
  /// time(m, q_first + 2 k) for k in [0, count), bit for bit. The default
  /// loops over time(); a model whose formula has per-m terms hoists them.
  virtual void even_times(double m, int q_first, std::size_t count,
                          double* out) const {
    for (std::size_t k = 0; k < count; ++k)
      out[k] = time(m, q_first + 2 * static_cast<int>(k));
  }

  /// Sequential time t(m, 1).
  [[nodiscard]] double sequential_time(double m) const { return time(m, 1); }
};

using ModelPtr = std::shared_ptr<const Model>;

}  // namespace coredis::speedup
