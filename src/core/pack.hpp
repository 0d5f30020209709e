#pragma once

/// \file pack.hpp
/// Packs of malleable tasks (paper section 3).
///
/// A pack is a set of n independent malleable tasks {T_1, ..., T_n} that
/// start simultaneously on p processors. Each task is characterized by its
/// data size m_i; its fault-free execution time t_{i,j} on j processors
/// comes from the pack's speedup model, and its checkpoint footprint
/// C_i = c * m_i from the resilience model.

#include <cstddef>
#include <vector>

#include "speedup/model.hpp"
#include "util/rng.hpp"

namespace coredis::core {

/// Static description of one malleable task.
struct TaskSpec {
  /// Problem size m_i ("number of data", paper Table 1). Drives both the
  /// execution time t_{i,j} and the redistribution / checkpoint volumes.
  double data_size = 0.0;
  /// Optional per-task speedup profile; tasks with a null profile use the
  /// pack's shared model. Mixing profiles models co-scheduling different
  /// applications (the paper's t_{i,j} are per-task anyway).
  speedup::ModelPtr profile;
};

/// Immutable set of tasks with a shared default speedup profile (and
/// optional per-task overrides).
class Pack {
 public:
  Pack(std::vector<TaskSpec> tasks, speedup::ModelPtr model);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] const TaskSpec& task(int i) const;
  [[nodiscard]] const speedup::Model& speedup() const noexcept {
    return *model_;
  }
  /// Shared handle to the speedup model (e.g. to build sub-packs).
  [[nodiscard]] const speedup::ModelPtr& speedup_ptr() const noexcept {
    return model_;
  }

  /// Fault-free execution time t_{i,j} of the whole task i on j processors.
  [[nodiscard]] double fault_free_time(int i, int j) const;

  /// Batched fault_free_time over even allocations: out[k] = t_{i,j}
  /// at j = j_first + 2 k, k in [0, count), bit for bit (the task's
  /// profile's speedup::Model::even_times).
  void even_fault_free_times(int i, int j_first, std::size_t count,
                             double* out) const;

  /// The paper's workload generator (section 6.1): data sizes m_i drawn
  /// uniformly in [m_inf, m_sup]. A wide interval gives a heterogeneous
  /// pack, a narrow one a homogeneous pack.
  [[nodiscard]] static Pack uniform_random(int n, double m_inf, double m_sup,
                                           speedup::ModelPtr model, Rng& rng);

 private:
  std::vector<TaskSpec> tasks_;
  speedup::ModelPtr model_;
};

}  // namespace coredis::core
