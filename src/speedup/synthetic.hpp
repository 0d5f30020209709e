#pragma once

/// \file synthetic.hpp
/// The paper's synthetic workload profile (section 6.1, Eq. 10).
///
///   t(m, 1) = 2 m log2(m)
///   t(m, q) = f * t(m,1) + (1 - f) * t(m,1) / q + (m / q) * log2(m)
///
/// f is the sequential fraction (default 0.08: "92% of time is considered
/// as parallel"); the (m/q) log2(m) term models communication and
/// synchronization overhead.

#include "speedup/model.hpp"

namespace coredis::speedup {

class SyntheticModel final : public Model {
 public:
  /// \param sequential_fraction the paper's f, in [0, 1].
  explicit SyntheticModel(double sequential_fraction = 0.08);

  [[nodiscard]] double time(double m, int q) const override;

  /// Eq. 10 with log2 m, t(m, 1) and its two parts hoisted out of the
  /// loop; time() is this loop at count 1, so the two agree bit for bit.
  void even_times(double m, int q_first, std::size_t count,
                  double* out) const override;

  [[nodiscard]] double sequential_fraction() const noexcept { return f_; }

 private:
  double f_;
};

}  // namespace coredis::speedup
