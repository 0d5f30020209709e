#include "speedup/synthetic.hpp"

#include <cmath>
#include <cstddef>

#include "util/contracts.hpp"

namespace coredis::speedup {

SyntheticModel::SyntheticModel(double sequential_fraction)
    : f_(sequential_fraction) {
  COREDIS_EXPECTS(f_ >= 0.0 && f_ <= 1.0);
}

double SyntheticModel::time(double m, int q) const {
  double t = 0.0;
  SyntheticModel::even_times(m, q, 1, &t);
  return t;
}

void SyntheticModel::even_times(double m, int q_first, std::size_t count,
                                double* out) const {
  COREDIS_EXPECTS(m > 1.0);
  COREDIS_EXPECTS(q_first >= 1);
  const double log2m = std::log2(m);
  const double t1 = 2.0 * m * log2m;  // t(m, 1) = 2 m log2 m
  const double sequential = f_ * t1;
  const double parallel = (1.0 - f_) * t1;
  for (std::size_t k = 0; k < count; ++k) {
    const double qd = static_cast<double>(q_first + 2 * static_cast<int>(k));
    // Eq. 10: sequential part + parallel part + communication overhead.
    out[k] = sequential + parallel / qd + (m / qd) * log2m;
  }
}

}  // namespace coredis::speedup
