#include "exp/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contracts.hpp"

namespace coredis::exp {

namespace {

/// How fast estimates chase new samples. 0.25 keeps roughly the last
/// dozen cells' weight while smoothing per-cell noise (fault streams
/// make cell costs of one point vary by small factors).
constexpr double kEwmaAlpha = 0.25;

}  // namespace

double cell_cost_prior(const Scenario& point) {
  // Simulation size: events and allocation work both scale with the
  // task count, redistribution scans with the processor count. The
  // committed bench history shows cell cost growing ~(n*p)^1.0 over the
  // n=100 -> n=1000 (p=10n) decade.
  const double size = static_cast<double>(point.n) *
                      static_cast<double>(std::max(point.p, 1));
  // Weibull sampling is heavier per fault and (shape < 1) front-loads
  // faults, driving more redistributions per run.
  const double law = point.fault_law == FaultLaw::Weibull ? 1.5 : 1.0;
  // Online arrivals add release bookkeeping on top of the pack.
  const double arrivals =
      point.arrival_law == extensions::ArrivalLaw::None ? 1.0 : 1.3;
  return size * law * arrivals;
}

CostModel::CostModel(const std::vector<Scenario>& points,
                     const std::vector<ConfigSpec>& /*configs*/) {
  priors_.reserve(points.size());
  for (const Scenario& point : points)
    priors_.push_back(cell_cost_prior(point));
  observed_.assign(points.size(), Estimate{});
}

double CostModel::predict(std::size_t point) const {
  COREDIS_EXPECTS(point < priors_.size());
  const std::lock_guard lock(mutex_);
  const Estimate& estimate = observed_[point];
  if (estimate.count > 0) return estimate.seconds;
  if (scale_seen_) return priors_[point] * scale_;
  return priors_[point];
}

void CostModel::observe(std::size_t point, double seconds) {
  COREDIS_EXPECTS(point < priors_.size());
  if (!std::isfinite(seconds) || seconds <= 0.0) return;
  const std::lock_guard lock(mutex_);
  Estimate& estimate = observed_[point];
  estimate.seconds = estimate.count == 0
                         ? seconds
                         : estimate.seconds +
                               kEwmaAlpha * (seconds - estimate.seconds);
  ++estimate.count;
  const double ratio = seconds / priors_[point];
  scale_ = scale_seen_ ? scale_ + kEwmaAlpha * (ratio - scale_) : ratio;
  scale_seen_ = true;
}

void CostModel::observe_span(const CellQueue& queue, std::size_t begin,
                             std::size_t end, double seconds) {
  COREDIS_EXPECTS(begin <= end && end <= queue.size());
  if (begin == end || !std::isfinite(seconds) || seconds <= 0.0) return;
  std::vector<double> weights;
  weights.reserve(end - begin);
  double total = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    const double weight = predict(queue.at(k).point);
    weights.push_back(weight);
    total += weight;
  }
  if (total <= 0.0) return;
  for (std::size_t k = begin; k < end; ++k)
    observe(queue.at(k).point, seconds * weights[k - begin] / total);
}

std::size_t CostModel::observations(std::size_t point) const {
  COREDIS_EXPECTS(point < priors_.size());
  const std::lock_guard lock(mutex_);
  return observed_[point].count;
}

std::vector<std::size_t> lpt_cell_order(const CostModel& model,
                                        const CellQueue& queue,
                                        std::size_t first, std::size_t count) {
  COREDIS_EXPECTS(first + count <= queue.size());
  // One prediction per point, not per cell: predictions are stable for
  // the duration of the sort even while workers keep observing.
  std::vector<double> by_point(model.points());
  for (std::size_t p = 0; p < by_point.size(); ++p)
    by_point[p] = model.predict(p);
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return by_point[queue.at(first + a).point] >
                            by_point[queue.at(first + b).point];
                   });
  return order;
}

}  // namespace coredis::exp
