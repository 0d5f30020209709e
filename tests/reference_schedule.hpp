#pragma once

/// \file reference_schedule.hpp
/// The independent oracle of Algorithm 1's grant loop (core::grant_pairs),
/// shared by optimal_schedule_test.cpp and the online replan battery of
/// lazy_equivalence_test.cpp: the printed algorithm, one grant per pop,
/// every clamped value taken straight from the O(j) Eq. 6 scan of
/// ExpectedTimeModel::expected_time (no evaluator column, no bulk grants,
/// no short-circuited lookahead).

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"

namespace coredis::core {

/// Algorithm 1 as printed over `tasks` (ascending) at remaining fractions
/// `alphas`: every task starts at one pair; pop the longest (ties to the
/// larger position) and grant it a pair while its line-9 lookahead
/// tr(current) > tr(pmax) holds, pmax = min(current + available, cap). A
/// task whose next pair would exceed its cap is dropped; a failed
/// lookahead stops. `caps` is per task, empty for none.
inline std::vector<int> reference_schedule(const ExpectedTimeModel& model,
                                           const std::vector<int>& tasks,
                                           const std::vector<double>& alphas,
                                           int available,
                                           const std::vector<int>& caps) {
  const auto tr = [&](std::size_t k, int j) {
    return model.expected_time(tasks[k], j, alphas[k]);
  };
  std::vector<int> sigma(tasks.size(), 2);
  std::vector<std::pair<double, int>> heap;
  for (std::size_t k = 0; k < tasks.size(); ++k)
    heap.emplace_back(tr(k, 2), static_cast<int>(k));
  std::make_heap(heap.begin(), heap.end());
  while (available >= 2 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const auto k = static_cast<std::size_t>(heap.back().second);
    heap.pop_back();
    const int cap = caps.empty() ? std::numeric_limits<int>::max() : caps[k];
    int& current = sigma[k];
    if (current + 2 > cap) continue;
    const int pmax = std::min(current + available - available % 2, cap);
    if (!(tr(k, current) > tr(k, pmax))) break;
    current += 2;
    available -= 2;
    heap.emplace_back(tr(k, current), static_cast<int>(k));
    std::push_heap(heap.begin(), heap.end());
  }
  return sigma;
}

/// The whole pack at full work on `processors`, no caps: what
/// optimal_schedule must return.
inline std::vector<int> reference_schedule(const ExpectedTimeModel& model,
                                           int processors) {
  const int n = model.pack().size();
  std::vector<int> tasks(static_cast<std::size_t>(n));
  std::iota(tasks.begin(), tasks.end(), 0);
  return reference_schedule(model, tasks,
                            std::vector<double>(tasks.size(), 1.0),
                            processors - 2 * n, {});
}

}  // namespace coredis::core
