#include "core/optimal_schedule.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/heap_ops.hpp"

namespace coredis::core {

namespace {

/// Max-heap entry (expected time, position in `tasks`): the paper's
/// non-increasing "preceq^R_sigma" order, ties broken by position (task
/// index, since `tasks` ascends) for determinism. Entries are pairwise
/// distinct, so any max-heap pops the same strict total order the old
/// std::priority_queue did. Replace-top / stays-top come from the shared
/// util/heap_ops.hpp definitions.
using HeapEntry = std::pair<double, int>;
using util::heap_replace_top;
using util::stays_top;

constexpr int kNoCap = std::numeric_limits<int>::max();

}  // namespace

std::vector<int> optimal_schedule(const ExpectedTimeModel& model,
                                  int processors) {
  TrEvaluator evaluator(model, processors - processors % 2);
  return optimal_schedule(model, processors, evaluator);
}

std::vector<int> optimal_schedule(const ExpectedTimeModel& model,
                                  int processors, TrEvaluator& evaluator) {
  const int n = model.pack().size();
  if (processors < 2 * n)
    throw std::invalid_argument(
        "optimal_schedule: need at least one processor pair per task");
  std::vector<int> tasks(static_cast<std::size_t>(n));
  std::iota(tasks.begin(), tasks.end(), 0);
  const std::vector<double> alphas(static_cast<std::size_t>(n), 1.0);
  std::vector<int> sigma;
  grant_pairs(evaluator, tasks, alphas, processors - 2 * n, {}, sigma);
  return sigma;
}

void grant_pairs(TrEvaluator& evaluator, const std::vector<int>& tasks,
                 const std::vector<double>& alphas, int available,
                 const std::vector<int>& caps, std::vector<int>& sigma) {
  const std::size_t count = tasks.size();
  COREDIS_EXPECTS(alphas.size() == count);
  COREDIS_EXPECTS(caps.empty() || caps.size() == count);
  sigma.assign(count, 2);
  std::vector<HeapEntry> heap;
  heap.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    heap.emplace_back(evaluator(tasks[k], 2, alphas[k]), static_cast<int>(k));
  std::make_heap(heap.begin(), heap.end());

  while (available >= 2 && !heap.empty()) {
    const int k = heap.front().second;  // peek; the entry stays in place
    const auto at = static_cast<std::size_t>(k);
    const int cap = caps.empty() ? kNoCap : caps[at];
    if (sigma[at] + 2 > cap) {  // capped out: the next-longest goes on
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
      continue;
    }
    const TrEvaluator::Column tr = evaluator.column(tasks[at], alphas[at]);
    // Grant pairs to the longest task while it provably stays the longest
    // (the rescored entry beats both heap children, so re-pushing and
    // re-popping it — what the one-grant-per-pop loop did — is a no-op):
    // each bulk iteration is two column reads and zero heap traffic.
    // Invariant: pmax = min(current + available, cap) is unchanged by a
    // grant.
    for (int current = sigma[at]; available >= 2 && current + 2 <= cap;
         current += 2) {
      const int pmax = std::min(current + available - available % 2, cap);
      // Line 9 lookahead: can this task be improved at all with everything
      // it may still take, tr(current) > tr(pmax)? Eq. 6 columns are
      // prefix minima (non-increasing in j) and pmax >= current + 2, so a
      // strict drop at current + 2 already proves it; only a plateau,
      // tr(current + 2) == tr(current), needs the deep probe at pmax.
      // Exact, and it keeps the column one entry past the allocation
      // instead of filling it out to pmax for every task.
      const double next = tr(current + 2);
      if (!(next < tr(current)) && !(tr(current) > tr(pmax)))
        return;  // the longest task is stuck: the rest stays in the pool
      sigma[at] = current + 2;
      available -= 2;
      const HeapEntry rescored(next, k);
      if (!stays_top(heap, rescored)) {
        heap_replace_top(heap, rescored);
        break;  // another task took the lead; re-peek
      }
      heap.front() = rescored;  // keeps the lead: grant again
    }
  }
}

}  // namespace coredis::core
