#include "core/optimal_schedule.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/heap_ops.hpp"

namespace coredis::core {

namespace {

/// Max-heap entry ordered by expected completion time (the paper's
/// non-increasing "preceq^R_sigma" order, ties broken by task id for
/// determinism): entries are pairwise distinct, so any max-heap pops the
/// same strict total order the old std::priority_queue did. Replace-top /
/// stays-top come from the shared util/heap_ops.hpp definitions.
using HeapEntry = std::pair<double, int>;
using util::heap_replace_top;
using util::stays_top;

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

  std::vector<int> sigma(static_cast<std::size_t>(n), 2);
  int available = processors - 2 * n;

  std::vector<HeapEntry> heap;
  heap.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) heap.emplace_back(evaluator(i, 2, 1.0), i);
  std::make_heap(heap.begin(), heap.end());

  while (available >= 2 && !heap.empty()) {
    const int i = heap.front().second;  // peek; the entry stays in place
    const TrEvaluator::Column tr = evaluator.column(i, 1.0);
    // Grant pairs to the longest task while it provably stays the longest
    // (the rescored entry beats both heap children, so re-pushing and
    // re-popping it — what the one-grant-per-pop loop did — is a no-op):
    // each bulk iteration is two column reads and zero heap traffic.
    // Invariant: pmax = current + available is unchanged by a grant.
    bool granted = false;
    while (available >= 2) {
      const int current = sigma[static_cast<std::size_t>(i)];
      const int pmax = current + available - available % 2;  // even allocations
      // Line 9 lookahead: can this task be improved at all with everything
      // still in the pool, tr(current) > tr(pmax)? Eq. 6 columns are
      // prefix minima (non-increasing in j) and pmax >= current + 2, so a
      // strict drop at current + 2 already proves it; only a plateau,
      // tr(current + 2) == tr(current), needs the deep probe at pmax.
      // Exact, and it keeps the column one entry past the allocation
      // instead of filling it out to pmax for every task.
      const double next = tr(current + 2);
      if (!(next < tr(current)) && !(tr(current) > tr(pmax))) {
        // Keep the remaining processors for future redistributions.
        if (!granted) return sigma;  // the longest task is stuck: stop
        break;
      }
      sigma[static_cast<std::size_t>(i)] = current + 2;
      available -= 2;
      granted = true;
      const HeapEntry rescored(next, i);
      if (stays_top(heap, rescored)) {
        heap.front() = rescored;  // keeps the lead: grant again
      } else {
        heap_replace_top(heap, rescored);
        break;  // another task took the lead; re-peek
      }
    }
  }

  COREDIS_ENSURES(static_cast<int>(sigma.size()) == n);
  return sigma;
}

}  // namespace coredis::core
