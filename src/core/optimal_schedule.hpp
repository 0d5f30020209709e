#pragma once

/// \file optimal_schedule.hpp
/// Algorithm 1: optimal schedule without redistribution (paper section 4.1).
///
/// Theorem 1: with no redistribution, minimizing the expected makespan is
/// polynomial. The greedy algorithm starts every task at 2 processors (the
/// buddy scheme needs pairs) and repeatedly gives one pair to the task with
/// the largest expected completion time t^R_{i,sigma(i)}(1), as long as its
/// expected time can still decrease; if the current longest task cannot be
/// improved even with *all* remaining processors (line 9's lookahead test),
/// the loop stops and the leftover processors stay available for later
/// redistributions. Complexity O(p log n).
///
/// grant_pairs is that loop, and the only copy of it: the engine's initial
/// allocation (optimal_schedule), the malleable online replan
/// (extensions/online.hpp) and the adaptive policies (policy/adaptive.cpp)
/// all call it, the online schedulers over a subset of the tasks at their
/// remaining work fractions, reshape with per-task caps.

#include <vector>

#include "core/expected_time.hpp"

namespace coredis::core {

/// Returns sigma, the per-task (even) processor counts, with
/// sum(sigma) <= p. Throws std::invalid_argument if p < 2n (every task
/// needs one buddy pair).
[[nodiscard]] std::vector<int> optimal_schedule(const ExpectedTimeModel& model,
                                                int processors);

/// Same, reusing a caller-provided evaluator cache (hot path for
/// simulations that build many schedules).
[[nodiscard]] std::vector<int> optimal_schedule(const ExpectedTimeModel& model,
                                                int processors,
                                                TrEvaluator& evaluator);

/// Algorithm 1's grant loop over `tasks` (task indices in ascending
/// order), task tasks[k] at remaining work fraction alphas[k]. Every task
/// starts at one pair; then the longest, by (expected time, position in
/// `tasks`), gets one more pair while its line 9 lookahead
/// tr(sigma) > tr(pmax) holds, pmax = min(sigma + available, cap). A task
/// whose next pair would exceed its cap leaves the heap and the
/// next-longest goes on; a longest task that cannot improve stops the
/// pass. `available` counts the processors beyond one pair per task;
/// `caps` holds one cap per task, empty for none. Writes sigma[k] per
/// position.
void grant_pairs(TrEvaluator& evaluator, const std::vector<int>& tasks,
                 const std::vector<double>& alphas, int available,
                 const std::vector<int>& caps, std::vector<int>& sigma);

}  // namespace coredis::core
