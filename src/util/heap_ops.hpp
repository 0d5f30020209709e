#pragma once

/// \file heap_ops.hpp
/// Replace-top primitives for the scratch max-heaps of the grant loops
/// (core/heuristics.cpp, and core::grant_pairs in core/optimal_schedule.cpp,
/// the Algorithm 1 loop that the engine and the online schedulers share).
///
/// The grant loops pop the top entry, rescore it, and reinsert it; these
/// helpers fuse that into a single O(log n) sift — or no heap work at all
/// when the rescored entry provably keeps the lead. Entries must be
/// pairwise distinct under operator< (the callers key by (value, index)),
/// so heap pops follow a strict total order whatever the internal layout:
/// any caller using these primitives pops exactly like the
/// std::priority_queue it replaced. Bit-identity of the heuristics' grant
/// sequences depends on every grant loop sharing this one definition.

#include <cstddef>
#include <vector>

namespace coredis::util {

/// Rewrite the root in place and restore the max-heap with a single
/// sift-down.
template <typename Entry>
void heap_replace_top(std::vector<Entry>& heap, Entry entry) {
  const std::size_t n = heap.size();
  std::size_t hole = 0;
  while (true) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child] < heap[child + 1]) ++child;
    if (!(entry < heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = entry;
}

/// True when `entry`, written at the root, would stay the maximum — i.e.
/// it beats both children, hence every entry (strict order, no
/// duplicates). Lets a grant loop keep probing the same candidate with no
/// heap work at all.
template <typename Entry>
[[nodiscard]] bool stays_top(const std::vector<Entry>& heap,
                             const Entry& entry) {
  const std::size_t n = heap.size();
  if (n > 1 && entry < heap[1]) return false;
  if (n > 2 && entry < heap[2]) return false;
  return true;
}

}  // namespace coredis::util
