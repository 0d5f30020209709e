#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace coredis {

bool parse_thread_count(const std::string& text, std::size_t& count,
                        std::string& error) {
  if (text.empty()) {
    error = "COREDIS_THREADS is empty";
    return false;
  }
  std::size_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      error = "COREDIS_THREADS='" + text + "' is not a plain decimal integer";
      return false;
    }
    parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
    if (parsed > max_thread_override()) {
      error = "COREDIS_THREADS='" + text + "' exceeds the maximum of " +
              std::to_string(max_thread_override());
      return false;
    }
  }
  count = parsed;
  error.clear();
  return true;
}

std::size_t default_thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  const std::size_t fallback = hc == 0 ? 1 : hc;
  if (const char* env = std::getenv("COREDIS_THREADS")) {
    std::size_t count = 0;
    std::string error;
    if (parse_thread_count(env, count, error)) return count;
    // Warn once per process: default_thread_count runs on every
    // parallel_for, and a warning per call would drown real output.
    static const bool warned = [&] {
      std::fprintf(stderr, "coredis: %s; falling back to %zu hardware %s\n",
                   error.c_str(), fallback,
                   fallback == 1 ? "thread" : "threads");
      return true;
    }();
    (void)warned;
  }
  return fallback;
}

std::size_t thread_budget_share(std::size_t workers, std::size_t index) {
  if (workers == 0) return default_thread_count();
  const std::size_t total = default_thread_count();
  const std::size_t share = total / workers + (index < total % workers);
  return std::max<std::size_t>(share, 1);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  threads = std::min(threads, count);

  std::atomic<bool> stop{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto record_error = [&] {
    {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    stop.store(true, std::memory_order_release);
  };

  // Work-stealing schedule: per-worker deques of contiguous index
  // ranges, seeded with the worker's static shard. The owner pops LIFO
  // from the back of its own deque and walks each range in increasing
  // index order; a thief pops FIFO from the front of a victim's deque
  // and takes the *far half* of the range it finds there, handing the
  // near half back — so owner and thief keep contiguous, disjoint index
  // runs and every index is executed exactly once. Plain mutexes per
  // deque (not a lock-free Chase-Lev deque): the bodies this repo runs
  // are simulation cells, microseconds to hundreds of milliseconds
  // each, so an uncontended lock per index is noise — and the schedule
  // stays trivially TSan-clean.
  struct StealRange {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  struct StealDeque {
    std::mutex mutex;
    std::deque<StealRange> ranges;
  };
  std::vector<StealDeque> deques(threads);
  for (std::size_t t = 0; t < deques.size(); ++t) {
    const StealRange shard{t * count / threads, (t + 1) * count / threads};
    if (shard.begin < shard.end) deques[t].ranges.push_back(shard);
  }

  // Take one index from the back of the worker's own deque (the range
  // there keeps shrinking from its front, preserving increasing order).
  const auto take_local = [&deques](std::size_t t, std::size_t& index) {
    StealDeque& mine = deques[t];
    const std::lock_guard lock(mine.mutex);
    if (mine.ranges.empty()) return false;
    StealRange& range = mine.ranges.back();
    index = range.begin++;
    if (range.begin == range.end) mine.ranges.pop_back();
    return true;
  };

  // Steal the far half of the victim's front range into `out`; the near
  // half stays with the victim, so its owner keeps walking a contiguous
  // run.
  const auto steal_from = [&deques](std::size_t victim, StealRange& out) {
    StealDeque& theirs = deques[victim];
    const std::lock_guard lock(theirs.mutex);
    if (theirs.ranges.empty()) return false;
    StealRange& range = theirs.ranges.front();
    const std::size_t mid = range.begin + (range.end - range.begin) / 2;
    if (mid == range.begin) {  // single index: take the whole range
      out = range;
      theirs.ranges.pop_front();
      return true;
    }
    out = {mid, range.end};
    range.end = mid;
    return true;
  };

  auto stealing_worker = [&](std::size_t t) {
    // Two empty sweeps over all victims before giving up: a thief can
    // briefly hold a stolen range outside any deque, so one empty sweep
    // can race with work in flight. Exiting on that race only costs tail
    // parallelism — every index is still executed by whoever holds it.
    int empty_sweeps = 0;
    while (empty_sweeps < 2) {
      std::size_t i = 0;
      if (take_local(t, i)) {
        empty_sweeps = 0;
        if (stop.load(std::memory_order_acquire)) return;
        try {
          body(i);
        } catch (...) {
          record_error();
          return;
        }
        continue;
      }
      if (stop.load(std::memory_order_acquire)) return;
      StealRange stolen;
      bool found = false;
      for (std::size_t k = 1; k < threads && !found; ++k)
        found = steal_from((t + k) % threads, stolen);
      if (found) {
        empty_sweeps = 0;
        const std::lock_guard lock(deques[t].mutex);
        deques[t].ranges.push_back(stolen);
        continue;
      }
      ++empty_sweeps;
      std::this_thread::yield();
    }
  };

  std::vector<std::jthread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back(stealing_worker, t);
  pool.clear();  // join

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace coredis
