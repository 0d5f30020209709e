#pragma once

/// \file parallel.hpp
/// Thread-parallel execution of independent simulation runs.
///
/// Monte-Carlo runs are embarrassingly parallel (each has its own RNG
/// stream, see rng.hpp), so the experiment harness fans indices out over a
/// small worker pool. The API is a deterministic-output parallel_for: the
/// caller indexes results by run id, so thread scheduling cannot change any
/// reported number.

#include <cstddef>
#include <functional>
#include <string>

namespace coredis {

/// Strict parse of a COREDIS_THREADS-style override: a plain base-10
/// integer, no sign, no trailing characters, at most
/// max_thread_override(). 0 and 1 are valid (they disable threading).
/// Returns false and fills `error` (naming the offending value) on
/// anything else — garbage must never silently become "0 threads".
[[nodiscard]] bool parse_thread_count(const std::string& text,
                                      std::size_t& count, std::string& error);

/// Upper bound accepted by parse_thread_count. Far above any real
/// machine; its purpose is to turn overflow and fat-finger values into
/// loud errors instead of a sign-wrapped or saturated thread pool.
[[nodiscard]] constexpr std::size_t max_thread_override() { return 65536; }

/// Number of workers used by parallel_for: hardware concurrency unless the
/// COREDIS_THREADS environment variable overrides it (0 or 1 disable
/// threading, useful when debugging). A malformed override — garbage,
/// trailing characters, negative, overflow — is rejected loudly: one
/// stderr warning naming the offending value, then the explicit fallback
/// to hardware concurrency (it is never silently treated as 0).
[[nodiscard]] std::size_t default_thread_count();

/// Fair slice of the machine's thread budget for worker `index` of
/// `workers` co-scheduled worker processes: the default_thread_count()
/// threads split as evenly as possible (the first total % workers
/// workers get one extra), never below 1 — so N local campaign workers
/// oversubscribe nothing while every worker keeps making progress even
/// when workers > threads.
[[nodiscard]] std::size_t thread_budget_share(std::size_t workers,
                                              std::size_t index);

/// Run body(i) for every i in [0, count) on `threads` workers (0 means
/// default_thread_count()), by work stealing: each worker owns a deque
/// of contiguous index ranges seeded with its static shard. Owners take
/// indices LIFO from the back of their own deque (walking each range in
/// increasing index order); an idle worker steals FIFO from the front of
/// a victim's deque, taking the far half of the victim's range.
/// Heterogeneous index costs balance to near-ideal makespan while the
/// uncontended fast path touches only the worker's own lock (DESIGN.md
/// section 12.2). Exceptions thrown by the body propagate to the caller
/// (the first one recorded wins; later ones are swallowed). After any
/// throw the workers stop claiming new indices and stop starting bodies
/// (best-effort: each surviving worker may finish at most one body
/// already in flight), so a failing campaign aborts promptly instead of
/// draining the rest of the grid.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace coredis
