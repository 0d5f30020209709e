#include "extensions/online.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "core/expected_time.hpp"
#include "extensions/batch.hpp"
#include "redistrib/cost.hpp"
#include "util/contracts.hpp"
#include "util/heap_ops.hpp"

namespace coredis::extensions {

namespace {

/// Mean processor-seconds demanded per job: best-useful allocation
/// (extensions/batch.hpp — the rigid submissions use the same rule, so
/// calibration and requests agree) times the fault-free time on it,
/// averaged over the pack.
double mean_job_area(const core::ExpectedTimeModel& model,
                     core::TrEvaluator& evaluator, int p) {
  const int n = model.pack().size();
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const int j = best_useful_allocation(evaluator, i, p);
    total += static_cast<double>(j) * model.fault_free_time(i, j);
  }
  return total / static_cast<double>(n);
}

std::vector<double> load_trace(const std::string& path, int n) {
  std::ifstream file(path);
  if (!file)
    throw std::runtime_error("cannot open arrival trace: " + path);
  std::vector<double> times;
  double value = 0.0;
  while (file >> value) {
    if (value < 0.0)
      throw std::runtime_error("arrival trace has a negative release date: " +
                               path);
    times.push_back(value);
  }
  if (static_cast<int>(times.size()) < n)
    throw std::runtime_error(
        "arrival trace holds " + std::to_string(times.size()) +
        " release dates but the pack needs " + std::to_string(n) + ": " + path);
  // Sort first, then keep the n *earliest* dates — truncating a trace in
  // file order would silently pick an arbitrary subset when the file is
  // not already sorted.
  std::sort(times.begin(), times.end());
  times.resize(static_cast<std::size_t>(n));
  return times;
}

/// Max-heap entry ordered like optimal_schedule's: longest expected
/// completion first, deterministic index ties. Entries are pairwise
/// distinct (one per live job), so pops follow a strict total order and
/// any max-heap (std::priority_queue or the replace-top scratch vector of
/// the incremental path, built on the shared util/heap_ops.hpp
/// primitives) yields the identical grant sequence.
struct HeapEntry {
  double expected_time;
  int job;
  bool operator<(const HeapEntry& other) const {
    if (expected_time != other.expected_time)
      return expected_time < other.expected_time;
    return job < other.job;
  }
};
using util::heap_replace_top;
using util::stays_top;

/// Runtime state of one online job.
struct Job {
  bool admitted = false;
  bool done = false;
  double alpha = 1.0;     ///< remaining work fraction, committed at baseline
  int sigma = 0;          ///< current (even) allocation; 0 before admission
  double baseline = 0.0;  ///< start of the current checkpoint pattern;
                          ///< also the end of any blackout window
  double proj_end = 0.0;  ///< fault-free projected completion
  double busy_mark = 0.0; ///< last allocation change (busy accounting)
};

}  // namespace

std::string to_string(ArrivalLaw law) {
  switch (law) {
    case ArrivalLaw::None: return "none";
    case ArrivalLaw::Poisson: return "poisson";
    case ArrivalLaw::Bulk: return "bulk";
    case ArrivalLaw::Trace: return "trace";
  }
  return "?";
}

std::vector<double> make_release_times(const ArrivalSpec& spec,
                                       const core::Pack& pack,
                                       const checkpoint::Model& resilience,
                                       int processors, Rng& rng) {
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, processors - processors % 2);
  return make_release_times(spec, pack, resilience, processors, rng, model,
                            evaluator);
}

std::vector<double> make_release_times(const ArrivalSpec& spec,
                                       const core::Pack& pack,
                                       const checkpoint::Model& resilience,
                                       int processors, Rng& rng,
                                       const core::ExpectedTimeModel& model,
                                       core::TrEvaluator& evaluator) {
  COREDIS_EXPECTS(processors >= 2);
  COREDIS_EXPECTS(spec.load_factor > 0.0);
  COREDIS_EXPECTS(&model.pack() == &pack);
  COREDIS_EXPECTS(&model.resilience() == &resilience);
  const int n = pack.size();
  std::vector<double> releases(static_cast<std::size_t>(n), 0.0);
  if (spec.law == ArrivalLaw::None || n == 0) return releases;
  if (spec.law == ArrivalLaw::Trace) {
    releases = load_trace(spec.trace_path, n);
    for (double& r : releases) r /= spec.load_factor;
    return releases;
  }

  // Calibrate the arrival rate so the offered load is spec.load_factor:
  // one job demands a_bar processor-seconds on average, so rho * p
  // processor-seconds per second means one arrival every
  // a_bar / (rho * p) seconds.
  const double area = mean_job_area(model, evaluator, processors);
  const double mean_gap =
      area / (spec.load_factor * static_cast<double>(processors));

  if (spec.law == ArrivalLaw::Poisson) {
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
      t += rng.exponential(1.0 / mean_gap);
      releases[static_cast<std::size_t>(i)] = t;
    }
    return releases;
  }

  // Bulk: jobs arrive in `bulk_phases` evenly spaced waves of n / phases
  // jobs (index order), one wave per mean service interval of its jobs.
  COREDIS_EXPECTS(spec.bulk_phases >= 1);
  const int phases = std::min(spec.bulk_phases, n);
  const double spacing =
      mean_gap * (static_cast<double>(n) / static_cast<double>(phases));
  for (int i = 0; i < n; ++i) {
    const int phase = i * phases / n;
    releases[static_cast<std::size_t>(i)] =
        static_cast<double>(phase) * spacing;
  }
  return releases;
}

OnlineResult run_online(const core::Pack& pack,
                        const checkpoint::Model& resilience, int processors,
                        const std::vector<double>& release_times,
                        fault::Generator& faults,
                        const OnlineOptions& options) {
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, processors - processors % 2);
  return run_online(pack, resilience, processors, release_times, faults,
                    model, evaluator, options);
}

OnlineResult run_online(const core::Pack& pack,
                        const checkpoint::Model& resilience, int processors,
                        const std::vector<double>& release_times,
                        fault::Generator& faults,
                        const core::ExpectedTimeModel& model,
                        core::TrEvaluator& evaluator,
                        const OnlineOptions& options) {
  COREDIS_EXPECTS(processors >= 2);
  COREDIS_EXPECTS(&model.pack() == &pack);
  const int n = pack.size();
  COREDIS_EXPECTS(static_cast<int>(release_times.size()) == n);
  const int p = processors - processors % 2;
  const double infinity = std::numeric_limits<double>::infinity();

  std::vector<Job> jobs(static_cast<std::size_t>(n));

  // Arrival order: release date, ties by job index.
  std::vector<int> arrivals(static_cast<std::size_t>(n));
  std::iota(arrivals.begin(), arrivals.end(), 0);
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](int a, int b) {
    return release_times[static_cast<std::size_t>(a)] <
           release_times[static_cast<std::size_t>(b)];
  });
  std::size_t next_arrival = 0;
  // Released, not yet admitted, in arrival order: a consumed-prefix cursor
  // instead of front-erasure (the erase was quadratic in queue depth).
  std::vector<int> waiting;
  std::size_t waiting_head = 0;
  const auto waiting_empty = [&] { return waiting_head >= waiting.size(); };

  OnlineResult result;
  result.start_times.assign(static_cast<std::size_t>(n), 0.0);
  result.completion_times.assign(static_cast<std::size_t>(n), 0.0);
  result.final_allocation.assign(static_cast<std::size_t>(n), 0);

  /// Remaining work fraction of job i at time t, the engine's
  /// alpha_tentative arithmetic: elapsed time minus completed checkpoints
  /// counts as work (a redistribution starts with a checkpoint that
  /// preserves the running period).
  const auto tentative_alpha = [&](int i, double t) {
    const Job& job = jobs[static_cast<std::size_t>(i)];
    if (t <= job.baseline) return job.alpha;
    const double tau = model.period(i, job.sigma);
    const double cost = model.checkpoint_cost(i, job.sigma);
    const double elapsed = t - job.baseline;
    const double completed = std::isfinite(tau) ? std::floor(elapsed / tau)
                                                : 0.0;
    const double done_fraction =
        (elapsed - completed * cost) / model.fault_free_time(i, job.sigma);
    return std::clamp(job.alpha - done_fraction, 0.0, 1.0);
  };

  // Re-run the pack machinery over the admissible jobs at time t: admit
  // newly released jobs while one pair per live job still fits, then
  // rebuild the allocation with the Algorithm 1 greedy over remaining
  // work, committing only actual changes (each pays RC + an initial
  // checkpoint and opens a blackout window).
  std::vector<int> live;      // reused across events
  std::vector<double> alpha_now;
  std::vector<int> target;
  std::vector<HeapEntry> heap;  // incremental path's scratch (reused)
  const bool eager_replan = options.eager_replan;
  const auto reschedule = [&](double t) {
    live.clear();
    int reserved = 0;
    for (int i = 0; i < n; ++i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      if (!job.admitted || job.done) continue;
      // Jobs inside a blackout window (mid-redistribution or recovering)
      // keep their allocation; everyone else is malleable.
      if (t >= job.baseline) {
        live.push_back(i);
      } else {
        reserved += job.sigma;
      }
    }
    // Admission in release order, while one pair per live job still fits.
    while (!waiting_empty() &&
           2 * (static_cast<int>(live.size()) + 1) <= p - reserved) {
      const int i = waiting[waiting_head];
      ++waiting_head;
      Job& job = jobs[static_cast<std::size_t>(i)];
      job.admitted = true;
      job.alpha = 1.0;
      job.sigma = 0;     // assigned below
      job.baseline = t;  // keeps tentative_alpha at 1.0 until the commit
      job.busy_mark = t;
      result.start_times[static_cast<std::size_t>(i)] = t;
      live.push_back(i);
    }
    if (live.empty()) return;
    std::sort(live.begin(), live.end());

    const auto count = live.size();
    alpha_now.assign(count, 1.0);
    target.assign(count, 2);
    for (std::size_t k = 0; k < count; ++k)
      alpha_now[k] = tentative_alpha(live[k], t);

    // Algorithm 1 over the live set: start at one pair each, grant a pair
    // to the longest job while its expected time can still decrease; the
    // line 9 lookahead stops as soon as the longest job cannot improve
    // even with the whole remaining pool.
    int available = p - reserved - 2 * static_cast<int>(count);
    COREDIS_ASSERT(available >= 0);
    if (!eager_replan) {
      // Incremental repair (DESIGN.md section 8.2): the regrow re-derives
      // almost every job's allocation unchanged, so prefill each
      // admissible job's fresh-alpha column to its current allocation
      // depth in one probe_many batch — the exact Eq. 4 values the grant
      // scans will read, streamed back to back — then regrow with a
      // replace-top scratch heap, granting in bulk while a job provably
      // keeps the lead (the rescored entry beats both heap children, so
      // re-pushing and re-popping it would be a no-op). The probes and
      // their order are identical to the from-scratch rebuild kept below.
      heap.clear();
      for (std::size_t k = 0; k < count; ++k) {
        const core::TrEvaluator::Column col =
            evaluator.column(live[k], alpha_now[k]);
        (void)col(std::max(jobs[static_cast<std::size_t>(live[k])].sigma, 2));
        heap.emplace_back(col(2), static_cast<int>(k));
      }
      std::make_heap(heap.begin(), heap.end());
      bool stuck = false;  // the longest job cannot improve: stop granting
      while (!stuck && available >= 2 && !heap.empty()) {
        const auto k = static_cast<std::size_t>(heap.front().job);
        const core::TrEvaluator::Column tr =
            evaluator.column(live[k], alpha_now[k]);
        bool granted = false;
        while (available >= 2) {
          const int current = target[k];
          const int pmax = current + available - available % 2;
          // Line 9 lookahead, short-circuited as in Algorithm 1
          // (optimal_schedule.cpp): pmax >= current + 2 and columns are
          // prefix minima, so a strict drop at current + 2 proves
          // tr(current) > tr(pmax); only a plateau probes pmax.
          const double next = tr(current + 2);
          if (!(next < tr(current)) && !(tr(current) > tr(pmax))) {
            stuck = !granted;
            break;
          }
          target[k] = current + 2;
          available -= 2;
          granted = true;
          const HeapEntry rescored{next, static_cast<int>(k)};
          if (stays_top(heap, rescored)) {
            heap.front() = rescored;  // keeps the lead: grant again
          } else {
            heap_replace_top(heap, rescored);
            break;  // another job took the lead; re-peek
          }
        }
      }
    } else {
      std::priority_queue<HeapEntry> queue;
      for (std::size_t k = 0; k < count; ++k)
        queue.push({evaluator(live[k], 2, alpha_now[k]), static_cast<int>(k)});
      while (available >= 2) {
        const HeapEntry head = queue.top();
        queue.pop();
        const auto k = static_cast<std::size_t>(head.job);
        const int current = target[k];
        const int pmax = current + available - available % 2;
        const core::TrEvaluator::Column tr =
            evaluator.column(live[k], alpha_now[k]);
        if (tr(current) > tr(pmax)) {
          target[k] = current + 2;
          queue.push({tr(current + 2), head.job});
          available -= 2;
        } else {
          break;
        }
      }
    }

    // Commit the changes.
    for (std::size_t k = 0; k < count; ++k) {
      const int i = live[k];
      Job& job = jobs[static_cast<std::size_t>(i)];
      if (job.sigma == 0) {
        // Fresh admission: no data to move, the pattern starts here.
        job.sigma = target[k];
        job.baseline = t;
        job.busy_mark = t;
        job.proj_end = t + model.simulated_duration(i, job.sigma, 1.0);
      } else if (target[k] != job.sigma) {
        // Malleable resize: commit the work done so far, pay the Eq. 9
        // redistribution plus an initial checkpoint on the new
        // allocation, and black out until both complete.
        const double rc =
            redistrib::cost(job.sigma, target[k], pack.task(i).data_size);
        result.busy_processor_seconds +=
            static_cast<double>(job.sigma) * (t - job.busy_mark);
        job.busy_mark = t;
        job.alpha = alpha_now[k];
        job.sigma = target[k];
        job.baseline = t + rc + model.checkpoint_cost(i, job.sigma);
        job.proj_end =
            job.baseline + model.simulated_duration(i, job.sigma, job.alpha);
        ++result.redistributions;
        result.redistribution_cost += rc;
      }
    }
  };

  std::optional<fault::Fault> next_fault = faults.next();
  int remaining = n;
  double now = 0.0;
  while (remaining > 0) {
    const double t_release =
        next_arrival < static_cast<std::size_t>(n)
            ? release_times[static_cast<std::size_t>(arrivals[next_arrival])]
            : infinity;
    double end_time = infinity;
    int ending = -1;
    for (int i = 0; i < n; ++i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      if (job.admitted && !job.done && job.proj_end < end_time) {
        end_time = job.proj_end;
        ending = i;
      }
    }
    // While jobs queue, the end of a blackout window is an event too:
    // the expiring reservation may be exactly what admission waits for,
    // and the next completion can be arbitrarily far away.
    double t_unblock = infinity;
    if (!waiting_empty()) {
      for (int i = 0; i < n; ++i) {
        const Job& job = jobs[static_cast<std::size_t>(i)];
        if (job.admitted && !job.done && job.baseline > now)
          t_unblock = std::min(t_unblock, job.baseline);
      }
    }
    const double t_wake = std::min(t_release, t_unblock);
    const double t_next = std::min(t_wake, end_time);
    COREDIS_ASSERT(std::isfinite(t_next));

    // ---- Fault event ---------------------------------------------------
    if (next_fault && next_fault->time < t_next) {
      const fault::Fault fault = *next_fault;
      next_fault = faults.next();
      now = fault.time;
      // Attribute the fault: processor indices are laid out over the
      // admitted jobs in index order, idle slots last (the merged stream
      // draws processors uniformly, so slot identity is equivalent).
      int cursor = 0;
      int owner = -1;
      for (int i = 0; i < n; ++i) {
        const Job& job = jobs[static_cast<std::size_t>(i)];
        if (!job.admitted || job.done) continue;
        if (fault.processor < cursor + job.sigma) {
          owner = i;
          break;
        }
        cursor += job.sigma;
      }
      if (owner < 0) continue;  // idle slot
      Job& job = jobs[static_cast<std::size_t>(owner)];
      if (fault.time <= job.baseline) continue;  // blackout window
      ++result.faults_effective;
      // Rollback to the last checkpoint (the engine's arithmetic).
      const double tau = model.period(owner, job.sigma);
      const double cost = model.checkpoint_cost(owner, job.sigma);
      const double periods =
          std::isfinite(tau)
              ? std::floor((fault.time - job.baseline) / tau)
              : 0.0;
      job.alpha = std::clamp(
          job.alpha - periods * (tau - cost) /
                          model.fault_free_time(owner, job.sigma),
          0.0, 1.0);
      job.baseline = fault.time + resilience.downtime() +
                     model.recovery_time(owner, job.sigma);
      job.proj_end =
          job.baseline + model.simulated_duration(owner, job.sigma, job.alpha);
      continue;
    }

    // ---- Release / blackout-exit event ---------------------------------
    // Releases win a tie with a completion (the admission pass sees the
    // completing job as still running, harmlessly); a blackout exit tying
    // a completion defers to it — the completion reschedules anyway.
    if (t_wake < end_time || t_release <= end_time) {
      now = t_wake;
      while (next_arrival < static_cast<std::size_t>(n) &&
             release_times[static_cast<std::size_t>(arrivals[next_arrival])] <=
                 t_wake) {
        waiting.push_back(arrivals[next_arrival]);
        ++next_arrival;
      }
      reschedule(t_wake);
      continue;
    }

    // ---- Completion event ----------------------------------------------
    now = end_time;
    Job& job = jobs[static_cast<std::size_t>(ending)];
    job.done = true;
    result.completion_times[static_cast<std::size_t>(ending)] = end_time;
    result.final_allocation[static_cast<std::size_t>(ending)] = job.sigma;
    result.busy_processor_seconds +=
        static_cast<double>(job.sigma) * (end_time - job.busy_mark);
    result.makespan = std::max(result.makespan, end_time);
    --remaining;
    if (remaining > 0) reschedule(end_time);
  }

  double wait = 0.0;
  for (int i = 0; i < n; ++i)
    wait += result.start_times[static_cast<std::size_t>(i)] -
            release_times[static_cast<std::size_t>(i)];
  result.mean_queue_wait = n > 0 ? wait / static_cast<double>(n) : 0.0;
  return result;
}

}  // namespace coredis::extensions
