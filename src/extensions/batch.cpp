#include "extensions/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"
#include "fault/exponential.hpp"
#include "util/contracts.hpp"

namespace coredis::extensions {

namespace {

/// Runtime state of one batch job.
struct Job {
  int request = 0;       ///< rigid allocation
  bool started = false;
  bool done = false;
  double alpha = 1.0;    ///< remaining work fraction
  double baseline = 0.0; ///< start of the current checkpoint pattern
  double proj_end = 0.0; ///< expected completion (fault-free from now)
  double start_time = 0.0;
};

}  // namespace

int best_useful_allocation(core::TrEvaluator& evaluator, int task,
                           int processors) {
  const int pmax = processors - processors % 2;
  const double best = evaluator(task, pmax, 1.0);
  for (int j = 2; j <= pmax; j += 2)
    if (evaluator(task, j, 1.0) <= best * (1.0 + 1e-12)) return j;
  return pmax;
}

BatchResult run_batch(const core::Pack& pack,
                      const checkpoint::Model& resilience, int processors,
                      const std::vector<double>& release_times,
                      const BatchConfig& config, fault::Generator& faults) {
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, processors - processors % 2);
  return run_batch(pack, resilience, processors, release_times, config,
                   faults, model, evaluator);
}

BatchResult run_batch(const core::Pack& pack,
                      const checkpoint::Model& resilience, int processors,
                      const std::vector<double>& release_times,
                      const BatchConfig& config, fault::Generator& faults,
                      const core::ExpectedTimeModel& model,
                      core::TrEvaluator& evaluator) {
  COREDIS_EXPECTS(processors >= 2);
  COREDIS_EXPECTS(&model.pack() == &pack);
  COREDIS_EXPECTS(&model.resilience() == &resilience);
  const int n = pack.size();
  COREDIS_EXPECTS(static_cast<int>(release_times.size()) == n);
  const double infinity = std::numeric_limits<double>::infinity();

  std::vector<Job> jobs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Job& job = jobs[static_cast<std::size_t>(i)];
    job.request = config.rule == RequestRule::BestUseful
                      ? best_useful_allocation(evaluator, i, processors)
                      : std::min(processors, 2 * config.fixed_pairs);
    COREDIS_ASSERT(job.request >= 2 && job.request % 2 == 0);
  }

  // Jobs queue in release order (ties by index); `waiting` holds the
  // released-but-not-started jobs in that order, `arrivals` the ones not
  // yet released.
  std::vector<int> arrivals(static_cast<std::size_t>(n));
  std::iota(arrivals.begin(), arrivals.end(), 0);
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](int a, int b) {
    return release_times[static_cast<std::size_t>(a)] <
           release_times[static_cast<std::size_t>(b)];
  });
  std::size_t next_arrival = 0;
  std::vector<int> waiting;

  BatchResult result;
  result.start_times.assign(static_cast<std::size_t>(n), 0.0);
  result.completion_times.assign(static_cast<std::size_t>(n), 0.0);
  result.allocations.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    result.allocations[static_cast<std::size_t>(i)] =
        jobs[static_cast<std::size_t>(i)].request;

  int free = processors;

  auto start_job = [&](int i, double t) {
    Job& job = jobs[static_cast<std::size_t>(i)];
    COREDIS_ASSERT(!job.started && job.request <= free);
    job.started = true;
    job.start_time = t;
    job.baseline = t;
    job.proj_end = t + model.simulated_duration(i, job.request, job.alpha);
    free -= job.request;
    result.start_times[static_cast<std::size_t>(i)] = t;
  };

  // Scheduling pass at time t: FCFS starts, then EASY backfilling.
  auto schedule = [&](double t) {
    // Start from the head while it fits.
    while (!waiting.empty()) {
      const int head = waiting.front();
      if (jobs[static_cast<std::size_t>(head)].request > free) break;
      start_job(head, t);
      waiting.erase(waiting.begin());
    }
    if (!config.backfilling || waiting.empty()) return;

    // EASY reservation for the head: walk expected completions until
    // enough processors accumulate.
    const int head = waiting.front();
    const int head_request = jobs[static_cast<std::size_t>(head)].request;
    std::vector<std::pair<double, int>> running_ends;
    for (int i = 0; i < n; ++i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      if (job.started && !job.done)
        running_ends.emplace_back(job.proj_end, job.request);
    }
    std::sort(running_ends.begin(), running_ends.end());
    int available = free;
    double shadow = t;
    int extra_at_shadow = 0;
    for (const auto& [end, request] : running_ends) {
      if (available >= head_request) break;
      available += request;
      shadow = end;
    }
    extra_at_shadow = available - head_request;
    COREDIS_ASSERT(available >= head_request);

    // Backfill later jobs under the EASY rule.
    for (std::size_t q = 1; q < waiting.size();) {
      const int candidate = waiting[q];
      Job& job = jobs[static_cast<std::size_t>(candidate)];
      if (job.request > free) {
        ++q;
        continue;
      }
      const double expected_end =
          t + model.simulated_duration(candidate, job.request, job.alpha);
      const bool fits_before_shadow = expected_end <= shadow;
      const bool fits_beside_head = job.request <= extra_at_shadow;
      if (!fits_before_shadow && !fits_beside_head) {
        ++q;
        continue;
      }
      start_job(candidate, t);
      if (!fits_before_shadow) extra_at_shadow -= job.request;
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(q));
      ++result.backfilled_jobs;
    }
  };

  std::optional<fault::Fault> next_fault = faults.next();
  int live = n;
  // Processor ownership for fault attribution: jobs own abstract slots;
  // map each fault to a running job with probability request / p by
  // walking the running set (the merged stream draws processors
  // uniformly, so picking the owner by slot index is equivalent).
  while (live > 0) {
    const double t_release =
        next_arrival < static_cast<std::size_t>(n)
            ? release_times[static_cast<std::size_t>(arrivals[next_arrival])]
            : infinity;
    double end_time = infinity;
    int ending = -1;
    for (int i = 0; i < n; ++i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      if (job.started && !job.done && job.proj_end < end_time) {
        end_time = job.proj_end;
        ending = i;
      }
    }
    const double t_next = std::min(t_release, end_time);
    COREDIS_ASSERT(std::isfinite(t_next));

    if (next_fault && next_fault->time < t_next) {
      const fault::Fault fault = *next_fault;
      next_fault = faults.next();
      // Attribute the fault: processor indices [0, p) are laid out over
      // the running jobs in start order, idle slots last.
      int cursor = 0;
      int owner = -1;
      for (int i = 0; i < n; ++i) {
        const Job& job = jobs[static_cast<std::size_t>(i)];
        if (!job.started || job.done) continue;
        if (fault.processor < cursor + job.request) {
          owner = i;
          break;
        }
        cursor += job.request;
      }
      if (owner < 0) continue;  // idle slot
      Job& job = jobs[static_cast<std::size_t>(owner)];
      if (fault.time <= job.baseline) continue;  // blackout window
      ++result.faults_effective;
      // Rollback to the last checkpoint (the engine's rule).
      const core::ExpectedTimeModel::Rollback back = model.rollback(
          owner, job.request, job.alpha, job.baseline, fault.time);
      job.alpha = back.alpha;
      job.baseline = back.restart;
      job.proj_end =
          job.baseline + model.simulated_duration(owner, job.request, job.alpha);
      continue;
    }

    // Release event: queue every job released by t_release, then run a
    // scheduling pass (the head may start right away, or later jobs may
    // backfill around it).
    if (t_release <= end_time) {
      while (next_arrival < static_cast<std::size_t>(n) &&
             release_times[static_cast<std::size_t>(arrivals[next_arrival])] <=
                 t_release) {
        waiting.push_back(arrivals[next_arrival]);
        ++next_arrival;
      }
      schedule(t_release);
      continue;
    }

    Job& job = jobs[static_cast<std::size_t>(ending)];
    job.done = true;
    result.completion_times[static_cast<std::size_t>(ending)] = end_time;
    result.busy_processor_seconds +=
        static_cast<double>(job.request) * (end_time - job.start_time);
    free += job.request;
    --live;
    result.makespan = std::max(result.makespan, end_time);
    if (live > 0) schedule(end_time);
  }
  return result;
}

BatchResult run_batch(const core::Pack& pack,
                      const checkpoint::Model& resilience, int processors,
                      const BatchConfig& config, std::uint64_t fault_seed,
                      double mtbf_seconds) {
  fault::GeneratorPtr generator;
  if (mtbf_seconds > 0.0) {
    generator = std::make_unique<fault::ExponentialGenerator>(
        processors, 1.0 / mtbf_seconds, Rng::child(fault_seed, 0));
  } else {
    generator = std::make_unique<fault::NullGenerator>(processors);
  }
  const std::vector<double> releases(static_cast<std::size_t>(pack.size()),
                                     0.0);
  return run_batch(pack, resilience, processors, releases, config, *generator);
}

}  // namespace coredis::extensions
