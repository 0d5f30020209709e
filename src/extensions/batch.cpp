#include "extensions/batch.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "util/contracts.hpp"

namespace coredis::extensions {

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
  COREDIS_EXPECTS(&model.pack() == &pack);
  COREDIS_EXPECTS(&model.resilience() == &resilience);
  OnlineSim sim(model, processors, release_times);
  const int p = sim.processors();
  const int n = sim.size();
  std::vector<int> request(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    int& r = request[static_cast<std::size_t>(i)];
    r = config.rule == RequestRule::BestUseful
            ? best_useful_allocation(evaluator, i, p)
            : std::min(p, 2 * config.fixed_pairs);
    COREDIS_ASSERT(r >= 2 && r % 2 == 0);
  }

  // The jobs leave OnlineSim's queue for `waiting` (release order, ties
  // by index) at every event, so a blackout exit never wakes this
  // scheduler: it runs at releases and completions only.
  BatchResult result;
  std::vector<int> waiting;
  std::vector<std::pair<double, int>> running_ends;
  const auto schedule = [&](double t) {
    sim.take_released(waiting);
    int free = p;
    for (int i = 0; i < n; ++i)
      if (sim.job(i).admitted && !sim.job(i).done) free -= sim.job(i).sigma;
    const auto start = [&](int i) {
      const int r = request[static_cast<std::size_t>(i)];
      COREDIS_ASSERT(r <= free);
      sim.start(i, r, t);
      free -= r;
    };

    // Start from the head while it fits.
    std::size_t started = 0;
    while (started < waiting.size() &&
           request[static_cast<std::size_t>(waiting[started])] <= free)
      start(waiting[started++]);
    waiting.erase(waiting.begin(),
                  waiting.begin() + static_cast<std::ptrdiff_t>(started));
    if (!config.backfilling || waiting.empty()) return;

    // EASY reservation for the head: walk expected completions until
    // enough processors accumulate.
    const int head_request = request[static_cast<std::size_t>(waiting[0])];
    running_ends.clear();
    for (int i = 0; i < n; ++i) {
      const OnlineSim::Job& job = sim.job(i);
      if (job.admitted && !job.done)
        running_ends.emplace_back(job.proj_end, job.sigma);
    }
    std::sort(running_ends.begin(), running_ends.end());
    int available = free;
    double shadow = t;
    for (const auto& [end, sigma] : running_ends) {
      if (available >= head_request) break;
      available += sigma;
      shadow = end;
    }
    COREDIS_ASSERT(available >= head_request);
    int extra_at_shadow = available - head_request;

    // Backfill later jobs under the EASY rule.
    for (std::size_t q = 1; q < waiting.size();) {
      const int candidate = waiting[q];
      const int r = request[static_cast<std::size_t>(candidate)];
      if (r > free) {
        ++q;
        continue;
      }
      const bool fits_before_shadow =
          t + model.simulated_duration(candidate, r, 1.0) <= shadow;
      const bool fits_beside_head = r <= extra_at_shadow;
      if (!fits_before_shadow && !fits_beside_head) {
        ++q;
        continue;
      }
      start(candidate);
      if (!fits_before_shadow) extra_at_shadow -= r;
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(q));
      ++result.backfilled_jobs;
    }
  };
  static_cast<OnlineResult&>(result) = sim.run(faults, schedule);
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
