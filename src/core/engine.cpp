#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "core/optimal_schedule.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace coredis::core {

std::string to_string(EndPolicy policy) {
  switch (policy) {
    case EndPolicy::None: return "EndNone";
    case EndPolicy::Local: return "EndLocal";
    case EndPolicy::Greedy: return "EndGreedy";
  }
  return "?";
}

std::string to_string(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::None: return "FailNone";
    case FailurePolicy::ShortestTasksFirst: return "ShortestTasksFirst";
    case FailurePolicy::IteratedGreedy: return "IteratedGreedy";
  }
  return "?";
}

int Engine::validated_processors(int processors, const Pack& pack) {
  if (processors < 2 * pack.size())
    throw std::invalid_argument(
        "Engine: platform must hold one processor pair per task");
  if (processors % 2 != 0)
    throw std::invalid_argument("Engine: processor count must be even");
  return processors;
}

Engine::Engine(const Pack& pack, const checkpoint::Model& resilience,
               int processors, EngineConfig config)
    : pack_(&pack),
      resilience_(&resilience),
      processors_(validated_processors(processors, pack)),
      config_(config),
      model_(pack, resilience),
      evaluator_(model_, processors_) {}

namespace {

using detail::EngineState;
using detail::TaskRuntime;

/// Max expected finish over unfinished tasks and actual finish over done
/// ones: the running makespan estimate recorded in Figure 9a.
double predicted_makespan(const EngineState& state) {
  double result = 0.0;
  for (const TaskRuntime& task : state.tasks)
    result = std::max(result, task.done ? task.finish_time : task.tU);
  return result;
}

/// Population stddev of the allocation over unfinished tasks (Figure 9b).
double allocation_stddev(const EngineState& state) {
  RunningStats stats;
  for (const TaskRuntime& task : state.tasks)
    if (!task.done) stats.add(static_cast<double>(task.sigma));
  return stats.stddev_population();
}

/// Monotonic seconds for the --profile phase breakdown.
double profile_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RunResult Engine::run(fault::Generator& faults,
                      const EngineConfig& config) {
  // The per-run configuration swap is transparent: config_ only steers
  // policies and instrumentation inside this call, and the caches that
  // persist across calls (model_, evaluator_) hold pure values.
  struct ConfigGuard {
    Engine* engine;
    EngineConfig saved;
    ~ConfigGuard() { engine->config_ = saved; }
  } guard{this, config_};
  config_ = config;
  return run(faults);
}

RunResult Engine::run(fault::Generator& faults) {
  COREDIS_EXPECTS(faults.processors() == processors_);
  const int n = pack_->size();

  ExpectedTimeModel& model = model_;
  TrEvaluator& evaluator = evaluator_;
  platform::Platform platform(processors_);

  EngineState state;
  state.model = &model;
  state.platform = &platform;
  state.tr = &evaluator;
  state.zero_redistribution_cost = config_.zero_redistribution_cost;
  state.eager_scans = config_.eager_scans;
  state.tasks.resize(static_cast<std::size_t>(n));
  state.ensure_lazy_state();
  state.build_event_index();

  // --profile plumbing: phase timers bracket the call sites below; the
  // commit share is accumulated by commit_changes through state.profile.
  EngineProfile profile;
  const bool profiling = config_.profile;
  if (profiling) state.profile = &profile;
  const std::uint64_t fills_before = evaluator.fills();
  const std::uint64_t eq4_fills_before = model.eq4_fills();
  double mark = profiling ? profile_now() : 0.0;
  const auto phase = [&](double& sink) {
    if (!profiling) return;
    const double now = profile_now();
    sink += now - mark;
    mark = now;
  };

  // Initial allocation: Algorithm 1 (optimal without redistribution).
  const std::vector<int> sigma0 = optimal_schedule(model, processors_, evaluator);
  phase(profile.algorithm1_seconds);
  for (int i = 0; i < n; ++i) {
    TaskRuntime& task = state.task(i);
    state.set_sigma(i, sigma0[static_cast<std::size_t>(i)]);
    task.alpha = 1.0;
    task.tlastR = 0.0;
    task.tU = evaluator(i, task.sigma, 1.0);
    state.refresh_projection(i);
    platform.grant(i, task.sigma);
  }

  RunResult result;
  result.completion_times.assign(static_cast<std::size_t>(n), 0.0);
  result.final_allocation.assign(static_cast<std::size_t>(n), 0);
  if (config_.record_timeline) {
    state.timeline = &result.timeline;
    state.segment_start.assign(static_cast<std::size_t>(n), 0.0);
  }

  int live = n;
  std::optional<fault::Fault> next_fault = faults.next();

  // Buddy-risk tracking: the pair partner of the last struck processor of
  // each task, valid until the end of that task's recovery blackout (the
  // ledger answers the partner query in O(1), platform.hpp).
  std::vector<int> recovery_partner(static_cast<std::size_t>(n), -1);
  std::vector<double> recovery_until(static_cast<std::size_t>(n), -1.0);
  std::vector<int> surrender;  // Alg. 2 line 28 scratch, reused per fault

  while (live > 0) {
    if (profiling) {
      ++profile.events;
      mark = profile_now();
    }
    evaluator.begin_event();
    // Earliest projected completion among unfinished tasks.
    const int ending = state.earliest_unfinished();
    COREDIS_ASSERT(ending >= 0);
    const double end_time = state.task(ending).proj_end;

    // ---- Fault event --------------------------------------------------
    if (next_fault && next_fault->time < end_time) {
      const fault::Fault fault = *next_fault;
      next_fault = faults.next();
      ++result.faults_drawn;

      const int owner = platform.owner(fault.processor);
      TaskRuntime* struck =
          owner >= 0 ? &state.task(owner) : nullptr;
      const bool blackout =
          struck != nullptr &&
          (struck->done || fault.time <= struck->tlastR);
      if (struck != nullptr && !struck->done && owner >= 0 &&
          fault.time <= recovery_until[static_cast<std::size_t>(owner)] &&
          fault.processor == recovery_partner[static_cast<std::size_t>(owner)]) {
        // The buddy holding both checkpoint copies was struck while its
        // partner's pair recovers: fatal under the real protocol.
        ++result.buddy_fatal_risks;
      }
      if (struck == nullptr || blackout) {
        if (struck != nullptr && !struck->done && config_.faults_in_blackout) {
          // Ablation: the fault restarts the blackout window (downtime +
          // recovery from the protected baseline) instead of vanishing.
          TaskRuntime& task = *struck;
          const double before = task.tlastR;
          task.tlastR = std::max(task.tlastR,
                                 fault.time + resilience_->downtime() +
                                     task.at_sigma.cost);  // R = C
          state.time_lost_to_faults += task.tlastR - before;
          task.tU = task.tlastR + evaluator(owner, task.sigma, task.alpha);
          state.refresh_projection(owner);
          state.touch(owner);  // blackout restart moved the baseline
          ++result.faults_effective;
        } else {
          ++result.faults_discarded;  // idle processor or protected window
        }
        continue;
      }
      ++result.faults_effective;

      // Rollback to the last checkpoint (Alg. 2 lines 23-26).
      TaskRuntime& task = *struck;
      const int j = task.sigma;
      const ExpectedTimeModel::Rollback back =
          model.rollback(owner, j, task.alpha, task.tlastR, fault.time);
      state.checkpoints_taken += static_cast<long long>(back.periods);
      state.time_lost_to_faults += back.lost;
      task.alpha = back.alpha;
      task.tlastR = back.restart;
      task.tU = task.tlastR + evaluator(owner, j, task.alpha);
      state.refresh_projection(owner);
      state.touch(owner);  // rollback rewrote the committed baseline
      recovery_partner[static_cast<std::size_t>(owner)] =
          platform.pair_partner(fault.processor);
      recovery_until[static_cast<std::size_t>(owner)] = task.tlastR;

      bool redistributed = false;
      if (config_.failure_policy != FailurePolicy::None) {
        // Alg. 2 line 28: tasks ending before the faulty task restarts
        // surrender their processors to the pool right away.
        state.unfinished_ending_by(task.tlastR, owner, surrender);
        for (int i : surrender) {
          TaskRuntime& other = state.task(i);
          if (other.released) continue;
          other.released = true;
          platform.release_all(i);
          if (state.timeline != nullptr) {
            // Close the owned span; the remaining stretch runs on
            // processors the ledger has already promised away.
            state.timeline->push_back(AllocationSegment{
                i, state.segment_start[static_cast<std::size_t>(i)],
                fault.time, other.sigma, true});
            state.segment_start[static_cast<std::size_t>(i)] = fault.time;
          }
        }
        // Alg. 2 line 30: rebalance only if the faulty task became the
        // longest one (otherwise the makespan estimate did not move).
        if (task.tU >= state.longest_expected_finish()) {
          phase(profile.dispatch_seconds);
          if (profiling) ++profile.heuristic_calls;
          redistributed =
              config_.failure_policy == FailurePolicy::ShortestTasksFirst
                  ? detail::shortest_tasks_first(state, fault.time, owner)
                  : detail::iterated_greedy(state, fault.time, owner);
          phase(profile.scan_seconds);
        }
      }

      if (config_.record_trace) {
        result.trace.push_back(FaultRecord{fault.time, owner,
                                           predicted_makespan(state),
                                           allocation_stddev(state),
                                           redistributed});
      }
      phase(profile.dispatch_seconds);
      continue;
    }

    // ---- Completion event ---------------------------------------------
    TaskRuntime& task = state.task(ending);
    // Periodic checkpoints of the final stretch: simulated_duration is
    // work + N * C, so N falls out of the overhead.
    if (!resilience_->fault_free()) {
      const double work = task.alpha * task.at_sigma.t_ij;
      const double overhead = (end_time - task.tlastR) - work;
      const double cost = task.at_sigma.cost;
      if (cost > 0.0 && overhead > 0.0)
        state.checkpoints_taken +=
            static_cast<long long>(std::llround(overhead / cost));
    }
    state.mark_done(ending);
    task.alpha = 0.0;
    task.finish_time = end_time;
    if (state.timeline != nullptr) {
      state.timeline->push_back(AllocationSegment{
          ending, state.segment_start[static_cast<std::size_t>(ending)],
          end_time, task.sigma, !task.released});
    }
    result.completion_times[static_cast<std::size_t>(ending)] = end_time;
    result.final_allocation[static_cast<std::size_t>(ending)] = task.sigma;
    --live;
    const bool owned_processors = !task.released;
    if (owned_processors) platform.release_all(ending);

    if (live > 0 && owned_processors && config_.end_policy != EndPolicy::None) {
      phase(profile.dispatch_seconds);
      if (profiling) ++profile.heuristic_calls;
      if (config_.end_policy == EndPolicy::Local)
        detail::end_local(state, end_time);
      else
        detail::end_greedy(state, end_time);
      phase(profile.scan_seconds);
    } else {
      phase(profile.dispatch_seconds);
    }
  }

  if (profiling) {
    // The heuristics' commit share was accumulated inside scan time;
    // carve it out so probe scans and commits read as disjoint phases.
    profile.scan_seconds -= profile.commit_seconds;
    // Evaluator fills this run paid for.
    profile.column_fills =
        static_cast<long long>(evaluator.fills() - fills_before);
    profile.eq4_fills =
        static_cast<long long>(model.eq4_fills() - eq4_fills_before);
    profile.row_bytes = static_cast<long long>(model.row_bytes());
    profile.column_bytes = static_cast<long long>(evaluator.column_bytes());
    result.profile = profile;
  }
  result.makespan = *std::max_element(result.completion_times.begin(),
                                      result.completion_times.end());
  result.redistributions = state.redistributions;
  result.redistribution_cost = state.redistribution_cost_total;
  result.checkpoints_taken = state.checkpoints_taken;
  result.time_lost_to_faults = state.time_lost_to_faults;
  return result;
}

}  // namespace coredis::core
