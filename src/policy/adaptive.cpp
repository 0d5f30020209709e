#include "policy/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"
#include "policy/registry.hpp"
#include "redistrib/cost.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace coredis::policy {

namespace {

/// Max-heap entry ordered like the online scheduler's: longest expected
/// completion first, deterministic index ties.
struct HeapEntry {
  double expected_time;
  int job;
  bool operator<(const HeapEntry& other) const {
    if (expected_time != other.expected_time)
      return expected_time < other.expected_time;
    return job < other.job;
  }
};

/// Runtime state of one online job (the extensions::run_online shape).
struct Job {
  bool admitted = false;
  bool done = false;
  double alpha = 1.0;     ///< remaining work fraction, committed at baseline
  int sigma = 0;          ///< current (even) allocation; 0 before admission
  double baseline = 0.0;  ///< start of the current checkpoint pattern;
                          ///< also the end of any blackout window
  double proj_end = 0.0;  ///< fault-free projected completion
};

constexpr int kUncapped = std::numeric_limits<int>::max();

/// Algorithm 1 greedy over `live` with per-job allocation caps: start at
/// one pair each, grant a pair to the longest job while its expected
/// time can still decrease within its cap; a capped-out job is skipped
/// (the next-longest gets its chance), an unimprovable longest job stops
/// the pass — the eager rule of extensions::run_online, plus caps.
void greedy_targets(core::TrEvaluator& evaluator, const std::vector<int>& live,
                    const std::vector<double>& alpha_now, int available,
                    const std::vector<int>& caps, std::vector<int>& target) {
  const std::size_t count = live.size();
  target.assign(count, 2);
  std::priority_queue<HeapEntry> queue;
  for (std::size_t k = 0; k < count; ++k)
    queue.push({evaluator(live[k], 2, alpha_now[k]), static_cast<int>(k)});
  while (available >= 2 && !queue.empty()) {
    const HeapEntry head = queue.top();
    queue.pop();
    const auto k = static_cast<std::size_t>(head.job);
    if (target[k] + 2 > caps[k]) continue;  // capped out: try the next job
    const int current = target[k];
    const int pmax =
        std::min(current + available - available % 2, caps[k]);
    const core::TrEvaluator::Column tr =
        evaluator.column(live[k], alpha_now[k]);
    // pmax >= current + 2 (capped-out jobs were skipped above) and columns
    // are prefix minima, so a strict drop at current + 2 proves the line 9
    // lookahead tr(current) > tr(pmax); only a plateau probes pmax.
    const double next = tr(current + 2);
    if (next < tr(current) || tr(current) > tr(pmax)) {
      target[k] = current + 2;
      queue.push({next, head.job});
      available -= 2;
    } else {
      break;  // the longest improvable job cannot improve: stop granting
    }
  }
}

/// The shared online event loop of the adaptive policies: a fork of
/// extensions::run_online with the *replanning decision* handed to the
/// policy (`reschedule`) and a fault hook (`on_fault`). Faults roll the
/// struck job back with the engine's arithmetic; release, blackout-exit
/// and completion events call reschedule.
struct Sim {
  const core::Pack& pack;
  const checkpoint::Model& resilience;
  const core::ExpectedTimeModel& model;
  core::TrEvaluator& evaluator;
  int p = 0;
  int n = 0;
  std::vector<Job> jobs;
  std::vector<int> waiting;  // released, not yet admitted, in arrival order
  std::size_t waiting_head = 0;
  core::RunResult result;

  explicit Sim(const CellContext& ctx)
      : pack(ctx.pack),
        resilience(ctx.resilience),
        model(ctx.model),
        evaluator(ctx.evaluator),
        p(ctx.processors - ctx.processors % 2),
        n(ctx.pack.size()) {
    COREDIS_EXPECTS(p >= 2);
    jobs.assign(static_cast<std::size_t>(n), {});
    result.completion_times.assign(static_cast<std::size_t>(n), 0.0);
    result.final_allocation.assign(static_cast<std::size_t>(n), 0);
  }

  [[nodiscard]] bool waiting_empty() const {
    return waiting_head >= waiting.size();
  }
  [[nodiscard]] int pop_waiting() { return waiting[waiting_head++]; }

  /// Remaining work fraction of job i at time t (the engine's
  /// alpha_tentative arithmetic).
  [[nodiscard]] double tentative_alpha(int i, double t) const {
    const Job& job = jobs[static_cast<std::size_t>(i)];
    if (job.sigma == 0 || t <= job.baseline) return job.alpha;
    const double tau = model.period(i, job.sigma);
    const double cost = model.checkpoint_cost(i, job.sigma);
    const double elapsed = t - job.baseline;
    const double completed =
        std::isfinite(tau) ? std::floor(elapsed / tau) : 0.0;
    const double done_fraction =
        (elapsed - completed * cost) / model.fault_free_time(i, job.sigma);
    return std::clamp(job.alpha - done_fraction, 0.0, 1.0);
  }

  /// Total work fraction completed across all jobs at time t: the
  /// bandit's reward unit. Monotone in t between events (admissions add
  /// jobs at zero progress), dips on fault rollbacks.
  [[nodiscard]] double work_done(double t) const {
    double done = 0.0;
    for (int i = 0; i < n; ++i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      if (job.done)
        done += 1.0;
      else if (job.admitted)
        done += 1.0 - tentative_alpha(i, t);
    }
    return done;
  }

  /// Mark job i admitted at time t (allocation assigned by the caller).
  void admit(int i, double t) {
    Job& job = jobs[static_cast<std::size_t>(i)];
    job.admitted = true;
    job.alpha = 1.0;
    job.sigma = 0;
    job.baseline = t;  // keeps tentative_alpha at 1.0 until placement
  }

  /// Fresh placement: no data to move, the pattern starts here.
  void place_fresh(int i, int target, double t) {
    Job& job = jobs[static_cast<std::size_t>(i)];
    job.sigma = target;
    job.baseline = t;
    job.proj_end = t + model.simulated_duration(i, target, 1.0);
  }

  /// Malleable resize: commit the work done so far, pay the Eq. 9
  /// redistribution plus an initial checkpoint, black out until both
  /// complete.
  void commit_resize(int i, int target, double alpha_now, double t) {
    Job& job = jobs[static_cast<std::size_t>(i)];
    const double rc =
        redistrib::cost(job.sigma, target, pack.task(i).data_size);
    job.alpha = alpha_now;
    job.sigma = target;
    job.baseline = t + rc + model.checkpoint_cost(i, target);
    job.proj_end =
        job.baseline + model.simulated_duration(i, target, job.alpha);
    ++result.redistributions;
    result.redistribution_cost += rc;
  }

  void run(fault::Generator& faults, const std::vector<double>& releases,
           const std::function<void(double)>& reschedule,
           const std::function<void(int)>& on_fault) {
    COREDIS_EXPECTS(static_cast<int>(releases.size()) == n);
    const double infinity = std::numeric_limits<double>::infinity();

    std::vector<int> arrivals(static_cast<std::size_t>(n));
    std::iota(arrivals.begin(), arrivals.end(), 0);
    std::stable_sort(arrivals.begin(), arrivals.end(), [&](int a, int b) {
      return releases[static_cast<std::size_t>(a)] <
             releases[static_cast<std::size_t>(b)];
    });
    std::size_t next_arrival = 0;

    std::optional<fault::Fault> next_fault = faults.next();
    int remaining = n;
    double now = 0.0;
    while (remaining > 0) {
      const double t_release =
          next_arrival < static_cast<std::size_t>(n)
              ? releases[static_cast<std::size_t>(arrivals[next_arrival])]
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

      // ---- Fault event -------------------------------------------------
      if (next_fault && next_fault->time < t_next) {
        const fault::Fault fault = *next_fault;
        next_fault = faults.next();
        now = fault.time;
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
        job.proj_end = job.baseline +
                       model.simulated_duration(owner, job.sigma, job.alpha);
        on_fault(owner);
        continue;
      }

      // ---- Release / blackout-exit event -------------------------------
      if (t_wake < end_time || t_release <= end_time) {
        now = t_wake;
        while (next_arrival < static_cast<std::size_t>(n) &&
               releases[static_cast<std::size_t>(arrivals[next_arrival])] <=
                   t_wake) {
          waiting.push_back(arrivals[next_arrival]);
          ++next_arrival;
        }
        reschedule(t_wake);
        continue;
      }

      // ---- Completion event --------------------------------------------
      now = end_time;
      Job& job = jobs[static_cast<std::size_t>(ending)];
      job.done = true;
      result.completion_times[static_cast<std::size_t>(ending)] = end_time;
      result.final_allocation[static_cast<std::size_t>(ending)] = job.sigma;
      result.makespan = std::max(result.makespan, end_time);
      --remaining;
      if (remaining > 0) reschedule(end_time);
    }
  }
};

// --- bandit ---------------------------------------------------------------

/// Contextual epsilon-greedy over two arms at every scheduling event:
///   rebalance — the full malleable re-pack (admission + Algorithm 1
///               regrow over every unblocked job, paying RC on resizes);
///   hold      — admit newly released jobs onto idle processors only
///               (Algorithm 1 over the new jobs, no resizes, no RC).
/// Context is the effective-fault count over the last `window` decisions
/// bucketed {0, 1, >=2}; the reward of a decision is the measured work
/// throughput — delta work_done per processor-second — settled at the
/// next decision. Exploration draws come from the policy-private stream,
/// so replays are bit-identical in (cell streams, policy_seed).
class BanditPolicy final : public Policy {
 public:
  BanditPolicy(int window, double explore)
      : window_(window), explore_(explore) {}

  core::RunResult run(const CellContext& ctx) const override {
    Sim sim(ctx);
    const std::vector<double>& releases = ctx.release_times();
    Rng rng(ctx.policy_seed);

    constexpr int kContexts = 3;
    constexpr int kArms = 2;  // 0 = rebalance, 1 = hold
    double reward_sum[kContexts][kArms] = {};
    int pulls[kContexts][kArms] = {};
    std::deque<int> recent;  // per-decision effective-fault counts
    int faults_since = 0;
    double last_time = 0.0;
    double last_done = 0.0;
    int last_context = 0;
    int last_arm = 0;
    bool pending = false;

    std::vector<int> live;
    std::vector<double> alpha_now;
    std::vector<int> target;
    std::vector<int> caps;

    const auto reschedule = [&](double t) {
      const double done_now = sim.work_done(t);
      if (pending && t > last_time) {
        const double reward = (done_now - last_done) /
                              ((t - last_time) * static_cast<double>(sim.p));
        reward_sum[last_context][last_arm] += reward;
        ++pulls[last_context][last_arm];
        pending = false;
      }

      recent.push_back(faults_since);
      faults_since = 0;
      while (static_cast<int>(recent.size()) > window_) recent.pop_front();
      int pressure = 0;
      for (int f : recent) pressure += f;
      const int context = pressure >= 2 ? 2 : pressure;

      int arm;
      if (rng.uniform01() < explore_)
        arm = static_cast<int>(rng() & 1u);
      else if (pulls[context][0] == 0)
        arm = 0;
      else if (pulls[context][1] == 0)
        arm = 1;
      else
        arm = reward_sum[context][1] / pulls[context][1] >
                      reward_sum[context][0] / pulls[context][0]
                  ? 1
                  : 0;  // ties prefer rebalance

      if (arm == 0)
        rebalance(sim, t, live, alpha_now, target, caps);
      else
        hold(sim, t, live, alpha_now, target, caps);

      // Commits at time t do not change work_done(t) — the re-pack
      // baselines carry the tentative alphas forward — so done_now also
      // anchors the next interval.
      last_time = t;
      last_done = done_now;
      last_context = context;
      last_arm = arm;
      pending = true;
    };
    const auto on_fault = [&](int) { ++faults_since; };

    sim.run(ctx.faults, releases, reschedule, on_fault);
    return std::move(sim.result);
  }

 private:
  /// The malleable re-pack of extensions::run_online: admit in release
  /// order while one pair per live job fits, regrow everyone, commit
  /// the changes.
  static void rebalance(Sim& sim, double t, std::vector<int>& live,
                        std::vector<double>& alpha_now,
                        std::vector<int>& target, std::vector<int>& caps) {
    live.clear();
    int reserved = 0;
    for (int i = 0; i < sim.n; ++i) {
      const Job& job = sim.jobs[static_cast<std::size_t>(i)];
      if (!job.admitted || job.done) continue;
      if (t >= job.baseline)
        live.push_back(i);
      else
        reserved += job.sigma;
    }
    while (!sim.waiting_empty() &&
           2 * (static_cast<int>(live.size()) + 1) <= sim.p - reserved) {
      const int i = sim.pop_waiting();
      sim.admit(i, t);
      live.push_back(i);
    }
    if (live.empty()) return;
    std::sort(live.begin(), live.end());

    const std::size_t count = live.size();
    alpha_now.assign(count, 1.0);
    for (std::size_t k = 0; k < count; ++k)
      alpha_now[k] = sim.tentative_alpha(live[k], t);
    caps.assign(count, kUncapped);
    const int available = sim.p - reserved - 2 * static_cast<int>(count);
    COREDIS_ASSERT(available >= 0);
    greedy_targets(sim.evaluator, live, alpha_now, available, caps, target);

    for (std::size_t k = 0; k < count; ++k) {
      const int i = live[k];
      Job& job = sim.jobs[static_cast<std::size_t>(i)];
      if (job.sigma == 0)
        sim.place_fresh(i, target[k], t);
      else if (target[k] != job.sigma)
        sim.commit_resize(i, target[k], alpha_now[k], t);
    }
  }

  /// The hold arm: running jobs keep their allocations (no RC); newly
  /// released jobs are admitted while pairs fit into the *idle*
  /// processors and placed by the same greedy over the idle pool.
  static void hold(Sim& sim, double t, std::vector<int>& live,
                   std::vector<double>& alpha_now, std::vector<int>& target,
                   std::vector<int>& caps) {
    int used = 0;
    for (int i = 0; i < sim.n; ++i) {
      const Job& job = sim.jobs[static_cast<std::size_t>(i)];
      if (job.admitted && !job.done) used += job.sigma;
    }
    live.clear();
    while (!sim.waiting_empty() &&
           used + 2 * (static_cast<int>(live.size()) + 1) <= sim.p) {
      const int i = sim.pop_waiting();
      sim.admit(i, t);
      live.push_back(i);
    }
    if (live.empty()) return;
    std::sort(live.begin(), live.end());

    const std::size_t count = live.size();
    alpha_now.assign(count, 1.0);
    caps.assign(count, kUncapped);
    const int available = sim.p - used - 2 * static_cast<int>(count);
    COREDIS_ASSERT(available >= 0);
    greedy_targets(sim.evaluator, live, alpha_now, available, caps, target);
    for (std::size_t k = 0; k < count; ++k)
      sim.place_fresh(live[k], target[k], t);
  }

  int window_;
  double explore_;
};

// --- reshape --------------------------------------------------------------

/// ReSHAPE-style speedup probing: malleable co-scheduling where every
/// growth grant is a probe. The policy measures each job's progress
/// rate (committed work fraction per second, post-blackout) at its
/// current size; when a grown job's measured speedup over its previous
/// size falls short of `gain` of the model-ideal speedup, its
/// allocation is permanently capped at the current size. Shrinks are
/// always allowed, and a job that never resizes is never capped — at
/// vanishing load every job runs solo and the policy degenerates to
/// plain malleable scheduling.
class ReshapePolicy final : public Policy {
 public:
  explicit ReshapePolicy(double gain) : gain_(gain) {}

  core::RunResult run(const CellContext& ctx) const override {
    Sim sim(ctx);
    const std::vector<double>& releases = ctx.release_times();

    struct ProbeState {
      int prev_sigma = 0;      ///< size before the last resize
      double prev_rate = -1.0; ///< measured rate at prev_sigma; < 0 = none
      double span_start = 0.0; ///< start of the current measured span
      double span_alpha = 1.0; ///< committed alpha at span start
      int cap = kUncapped;     ///< permanent allocation cap once probed out
    };
    std::vector<ProbeState> probes(static_cast<std::size_t>(sim.n));

    std::vector<int> live;
    std::vector<double> alpha_now;
    std::vector<int> target;
    std::vector<int> caps;

    const auto reschedule = [&](double t) {
      live.clear();
      int reserved = 0;
      for (int i = 0; i < sim.n; ++i) {
        const Job& job = sim.jobs[static_cast<std::size_t>(i)];
        if (!job.admitted || job.done) continue;
        if (t >= job.baseline)
          live.push_back(i);
        else
          reserved += job.sigma;
      }
      while (!sim.waiting_empty() &&
             2 * (static_cast<int>(live.size()) + 1) <= sim.p - reserved) {
        const int i = sim.pop_waiting();
        sim.admit(i, t);
        live.push_back(i);
      }
      if (live.empty()) return;
      std::sort(live.begin(), live.end());

      const std::size_t count = live.size();
      alpha_now.assign(count, 1.0);
      caps.assign(count, kUncapped);
      for (std::size_t k = 0; k < count; ++k) {
        const int i = live[k];
        alpha_now[k] = sim.tentative_alpha(i, t);
        const Job& job = sim.jobs[static_cast<std::size_t>(i)];
        ProbeState& probe = probes[static_cast<std::size_t>(i)];
        // Judge the last growth once rates at both sizes are measured:
        // a grant that delivered less than `gain` of the model-ideal
        // speedup caps the job at its current size, permanently.
        if (probe.cap == kUncapped && probe.prev_rate > 0.0 &&
            job.sigma > probe.prev_sigma && job.sigma > 0 &&
            t > probe.span_start) {
          const double rate =
              (probe.span_alpha - alpha_now[k]) / (t - probe.span_start);
          if (rate > 0.0) {
            const double ideal =
                sim.model.fault_free_time(i, probe.prev_sigma) /
                sim.model.fault_free_time(i, job.sigma);
            if (rate / probe.prev_rate < 1.0 + gain_ * (ideal - 1.0))
              probe.cap = job.sigma;
          }
        }
        caps[k] = probe.cap;
      }

      const int available = sim.p - reserved - 2 * static_cast<int>(count);
      COREDIS_ASSERT(available >= 0);
      greedy_targets(sim.evaluator, live, alpha_now, available, caps, target);

      for (std::size_t k = 0; k < count; ++k) {
        const int i = live[k];
        Job& job = sim.jobs[static_cast<std::size_t>(i)];
        ProbeState& probe = probes[static_cast<std::size_t>(i)];
        if (job.sigma == 0) {
          sim.place_fresh(i, target[k], t);
          probe = ProbeState{};
          probe.span_start = t;
        } else if (target[k] != job.sigma) {
          probe.prev_rate =
              t > probe.span_start
                  ? (probe.span_alpha - alpha_now[k]) / (t - probe.span_start)
                  : -1.0;
          probe.prev_sigma = job.sigma;
          sim.commit_resize(i, target[k], alpha_now[k], t);
          probe.span_start = job.baseline;  // measure after the blackout
          probe.span_alpha = job.alpha;
        }
      }
    };
    // A rollback restarts the measured span at the recovery point: rates
    // judge the computation speed of a size, not its fault luck.
    const auto on_fault = [&](int i) {
      ProbeState& probe = probes[static_cast<std::size_t>(i)];
      const Job& job = sim.jobs[static_cast<std::size_t>(i)];
      probe.span_start = job.baseline;
      probe.span_alpha = job.alpha;
    };

    sim.run(ctx.faults, releases, reschedule, on_fault);
    return std::move(sim.result);
  }

 private:
  double gain_;
};

OptionSpec int_option(std::string name, std::string default_value,
                      std::string doc, double min_value, double max_value) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Int;
  spec.default_value = std::move(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

OptionSpec double_option(std::string name, std::string default_value,
                         std::string doc, double min_value, double max_value) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Double;
  spec.default_value = std::move(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

}  // namespace

void register_adaptive_policies() {
  register_policy(
      {"bandit",
       "fault-pressure bandit: learns when to re-pack vs hold allocations",
       {int_option("window", "50", "decisions of fault history as context", 1,
                   1e9),
        double_option("explore", "0.1", "epsilon-greedy exploration rate", 0.0,
                      1.0)},
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<BanditPolicy>(
             static_cast<int>(options.get_int("window")),
             options.get_double("explore"));
       }});
  register_policy(
      {"reshape",
       "ReSHAPE-style probe: cap growth that misses the measured speedup",
       {double_option("gain", "0.5",
                      "required fraction of the model-ideal speedup", 0.0,
                      1.0)},
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<ReshapePolicy>(options.get_double("gain"));
       }});
}

}  // namespace coredis::policy
