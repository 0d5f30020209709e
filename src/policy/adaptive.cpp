#include "policy/adaptive.hpp"

#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "core/optimal_schedule.hpp"
#include "extensions/online.hpp"
#include "policy/registry.hpp"
#include "util/rng.hpp"

namespace coredis::policy {

namespace {

using extensions::OnlineSim;

// --- bandit ---------------------------------------------------------------

/// Contextual epsilon-greedy over two arms at every scheduling event:
///   rebalance — the full malleable re-pack (admission + Algorithm 1
///               grants over every unblocked job, paying RC on resizes);
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
    OnlineSim sim(ctx.model, ctx.processors, ctx.release_times());
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

    // Total work fraction completed across all jobs at time t: the
    // reward unit. Monotone in t between events (admissions add jobs at
    // zero progress), dips on fault rollbacks.
    const auto work_done = [&](double t) {
      double done = 0.0;
      for (int i = 0; i < sim.size(); ++i) {
        const OnlineSim::Job& job = sim.job(i);
        if (job.done)
          done += 1.0;
        else if (job.admitted)
          done += 1.0 - sim.tentative_alpha(i, t);
      }
      return done;
    };

    const auto reschedule = [&](double t) {
      const double done_now = work_done(t);
      if (pending && t > last_time) {
        const double reward =
            (done_now - last_done) /
            ((t - last_time) * static_cast<double>(sim.processors()));
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

      // Both arms are the malleable re-pack; hold keeps every running
      // allocation, so only new jobs are placed, onto idle processors.
      const int available = sim.admit_live(t, live, alpha_now, arm == 1);
      core::grant_pairs(ctx.evaluator, live, alpha_now, available, {}, target);
      sim.commit(t, live, alpha_now, target);

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

    return extensions::to_run_result(
        sim.run(ctx.faults, reschedule, on_fault));
  }

 private:
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
    OnlineSim sim(ctx.model, ctx.processors, ctx.release_times());

    struct ProbeState {
      int prev_sigma = 0;      ///< size before the last resize
      double prev_rate = -1.0; ///< measured rate at prev_sigma; < 0 = none
      double span_start = 0.0; ///< start of the current measured span
      double span_alpha = 1.0; ///< committed alpha at span start
      int cap = OnlineSim::kUncapped;  ///< permanent cap once probed out
    };
    std::vector<ProbeState> probes(static_cast<std::size_t>(sim.size()));

    std::vector<int> live;
    std::vector<double> alpha_now;
    std::vector<int> target;
    std::vector<int> caps;

    const auto reschedule = [&](double t) {
      const int available = sim.admit_live(t, live, alpha_now);
      const std::size_t count = live.size();
      caps.resize(count);
      for (std::size_t k = 0; k < count; ++k) {
        const int i = live[k];
        const int sigma = sim.job(i).sigma;
        ProbeState& probe = probes[static_cast<std::size_t>(i)];
        // Judge the last growth once rates at both sizes are measured:
        // a grant that delivered less than `gain` of the model-ideal
        // speedup caps the job at its current size, permanently.
        if (probe.cap == OnlineSim::kUncapped && probe.prev_rate > 0.0 &&
            sigma > probe.prev_sigma && sigma > 0 && t > probe.span_start) {
          const double rate =
              (probe.span_alpha - alpha_now[k]) / (t - probe.span_start);
          if (rate > 0.0) {
            const double ideal =
                sim.model().fault_free_time(i, probe.prev_sigma) /
                sim.model().fault_free_time(i, sigma);
            if (rate / probe.prev_rate < 1.0 + gain_ * (ideal - 1.0))
              probe.cap = sigma;
          }
        }
        caps[k] = probe.cap;
      }

      core::grant_pairs(ctx.evaluator, live, alpha_now, available, caps,
                        target);

      for (std::size_t k = 0; k < count; ++k) {
        const int i = live[k];
        const int sigma = sim.job(i).sigma;
        ProbeState& probe = probes[static_cast<std::size_t>(i)];
        if (sigma == 0) {
          sim.place(i, target[k], t);
          probe = ProbeState{};
          probe.span_start = t;
        } else if (target[k] != sigma) {
          probe.prev_rate =
              t > probe.span_start
                  ? (probe.span_alpha - alpha_now[k]) / (t - probe.span_start)
                  : -1.0;
          probe.prev_sigma = sigma;
          sim.resize(i, target[k], alpha_now[k], t);
          probe.span_start = sim.job(i).baseline;  // after the blackout
          probe.span_alpha = sim.job(i).alpha;
        }
      }
    };
    // A rollback restarts the measured span at the recovery point: rates
    // judge the computation speed of a size, not its fault luck.
    const auto on_fault = [&](int i) {
      ProbeState& probe = probes[static_cast<std::size_t>(i)];
      probe.span_start = sim.job(i).baseline;
      probe.span_alpha = sim.job(i).alpha;
    };

    return extensions::to_run_result(
        sim.run(ctx.faults, reschedule, on_fault));
  }

 private:
  double gain_;
};

}  // namespace

void register_adaptive_policies() {
  register_policy(
      {"bandit",
       "fault-pressure bandit: learns when to re-pack vs hold allocations",
       {int_option("window", "50", 1, 1e9,
                   "decisions of fault history as context"),
        double_option("explore", "0.1", 0.0, 1.0,
                      "epsilon-greedy exploration rate")},
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<BanditPolicy>(
             static_cast<int>(options.get_int("window")),
             options.get_double("explore"));
       }});
  register_policy(
      {"reshape",
       "ReSHAPE-style probe: cap growth that misses the measured speedup",
       {double_option("gain", "0.5", 0.0, 1.0,
                      "required fraction of the model-ideal speedup")},
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<ReshapePolicy>(options.get_double("gain"));
       }});
}

}  // namespace coredis::policy
