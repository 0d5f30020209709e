#include "extensions/online.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"
#include "core/optimal_schedule.hpp"
#include "extensions/batch.hpp"
#include "redistrib/cost.hpp"
#include "util/contracts.hpp"

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

/// Whitespace-separated release dates. Every token must be a whole
/// finite, non-negative number; an error names the token and its line.
std::vector<double> load_trace(const std::string& path, int n) {
  std::ifstream file(path);
  if (!file)
    throw std::runtime_error("cannot open arrival trace: " + path);
  std::vector<double> times;
  std::string line;
  for (int number = 1; std::getline(file, line); ++number) {
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      const auto fail = [&](const std::string& what) {
        throw std::runtime_error("arrival trace " + path + " line " +
                                 std::to_string(number) + ": " + what);
      };
      double value = 0.0;
      const char* end = token.data() + token.size();
      const auto [stop, error] = std::from_chars(token.data(), end, value);
      if (error != std::errc() || stop != end || !std::isfinite(value))
        fail("'" + token + "' is not a finite number");
      if (value < 0.0) fail("negative release date '" + token + "'");
      times.push_back(value);
    }
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

}  // namespace

core::RunResult to_run_result(OnlineResult result) {
  core::RunResult out;
  out.makespan = result.makespan;
  out.faults_effective = result.faults_effective;
  out.redistributions = result.redistributions;
  out.redistribution_cost = result.redistribution_cost;
  out.completion_times = std::move(result.completion_times);
  out.final_allocation = std::move(result.final_allocation);
  return out;
}

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
                        fault::Generator& faults) {
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, processors - processors % 2);
  return run_online(pack, resilience, processors, release_times, faults,
                    model, evaluator);
}

OnlineResult run_online(const core::Pack& pack,
                        const checkpoint::Model& resilience, int processors,
                        const std::vector<double>& release_times,
                        fault::Generator& faults,
                        const core::ExpectedTimeModel& model,
                        core::TrEvaluator& evaluator) {
  COREDIS_EXPECTS(&model.pack() == &pack);
  COREDIS_EXPECTS(&model.resilience() == &resilience);
  OnlineSim sim(model, processors, release_times);
  // Re-run the pack machinery over the admissible jobs at every event:
  // admit newly released jobs while one pair per live job still fits,
  // rebuild the allocation with Algorithm 1 over remaining work, commit
  // only actual changes. Scratch vectors are reused across events.
  std::vector<int> live;
  std::vector<double> alpha_now;
  std::vector<int> target;
  const auto reschedule = [&](double t) {
    const int available = sim.admit_live(t, live, alpha_now);
    // The replan re-derives almost every job's allocation unchanged:
    // prefill each live job's fresh-alpha column to its current depth in
    // one probe_many batch, the exact Eq. 4 values the grant loop reads,
    // streamed back to back (DESIGN.md section 8.2).
    for (std::size_t k = 0; k < live.size(); ++k)
      (void)evaluator.column(live[k], alpha_now[k])(
          std::max(sim.job(live[k]).sigma, 2));
    core::grant_pairs(evaluator, live, alpha_now, available, {}, target);
    sim.commit(t, live, alpha_now, target);
  };
  return sim.run(faults, reschedule);
}

OnlineSim::OnlineSim(const core::ExpectedTimeModel& model, int processors,
                     const std::vector<double>& release_times)
    : model_(model),
      releases_(release_times),
      p_(processors - processors % 2),
      n_(model.pack().size()) {
  COREDIS_EXPECTS(p_ >= 2);
  COREDIS_EXPECTS(static_cast<int>(release_times.size()) == n_);
  const auto n = static_cast<std::size_t>(n_);
  jobs_.assign(n, {});
  result_.start_times.assign(n, 0.0);
  result_.completion_times.assign(n, 0.0);
  result_.final_allocation.assign(n, 0);
}

int OnlineSim::admit_live(double t, std::vector<int>& live,
                          std::vector<double>& alpha_now, bool hold_running) {
  live.clear();
  int reserved = 0;
  for (int i = 0; i < n_; ++i) {
    const Job& job = jobs_[static_cast<std::size_t>(i)];
    if (!job.admitted || job.done) continue;
    // Jobs inside a blackout window (mid-redistribution or recovering)
    // keep their allocation; everyone else is malleable.
    if (!hold_running && t >= job.baseline)
      live.push_back(i);
    else
      reserved += job.sigma;
  }
  while (waiting_head_ < waiting_.size() &&
         2 * (static_cast<int>(live.size()) + 1) <= p_ - reserved) {
    const int i = waiting_[waiting_head_++];
    Job& job = jobs_[static_cast<std::size_t>(i)];
    job.admitted = true;
    job.baseline = t;  // keeps tentative_alpha at 1.0 until placement
    job.busy_mark = t;
    result_.start_times[static_cast<std::size_t>(i)] = t;
    live.push_back(i);
  }
  std::sort(live.begin(), live.end());
  alpha_now.resize(live.size());
  for (std::size_t k = 0; k < live.size(); ++k)
    alpha_now[k] = tentative_alpha(live[k], t);
  const int available = p_ - reserved - 2 * static_cast<int>(live.size());
  COREDIS_ASSERT(available >= 0);
  return available;
}

void OnlineSim::take_released(std::vector<int>& queue) {
  queue.insert(queue.end(),
               waiting_.begin() + static_cast<std::ptrdiff_t>(waiting_head_),
               waiting_.end());
  waiting_.clear();
  waiting_head_ = 0;
}

void OnlineSim::start(int i, int sigma, double t) {
  Job& job = jobs_[static_cast<std::size_t>(i)];
  COREDIS_ASSERT(!job.admitted);
  job.admitted = true;
  result_.start_times[static_cast<std::size_t>(i)] = t;
  place(i, sigma, t);
}

void OnlineSim::place(int i, int sigma, double t) {
  Job& job = jobs_[static_cast<std::size_t>(i)];
  job.sigma = sigma;
  job.baseline = t;
  job.busy_mark = t;
  job.proj_end = t + model_.simulated_duration(i, sigma, 1.0);
}

void OnlineSim::resize(int i, int sigma, double alpha_now, double t) {
  Job& job = jobs_[static_cast<std::size_t>(i)];
  const double rc =
      redistrib::cost(job.sigma, sigma, model_.pack().task(i).data_size);
  result_.busy_processor_seconds +=
      static_cast<double>(job.sigma) * (t - job.busy_mark);
  job.busy_mark = t;
  job.alpha = alpha_now;
  job.sigma = sigma;
  job.baseline = t + rc + model_.checkpoint_cost(i, sigma);
  job.proj_end = job.baseline + model_.simulated_duration(i, sigma, alpha_now);
  ++result_.redistributions;
  result_.redistribution_cost += rc;
}

void OnlineSim::commit(double t, const std::vector<int>& live,
                       const std::vector<double>& alpha_now,
                       const std::vector<int>& target) {
  for (std::size_t k = 0; k < live.size(); ++k) {
    const int i = live[k];
    const int sigma = jobs_[static_cast<std::size_t>(i)].sigma;
    if (sigma == 0)
      place(i, target[k], t);
    else if (target[k] != sigma)
      resize(i, target[k], alpha_now[k], t);
  }
}

OnlineResult OnlineSim::run(fault::Generator& faults,
                            const Reschedule& reschedule,
                            const OnFault& on_fault) {
  const double infinity = std::numeric_limits<double>::infinity();
  const auto n = static_cast<std::size_t>(n_);
  std::vector<int> arrivals(n);
  std::iota(arrivals.begin(), arrivals.end(), 0);
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](int a, int b) {
    return releases_[static_cast<std::size_t>(a)] <
           releases_[static_cast<std::size_t>(b)];
  });
  std::size_t next_arrival = 0;

  std::optional<fault::Fault> next_fault = faults.next();
  int remaining = n_;
  double now = 0.0;
  while (remaining > 0) {
    const double t_release =
        next_arrival < n
            ? releases_[static_cast<std::size_t>(arrivals[next_arrival])]
            : infinity;
    double end_time = infinity;
    int ending = -1;
    for (int i = 0; i < n_; ++i) {
      const Job& job = jobs_[static_cast<std::size_t>(i)];
      if (job.admitted && !job.done && job.proj_end < end_time) {
        end_time = job.proj_end;
        ending = i;
      }
    }
    // While jobs queue, the end of a blackout window is an event too:
    // the expiring reservation may be exactly what admission waits for,
    // and the next completion can be arbitrarily far away.
    double t_unblock = infinity;
    if (waiting_head_ < waiting_.size()) {
      for (const Job& job : jobs_)
        if (job.admitted && !job.done && job.baseline > now)
          t_unblock = std::min(t_unblock, job.baseline);
    }
    const double t_wake = std::min(t_release, t_unblock);
    const double t_next = std::min(t_wake, end_time);
    COREDIS_ASSERT(std::isfinite(t_next));

    if (next_fault && next_fault->time < t_next) {
      const fault::Fault fault = *next_fault;
      next_fault = faults.next();
      now = fault.time;
      int cursor = 0;
      int owner = -1;
      for (int i = 0; i < n_; ++i) {
        const Job& job = jobs_[static_cast<std::size_t>(i)];
        if (!job.admitted || job.done) continue;
        if (fault.processor < cursor + job.sigma) {
          owner = i;
          break;
        }
        cursor += job.sigma;
      }
      if (owner < 0) continue;  // idle slot
      Job& job = jobs_[static_cast<std::size_t>(owner)];
      if (fault.time <= job.baseline) continue;  // blackout window
      ++result_.faults_effective;
      const core::ExpectedTimeModel::Rollback back = model_.rollback(
          owner, job.sigma, job.alpha, job.baseline, fault.time);
      job.alpha = back.alpha;
      job.baseline = back.restart;
      job.proj_end =
          job.baseline + model_.simulated_duration(owner, job.sigma, job.alpha);
      if (on_fault) on_fault(owner);
      continue;
    }

    if (t_wake < end_time || t_release <= end_time) {
      now = t_wake;
      while (next_arrival < n &&
             releases_[static_cast<std::size_t>(arrivals[next_arrival])] <=
                 t_wake) {
        waiting_.push_back(arrivals[next_arrival]);
        ++next_arrival;
      }
      reschedule(t_wake);
      continue;
    }

    now = end_time;
    Job& job = jobs_[static_cast<std::size_t>(ending)];
    job.done = true;
    result_.completion_times[static_cast<std::size_t>(ending)] = end_time;
    result_.final_allocation[static_cast<std::size_t>(ending)] = job.sigma;
    result_.busy_processor_seconds +=
        static_cast<double>(job.sigma) * (end_time - job.busy_mark);
    result_.makespan = std::max(result_.makespan, end_time);
    --remaining;
    if (remaining > 0) reschedule(end_time);
  }

  double wait = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    wait += result_.start_times[i] - releases_[i];
  result_.mean_queue_wait = n_ > 0 ? wait / static_cast<double>(n_) : 0.0;
  return std::move(result_);
}

}  // namespace coredis::extensions
