/// \file heuristics.cpp
/// The redistribution heuristics of paper section 5 (Algorithms 3-5), all
/// operating on the shared EngineState of Algorithm 2.
///
/// Common conventions:
///  * sigma_init(i) is the committed allocation s.task(i).sigma; scratch
///    vectors hold the tentative allocations until commit().
///  * Every probe compares a candidate expected finish tE against the
///    task's current expected finish tU; a redistribution is committed
///    only on strict improvement.
///  * Redistribution costs are always paid from sigma_init (the data moves
///    once, whatever the probing path), matching the RC^{sigma_init -> k}
///    superscripts of Algorithms 3-5.
///  * Two documented deviations from the paper's *pseudocode* (not its
///    prose) are flagged NOTE(paper) below.
///
/// Scan strategy (DESIGN.md section 6.5): EndLocal's improvability scans
/// dominate the event loop at scale — every completion re-verifies, for
/// each still-longest task, that no grant of idle pairs would help, and
/// the verdict is almost always the same as last time. The lazy path
/// therefore *carries* a failed scan across events: when a scan proves a
/// task unimprovable, a conservative validity horizon is computed from
/// the scan's exact margins (how fast they can decay, and how soon a
/// checkpoint-count boundary of Eq. 2 could discontinuously improve a
/// candidate), and until that horizon — same committed state, no larger
/// pool — the task is dropped in O(1) without probing anything. A larger
/// pool (the idle pool grows at every completion) widens the verdict by
/// clearing only the new targets, O(delta k) probes, against a floor the
/// covered columns provably keep. Probes themselves are never
/// approximated: any scan that actually runs is the from-scratch exact
/// scan, which also survives unconditionally behind
/// EngineConfig::eager_scans for the equivalence tests.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "redistrib/cost.hpp"
#include "util/contracts.hpp"
#include "util/heap_ops.hpp"

namespace coredis::core::detail {

double EngineState::redistribution_cost(int i, int to) const {
  const int from = task(i).sigma;
  if (from == to || zero_redistribution_cost) return 0.0;
  return redistrib::cost(from, to, model->pack().task(i).data_size);
}

void EngineState::refresh_projection(int i) {
  TaskRuntime& rt = task(i);
  rt.proj_end = rt.tlastR + model->simulated_duration(i, rt.sigma, rt.alpha);
  if (!rt.done) {
    projection_queue.update(i, rt.proj_end);
    tu_queue.update(i, rt.tU);
  }
}

void EngineState::build_event_index() {
  projection_queue.reset(n());
  tu_queue.reset(n());
  for (int i = 0; i < n(); ++i) {
    const TaskRuntime& rt = task(i);
    if (rt.done) continue;
    projection_queue.update(i, rt.proj_end);
    tu_queue.update(i, rt.tU);
  }
}

void EngineState::mark_done(int i) {
  TaskRuntime& rt = task(i);
  rt.done = true;
  projection_queue.remove(i);
  tu_queue.remove(i);
}

int EngineState::earliest_unfinished() const {
  return projection_queue.empty() ? -1 : projection_queue.top();
}

double EngineState::longest_expected_finish() const {
  return tu_queue.empty() ? 0.0 : tu_queue.top_key();
}

void EngineState::unfinished_ending_by(double bound, int except,
                                       std::vector<int>& out) const {
  out.clear();
  projection_queue.for_each_at_or_before(
      bound, [&](int i) { if (i != except) out.push_back(i); });
  // Heap order is arbitrary; callers surrender processors in ascending
  // task order (it shapes the idle pool's stack, hence determinism).
  std::sort(out.begin(), out.end());
}

void EngineState::commit(double t, int faulty, const std::vector<int>& new_sigma,
                         const std::vector<double>& alpha_t) {
  COREDIS_EXPECTS(static_cast<int>(new_sigma.size()) == n());
  std::vector<int>& changed = scratch.changed;
  changed.clear();
  for (int i = 0; i < n(); ++i) {
    const TaskRuntime& rt = task(i);
    if (rt.done || rt.released) continue;
    if (new_sigma[static_cast<std::size_t>(i)] != rt.sigma)
      changed.push_back(i);
  }
  commit_changes(t, faulty, new_sigma, alpha_t, changed);
}

void EngineState::commit_changes(double t, int faulty,
                                 const std::vector<int>& new_sigma,
                                 const std::vector<double>& alpha_t,
                                 const std::vector<int>& changed) {
  COREDIS_EXPECTS(static_cast<int>(new_sigma.size()) == n());
  COREDIS_EXPECTS(static_cast<int>(alpha_t.size()) == n());
  ensure_lazy_state();
  const auto commit_start = profile != nullptr
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  // Shrink before growing so the idle pool can never go negative; both
  // passes walk the ascending change-list, reproducing the full scan's
  // platform-ledger call order exactly (processor identity matters to
  // fault attribution).
  for (const int i : changed) {
    const TaskRuntime& rt = task(i);
    if (rt.done || rt.released) continue;
    if (new_sigma[static_cast<std::size_t>(i)] < rt.sigma)
      platform->revoke(i, rt.sigma - new_sigma[static_cast<std::size_t>(i)]);
  }
  for (const int i : changed) {
    const TaskRuntime& rt = task(i);
    if (rt.done || rt.released) continue;
    if (new_sigma[static_cast<std::size_t>(i)] > rt.sigma)
      platform->grant(i, new_sigma[static_cast<std::size_t>(i)] - rt.sigma);
  }
  const bool fault_free = model->resilience().fault_free();
  for (const int i : changed) {
    TaskRuntime& rt = task(i);
    const int target = new_sigma[static_cast<std::size_t>(i)];
    if (rt.done || rt.released || target == rt.sigma) continue;
    const double rc = redistribution_cost(i, target);
    // Periodic checkpoints the task completed on its old allocation since
    // its last baseline (the faulty task's were counted at rollback),
    // plus the initial checkpoint on the new allocation.
    if (!fault_free) {
      if (i != faulty && t > rt.tlastR) {
        const double tau = model->period(i, rt.sigma);
        checkpoints_taken +=
            static_cast<long long>(std::floor((t - rt.tlastR) / tau));
      }
      ++checkpoints_taken;
    }
    if (timeline != nullptr) {
      timeline->push_back(AllocationSegment{
          i, segment_start[static_cast<std::size_t>(i)], t, rt.sigma, true});
      segment_start[static_cast<std::size_t>(i)] = t;
    }
    // The faulty task's tlastR already carries t + D + R (section 3.3.2:
    // tlastR = t + D + R + RC + C for the struck task); others restart
    // from the redistribution instant.
    const double base = i == faulty ? rt.tlastR : t;
    rt.alpha = std::clamp(alpha_t[static_cast<std::size_t>(i)], 0.0, 1.0);
    rt.sigma = target;
    rt.tlastR = base + rc + model->checkpoint_cost(i, target);
    rt.tU = rt.tlastR + (*tr)(i, target, rt.alpha);
    refresh_projection(i);
    touch(i);  // carried scan verdicts die with the old committed state
    ++redistributions;
    redistribution_cost_total += rc;
  }
  if (profile != nullptr) {
    profile->commit_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      commit_start)
            .count();
    ++profile->commits;
  }
}

namespace {

/// Max-heap entry: longest expected finish first, deterministic ties.
/// Entries are pairwise distinct (one per task, index tiebreak), so heap
/// pops follow a strict total order whatever the internal layout — the
/// push_heap/pop_heap scratch vector below pops exactly like the
/// std::priority_queue it replaced, without reallocating per call. The
/// replace-top / stays-top primitives are the shared util/heap_ops.hpp
/// definitions (one definition serves every grant loop).
using HeapEntry = std::pair<double, int>;
using util::heap_replace_top;
using util::stays_top;

/// Drop the root (the task leaves the heap for good).
void heap_drop_top(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end());
  heap.pop_back();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Passes over fewer targets or columns than this stay scalar: on small
/// pools (p = 16) the vector set-up costs more than it saves.
constexpr std::size_t kVectorMin = 8;

/// The scalar loop of scan_targets over entries [k, count), continuing
/// `r` past a vector body that covered [0, k).
void scan_targets_from(const TargetPass& p, std::size_t k, std::size_t count,
                       TargetScan& r) {
  for (; k < count; ++k) {
    const int j = p.first + 2 * static_cast<int>(k);
    // ProbeBase::rc above sigma_init: max(min(from, j), j - from) rounds.
    const double rounds = static_cast<double>(std::max(p.from, j - p.from));
    const double rc =
        p.zero_rc ? 0.0
                  : rounds * (1.0 / static_cast<double>(j)) * p.m_over_from;
    const double x = p.t + rc + p.cost[k] + p.col[k * p.col_stride];
    if (k == 0) r.first_x = x;
    if (p.stop == Stop::Below ? x < p.tU : !(x >= p.tU)) {
      r.stop = k;
      r.min_rc_c = kInf;
      return;
    }
    r.min_rc_c = std::min(r.min_rc_c, rc + p.cost[k]);
  }
  r.stop = count;
}

/// The scalar loop of carry_span over columns [h, count), continuing `r`
/// past a vector body that covered [0, h). See carry_columns for the
/// bound it prices.
void carry_span_from(const CarryPass& p, std::size_t h, std::size_t count,
                     CarrySpan& r) {
  const Eq4Lanes& c = p.lanes;
  for (; h < count; ++h) {
    const double budget = p.value[h] - p.threat;
    if (budget <= 0.0) {
      r = {0.0, true};
      return;
    }
    const double t_ij = c.t_ij[h];
    if (p.fault_free) {
      r.span = std::min(r.span, budget / t_ij);
      continue;
    }
    const double g =
        t_ij * c.factor[h] * c.lambda_j[h] * (c.expm1_tau[h] + 1.0);
    double span = budget / g;
    const double work = p.alpha * t_ij;
    const double period_work = c.tau[h] - c.cost[h];  // the fill's tau - C
    const double n_ff = std::floor(work / period_work);
    const double to_boundary = (work - n_ff * period_work) / t_ij;
    if (span > to_boundary) {
      const double drop = c.factor[h] * c.expm1_tau[h];
      const double after_first = budget - to_boundary * g - drop;
      if (after_first <= 0.0) {
        span = to_boundary;
      } else {
        // Smooth decay plus one amortized boundary drop per period.
        const double per_alpha = g + drop * t_ij / period_work;
        span = to_boundary + after_first / per_alpha;
      }
    }
    r.span = std::min(r.span, span);
  }
}

/// The lanes of `row` from entry k on.
Eq4Lanes lanes_from(const Eq4Lanes& row, std::size_t k) {
  return {row.t_ij + k,     row.tau + k,    row.cost + k,
          row.lambda_j + k, row.factor + k, row.expm1_tau + k};
}

/// What a failed EndLocal scan carries to later events: until `horizon`,
/// every column it covered stays >= `floor` (DESIGN.md section 6.5).
struct Carry {
  double horizon;
  double floor;
};

/// Conservative validity horizon of a failed EndLocal improvability scan
/// over the Eq. 4 columns [h_lo, h_hi) of task i at alpha_t (DESIGN.md
/// section 6.5). The scan just proved, with exact probes, that its even
/// targets sigma + q satisfy
///
///   t + RC_q + C_{i,sigma+q} + Tr(i, sigma+q, alpha_t) >= tU.
///
/// Until when does that provably keep holding (same committed state, pool
/// no larger)? Tr(sigma + q, .) is the Eq. 6 prefix-min over the raw
/// Eq. 4 columns, so target q breaks only once some column h <= (sigma +
/// q)/2 falls below its threat level tU - t' - RC_q - C_q; with t' only
/// growing past t, every threat level is bounded by
///
///   L = tU - t - min_q (RC_q + C_q)   (the caller's `threat`).
///
/// Column h therefore has to burn the budget value[h] - L first, where
/// value[h - h_lo] <= raw_h (the scan's freshly filled prefix-min, or a
/// widening's running minimum of its new columns). It burns alpha at rate
/// at most g_h = t_{i,j} factor lambda_j (expm1_tau + 1) — Eq. 4's slope
/// bound, e^{lambda tau_last} <= e^{lambda tau}; exactly t_{i,j} in the
/// fault-free context — plus one exact Eq. 4 drop of factor * expm1_tau
/// each time the remaining work crosses an Eq. 2 completed-checkpoint
/// boundary (every tau - C of work on that column; the first crossing
/// sits tau_last of work away). Charging each drop continuously over the
/// period *before* it falls due only shortens the horizon, so the
/// per-column alpha span solves
///
///   span_h * g_h + drops(span_h) * factor * expm1_tau <= value[h] - L,
///
/// and since the tentative alpha falls at most 1 / t_{i,sigma} per
/// wall-clock second, every column stays >= L until t + min_h span_h *
/// t_{i,sigma}, shaved by 1e-9 to cover this computation's own rounding.
/// A column already at or below L proves nothing beyond t: the verdict
/// then holds at t only, with no floor.
Carry carry_columns(const EngineState& s, int i, double t, double alpha_t,
                    int sigma, std::size_t h_lo, std::size_t h_hi,
                    double threat, const double* value) {
  const CarryPass pass{lanes_from(s.model->row_lanes(i, h_hi), h_lo), value,
                       threat, alpha_t, s.model->resilience().fault_free()};
  const CarrySpan span_alpha = carry_span(pass, h_hi - h_lo);
  if (span_alpha.refused) return {t, -kInf};  // no provable carry
  const double w_sigma = s.model->fault_free_time(i, sigma);
  const double span = span_alpha.span * w_sigma;
  if (!std::isfinite(span)) return {kInf, threat};
  return {t + span * (1.0 - 1e-9), threat};
}

/// Widen task i's carried verdict from its covered pool cache.k to the
/// larger pool k by clearing only the new targets q in (cache.k, k]
/// (DESIGN.md section 6.5). For such a q the eager scan computes
///
///   tE(q) = fl(base_q + min(A, M_q)) = min(fl(base_q + A), fl(base_q + M_q))
///
/// (IEEE addition is monotone), where base_q = t + RC_q + C_q is the
/// prober's, A the covered columns' minimum at alpha_t and M_q the new
/// columns' running minimum. A >= cache.floor until the horizon, so
/// (a) fl(base_q + floor) >= tU and (b) fl(base_q + M_q) >= tU prove that
/// no new target improves. On success the verdict covers k, priced from t
/// over the new columns; on any failed check nothing changes and the
/// caller runs the exact scan, which decides. No decision is ever taken
/// here.
bool widen_verdict(EngineState& s, int i, double t, double alpha_t,
                   double tU, int k, EngineState::ScanCache& cache) {
  const int sigma = s.task(i).sigma;
  const int q_first = cache.k / 2 * 2 + 2;
  const auto refuse = [&s](bool on_floor) {
    if (s.profile != nullptr) {
      ++s.profile->widen_fallbacks;
      if (on_floor) ++s.profile->floor_fallbacks;
    }
    return false;
  };
  // The new columns (sigma + cache.k, sigma + k]; the first new target,
  // sigma + q_first, is column lo. Densifying the row through hi up front
  // fills no extra coefficient: (b) probes that range, and a refusal
  // hands over to the full scan, which prefills it.
  const auto lo = static_cast<std::size_t>(sigma + cache.k) / 2;
  const auto hi = static_cast<std::size_t>(sigma + k) / 2;
  const std::size_t count =
      q_first <= k ? static_cast<std::size_t>((k - q_first) / 2 + 1) : 0;
  TargetPass pass = ProbeBase(s, t, i).targets(
      sigma + q_first, s.model->row_lanes(i, hi).cost + lo);
  pass.tU = tU;
  pass.stop = Stop::NotAtLeast;
  // (a) against the covered columns' floor: flops only, so first. The
  // same pass prices min (RC + C) over the new targets for the carry.
  pass.col = &cache.floor;
  pass.col_stride = 0;
  const TargetScan floor_pass = scan_targets(pass, count);
  if (floor_pass.stop < count) return refuse(true);
  // (b) against the new columns alone, one probe_many batch.
  std::vector<double>& m = s.scratch.widened;
  m.resize(hi - lo);
  s.model->probe_many(i, static_cast<int>(lo), static_cast<int>(hi), alpha_t,
                      m.data());
  double running = kInf;
  for (double& v : m) v = running = std::min(running, v);
  if (s.profile != nullptr)
    s.profile->column_fills += static_cast<long long>(hi - lo);
  pass.col = m.data();
  pass.col_stride = 1;
  if (scan_targets(pass, count).stop < count) return refuse(false);
  const Carry carry = carry_columns(s, i, t, alpha_t, sigma, lo, hi,
                                    tU - t - floor_pass.min_rc_c, m.data());
  cache.k = k;
  cache.horizon = std::min(cache.horizon, carry.horizon);
  cache.floor = std::min(cache.floor, carry.floor);
  if (s.profile != nullptr) ++s.profile->verdict_widenings;
  return true;
}

/// The incremental regrow's key for moving the task of `row` to `target`
/// != sigma_init at time t: t + Eq. 9 + C_i / target + Tr, the
/// CandidateProber's arithmetic term for term (same bits). The row's
/// column must cover target.
inline double regrow_key(const EngineState::Scratch::RegrowRow& row,
                         double t, bool zero_rc, int target) {
  double rc = 0.0;
  if (!zero_rc) {
    const int sigma_init = row.sigma_init;
    const int d =
        target > sigma_init ? target - sigma_init : sigma_init - target;
    rc = static_cast<double>(std::max(std::min(sigma_init, target), d)) *
         (1.0 / static_cast<double>(target)) * row.m_over;
  }
  return t + rc + row.seq / static_cast<double>(target) +
         row.pm[target / 2 - 1];
}

}  // namespace

TargetScan scan_targets_scalar(const TargetPass& pass, std::size_t count) {
  TargetScan r{count, 0.0, kInf};
  scan_targets_from(pass, 0, count, r);
  return r;
}

TargetScan scan_targets(const TargetPass& pass, std::size_t count) {
  if (count < kVectorMin || !eq4_simd_active())
    return scan_targets_scalar(pass, count);
  const std::size_t body = count / 4 * 4;
  TargetScan r = scan_targets_row(pass, body);
  if (r.stop == body) scan_targets_from(pass, body, count, r);
  return r;
}

CarrySpan carry_span_scalar(const CarryPass& pass, std::size_t count) {
  CarrySpan r{kInf, false};
  carry_span_from(pass, 0, count, r);
  return r;
}

CarrySpan carry_span(const CarryPass& pass, std::size_t count) {
  if (count < kVectorMin || !eq4_simd_active())
    return carry_span_scalar(pass, count);
  const std::size_t body = count / 4 * 4;
  CarrySpan r = carry_span_row(pass, body);
  if (!r.refused) carry_span_from(pass, body, count, r);
  return r;
}

bool end_local(EngineState& s, double t) {
  const int n = s.n();
  int k = s.platform->free_count();
  if (k < 2) return false;
  s.ensure_lazy_state();

  EngineState::Scratch& scr = s.scratch;
  std::vector<int>& new_sigma = scr.new_sigma;
  std::vector<double>& alpha_t = scr.alpha_t;
  std::vector<double>& tU = scr.tU;
  std::vector<int>& changed = scr.changed;
  new_sigma.resize(static_cast<std::size_t>(n));
  alpha_t.assign(static_cast<std::size_t>(n), 0.0);
  tU.assign(static_cast<std::size_t>(n), 0.0);
  changed.clear();
  std::vector<HeapEntry>& heap = scr.heap;
  heap.clear();
  for (int i = 0; i < n; ++i) {
    new_sigma[static_cast<std::size_t>(i)] = s.task(i).sigma;
    if (!s.included(i, t)) continue;
    if (!s.eager_scans) {
      // A carried verdict that already covers this call's pool never
      // reaches a scan — its pop would drop it unprobed (k only shrinks
      // within the call, so validity here implies validity at pop time).
      // Skip the heap entirely.
      const EngineState::ScanCache& cache =
          s.scan_cache[static_cast<std::size_t>(i)];
      if (cache.k >= k && cache.version == s.version[static_cast<std::size_t>(i)] &&
          t <= cache.horizon) {
        if (s.profile != nullptr) ++s.profile->verdict_drops;
        continue;
      }
    }
    tU[static_cast<std::size_t>(i)] = s.task(i).tU;
    heap.emplace_back(s.task(i).tU, i);
  }
  std::make_heap(heap.begin(), heap.end());

  bool changed_any = false;
  while (k >= 2 && !heap.empty()) {
    const int i = heap.front().second;  // peek; the entry stays in place
    const auto idx = static_cast<std::size_t>(i);
    const bool at_committed = new_sigma[idx] == s.task(i).sigma;
    // A verdict carried at the same committed state, before its horizon.
    EngineState::ScanCache& cache = s.scan_cache[idx];
    const bool carried = !s.eager_scans && at_committed &&
                         cache.version == s.version[idx] &&
                         t <= cache.horizon;

    if (carried && cache.k >= k) {
      // It covers a scan at least as wide: provably still unimprovable
      // (see carry_columns above), dropped without probing anything.
      if (s.profile != nullptr) ++s.profile->verdict_drops;
      heap_drop_top(heap);
      continue;
    }

    // Alg. 3 line 8, computed on first actual scan of the task: with the
    // carried verdicts most pops never probe, so the per-event
    // all-included tentative-alpha sweep would be mostly dead work.
    alpha_t[idx] = s.alpha_tentative(i, t);
    if (carried && widen_verdict(s, i, t, alpha_t[idx], tU[idx], k, cache)) {
      heap_drop_top(heap);  // the pool grew, yet no new target helps
      continue;
    }
    if (s.profile != nullptr) ++s.profile->full_scans;
    // Improvability probe (Alg. 3 lines 10-15): first q that helps.
    bool improvable = false;
    double first_tE = 0.0;  // tE at new_sigma + 2, reused on grant
    if (s.eager_scans) {
      const CandidateProber probe(s, t, i, alpha_t[idx]);
      for (int q = 2; q <= k; q += 2) {
        const double tE = probe(new_sigma[idx] + q);
        if (q == 2) first_tE = tE;
        if (tE < tU[idx]) {
          improvable = true;
          break;
        }
      }
    } else {
      // Prefill the whole scan range in one probe_many batch: the
      // surviving scans are overwhelmingly full-width failures, and a
      // batched fill streams independent expm1 calls at several times the
      // throughput of the one-step-per-probe fill. Value-neutral. Then
      // one pass prices every target, min (RC + C) included.
      const int sigma = new_sigma[idx];
      const auto h_first = static_cast<std::size_t>(sigma) / 2;  // sigma + 2
      const auto slots = static_cast<std::size_t>(sigma + k) / 2;
      const auto count = static_cast<std::size_t>(k / 2);
      const TrEvaluator::Column column = s.tr->column(i, alpha_t[idx]);
      (void)column(sigma + k);
      const double* pm = column.prefix().data();
      TargetPass pass = ProbeBase(s, t, i).targets(
          sigma + 2, s.model->row_lanes(i, slots).cost + h_first);
      pass.tU = tU[idx];
      pass.col = pm + h_first;
      const TargetScan scan = scan_targets(pass, count);
      improvable = scan.stop < count;
      first_tE = scan.first_x;
      if (!improvable && at_committed) {
        // The scan filled this (task, alpha_t) column to (sigma + k) / 2;
        // its prefix-min and the coefficient lanes price the horizon.
        const Carry carry = carry_columns(s, i, t, alpha_t[idx], sigma, 0,
                                          slots, tU[idx] - t - scan.min_rc_c,
                                          pm);
        cache = {s.version[idx], k, carry.horizon, carry.floor};
      }
    }
    if (!improvable) {  // dropped for good; try the next-longest task
      heap_drop_top(heap);
      continue;
    }
    if (at_committed) changed.push_back(i);
    new_sigma[idx] += 2;  // grants are pair-by-pair (Alg. 3 line 17)
    // The grant lands on new_sigma + 2, whose tE the scan just computed.
    tU[idx] = first_tE;
    k -= 2;
    changed_any = true;
    const HeapEntry rescored(tU[idx], i);
    if (stays_top(heap, rescored))
      heap.front() = rescored;  // keeps the lead: no sift needed
    else
      heap_replace_top(heap, rescored);
  }
  if (changed_any) {
    std::sort(changed.begin(), changed.end());
    s.commit_changes(t, /*faulty=*/-1, new_sigma, alpha_t, changed);
  }
  return changed_any;
}

bool iterated_greedy(EngineState& s, double t, int faulty) {
  const int n = s.n();
  s.ensure_lazy_state();
  EngineState::Scratch& scr = s.scratch;
  std::vector<char>& in = scr.included;
  std::vector<double>& alpha_t = scr.alpha_t;
  std::vector<int>& new_sigma = scr.new_sigma;
  std::vector<double>& tU = scr.tU;
  in.assign(static_cast<std::size_t>(n), 0);
  alpha_t.assign(static_cast<std::size_t>(n), 0.0);
  new_sigma.resize(static_cast<std::size_t>(n));
  tU.assign(static_cast<std::size_t>(n), 0.0);

  int pool = s.platform->free_count();
  int n_included = 0;
  for (int i = 0; i < n; ++i) {
    new_sigma[static_cast<std::size_t>(i)] = s.task(i).sigma;
    const bool eligible = i == faulty
                              ? !s.task(i).done && !s.task(i).released
                              : s.included(i, t);
    if (!eligible) continue;
    in[static_cast<std::size_t>(i)] = 1;
    ++n_included;
    pool += s.task(i).sigma;
    alpha_t[static_cast<std::size_t>(i)] =
        i == faulty ? s.task(i).alpha : s.alpha_tentative(i, t);
  }
  if (n_included == 0) return false;
  COREDIS_ASSERT(pool >= 2 * n_included);
  if (s.profile != nullptr) ++s.profile->regrows;

  std::vector<HeapEntry>& heap = scr.heap;
  heap.clear();
  const int available0 = pool - 2 * n_included;

  if (s.eager_scans) {
    // Reference regrow: one lazily-bound prober per task, columns filled
    // one probe at a time as the scans deepen (the pre-incremental
    // implementation, kept verbatim for the equivalence tests).
    std::vector<std::optional<CandidateProber>>& probers = scr.probers;
    probers.assign(static_cast<std::size_t>(n), std::nullopt);
    const auto probe_for = [&](int task) -> const CandidateProber& {
      auto& p = probers[static_cast<std::size_t>(task)];
      if (!p)
        p.emplace(s, t, task, alpha_t[static_cast<std::size_t>(task)]);
      return *p;
    };

    // Reset every eligible task to one pair (Alg. 5 lines 3-8); a task
    // whose original allocation was already 2 keeps its committed tU.
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!in[idx]) continue;
      new_sigma[idx] = 2;
      tU[idx] = new_sigma[idx] == s.task(i).sigma ? s.task(i).tU
                                                  : probe_for(i)(2);
      heap.emplace_back(tU[idx], i);
    }
    std::make_heap(heap.begin(), heap.end());

    int available = available0;
    while (available >= 2 && !heap.empty()) {
      const int i = heap.front().second;  // peek; the entry stays in place
      const auto idx = static_cast<std::size_t>(i);
      const int sigma_init = s.task(i).sigma;
      const int pmax = new_sigma[idx] + available;
      const CandidateProber& probe = probe_for(i);

      bool improvable = false;
      double first_tE = 0.0;  // tE at new_sigma + 2, reused on grant
      for (int target = new_sigma[idx] + 2; target <= pmax; target += 2) {
        // Returning to the original allocation costs nothing: the task
        // just keeps computing from tlastR with its committed fraction
        // (line 16).
        const double tE =
            target == sigma_init
                ? s.task(i).tlastR + (*s.tr)(i, target, s.task(i).alpha)
                : probe(target);
        if (target == new_sigma[idx] + 2) first_tE = tE;
        if (tE < tU[idx]) {
          improvable = true;
          break;
        }
      }
      if (!improvable) break;  // line 30: the longest task is stuck

      new_sigma[idx] += 2;
      // The grant lands on new_sigma + 2, whose tE the scan computed.
      tU[idx] = first_tE;
      available -= 2;
      const HeapEntry rescored(tU[idx], i);
      if (stays_top(heap, rescored))
        heap.front() = rescored;  // keeps the lead: no sift needed
      else
        heap_replace_top(heap, rescored);
    }
  } else {
    // Warm-started incremental regrow (DESIGN.md section 6.5). Most
    // rebuilds end on the committed allocation, so the climb from one
    // pair per task is not replayed pop by pop up to the state it
    // provably reaches without contention:
    //
    //  * Threshold. F_i is the key task i holds at its committed
    //    allocation (its free return, or its committed tU when that is
    //    one pair), and T the largest (F_i, i) in pair order.
    //  * Phase A, no tournament. Until some task passes its committed
    //    allocation, every scan reaches the free return to sigma_init,
    //    priced F_i below any key above T. So every key above T pops
    //    before any key at or below it, each such pop is improvable and
    //    grants one pair, and no task passes sigma_init meanwhile: each
    //    task climbs on its own to its first key at or below T (at the
    //    latest sigma_init), whatever the interleaving. A lower bound on
    //    those keys sends most tasks there without computing them.
    //  * Phase B. The tournament grant loop runs from that state and
    //    replays the identical remaining grant sequence.
    //
    // Every walk key lies inside the committed-depth prefill, so the
    // column fills are those of the cold climb. The rest is mechanics:
    // each task's tentative column is prefilled to its committed depth in
    // one probe_many batch, the scan state is packed into one RegrowRow
    // cache line per task, and a tournament tree replaces the binary heap
    // (the regrow only ever takes the maximum by (key, task) and re-keys
    // it, so any structure returning that exact maximum yields the
    // identical grant sequence, and a re-key replays one fixed
    // leaf-to-root path). Keys are the CandidateProber's arithmetic term
    // for term (regrow_key), so decisions are identical (locked by the
    // equivalence tests driving both paths).
    std::vector<EngineState::Scratch::RegrowRow>& rows = scr.rows;
    rows.resize(static_cast<std::size_t>(n));
    const bool fault_free = s.model->resilience().fault_free();
    const bool zero_rc = s.zero_redistribution_cost;

    HeapEntry threshold(-std::numeric_limits<double>::infinity(), -1);
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!in[idx]) continue;
      EngineState::Scratch::RegrowRow& row = rows[idx];
      const int sigma_init = s.task(i).sigma;
      row.sigma_init = sigma_init;
      row.seq = fault_free ? 0.0 : s.model->sequential_checkpoint(i);
      // Committed-state constants, memoized against the task version:
      // the Eq. 9 factor and the free return to the committed allocation
      // (Alg. 5 line 16; never read when sigma_init == 2 — targets start
      // at 4).
      EngineState::FreeReturnCache& fc = s.free_return[idx];
      if (fc.version != s.version[idx]) {
        fc.version = s.version[idx];
        fc.m_over = s.model->pack().task(i).data_size /
                    static_cast<double>(sigma_init);
        fc.tE = sigma_init > 2
                    ? s.task(i).tlastR +
                          (*s.tr)(i, sigma_init, s.task(i).alpha)
                    : 0.0;
      }
      row.m_over = fc.m_over;
      row.free_tE = sigma_init > 2 ? fc.tE : s.task(i).tU;  // F_i
      // Batched prefill to the committed depth + flat column view.
      const TrEvaluator::Column col = s.tr->column(i, alpha_t[idx]);
      (void)col(sigma_init);
      row.pm = col.prefix().data();
      row.pm_len = static_cast<int>(col.prefix().size());
      threshold = std::max(threshold, HeapEntry(row.free_tE, i));
    }

    // Phase A: each task's own climb from one pair (Alg. 5 lines 3-8) to
    // its first key at or below the threshold.
    std::vector<int>& tree = scr.tourney;
    std::vector<int>& leaf_of = scr.leaf_of;
    std::size_t P = 1;
    while (P < static_cast<std::size_t>(n_included)) P <<= 1;
    tree.assign(2 * P, -1);
    leaf_of.resize(static_cast<std::size_t>(n));
    int available = available0;
    long long walk_skips = 0;
    long long walk_steps = 0;
    std::size_t slot = 0;
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!in[idx]) continue;
      const EngineState::Scratch::RegrowRow& row = rows[idx];
      const int sigma_init = row.sigma_init;
      int sigma = sigma_init;
      double key = row.free_tE;
      if (sigma_init > 2) {
        COREDIS_ASSERT(row.pm_len >= sigma_init / 2);
        // Lower bound on every walk key (targets j <= sigma_init - 2),
        // term by term in the key's own order (IEEE addition is
        // monotone): shrinking to j, Eq. 9 charges at least j rounds of
        // m / (sigma_init j) (0.999999 absorbs the rounding of its three
        // products), C_i / j >= C_i / (sigma_init - 2), and the prefix
        // minimum only falls with j.
        const double rc_floor = zero_rc ? 0.0 : 0.999999 * row.m_over;
        const double bound =
            t + rc_floor + row.seq / static_cast<double>(sigma_init - 2) +
            row.pm[sigma_init / 2 - 2];
        if (bound > threshold.first) {
          ++walk_skips;
        } else {
          sigma = 2;
          key = regrow_key(row, t, zero_rc, sigma);
          ++walk_steps;
          while (HeapEntry(key, i) > threshold) {
            sigma += 2;
            if (sigma == sigma_init) {
              key = row.free_tE;
              break;
            }
            key = regrow_key(row, t, zero_rc, sigma);
            ++walk_steps;
          }
        }
      }
      new_sigma[idx] = sigma;
      tU[idx] = key;
      available -= sigma - 2;
      leaf_of[idx] = static_cast<int>(slot);
      tree[P + slot] = i;
      ++slot;
    }
    COREDIS_ASSERT(available >= 0);
    // Max by the HeapEntry pair order (tU, task): ties go to the larger
    // task index, exactly like std::pair's operator<.
    const auto better = [&tU](int a, int b) {
      if (a < 0) return b;
      if (b < 0) return a;
      if (tU[static_cast<std::size_t>(a)] != tU[static_cast<std::size_t>(b)])
        return tU[static_cast<std::size_t>(a)] >
                       tU[static_cast<std::size_t>(b)]
                   ? a
                   : b;
      return a > b ? a : b;
    };
    for (std::size_t x = P - 1; x >= 1; --x)
      tree[x] = better(tree[2 * x], tree[2 * x + 1]);

    // Phase B: the grant loop (Alg. 5 lines 9-30) from the warm state.
    long long replays = 0;
    while (available >= 2) {
      const int i = tree[1];  // the winner; its leaf stays in place
      const auto idx = static_cast<std::size_t>(i);
      EngineState::Scratch::RegrowRow& row = rows[idx];
      const int sigma_init = row.sigma_init;
      const int pmax = new_sigma[idx] + available;

      bool improvable = false;
      double first_tE = 0.0;  // tE at new_sigma + 2, reused on grant
      for (int target = new_sigma[idx] + 2; target <= pmax; target += 2) {
        double tE;
        if (target == sigma_init) {
          tE = row.free_tE;
        } else {
          if (target / 2 > row.pm_len) [[unlikely]] {
            // Scan overshot the prefill: extend the column by a chunk
            // (consecutive overshoot probes then stay on the fast path)
            // and refresh the flat view (the vector may have
            // reallocated).
            const TrEvaluator::Column col = s.tr->column(i, alpha_t[idx]);
            (void)col(target + 16);
            row.pm = col.prefix().data();
            row.pm_len = static_cast<int>(col.prefix().size());
          }
          tE = regrow_key(row, t, zero_rc, target);
        }
        if (target == new_sigma[idx] + 2) first_tE = tE;
        if (tE < tU[idx]) {
          improvable = true;
          break;
        }
      }
      if (!improvable) break;  // line 30: the longest task is stuck

      new_sigma[idx] += 2;
      // The grant lands on new_sigma + 2, whose tE the scan computed.
      tU[idx] = first_tE;
      available -= 2;
      // Re-key the winner: replay its fixed leaf-to-root path.
      for (std::size_t x = (P + static_cast<std::size_t>(leaf_of[idx])) >> 1;
           x >= 1; x >>= 1)
        tree[x] = better(tree[2 * x], tree[2 * x + 1]);
      ++replays;
    }
    if (s.profile != nullptr) {
      s.profile->tournament_replays += replays;
      s.profile->walk_skips += walk_skips;
      s.profile->walk_steps += walk_steps;
    }
  }

  bool changed_any = false;
  std::vector<int>& changed = scr.changed;
  changed.clear();
  for (int i = 0; i < n; ++i)
    if (in[static_cast<std::size_t>(i)] &&
        new_sigma[static_cast<std::size_t>(i)] != s.task(i).sigma) {
      changed_any = true;
      changed.push_back(i);
    }
  if (changed_any) s.commit_changes(t, faulty, new_sigma, alpha_t, changed);
  return changed_any;
}

bool end_greedy(EngineState& s, double t) {
  // Section 5.2: same rebuild as IteratedGreedy, just with no faulty task.
  return iterated_greedy(s, t, /*faulty=*/-1);
}

bool shortest_tasks_first(EngineState& s, double t, int faulty) {
  const int n = s.n();
  COREDIS_EXPECTS(faulty >= 0 && faulty < n);
  const TaskRuntime& f = s.task(faulty);
  if (f.done || f.released) return false;

  EngineState::Scratch& scr = s.scratch;
  std::vector<int>& new_sigma = scr.new_sigma;
  std::vector<double>& alpha_t = scr.alpha_t;
  std::vector<double>& tU = scr.tU;
  std::vector<char>& in = scr.included;
  new_sigma.resize(static_cast<std::size_t>(n));
  alpha_t.assign(static_cast<std::size_t>(n), 0.0);
  tU.resize(static_cast<std::size_t>(n));
  in.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    new_sigma[idx] = s.task(i).sigma;
    tU[idx] = s.task(i).tU;
    if (i == faulty) {
      in[idx] = 1;
      alpha_t[idx] = f.alpha;  // already rolled back by Algorithm 2
    } else if (s.included(i, t)) {
      in[idx] = 1;
      alpha_t[idx] = s.alpha_tentative(i, t);
    }
  }

  const auto fidx = static_cast<std::size_t>(faulty);
  const double alpha_f = f.alpha;
  double tU_f = f.tU;
  int k = s.platform->free_count();
  bool changed_any = false;
  const CandidateProber probe_faulty(s, t, faulty, alpha_f);

  // Phase 1 (Alg. 4 lines 12-25): hand idle pairs to the faulty task. The
  // first improving growth q is granted at once, then re-probe.
  while (k >= 2) {
    int grant = -1;
    double grant_tE = 0.0;
    for (int q = 2; q <= k; q += 2) {
      const double tE = probe_faulty(new_sigma[fidx] + q);
      if (tE < tU_f) {
        grant = q;  // the paper's qmax: first (smallest) improving growth
        grant_tE = tE;
        break;
      }
    }
    if (grant < 0) break;  // NOTE(paper): Alg. 4 omits this break; without
                           // it the printed `while k >= 2` never exits when
                           // the faulty task stops being improvable.
    new_sigma[fidx] += grant;
    k -= grant;
    // The grant lands exactly on the target the scan just found improving.
    tU_f = grant_tE;
    changed_any = true;
  }

  // Phase 2 (Alg. 4 lines 27-41): steal pairs from the shortest task.
  // NOTE(paper): the printed guard `while improvable` would skip this
  // phase whenever phase 1 did not fire (e.g. zero idle processors), which
  // contradicts the prose "if the faulty task is still improvable, we try
  // to take processors from shortest tasks"; we enter unconditionally and
  // keep the loop's internal exit conditions.
  while (true) {
    int victim = -1;
    double shortest = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!in[idx] || i == faulty || new_sigma[idx] < 4) continue;
      if (tU[idx] < shortest) {
        shortest = tU[idx];
        victim = i;
      }
    }
    if (victim < 0) break;
    const auto vidx = static_cast<std::size_t>(victim);
    const CandidateProber probe_victim(s, t, victim, alpha_t[vidx]);

    bool improvable = false;
    double first_tE_f = 0.0;  // q = 2 probes, reused by the pair transfer
    double first_tE_s = 0.0;
    for (int q = 2; q <= new_sigma[vidx] - 2; q += 2) {
      const double tE_f = probe_faulty(new_sigma[fidx] + q);
      const double tE_s = probe_victim(new_sigma[vidx] - q);
      if (q == 2) {
        first_tE_f = tE_f;
        first_tE_s = tE_s;
      }
      // Steal only if the faulty task improves and the shrunk victim stays
      // shorter than the faulty task's current expectation (lines 30-32).
      if (tE_f < tU_f && tE_s < tU_f) {
        improvable = true;
        break;
      }
    }
    if (!improvable) break;

    new_sigma[fidx] += 2;  // transfers are pair-by-pair (lines 35-36)
    new_sigma[vidx] -= 2;
    tU_f = first_tE_f;
    tU[vidx] = first_tE_s;
    changed_any = true;
    if (tU[vidx] > tU_f) break;  // line 39: the victim became the bottleneck
  }

  if (changed_any) s.commit(t, faulty, new_sigma, alpha_t);
  return changed_any;
}

}  // namespace coredis::core::detail
