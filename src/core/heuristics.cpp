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
/// the verdict is almost always the same as last time. Eq. 4 is never
/// below the fault-free time alpha t_ij of the same work, so the lazy path
/// first clears targets with that bound: a few flops over t_ij and C_ij,
/// both priced on the fly, and no coefficient row or Eq. 4 column. A
/// verdict the bound proves at the committed state holds at every later
/// time until the task's next commit or rollback, so it is cached and
/// the task is dropped in O(1) while the pool is no larger; a larger pool
/// only clears its new targets. Probes themselves are never approximated:
/// where the bound refuses a target, the exact probe and scan decide, and
/// the from-scratch exact scan also survives unconditionally behind
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
      if (i != faulty && t > rt.tlastR)
        checkpoints_taken += static_cast<long long>(
            std::floor((t - rt.tlastR) / rt.at_sigma.tau));
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
    set_sigma(i, target);
    rt.tlastR = base + rc + rt.at_sigma.cost;  // + C_{i,target}
    rt.tU = rt.tlastR + (*tr)(i, target, rt.alpha);
    refresh_projection(i);
    touch(i);  // cached scan verdicts die with the old committed state
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

/// Passes over fewer targets than this stay scalar: on small
/// pools (p = 16) the vector set-up costs more than it saves.
constexpr std::size_t kVectorMin = 8;

/// The scalar loop of scan_targets over entries [k, count), past a
/// vector body that covered [0, k).
std::size_t scan_targets_from(const TargetPass& p, std::size_t k,
                              std::size_t count) {
  for (; k < count; ++k) {
    const int j = p.first + 2 * static_cast<int>(k);
    // ProbeBase::rc above sigma_init: max(min(from, j), j - from) rounds.
    const double rounds = static_cast<double>(std::max(p.from, j - p.from));
    const double rc =
        p.zero_rc ? 0.0
                  : rounds * (1.0 / static_cast<double>(j)) * p.m_over_from;
    const double x = p.t + rc + p.seq_ckpt / static_cast<double>(j) + p.col[k];
    if (p.stop == Stop::Below ? x < p.tU : !(x >= p.tU)) return k;
  }
  return count;
}

/// The fault-free bound's slack (DESIGN.md section 6.5): a bound pass
/// compares alpha m (1 - 2^-30) against tU + |tU| 2^-30, which covers the
/// rounding of raw_kernel and of every later evaluation of the probe.
constexpr double kSlack = 0x1p-30;

/// Chunk of a bound pass: an early refusal prices at most this many
/// targets, and the fault-free times are priced this many at a time.
constexpr std::size_t kBoundChunk = 64;

/// min t_{i,j} over the even j = 2 .. 2 count, priced on the fly from
/// the task's profile a chunk at a time (no row holds t_{i,j}): the
/// running minimum a fresh EndLocal verdict starts from (j <= sigma) and
/// the regrow walk's bound (j <= sigma_init - 2). +inf for count = 0.
double min_fault_free_time(const Pack& pack, int task, std::size_t count) {
  double t_ij[kBoundChunk];
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t done = 0; done < count; done += kBoundChunk) {
    const std::size_t chunk = std::min(kBoundChunk, count - done);
    pack.even_fault_free_times(task, 2 * static_cast<int>(done) + 2, chunk,
                               t_ij);
    for (std::size_t k = 0; k < chunk; ++k) m = std::min(m, t_ij[k]);
  }
  return m;
}

/// Clear `count` targets of a task with the fault-free bound (DESIGN.md
/// section 6.5). `pass` holds the targets' base terms and tU. Eq. 4 at
/// alpha is >= alpha t_ij, so the Eq. 6 prefix-min at target j is >=
/// alpha m_j, m_j the running minimum of t_ij over even j' <= j, each
/// chunk's t_ij priced on the fly; `m` enters as the minimum over the
/// entries below the first target and leaves covering every target
/// cleared. IEEE addition is monotone, so a target whose fl(base +
/// alpha m_j (1 - 2^-30)) >= tU + |tU| 2^-30 cannot improve, now or at
/// any later time at the same committed state. Returns how many leading
/// targets were cleared (`count` for all).
std::size_t bound_clears(TargetPass pass, const Pack& pack, int task,
                         std::size_t count, double alpha, double& m) {
  double y[kBoundChunk];
  pass.tU += std::abs(pass.tU) * kSlack;
  pass.col = y;
  pass.stop = Stop::NotAtLeast;
  for (std::size_t done = 0; done < count; done += kBoundChunk) {
    const std::size_t chunk = std::min(kBoundChunk, count - done);
    pack.even_fault_free_times(task, pass.first, chunk, y);
    for (std::size_t k = 0; k < chunk; ++k) {
      m = std::min(m, y[k]);
      y[k] = alpha * m * (1.0 - kSlack);
    }
    const std::size_t stop = scan_targets(pass, chunk);
    if (stop < chunk) return done + stop;
    pass.first += 2 * static_cast<int>(chunk);
  }
  return count;
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

std::size_t scan_targets_scalar(const TargetPass& pass, std::size_t count) {
  return scan_targets_from(pass, 0, count);
}

std::size_t scan_targets(const TargetPass& pass, std::size_t count) {
  if (count < kVectorMin || !eq4_simd_active())
    return scan_targets_scalar(pass, count);
  const std::size_t body = count / 4 * 4;
  const std::size_t stop = scan_targets_row(pass, body);
  return stop < body ? stop : scan_targets_from(pass, body, count);
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
      // A cached verdict that already covers this call's pool never
      // reaches a scan — its pop would drop it unprobed (k only shrinks
      // within the call). Skip the heap entirely.
      const EngineState::ScanCache& cache =
          s.scan_cache[static_cast<std::size_t>(i)];
      if (cache.k >= k &&
          cache.version == s.version[static_cast<std::size_t>(i)]) {
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
    const int sigma = new_sigma[idx];
    const bool at_committed = sigma == s.task(i).sigma;
    // A verdict the bound proved at the same committed state.
    EngineState::ScanCache& cache = s.scan_cache[idx];
    if (!s.eager_scans && at_committed && cache.version == s.version[idx] &&
        cache.k >= k) {
      // It covers a scan at least as wide: provably still unimprovable,
      // dropped without probing anything.
      if (s.profile != nullptr) ++s.profile->verdict_drops;
      heap_drop_top(heap);
      continue;
    }

    // Alg. 3 line 8, computed on first actual scan of the task: with the
    // cached verdicts most pops never probe, so the per-event
    // all-included tentative-alpha sweep would be mostly dead work.
    alpha_t[idx] = s.alpha_tentative(i, t);
    // Improvability probe (Alg. 3 lines 10-15): first q that helps.
    bool improvable = false;
    double first_tE = 0.0;  // tE at new_sigma + 2, reused on grant
    if (s.eager_scans) {
      const CandidateProber probe(s, t, i, alpha_t[idx]);
      for (int q = 2; q <= k; q += 2) {
        const double tE = probe(sigma + q);
        if (q == 2) first_tE = tE;
        if (tE < tU[idx]) {
          improvable = true;
          break;
        }
      }
      if (s.profile != nullptr) ++s.profile->full_scans;
    } else {
      // The targets sigma + 2 .. sigma + k, entry h_first on.
      const ProbeBase base(s, t, i);
      const auto h_first = static_cast<std::size_t>(sigma) / 2;
      const auto count = static_cast<std::size_t>(k / 2);
      std::size_t cleared = 0;
      if (at_committed) {
        // First the fault-free bound over the targets no cached verdict
        // covers (a widening only has the new ones). A fresh version
        // starts from a verdict that covers none, whose running minimum
        // over j <= sigma is priced once.
        if (cache.version != s.version[idx])
          cache = {s.version[idx], 0,
                   min_fault_free_time(s.model->pack(), i, h_first)};
        const auto from = static_cast<std::size_t>(cache.k / 2);
        double m = cache.m;
        TargetPass bound = base.targets(sigma + 2 + 2 * static_cast<int>(from));
        bound.tU = tU[idx];
        cleared = from + bound_clears(bound, s.model->pack(), i, count - from,
                                      alpha_t[idx], m);
        if (cleared == count) {  // dropped for good, no Eq. 4 read
          if (s.profile != nullptr) {
            if (cache.k > 0)
              ++s.profile->bound_widenings;
            else
              ++s.profile->bound_proofs;
          }
          cache = {s.version[idx], k, m};
          heap_drop_top(heap);
          continue;
        }
      }
      // The bound refused a target, or the task was granted pairs this
      // call (its column is warm). The exact probe at sigma + 2 comes
      // first: a grant re-keys tU to it whichever target improves.
      const TrEvaluator::Column column = s.tr->column(i, alpha_t[idx]);
      first_tE = base(sigma + 2) + column(sigma + 2);
      improvable = first_tE < tU[idx];
      // Then the exact scan from the refused target on: the ones before
      // it are cleared. Its prefill streams the whole range in one
      // probe_many batch (independent expm1 calls overlap); value-neutral.
      const std::size_t rest = std::max<std::size_t>(cleared, 1);
      if (!improvable && rest < count) {
        if (s.profile != nullptr) ++s.profile->full_scans;
        (void)column(sigma + k);
        TargetPass pass = base.targets(sigma + 2 + 2 * static_cast<int>(rest));
        pass.tU = tU[idx];
        pass.col = column.prefix().data() + h_first + rest;
        improvable = scan_targets(pass, count - rest) < count - rest;
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
    // Most tasks skip the walk on a column-free bound; the others
    // prefill their tentative column to the committed depth in one
    // probe_many batch, and every walk key lies inside that prefill. The
    // rest is mechanics: the scan state is packed into one RegrowRow
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
      // the Eq. 9 factor, the free return to the committed allocation
      // (Alg. 5 line 16) and the walk's minimum t_ij (neither read when
      // sigma_init == 2 — targets start at 4).
      EngineState::FreeReturnCache& fc = s.free_return[idx];
      if (fc.version != s.version[idx]) {
        fc.version = s.version[idx];
        fc.m_over = s.model->pack().task(i).data_size /
                    static_cast<double>(sigma_init);
        fc.tE = sigma_init > 2
                    ? s.task(i).tlastR +
                          (*s.tr)(i, sigma_init, s.task(i).alpha)
                    : 0.0;
        if (sigma_init > 2)
          fc.t_min = min_fault_free_time(
              s.model->pack(), i, static_cast<std::size_t>(sigma_init / 2 - 1));
      }
      row.m_over = fc.m_over;
      row.free_tE = sigma_init > 2 ? fc.tE : s.task(i).tU;  // F_i
      // No column yet: phase A binds one only where its column-free bound
      // fails, phase B on a winner's first probe (the overshoot path).
      row.pm = nullptr;
      row.pm_len = 0;
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
      EngineState::Scratch::RegrowRow& row = rows[idx];
      const int sigma_init = row.sigma_init;
      int sigma = sigma_init;
      double key = row.free_tE;
      if (sigma_init > 2) {
        // Lower bounds on every walk key (targets j <= sigma_init - 2),
        // term by term in the key's own order (IEEE addition is
        // monotone): shrinking to j, Eq. 9 charges at least j rounds of
        // m / (sigma_init j) (0.999999 absorbs the rounding of its three
        // products), C_i / j >= C_i / (sigma_init - 2), and the prefix
        // minimum only falls with j. Column-free first: Eq. 4 >= alpha
        // t_ij, so the prefix minimum is >= alpha min_{j <= sigma_init -
        // 2} t_ij, shaved by the bound's slack; where that fails, the
        // exact prefix minimum at sigma_init - 2.
        const double rc_floor = zero_rc ? 0.0 : 0.999999 * row.m_over;
        const double lead =
            t + rc_floor + row.seq / static_cast<double>(sigma_init - 2);
        bool skip = lead + alpha_t[idx] * s.free_return[idx].t_min *
                               (1.0 - kSlack) >
                    threshold.first;
        if (!skip) {
          // Batched prefill to the committed depth + flat column view.
          const TrEvaluator::Column col = s.tr->column(i, alpha_t[idx]);
          (void)col(sigma_init);
          row.pm = col.prefix().data();
          row.pm_len = static_cast<int>(col.prefix().size());
          skip = lead + row.pm[sigma_init / 2 - 2] > threshold.first;
        }
        if (skip) {
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
            // Scan overshot the prefill, or the task skipped its walk
            // without one: bind and extend the column by a chunk
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
