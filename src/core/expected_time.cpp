#include "core/expected_time.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/detail/eq4_simd.hpp"
#include "util/contracts.hpp"

namespace coredis::core {

namespace detail {
namespace {

/// One-time bitwise self-check of every vector kernel against the scalar
/// expressions compiled in this (baseline) translation unit. The probe
/// set is deterministic and spans the interesting regimes: lambda·tau
/// across ~40 decades (denormal through overflow), expm1 arguments
/// straddling both ends of the vectorized k == 0 domain, zero work,
/// boundary-exact period multiples, and every residual tail length.
/// Any mismatch retires the vector path for the process lifetime — the
/// documented exact-fallback trigger (DESIGN.md section 6.6).
bool eq4_self_check() {
  constexpr std::size_t kCount = 512;
  std::vector<double> t_ij(kCount), tmc(kCount), lam(kCount), fac(kCount),
      emt(kCount), alpha(kCount);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  const auto uniform = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 11) * 0x1p-53;
  };
  for (std::size_t k = 0; k < kCount; ++k) {
    // lambda spans ~40 decades so lambda * tau_last covers denormals,
    // both k == 0 domain boundaries (2^-54 and 0.5 ln 2) and overflow.
    lam[k] = std::exp((uniform() * 2.0 - 1.0) * 46.0);
    const double tau = (0.5 + uniform()) / lam[k];
    const double cost = tau * 0.1 * uniform();
    tmc[k] = tau - cost;
    t_ij[k] = tmc[k] * (uniform() * 40.0 + 1e-3);
    alpha[k] = k % 7 == 0 ? 0.0 : uniform();
    if (k % 11 == 0)  // exact period multiple: tau_last underflows to ~0
      t_ij[k] = tmc[k] * static_cast<double>(1 + k % 9);
    if (k % 13 == 0) alpha[k] = 1.0;
    fac[k] = std::exp(lam[k] * cost) * (1.0 / lam[k] + 60.0);
    emt[k] = std::expm1(lam[k] * tau);
  }
  // Pin lanes exactly onto the vector/libm boundary cases.
  const double edges[] = {0x1p-55,    0x1p-54,    0x1.8p-54, 0.34657,
                          0.34657359, 0.3466,     1.0,       709.0,
                          710.0,      5e-324,     1e-308,    0.0};
  for (std::size_t k = 0; k < std::size(edges); ++k) {
    t_ij[k] = 1.0;
    tmc[k] = 2.0;  // n_ff = 0, tau_last = alpha * t_ij
    alpha[k] = 1.0;
    lam[k] = edges[k];
  }

  const Eq4Lanes lanes{t_ij.data(), tmc.data(), lam.data(), fac.data(),
                       emt.data()};
  std::vector<double> got(kCount), want(kCount);
  for (std::size_t k = 0; k < kCount; ++k) {
    ExpectedTimeModel::Coeffs c;
    c.t_ij = t_ij[k];
    c.tau_minus_cost = tmc[k];
    c.lambda_j = lam[k];
    c.factor = fac[k];
    c.expm1_tau = emt[k];
    want[k] = ExpectedTimeModel::raw_kernel(alpha[k], c);
  }
  const auto identical = [](const double* a, const double* b, std::size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
  };
  // Every residual tail length, then the full batch.
  for (std::size_t count = 1; count <= 9; ++count) {
    eq4_probe_row(lanes, alpha[0], count, got.data());
    for (std::size_t k = 0; k < count; ++k) {
      ExpectedTimeModel::Coeffs c;
      c.t_ij = t_ij[k];
      c.tau_minus_cost = tmc[k];
      c.lambda_j = lam[k];
      c.factor = fac[k];
      c.expm1_tau = emt[k];
      if (got[k] != ExpectedTimeModel::raw_kernel(alpha[0], c) &&
          !(std::isnan(got[k]) &&
            std::isnan(ExpectedTimeModel::raw_kernel(alpha[0], c))))
        return false;
    }
  }
  eq4_probe_gather(lanes, alpha.data(), kCount, got.data());
  return identical(got.data(), want.data(), kCount);
}

}  // namespace

bool eq4_simd_active() {
  static const bool active = [] {
    if (!eq4_simd_compiled() || !eq4_simd_cpu_supported()) return false;
    if (const char* env = std::getenv("COREDIS_NO_SIMD"))
      if (env[0] == '1' && env[1] == '\0') return false;
    return eq4_self_check();
  }();
  return active;
}

}  // namespace detail

ExpectedTimeModel::ExpectedTimeModel(const Pack& pack,
                                     const checkpoint::Model& resilience)
    : pack_(&pack), resilience_(&resilience) {
  const auto n = static_cast<std::size_t>(pack.size());
  seq_ckpt_.reserve(n);
  for (int i = 0; i < pack.size(); ++i)
    seq_ckpt_.push_back(resilience.sequential_cost(pack.task(i).data_size));
  table_even_.resize(n);
  table_odd_.resize(n);
  even_dense_.assign(n, 0);
  soa_even_.resize(n);
}

void ExpectedTimeModel::fill_coeffs(int task, int j, Coeffs& c) const {
  // The arithmetic mirrors the *_reference paths exactly so cached and
  // uncached evaluations agree bit for bit.
  c.t_ij = pack_->fault_free_time(task, j);
  if (!resilience_->fault_free()) {
    const double seq = seq_ckpt_[static_cast<std::size_t>(task)];
    c.lambda_j = resilience_->task_rate(j);
    c.tau = resilience_->period(seq, j);
    c.cost = resilience_->cost(seq, j);
    c.recovery = resilience_->recovery(seq, j);
    c.tau_minus_cost = c.tau - c.cost;
    // The period rule must leave room for useful work (the seed asserted
    // this on every query; once at fill time covers the same inputs).
    COREDIS_ASSERT(c.tau_minus_cost > 0.0);
    c.factor = std::exp(c.lambda_j * c.recovery) *
               (1.0 / c.lambda_j + resilience_->downtime());
    c.expm1_tau = std::expm1(c.lambda_j * c.tau);
  }
}

void ExpectedTimeModel::grow_even_row(int task, std::size_t h_count) const {
  const auto ti = static_cast<std::size_t>(task);
  auto& row = table_even_[ti];
  // Geometric growth comes from resize itself (see coeffs()).
  if (row.size() <= h_count) row.resize(h_count + 1);
  // The SoA mirror grows in lockstep with the dense prefix; reserve all
  // five lanes up front so the per-entry appends never reallocate.
  const bool mirror = !resilience_->fault_free();
  SoaRow& soa = soa_even_[ti];
  if (mirror && soa.t_ij.capacity() < h_count) {
    const std::size_t cap = std::max(h_count, 2 * soa.t_ij.size());
    soa.t_ij.reserve(cap);
    soa.tau_minus_cost.reserve(cap);
    soa.lambda_j.reserve(cap);
    soa.factor.reserve(cap);
    soa.expm1_tau.reserve(cap);
  }
  for (std::size_t h = even_dense_[ti]; h < h_count; ++h) {
    Coeffs& c = row[h + 1];  // slot j/2: entry h covers j = 2(h+1)
    if (c.t_ij < 0.0) fill_coeffs(task, 2 * (static_cast<int>(h) + 1), c);
    if (mirror) {
      soa.t_ij.push_back(c.t_ij);
      soa.tau_minus_cost.push_back(c.tau_minus_cost);
      soa.lambda_j.push_back(c.lambda_j);
      soa.factor.push_back(c.factor);
      soa.expm1_tau.push_back(c.expm1_tau);
    }
  }
  even_dense_[ti] = h_count;
}

void ExpectedTimeModel::probe_many(int task, int h_begin, int h_end,
                                   double alpha, double* out) const {
  COREDIS_EXPECTS(0 <= h_begin && h_begin <= h_end);
  COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  if (h_begin == h_end) return;
  const Coeffs* recs = row_records(task, static_cast<std::size_t>(h_end));
  const auto lo = static_cast<std::size_t>(h_begin);
  const auto hi = static_cast<std::size_t>(h_end);
  if (alpha == 0.0) {  // expected_time_raw's early-out, batched
    std::fill(out, out + (hi - lo), 0.0);
    return;
  }
  if (resilience_->fault_free()) {
    for (std::size_t h = lo; h < hi; ++h) out[h - lo] = alpha * recs[h].t_ij;
    return;
  }
  // Vector lanes over the SoA mirror when live (DESIGN.md section 6.6):
  // bit-identical to the scalar loop below by the kernel's construction
  // and the process self-check. Short batches stay scalar — below one
  // vector width the AoS row is the cheaper read (one cache line per
  // record against five lane touches).
  if (hi - lo >= 4 && detail::eq4_simd_active()) {
    const SoaRow& soa = soa_even_[static_cast<std::size_t>(task)];
    const detail::Eq4Lanes lanes{
        soa.t_ij.data() + lo, soa.tau_minus_cost.data() + lo,
        soa.lambda_j.data() + lo, soa.factor.data() + lo,
        soa.expm1_tau.data() + lo};
    detail::eq4_probe_row(lanes, alpha, hi - lo, out);
    return;
  }
  // One raw_kernel per record: identical arithmetic to the scalar queries
  // by construction (shared inline kernel over the same bits); the
  // coefficient loads stream one cache line per allocation.
  for (std::size_t h = lo; h < hi; ++h)
    out[h - lo] = raw_kernel(alpha, recs[h]);
}

void ExpectedTimeModel::probe_tasks(const int* tasks, const int* js,
                                    const double* alphas, std::size_t count,
                                    double* out) const {
  // Fault-free queries are a multiply each, and without live vector
  // lanes the gather would only add a copy: both run the scalar query.
  if (count == 0) return;
  if (resilience_->fault_free() || !detail::eq4_simd_active()) {
    for (std::size_t k = 0; k < count; ++k)
      out[k] = expected_time_raw(tasks[k], js[k], alphas[k]);
    return;
  }
  // Transpose the scattered records into contiguous lanes. alpha == 0
  // elements need no special case: raw_kernel degenerates to
  // factor * (0 * expm1_tau + expm1(0)) = +0.0, the early-out's exact
  // bits.
  gather_.resize(6 * count);
  double* t_ij = gather_.data();
  double* tmc = t_ij + count;
  double* lam = tmc + count;
  double* fac = lam + count;
  double* emt = fac + count;
  double* al = emt + count;
  for (std::size_t k = 0; k < count; ++k) {
    COREDIS_EXPECTS(alphas[k] >= 0.0 && alphas[k] <= 1.0);
    const Coeffs& c = coeffs(tasks[k], js[k]);
    t_ij[k] = c.t_ij;
    tmc[k] = c.tau_minus_cost;
    lam[k] = c.lambda_j;
    fac[k] = c.factor;
    emt[k] = c.expm1_tau;
    al[k] = alphas[k];
  }
  const detail::Eq4Lanes lanes{t_ij, tmc, lam, fac, emt};
  detail::eq4_probe_gather(lanes, al, count, out);
}

void ExpectedTimeModel::probe_many_reference(int task, int h_begin, int h_end,
                                             double alpha, double* out) const {
  for (int h = h_begin; h < h_end; ++h)
    out[h - h_begin] = expected_time_raw(task, 2 * (h + 1), alpha);
}

double ExpectedTimeModel::expected_time(int task, int j, double alpha) const {
  COREDIS_EXPECTS(j >= 2 && j % 2 == 0);
  double best = std::numeric_limits<double>::infinity();
  for (int h = 2; h <= j; h += 2)
    best = std::min(best, expected_time_raw(task, h, alpha));  // Eq. 6
  return best;
}

double ExpectedTimeModel::expected_time_raw_reference(int task, int j,
                                                      double alpha) const {
  COREDIS_EXPECTS(j >= 1);
  COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  if (alpha == 0.0) return 0.0;
  const double t_ij = pack_->fault_free_time(task, j);
  if (resilience_->fault_free()) return alpha * t_ij;  // section 3.3.1

  const double seq = resilience_->sequential_cost(pack_->task(task).data_size);
  const double lambda_j = resilience_->task_rate(j);
  const double tau = resilience_->period(seq, j);
  const double cost = resilience_->cost(seq, j);
  const double recovery = resilience_->recovery(seq, j);
  COREDIS_ASSERT(tau > cost);
  const double n_ff = std::floor(alpha * t_ij / (tau - cost));     // Eq. 2
  const double tau_last = alpha * t_ij - n_ff * (tau - cost);      // Eq. 3
  COREDIS_ASSERT(tau_last >= -1e-9);

  const double factor = std::exp(lambda_j * recovery) *
                        (1.0 / lambda_j + resilience_->downtime());
  return factor * (n_ff * std::expm1(lambda_j * tau) +
                   std::expm1(lambda_j * std::max(tau_last, 0.0)));  // Eq. 4
}

double ExpectedTimeModel::simulated_duration_reference(int task, int j,
                                                       double alpha) const {
  COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  if (alpha == 0.0) return 0.0;
  const double work = alpha * pack_->fault_free_time(task, j);
  if (resilience_->fault_free()) return work;
  const double seq = resilience_->sequential_cost(pack_->task(task).data_size);
  const double tau = resilience_->period(seq, j);
  const double cost = resilience_->cost(seq, j);
  const double ratio = work / (tau - cost);
  double full_periods = std::floor(ratio);
  if (ratio - full_periods > 1.0 - 1e-9) full_periods += 1.0;
  const double remainder = work - full_periods * (tau - cost);
  if (remainder <= 1e-9 * work && full_periods > 0.0) full_periods -= 1.0;
  return work + full_periods * cost;
}

TrEvaluator::TrEvaluator(const ExpectedTimeModel& model, int max_processors)
    : model_(&model), max_j_(max_processors) {
  COREDIS_EXPECTS(max_processors >= 2 && max_processors % 2 == 0);
  slots_.resize(static_cast<std::size_t>(model.pack().size()));
}

void TrEvaluator::Column::extend(std::size_t want) const {
  auto& pm = slot_->prefix_min;
  const std::size_t have = pm.size();
  pm.resize(want);  // geometric capacity growth: columns deepen in steps
  *fills_ += want - have;
  // Batch fill straight into the column: probe_many streams the raw Eq. 4
  // values (independent expm1 calls overlap in the pipeline), then the
  // in-place sweep applies the exact Eq. 6 prefix-min — the same std::min
  // sequence as the one-at-a-time loop, on the same bits.
  model_->probe_many(task_, static_cast<int>(have), static_cast<int>(want),
                     alpha_, pm.data() + have);
  double running =
      have == 0 ? std::numeric_limits<double>::infinity() : pm[have - 1];
  for (std::size_t h = have; h < want; ++h) {
    running = std::min(running, pm[h]);
    pm[h] = running;
  }
}

TrEvaluator::Column TrEvaluator::column(int task, double alpha) {
  COREDIS_EXPECTS(task >= 0 && task < model_->pack().size());
  auto& row = slots_[static_cast<std::size_t>(task)];

  Slot* slot = nullptr;
  if (alpha == 1.0) {
    // The pinned full-work column (Algorithm 1 probes it at every run
    // start); never evicted by other alphas.
    slot = &row[0];
    if (slot->alpha != 1.0) {
      slot->alpha = 1.0;
      slot->prefix_min.clear();
    }
  } else {
    for (std::size_t s = 1; s < kSlotsPerTask; ++s)
      if (row[s].alpha == alpha) slot = &row[s];
    if (slot == nullptr) {
      // Evict a slot from a previous event if one exists (its alpha is
      // dead for the current rebuild); both hot means fall back to LRU.
      slot = &row[1];
      for (std::size_t s = 2; s < kSlotsPerTask; ++s) {
        Slot& cand = row[s];
        const bool cand_stale = cand.epoch < epoch_;
        const bool slot_stale = slot->epoch < epoch_;
        if (cand_stale != slot_stale ? cand_stale
                                     : cand.last_used < slot->last_used)
          slot = &cand;
      }
      slot->alpha = alpha;
      slot->prefix_min.clear();
    }
  }
  slot->last_used = ++clock_;
  slot->epoch = epoch_;
  return Column(model_, slot, &fills_, task, alpha);
}

void TrEvaluator::invalidate(int task) {
  COREDIS_EXPECTS(task >= 0 &&
                  static_cast<std::size_t>(task) < slots_.size());
  for (Slot& s : slots_[static_cast<std::size_t>(task)]) {
    s.alpha = -1.0;
    s.prefix_min.clear();
  }
}

}  // namespace coredis::core
