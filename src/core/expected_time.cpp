#include "core/expected_time.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/detail/eq4_simd.hpp"
#include "util/contracts.hpp"

namespace coredis::core {

namespace detail {
namespace {

/// One-time bitwise self-check of the vector kernel against the scalar
/// raw_kernel compiled in this (baseline) translation unit. The probe set
/// is deterministic and spans the interesting regimes: lambda·tau across
/// ~40 decades (denormal through overflow), expm1 arguments straddling
/// both ends of the vectorized k == 0 domain, zero work, boundary-exact
/// period multiples, and every residual tail length. Any mismatch retires
/// the vector path for the process lifetime — the documented exact-
/// fallback trigger (DESIGN.md section 6.6).
bool eq4_self_check() {
  constexpr std::size_t kCount = 512;
  constexpr std::size_t kBlock = 64;
  std::vector<double> t_ij(kCount), tau(kCount), cost(kCount), lam(kCount),
      fac(kCount), emt(kCount);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  const auto uniform = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 11) * 0x1p-53;
  };
  for (std::size_t k = 0; k < kCount; ++k) {
    // lambda spans ~40 decades so lambda * tau_last covers denormals,
    // both k == 0 domain boundaries (2^-54 and 0.5 ln 2) and overflow.
    lam[k] = std::exp((uniform() * 2.0 - 1.0) * 46.0);
    tau[k] = (0.5 + uniform()) / lam[k];
    cost[k] = tau[k] * 0.1 * uniform();
    t_ij[k] = (tau[k] - cost[k]) * (uniform() * 40.0 + 1e-3);
    if (k % 11 == 0)  // exact period multiple: tau_last underflows to ~0
      t_ij[k] = (tau[k] - cost[k]) * static_cast<double>(1 + k % 9);
    fac[k] = std::exp(lam[k] * cost[k]) * (1.0 / lam[k] + 60.0);
    emt[k] = std::expm1(lam[k] * tau[k]);
  }
  // Pin lanes exactly onto the vector/libm boundary cases; block 0 runs
  // at alpha = 1, so each lane's lambda is its expm1 argument.
  const double edges[] = {0x1p-55,    0x1p-54,    0x1.8p-54, 0.34657,
                          0.34657359, 0.3466,     1.0,       709.0,
                          710.0,      5e-324,     1e-308,    0.0};
  for (std::size_t k = 0; k < std::size(edges); ++k) {
    t_ij[k] = 1.0;
    tau[k] = 3.0;
    cost[k] = 1.0;  // tau - C = 2: n_ff = 0, tau_last = alpha * t_ij
    lam[k] = edges[k];
  }

  const auto lanes_from = [&](std::size_t at) {
    return Eq4Lanes{t_ij.data() + at, tau.data() + at, cost.data() + at,
                    lam.data() + at,  fac.data() + at, emt.data() + at};
  };
  std::vector<double> got(kBlock);
  const auto matches = [&got](const Eq4Lanes& lanes, double alpha,
                              std::size_t count) {
    eq4_probe_row(lanes, alpha, count, got.data());
    for (std::size_t k = 0; k < count; ++k) {
      const double want = ExpectedTimeModel::raw_kernel(alpha, lanes, k);
      if (std::memcmp(&got[k], &want, sizeof(double)) != 0) return false;
    }
    return true;
  };
  // Every residual tail length, then the blocks at one alpha each: 1
  // (the edge lanes' block), 0 (zero work) and interior fractions.
  for (std::size_t count = 1; count <= 9; ++count)
    if (!matches(lanes_from(0), 1.0, count)) return false;
  for (std::size_t at = 0; at < kCount; at += kBlock) {
    const double alpha = at % (3 * kBlock) == 0 ? 1.0
                         : at == kBlock        ? 0.0
                                               : uniform();
    if (!matches(lanes_from(at), alpha, kBlock)) return false;
  }
  return true;
}

}  // namespace

bool eq4_simd_active() {
  static const bool active = [] {
    // COREDIS_NO_SIMD=1 forces the scalar loops and 0 keeps the default;
    // any other value is named once on stderr and ignored, so a
    // misspelt switch cannot pass a vector run off as a scalar one.
    bool disabled = false;
    if (const char* env = std::getenv("COREDIS_NO_SIMD")) {
      disabled = std::strcmp(env, "1") == 0;
      if (!disabled && std::strcmp(env, "0") != 0)
        std::fprintf(stderr,
                     "coredis: COREDIS_NO_SIMD='%s' is neither 0 nor 1; "
                     "ignoring it\n",
                     env);
    }
    return !disabled && eq4_simd_compiled() && eq4_simd_cpu_supported() &&
           eq4_self_check();
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
  even_.resize(n);
  odd_.resize(n);
}

void ExpectedTimeModel::Row::resize(std::size_t n) {
  COREDIS_EXPECTS(n > size);
  if (n > capacity) {
    // Geometric growth, as std::vector::resize does it: rows deepen a
    // few entries at a time, and a capacity of exactly n would copy the
    // whole row on every step. The buffer is left uninitialized, so each
    // lane's slack past n is never touched and costs no resident memory.
    // The copy is a byte copy of every lane's [0, size), filled entries
    // or not: an unfilled entry has only lane 0 written, and its other
    // lanes carry indeterminate bytes until its fill.
    const std::size_t grown = std::max(n, 2 * size);
    auto next = std::make_unique_for_overwrite<double[]>(kLanes * grown);
    if (size > 0)
      for (std::size_t l = 0; l < kLanes; ++l)
        std::memcpy(next.get() + l * grown, lane(l), size * sizeof(double));
    buffer = std::move(next);
    capacity = grown;
  }
  std::fill(buffer.get() + size, buffer.get() + n, -1.0);  // unfilled
  size = n;
}

void ExpectedTimeModel::fill(int task, int j, Row& row, std::size_t k) const {
  if (row.size <= k) row.resize(k + 1);
  row.lane(0)[k] = pack_->fault_free_time(task, j);
  fill_eq4(task, j, row, k);
}

void ExpectedTimeModel::fill_eq4(int task, int j, Row& row,
                                 std::size_t k) const {
  // The arithmetic mirrors the *_reference paths exactly so cached and
  // uncached evaluations agree bit for bit.
  COREDIS_EXPECTS(!resilience_->fault_free());
  ++eq4_fills_;
  const double seq = seq_ckpt_[static_cast<std::size_t>(task)];
  const double lambda_j = resilience_->task_rate(j);
  const double tau = resilience_->period(seq, j);
  const double cost = resilience_->cost(seq, j);
  const double recovery = resilience_->recovery(seq, j);
  // Readers take R_{i,j} from the cost lane, and tau - C from the same
  // subtraction as here; the period rule must leave room for useful work.
  COREDIS_ASSERT(recovery == cost);
  COREDIS_ASSERT(tau - cost > 0.0);
  row.lane(1)[k] = tau;
  row.lane(2)[k] = cost;
  row.lane(3)[k] = lambda_j;
  row.lane(4)[k] = std::exp(lambda_j * recovery) *
                   (1.0 / lambda_j + resilience_->downtime());
  row.lane(5)[k] = std::expm1(lambda_j * tau);
}

void ExpectedTimeModel::grow_row(int task, std::size_t h_count) const {
  Row& row = even_[static_cast<std::size_t>(task)];
  if (row.size < h_count) row.resize(h_count);
  std::size_t h = row.dense;
  while (h < h_count) {
    if (row.filled(h)) {
      ++h;
      continue;
    }
    // A run of unfilled entries: its t_{i,j} lane in one profile call.
    std::size_t end = h + 1;
    while (end < h_count && !row.filled(end)) ++end;
    pack_->even_fault_free_times(task, 2 * static_cast<int>(h) + 2, end - h,
                                 row.lane(0) + h);
    for (; h < end; ++h) fill_eq4(task, 2 * (static_cast<int>(h) + 1), row, h);
  }
  row.dense = h_count;
}

std::uint64_t ExpectedTimeModel::row_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const std::vector<Row>* rows : {&even_, &odd_})
    for (const Row& row : *rows) bytes += Row::kLanes * row.capacity;
  return bytes * sizeof(double);
}

void ExpectedTimeModel::probe_many(int task, int h_begin, int h_end,
                                   double alpha, double* out) const {
  COREDIS_EXPECTS(task >= 0 && task < pack_->size());
  COREDIS_EXPECTS(0 <= h_begin && h_begin <= h_end);
  COREDIS_EXPECTS(alpha >= 0.0 && alpha <= 1.0);
  if (h_begin == h_end) return;
  const auto first = static_cast<std::size_t>(h_begin);
  const auto count = static_cast<std::size_t>(h_end - h_begin);
  if (alpha == 0.0) {  // expected_time_raw's early-out, batched
    std::fill(out, out + count, 0.0);
    return;
  }
  if (resilience_->fault_free()) {  // alpha t_{i,j}, section 3.3.1
    pack_->even_fault_free_times(task, 2 * h_begin + 2, count, out);
    for (std::size_t k = 0; k < count; ++k) out[k] = alpha * out[k];
    return;
  }
  ensure_row(task, first + count);
  const detail::Eq4Lanes c = even_[static_cast<std::size_t>(task)].lanes(first);
  // Vector lanes when live (DESIGN.md section 6.6): bit-identical to the
  // scalar loop below by the kernel's construction and the process
  // self-check. Short batches stay scalar: below one vector width the
  // kernel's setup is not worth it.
  if (count >= 4 && detail::eq4_simd_active()) {
    detail::eq4_probe_row(c, alpha, count, out);
    return;
  }
  // One raw_kernel per entry: identical arithmetic to the scalar queries
  // by construction (shared inline kernel over the same bits).
  for (std::size_t k = 0; k < count; ++k) out[k] = raw_kernel(alpha, c, k);
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

std::uint64_t TrEvaluator::column_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const auto& slots : slots_)
    for (const Slot& slot : slots) bytes += slot.prefix_min.capacity();
  return bytes * sizeof(double);
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

}  // namespace coredis::core
