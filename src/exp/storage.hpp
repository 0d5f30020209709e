#pragma once

/// \file storage.hpp
/// The cell layout and the bounded result spill of a grid run
/// (DESIGN.md section 7.5). Neither can reach an output byte: the queue
/// is a pure function of the repetition counts and the spill returns the
/// exact bytes it was given.
///
/// Thread safety: `CellQueue::at` is const and safe to call concurrently
/// after construction. `ResultSpill` is *externally synchronized* — the
/// in-order committer already serializes commits under its mutex, so the
/// spill does not pay for a second lock.

#include <cstddef>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace coredis::exp {

/// One cell of the flattened grid: which scenario point it evaluates and
/// which Monte-Carlo repetition it is.
struct CellRef {
  std::size_t point = 0;
  std::size_t rep = 0;
};

/// The flattened (point, repetition) layout of a run, cell index ->
/// CellRef: point i contributes runs_per_point[i] consecutive cells. The
/// layout is arithmetic — one prefix-sum offset per point, `at(k)` a
/// binary search — so RAM is O(points) however large the grid is.
class CellQueue {
 public:
  explicit CellQueue(const std::vector<std::size_t>& runs_per_point);

  /// Precondition: index < size().
  [[nodiscard]] CellRef at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const noexcept { return offsets_.back(); }

 private:
  /// offsets_[i] is point i's first cell; the last entry is size().
  std::vector<std::size_t> offsets_;
};

/// A one-line factory with a one-value selector, kept only because
/// perfbench/src/grid.cpp spells `make_cell_queue(StorageKind::Ram,
/// runs)` and the benchmark's sources change only together with the
/// benchmark; the next benchmark change can construct CellQueue directly
/// and drop both.
enum class StorageKind { Ram };
[[nodiscard]] std::unique_ptr<CellQueue> make_cell_queue(
    StorageKind kind, const std::vector<std::size_t>& runs_per_point);

/// Record payload the in-order committer's spill keeps in RAM.
inline constexpr std::size_t kSpillRamBudgetBytes = std::size_t{16} << 20;

/// Holds byte records keyed by cell index until the committer drains
/// them in order; put/take round-trip the exact bytes. Payloads stay in
/// RAM up to `ram_budget_bytes`; the rest go to one scratch file in
/// std::filesystem::temp_directory_path() (which honours TMPDIR),
/// created on the first overflow. Its name is removed right after it is
/// opened (POSIX; elsewhere the destructor removes it), so no scratch
/// name outlives even a kill -9, and a drained overflow closes the file,
/// so disk use is bounded by the worst backlog.
class ResultSpill {
 public:
  explicit ResultSpill(std::size_t ram_budget_bytes);
  ResultSpill(const ResultSpill&) = delete;
  ResultSpill& operator=(const ResultSpill&) = delete;
  ~ResultSpill();

  /// Store `record` under `index` (indices are unique until taken).
  void put(std::size_t index, std::string_view record);
  /// Remove the record at `index` into `out`; false when absent.
  [[nodiscard]] bool take(std::size_t index, std::string& out);
  /// Records currently held.
  [[nodiscard]] std::size_t pending() const noexcept {
    return hot_.size() + spilled_.size();
  }
  /// Bytes of record payload currently resident in RAM (at most the
  /// budget).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return resident_;
  }

 private:
  struct Extent {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  void close_scratch() noexcept;

  std::size_t budget_;
  std::map<std::size_t, std::string> hot_;
  std::map<std::size_t, Extent> spilled_;
  std::size_t resident_ = 0;
  std::FILE* scratch_ = nullptr;  ///< opened on the first overflow
  std::string scratch_name_;      ///< still to remove (non-POSIX only)
  std::size_t end_ = 0;           ///< append offset in the scratch file
};

}  // namespace coredis::exp
