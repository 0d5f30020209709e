#include "exp/storage.hpp"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace coredis::exp {

CellQueue::CellQueue(const std::vector<std::size_t>& runs_per_point) {
  offsets_.reserve(runs_per_point.size() + 1);
  offsets_.push_back(0);
  for (const std::size_t runs : runs_per_point)
    offsets_.push_back(offsets_.back() + runs);
}

CellRef CellQueue::at(std::size_t index) const {
  COREDIS_EXPECTS(index < size());
  // The last offset not above `index` is the cell's point; an empty
  // point repeats its successor's offset and is stepped over.
  const auto next = std::upper_bound(offsets_.begin(), offsets_.end(), index);
  const std::size_t point =
      static_cast<std::size_t>(next - offsets_.begin()) - 1;
  return {point, index - offsets_[point]};
}

std::unique_ptr<CellQueue> make_cell_queue(
    StorageKind, const std::vector<std::size_t>& runs_per_point) {
  return std::make_unique<CellQueue>(runs_per_point);
}

ResultSpill::ResultSpill(std::size_t ram_budget_bytes)
    : budget_(ram_budget_bytes) {}

ResultSpill::~ResultSpill() { close_scratch(); }

void ResultSpill::put(std::size_t index, std::string_view record) {
  if (resident_ + record.size() <= budget_) {
    resident_ += record.size();
    hot_.emplace(index, std::string(record));
    return;
  }
  if (scratch_ == nullptr) {
    // Exclusive creation ("x") under a random name: concurrent spills of
    // cooperating processes sharing one temp directory cannot alias.
    const std::filesystem::path dir = std::filesystem::temp_directory_path();
    std::random_device entropy;
    for (int attempt = 0; attempt < 8 && scratch_ == nullptr; ++attempt) {
      scratch_name_ = (dir / ("coredis_spill_" + std::to_string(entropy()) +
                              "_" + std::to_string(entropy()) + ".bin"))
                          .string();
      scratch_ = std::fopen(scratch_name_.c_str(), "wb+x");
      if (scratch_ == nullptr && errno != EEXIST) break;
    }
    if (scratch_ == nullptr)
      throw std::runtime_error("storage: cannot create a spill file in " +
                               dir.string());
#if defined(__unix__) || defined(__APPLE__)
    // An unlinked file lives until its descriptor closes: no name is
    // left for a crash to strand.
    std::remove(scratch_name_.c_str());
    scratch_name_.clear();
#endif
  }
  if (std::fseek(scratch_, static_cast<long>(end_), SEEK_SET) != 0 ||
      std::fwrite(record.data(), 1, record.size(), scratch_) != record.size())
    throw std::runtime_error("storage: cannot append to the spill file");
  spilled_.emplace(index, Extent{end_, record.size()});
  end_ += record.size();
}

bool ResultSpill::take(std::size_t index, std::string& out) {
  if (const auto hot = hot_.find(index); hot != hot_.end()) {
    out = std::move(hot->second);
    resident_ -= out.size();
    hot_.erase(hot);
    return true;
  }
  const auto cold = spilled_.find(index);
  if (cold == spilled_.end()) return false;
  out.resize(cold->second.size);
  if (std::fseek(scratch_, static_cast<long>(cold->second.offset),
                 SEEK_SET) != 0 ||
      std::fread(out.data(), 1, out.size(), scratch_) != out.size())
    throw std::runtime_error("storage: cannot read back a spilled record");
  spilled_.erase(cold);
  // A drained overflow gives its disk back; the next one starts afresh.
  if (spilled_.empty()) close_scratch();
  return true;
}

void ResultSpill::close_scratch() noexcept {
  if (scratch_ == nullptr) return;
  std::fclose(scratch_);
  scratch_ = nullptr;
  end_ = 0;
  if (!scratch_name_.empty()) std::remove(scratch_name_.c_str());
  scratch_name_.clear();
}

}  // namespace coredis::exp
