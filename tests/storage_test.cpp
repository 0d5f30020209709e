/// Storage-layer tests (exp/storage.hpp): the arithmetic cell queue must
/// serve the hand-written (point, repetition) layout at any grid size
/// and trip its contract out of range; the result spill must round-trip
/// exact bytes out of order on both sides of its RAM budget, honour the
/// budget record by record, start over cleanly once drained, and never
/// leave a named scratch file in the temp directory.

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exp/storage.hpp"

namespace coredis::exp {
namespace {

TEST(CellQueueBackends, ServeTheSameLayoutInTheSameOrder) {
  // Mixed repetition counts, including an empty point.
  const CellQueue queue({3, 1, 0, 2});
  ASSERT_EQ(queue.size(), 6u);
  // The layout itself: points in order, repetitions contiguous, the
  // empty point 2 skipped.
  const std::vector<CellRef> expected{{0, 0}, {0, 1}, {0, 2},
                                      {1, 0}, {3, 0}, {3, 1}};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(queue.at(k).point, expected[k].point) << "cell " << k;
    EXPECT_EQ(queue.at(k).rep, expected[k].rep) << "cell " << k;
  }
  // The factory the benchmark harness spells builds the same queue.
  EXPECT_EQ(make_cell_queue(StorageKind::Ram, {3, 1, 0, 2})->at(4).point, 3u);
  EXPECT_EQ(CellQueue({}).size(), 0u);
  EXPECT_EQ(CellQueue({0, 0}).size(), 0u);
  EXPECT_DEATH((void)queue.at(6), "precondition");
}

TEST(CellQueueBackends, LayoutCostsOneOffsetPerPointAtAnyGridSize) {
  // Far more cells than any machine could tabulate one entry each: the
  // arithmetic layout answers every lookup from its five offsets.
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 4;
  const CellQueue queue({huge, 3, 0, huge});
  ASSERT_EQ(queue.size(), 2 * huge + 3);
  const auto expect_cell = [&](std::size_t index, std::size_t point,
                               std::size_t rep) {
    EXPECT_EQ(queue.at(index).point, point) << "cell " << index;
    EXPECT_EQ(queue.at(index).rep, rep) << "cell " << index;
  };
  expect_cell(0, 0, 0);
  expect_cell(huge - 1, 0, huge - 1);
  expect_cell(huge, 1, 0);
  expect_cell(huge + 2, 1, 2);
  expect_cell(huge + 3, 3, 0);  // the empty point 2 is stepped over
  expect_cell(2 * huge + 2, 3, huge - 1);
}

TEST(ResultSpillBackends, RoundTripExactBytesOutOfOrder) {
  // A 16-byte budget keeps the first record in RAM and overflows the
  // rest to the scratch file; an unlimited one keeps everything in RAM.
  for (const std::size_t budget : {std::size_t{16}, kSpillRamBudgetBytes}) {
    ResultSpill spill(budget);
    const std::vector<std::string> records{
        R"({"cell":0,"x":1})", R"({"cell":1,"y":"with \"quotes\""})",
        std::string(100, 'z'), "", R"({"cell":4})"};
    // Arrive out of order, as a parallel grid would deliver them.
    for (const std::size_t k : {3u, 1u, 4u, 0u, 2u})
      spill.put(k, records[k]);
    EXPECT_EQ(spill.pending(), records.size());

    std::string out;
    EXPECT_FALSE(spill.take(7, out)) << budget;
    for (std::size_t k = 0; k < records.size(); ++k) {
      ASSERT_TRUE(spill.take(k, out)) << budget << " cell " << k;
      EXPECT_EQ(out, records[k]) << budget << " cell " << k;
    }
    EXPECT_EQ(spill.pending(), 0u);
    EXPECT_FALSE(spill.take(0, out));
  }
}

TEST(ResultSpillBackends, FileSpillHonoursTheRamBudget) {
  const std::size_t budget = 64;
  ResultSpill spill(budget);
  // 20 records of 24 bytes: at most two fit the budget at a time.
  std::vector<std::string> records;
  for (std::size_t k = 0; k < 20; ++k)
    records.push_back("record-" + std::to_string(k) + "-" +
                      std::string(24 - 9 - std::to_string(k).size(), 'x'));
  for (std::size_t k = 0; k < records.size(); ++k) {
    spill.put(k, records[k]);
    EXPECT_LE(spill.resident_bytes(), budget) << "after put " << k;
  }
  EXPECT_EQ(spill.pending(), records.size());
  std::string out;
  for (std::size_t k = 0; k < records.size(); ++k) {
    ASSERT_TRUE(spill.take(k, out));
    EXPECT_EQ(out, records[k]);
    EXPECT_LE(spill.resident_bytes(), budget);
  }
  EXPECT_EQ(spill.pending(), 0u);
  EXPECT_EQ(spill.resident_bytes(), 0u);
  // A drained spill drops its scratch file and starts over cleanly, on
  // both sides of the budget.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < 5; ++k) spill.put(k, records[k]);
    for (std::size_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(spill.take(k, out)) << "round " << round << " cell " << k;
      EXPECT_EQ(out, records[k]) << "round " << round << " cell " << k;
    }
  }
  EXPECT_EQ(spill.pending(), 0u);
}

TEST(ResultSpillBackends, OversizedRecordOverflowsAloneAndSmallOnesStayHot) {
  // The budget is checked per record: one record larger than the whole
  // budget goes to the scratch file, and the small records after it still
  // fill the RAM budget instead of following it to disk.
  ResultSpill spill(32);
  const std::string big(100, 'b');
  spill.put(0, big);
  EXPECT_EQ(spill.resident_bytes(), 0u);
  spill.put(1, std::string(20, 's'));
  EXPECT_EQ(spill.resident_bytes(), 20u);
  spill.put(2, std::string(12, 't'));
  EXPECT_EQ(spill.resident_bytes(), 32u);
  spill.put(3, "u");  // the budget is full: this one overflows too
  EXPECT_EQ(spill.resident_bytes(), 32u);
  EXPECT_EQ(spill.pending(), 4u);
  std::string out;
  ASSERT_TRUE(spill.take(0, out));
  EXPECT_EQ(out, big);
  ASSERT_TRUE(spill.take(3, out));
  EXPECT_EQ(out, "u");
  ASSERT_TRUE(spill.take(1, out));
  EXPECT_EQ(out, std::string(20, 's'));
  EXPECT_EQ(spill.resident_bytes(), 12u);
  ASSERT_TRUE(spill.take(2, out));
  EXPECT_EQ(out, std::string(12, 't'));
  EXPECT_EQ(spill.resident_bytes(), 0u);
  EXPECT_EQ(spill.pending(), 0u);
}

/// Points TMPDIR (which std::filesystem::temp_directory_path honours) at
/// a fresh private directory for the scope, restoring it afterwards.
class ScratchTmpdir {
 public:
  ScratchTmpdir()
      : dir_(std::filesystem::temp_directory_path() /
             "coredis_storage_test_scratch") {
    if (const char* old = std::getenv("TMPDIR")) previous_ = old;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    setenv("TMPDIR", dir_.c_str(), 1);
  }
  ~ScratchTmpdir() {
    if (previous_) {
      setenv("TMPDIR", previous_->c_str(), 1);
    } else {
      unsetenv("TMPDIR");
    }
    std::filesystem::remove_all(dir_);
  }
  ScratchTmpdir(const ScratchTmpdir&) = delete;
  ScratchTmpdir& operator=(const ScratchTmpdir&) = delete;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  std::optional<std::string> previous_;
};

TEST(ResultSpillBackends, ScratchFilesAreRemovedOnDestruction) {
  const ScratchTmpdir tmp;
  {
    ResultSpill spill(1);
    spill.put(1, "held-in-the-scratch-file");
    spill.put(0, "and-this-one-too");
    EXPECT_EQ(spill.resident_bytes(), 0u);
#if defined(__unix__) || defined(__APPLE__)
    // The scratch file is unlinked right after it is opened, so a crash
    // (even kill -9) while the spill holds overflow strands no name...
    EXPECT_TRUE(std::filesystem::is_empty(tmp.dir()));
#endif
#if defined(__linux__)
    // ...yet the overflow does live in that directory: an open
    // descriptor points at a deleted file there.
    bool held_open = false;
    for (const auto& fd :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      std::error_code ignored;
      const std::string target =
          std::filesystem::read_symlink(fd.path(), ignored).string();
      held_open = held_open || (target.starts_with(tmp.dir().string()) &&
                                target.ends_with(" (deleted)"));
    }
    EXPECT_TRUE(held_open);
#endif
    std::string out;
    ASSERT_TRUE(spill.take(1, out));
    EXPECT_EQ(out, "held-in-the-scratch-file");
    spill.put(2, "left-in-the-spill");
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmp.dir()));
}

}  // namespace
}  // namespace coredis::exp
