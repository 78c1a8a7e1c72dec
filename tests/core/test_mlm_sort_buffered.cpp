// Tests for the buffered (double-megachunk) MLM-sort variant — the §6
// future-work feature: copy-in of megachunk c+1 overlaps the sorting of
// megachunk c.
#include <gtest/gtest.h>

#include <algorithm>

#include "mlm/core/mlm_sort.h"
#include "mlm/memory/dual_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

using sort::InputOrder;
using sort::make_input;

DualSpace flat_space(std::uint64_t mcdram = MiB(2)) {
  DualSpaceConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

class BufferedMlmSort : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BufferedMlmSort, SortsCorrectly) {
  const std::size_t n = GetParam();
  DualSpace space = flat_space();
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  cfg.overlap_copy_in = true;
  cfg.copy_threads = 2;
  auto data = make_input(n, InputOrder::Random, n + 1);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  const auto cs = sort::checksum(data);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_EQ(data, expect);
  EXPECT_EQ(sort::checksum(data), cs);
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
  if (n * sizeof(std::int64_t) > MiB(1)) {
    // Data exceeds half the MCDRAM: chunking + overlap engaged.
    EXPECT_GE(stats.megachunks, 2u);
    EXPECT_EQ(stats.overlapped_copies, stats.megachunks - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferedMlmSort,
                         ::testing::Values(0, 1, 1000, 100000, 400000,
                                           1000000));

TEST(BufferedMlmSort, MegachunkCapHalved) {
  DualSpace space = flat_space(MiB(2));
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  cfg.overlap_copy_in = true;
  // 1.5 MiB megachunk > 1 MiB (= half of MCDRAM) must be rejected.
  cfg.megachunk_elements = (MiB(1) + MiB(1) / 2) / sizeof(std::int64_t);
  auto data = make_input(500000, InputOrder::Random, 3);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  EXPECT_THROW(sorter.sort(std::span<std::int64_t>(data)),
               InvalidArgumentError);
}

TEST(BufferedMlmSort, SingleMegachunkFallsBackToUnbuffered) {
  DualSpace space = flat_space(MiB(4));
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  cfg.overlap_copy_in = true;
  auto data = make_input(10000, InputOrder::Reverse, 4);  // fits easily
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_EQ(stats.megachunks, 1u);
  EXPECT_EQ(stats.overlapped_copies, 0u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(BufferedMlmSort, MatchesUnbufferedResult) {
  DualSpace space = flat_space();
  ThreadPool pool(3);
  auto data1 = make_input(300000, InputOrder::FewDistinct, 8);
  auto data2 = data1;

  MlmSortConfig plain;
  plain.variant = MlmVariant::Flat;
  MlmSorter<std::int64_t> s1(space, pool, plain);
  s1.sort(std::span<std::int64_t>(data1));

  MlmSortConfig buf = plain;
  buf.overlap_copy_in = true;
  MlmSorter<std::int64_t> s2(space, pool, buf);
  s2.sort(std::span<std::int64_t>(data2));

  EXPECT_EQ(data1, data2);
}

// Under a deterministic worker pool the copy pool is a
// DeterministicExecutor on the same scheduler: the copy-ins are tasks of
// the seeded schedule, so a seed replays the whole sort tick for tick.
TEST(BufferedMlmSort, CopyInsRunInsideTheDeterministicSchedule) {
  auto run = [](std::uint64_t seed) {
    DualSpace space = flat_space(KiB(64));
    DeterministicScheduler sched(seed);
    DeterministicExecutor pool(sched, 3, "workers");
    MlmSortConfig cfg;
    cfg.variant = MlmVariant::Flat;
    cfg.overlap_copy_in = true;
    cfg.copy_threads = 2;
    auto data = make_input(20000, InputOrder::Random, seed);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    MlmSorter<std::int64_t> sorter(space, pool, cfg);
    const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
    EXPECT_EQ(data, expect) << "seed=" << seed;
    EXPECT_GE(stats.megachunks, 2u);
    EXPECT_EQ(stats.overlapped_copies, stats.megachunks - 1);
    return sched.trace();
  };
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto trace = run(seed);
    const auto copies = std::count_if(
        trace.begin(), trace.end(), [](const ScheduleRecord& r) {
          return r.tag.rfind("mlm-copy-in#", 0) == 0;
        });
    EXPECT_GT(copies, 0) << "seed=" << seed;
    EXPECT_EQ(run(seed), trace) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace mlm::core
