// Tests for double-level chunking: NVM-resident data sorted through
// capacity-limited DDR and MCDRAM (§6 extension).
#include "mlm/core/external_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/rng.h"
#include "mlm/support/units.h"
#include "sort/test_inputs.h"

namespace mlm::core {
namespace {

using sort::InputOrder;
using sort::TestInput;
using sort::make_input;

MemoryHierarchy small_ddr_hierarchy(std::uint64_t ddr_bytes,
                                    std::uint64_t mcdram_bytes) {
  HierarchyConfig cfg;
  cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
               TierConfig{"ddr", MemKind::DDR, ddr_bytes},
               TierConfig{"mcdram", MemKind::MCDRAM, mcdram_bytes}};
  cfg.mode = McdramMode::Flat;
  return MemoryHierarchy(cfg);
}

// Tiny three-level machine: 512 KiB "MCDRAM", 2 MiB "DDR", unlimited NVM.
MemoryHierarchy tiny_hierarchy() {
  return small_ddr_hierarchy(MiB(2), KiB(512));
}

TEST(TripleSpace, LevelsHaveExpectedKindsAndCapacities) {
  MemoryHierarchy h = tiny_hierarchy();
  EXPECT_EQ(h.tier(0).kind(), MemKind::NVM);
  EXPECT_TRUE(h.tier(0).unlimited());
  EXPECT_EQ(h.tier(1).capacity_bytes(), MiB(2));
  EXPECT_EQ(h.tier(2).capacity_bytes(), KiB(512));
  EXPECT_TRUE(h.tier_addressable(2));
}

// An unlimited DDR tier has no free-byte count to carve the outer chunk
// from: the sorter refuses it up front instead of failing (empty DDR) or
// succeeding (any other DDR allocation live) depending on unrelated
// usage.
TEST(TripleSpace, RequiresDdrLimit) {
  MemoryHierarchy h = small_ddr_hierarchy(0, MiB(1));
  ThreadPool pool(1);
  EXPECT_THROW(ExternalMlmSorter<std::int64_t>(h, pool, {}),
               InvalidArgumentError);
}

class ExternalSortProperty : public ::testing::TestWithParam<
                                 std::tuple<std::size_t, TestInput>> {};

TEST_P(ExternalSortProperty, SortsNvmResidentData) {
  const auto [n, input] = GetParam();
  MemoryHierarchy hier = tiny_hierarchy();
  ThreadPool pool(4);

  // Data lives in the NVM space.
  SpaceBuffer<std::int64_t> data(hier.tier(0), std::max<std::size_t>(n, 1));
  auto init = sort::make_test_input(n, input, n * 13 + 1);
  std::copy(init.begin(), init.end(), data.data());
  auto expect = init;
  std::stable_sort(expect.begin(), expect.end());

  ExternalSortConfig cfg;
  cfg.inner.variant = MlmVariant::Flat;
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  const ExternalSortStats stats =
      sorter.sort(std::span<std::int64_t>(data.data(), n));

  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), data.data()));
  if (n * sizeof(std::int64_t) > MiB(1)) {
    // Data exceeds half of DDR: outer chunking engaged.
    EXPECT_GE(stats.outer_chunks, 2u);
    EXPECT_TRUE(stats.external_merge_ran);
    // Inner sorter chunked through the 512 KiB MCDRAM too: double
    // chunking.
    EXPECT_GE(stats.last_inner.megachunks, 2u);
  }
  // All staging returned.
  EXPECT_EQ(hier.tier(1).stats().used_bytes, 0u);
  EXPECT_EQ(hier.tier(2).stats().used_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSortProperty,
    ::testing::Combine(
        // 1M int64 = 8 MiB = 4x DDR = 16x MCDRAM.
        ::testing::Values(0, 1, 1000, 130000, 500000, 1000000),
        ::testing::Values(TestInput::Random, TestInput::Reverse,
                          TestInput::FewDistinct)));

// 8 MiB over the 2 MiB DDR: outer chunking and the block-buffered
// external merge run on ties and pivot-hostile shapes.
INSTANTIATE_TEST_SUITE_P(
    Adversarial, ExternalSortProperty,
    ::testing::Combine(::testing::Values(sort::kAdversarialElements),
                       sort::adversarial_inputs()),
    [](const auto& info) { return sort::name_of(std::get<1>(info.param)); });

// Records with duplicate keys through outer chunks, inner megachunks
// and the external merge: the output is std::stable_sort's, byte for
// byte (payloads tell equal keys apart).
class ExternalSortRecordStability
    : public ::testing::TestWithParam<TestInput> {
 protected:
  template <std::size_t N>
  void expect_stable(std::size_t n) {
    MemoryHierarchy hier = tiny_hierarchy();
    ThreadPool pool(4);
    SpaceBuffer<sort::Record<N>> data(hier.tier(0), n);
    const auto init = sort::make_test_records<N>(n, GetParam(), 17);
    std::copy(init.begin(), init.end(), data.data());
    auto expect = init;
    std::stable_sort(expect.begin(), expect.end());

    ExternalSortConfig cfg;
    cfg.inner.variant = MlmVariant::Flat;
    ExternalMlmSorter<sort::Record<N>> sorter(hier, pool, cfg);
    const ExternalSortStats stats =
        sorter.sort(std::span<sort::Record<N>>(data.data(), n));
    EXPECT_TRUE(stats.external_merge_ran);
    EXPECT_GE(stats.last_inner.megachunks, 2u);
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), data.data()));
  }
};

// 4 MiB of records over the 2 MiB DDR and 512 KiB MCDRAM.
TEST_P(ExternalSortRecordStability, Record64MatchesStableSort) {
  expect_stable<56>(std::size_t{1} << 16);
}

TEST_P(ExternalSortRecordStability, Record16MatchesStableSort) {
  expect_stable<8>(std::size_t{1} << 18);
}

INSTANTIATE_TEST_SUITE_P(
    Duplicates, ExternalSortRecordStability,
    ::testing::Values(TestInput::FewDistinct, TestInput::AllEqual),
    [](const auto& info) { return sort::name_of(info.param); });

TEST(ExternalSort, ExplicitOuterChunkHonored) {
  MemoryHierarchy hier = tiny_hierarchy();
  ThreadPool pool(2);
  SpaceBuffer<std::int64_t> data(hier.tier(0), 400000);
  auto init = make_input(400000, InputOrder::Random, 3);
  std::copy(init.begin(), init.end(), data.data());

  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 100000;
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  const auto stats = sorter.sort(std::span<std::int64_t>(data.data(),
                                                         400000));
  EXPECT_EQ(stats.outer_chunks, 4u);
  EXPECT_TRUE(std::is_sorted(data.data(), data.data() + 400000));
}

TEST(ExternalSort, OversizedOuterChunkRejected) {
  MemoryHierarchy hier = tiny_hierarchy();
  ThreadPool pool(2);
  SpaceBuffer<std::int64_t> data(hier.tier(0), 1000);
  ExternalSortConfig cfg;
  // 2 MiB of DDR / 8 B / 2 = 131072 elements max.
  cfg.outer_chunk_elements = 200000;
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  EXPECT_THROW(sorter.sort(std::span<std::int64_t>(data.data(), 1000)),
               InvalidArgumentError);
}

ExternalSortStats sort_random(MemoryHierarchy& hier, std::size_t workers,
                              std::size_t n) {
  ThreadPool pool(workers);
  std::vector<std::int64_t> data = make_input(n, InputOrder::Random, 9);
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, ExternalSortConfig{});
  const ExternalSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  return stats;
}

// Regression: the default outer chunk was half the free DDR in elements,
// but the staging buffer and the inner scratch are each rounded up to a
// cache line, so with 80 spare bytes the two overflowed DDR.
TEST(ExternalSort, DefaultOuterChunkLeavesRoomForCacheLineRounding) {
  MemoryHierarchy hier = small_ddr_hierarchy(MiB(2) + 80, MiB(1));
  const ExternalSortStats stats = sort_random(hier, 4, 300000);
  EXPECT_EQ(stats.outer_chunks, 3u);
  EXPECT_EQ(hier.tier(1).stats().used_bytes, 0u);
}

// Below one element (15 B) or one cache line (100 B) per buffer.
TEST(ExternalSort, DdrBelowOneLinePerBufferIsOutOfMemory) {
  for (const std::uint64_t ddr_bytes : {15, 100}) {
    MemoryHierarchy hier = small_ddr_hierarchy(ddr_bytes, KiB(64));
    EXPECT_THROW(sort_random(hier, 2, 1000), OutOfMemoryError) << ddr_bytes;
  }
}

// Regression: the automatic merge block's 64-element floor overrode the
// staging fit — 41 blocks of 64 int64 need 20992 B of a 4096 B DDR,
// while one cache line per block (2624 B) fits.
TEST(ExternalSort, AutoMergeBlockShrinksToFitOnePart) {
  MemoryHierarchy hier = small_ddr_hierarchy(4096, KiB(512));
  const ExternalSortStats stats = sort_random(hier, 2, 10000);
  EXPECT_EQ(stats.outer_chunks, 40u);
  EXPECT_TRUE(stats.external_merge_ran);
}

TEST(ExternalSort, AutoMergeBlockBelowOneLineIsOutOfMemory) {
  // 79 runs: 80 one-line blocks need 5120 B of the 4096 B DDR.
  MemoryHierarchy hier = small_ddr_hierarchy(4096, KiB(512));
  EXPECT_THROW(sort_random(hier, 2, 20000), OutOfMemoryError);
}

// The tuning hook and the stats report the same stage times: each stage
// is timed by one clock read, so the hook's per-step times, summed in
// hook order, are exactly the stats' phase totals.
TEST(ExternalSort, TuningHookStageTimesSumToTheStats) {
  MemoryHierarchy hier = tiny_hierarchy();
  ThreadPool pool(2);
  std::vector<std::int64_t> data = make_input(4000, InputOrder::Random, 21);
  double staging = 0.0;
  double sorting = 0.0;
  std::size_t calls = 0;
  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 1000;
  cfg.tuning_hook = [&](const StepFeedback& fb) {
    staging += fb.copy_in_seconds;
    staging += fb.copy_out_seconds;
    sorting += fb.compute_seconds;
    ++calls;
    return StepTuning{};
  };
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  const ExternalSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  ASSERT_EQ(stats.outer_chunks, 4u);
  EXPECT_EQ(calls, 4u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  EXPECT_EQ(staging, stats.staging_seconds);
  EXPECT_EQ(sorting, stats.sorting_seconds);
}

TEST(ExternalMerge, MergesFarRunsThroughTinyBlocks) {
  MemoryHierarchy hier = tiny_hierarchy();
  ThreadPool pool(3);
  // Three sorted far-resident runs.
  const std::size_t run_len = 5000;
  SpaceBuffer<std::int64_t> far(hier.tier(0), 3 * run_len);
  SpaceBuffer<std::int64_t> out(hier.tier(0), 3 * run_len);
  std::vector<std::int64_t> all;
  Xoshiro256ss rng(5);
  for (std::size_t r = 0; r < 3; ++r) {
    std::vector<std::int64_t> v(run_len);
    for (auto& x : v) x = static_cast<std::int64_t>(rng.bounded(100000));
    std::sort(v.begin(), v.end());
    std::copy(v.begin(), v.end(), far.data() + r * run_len);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());

  std::vector<mlm::sort::Run<std::int64_t>> runs;
  for (std::size_t r = 0; r < 3; ++r) {
    runs.emplace_back(far.data() + r * run_len, run_len);
  }
  // Deliberately tiny blocks: forces many refills and tree rebuilds.
  external_multiway_merge(pool, hier.tier(1),
                          std::span<const mlm::sort::Run<std::int64_t>>(runs),
                          std::span<std::int64_t>(out.data(), 3 * run_len),
                          /*block_elements=*/64);
  EXPECT_TRUE(std::equal(all.begin(), all.end(), out.data()));
  EXPECT_EQ(hier.tier(1).stats().used_bytes, 0u);
}

TEST(ExternalMerge, RejectsBadArguments) {
  MemoryHierarchy hier = tiny_hierarchy();
  ThreadPool pool(1);
  SpaceBuffer<std::int64_t> far(hier.tier(0), 10);
  std::vector<mlm::sort::Run<std::int64_t>> runs{{far.data(), 10}};
  std::vector<std::int64_t> out_wrong(5);
  EXPECT_THROW(external_multiway_merge(
                   pool, hier.tier(1),
                   std::span<const mlm::sort::Run<std::int64_t>>(runs),
                   std::span<std::int64_t>(out_wrong), 64),
               InvalidArgumentError);
  SpaceBuffer<std::int64_t> out(hier.tier(0), 10);
  EXPECT_THROW(external_multiway_merge(
                   pool, hier.tier(1),
                   std::span<const mlm::sort::Run<std::int64_t>>(runs),
                   std::span<std::int64_t>(out.data(), 10), 0),
               InvalidArgumentError);
}

}  // namespace
}  // namespace mlm::core
