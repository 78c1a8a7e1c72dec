#include "mlm/core/merge_bench.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "mlm/memory/dual_space.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

DualSpace flat_space(std::uint64_t mcdram = MiB(4)) {
  DualSpaceConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

MergeBenchConfig small_config(unsigned repeats = 1) {
  MergeBenchConfig c;
  c.elements = 200000;
  c.chunk_elements = 32768;
  c.copy_threads = 1;
  c.compute_threads = 2;
  c.repeats = repeats;
  return c;
}

TEST(MergeBench, RunsAndCountsMerges) {
  DualSpace space = flat_space();
  auto data = mlm::sort::make_input(200000,
                                    mlm::sort::InputOrder::Random, 1);
  const MergeBenchConfig cfg = small_config(3);
  const MergeBenchResult r =
      run_merge_bench(space, std::span<std::int64_t>(data), cfg);
  EXPECT_GT(r.seconds, 0.0);
  // ceil(200000/32768) = 7 chunks; compute pool has 2 threads working,
  // so 2 portions per chunk per repeat.
  EXPECT_EQ(r.pipeline.chunks, 7u);
  EXPECT_EQ(r.merges_performed, 7u * 3u * 2u);
}

TEST(MergeBench, DataIsPermutedNotCorrupted) {
  DualSpace space = flat_space();
  auto data = mlm::sort::make_input(100000,
                                    mlm::sort::InputOrder::Random, 2);
  const auto cs = mlm::sort::checksum(data);
  MergeBenchConfig cfg = small_config(2);
  cfg.elements = data.size();
  run_merge_bench(space, std::span<std::int64_t>(data), cfg);
  EXPECT_EQ(mlm::sort::checksum(data), cs);
}

TEST(MergeBench, SortedHalvesStaySortedAfterOneRepeat) {
  // With each thread portion's halves sorted, the merge produces a
  // sorted portion: functional verification of the compute kernel.
  DualSpace space = flat_space();
  MergeBenchConfig cfg;
  cfg.elements = 65536;
  cfg.chunk_elements = 65536;   // one chunk
  cfg.copy_threads = 1;
  cfg.compute_threads = 1;      // one portion == whole chunk
  cfg.repeats = 1;
  std::vector<std::int64_t> data(cfg.elements);
  // Two sorted halves: evens then odds.
  for (std::size_t i = 0; i < data.size() / 2; ++i) {
    data[i] = static_cast<std::int64_t>(2 * i);
    data[data.size() / 2 + i] = static_cast<std::int64_t>(2 * i + 1);
  }
  run_merge_bench(space, std::span<std::int64_t>(data), cfg);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  EXPECT_EQ(data.front(), 0);
  EXPECT_EQ(data.back(), static_cast<std::int64_t>(data.size() - 1));
}

TEST(MergeBench, ImplicitModeRunsWithoutMcdram) {
  DualSpaceConfig scfg;
  scfg.mode = McdramMode::ImplicitCache;
  scfg.mcdram_bytes = MiB(4);
  DualSpace space(scfg);
  auto data = mlm::sort::make_input(100000,
                                    mlm::sort::InputOrder::Random, 3);
  MergeBenchConfig cfg = small_config();
  cfg.elements = data.size();
  const MergeBenchResult r =
      run_merge_bench(space, std::span<std::int64_t>(data), cfg);
  EXPECT_EQ(r.pipeline.bytes_copied_in, 0u);
  EXPECT_GT(r.merges_performed, 0u);
}

TEST(MergeBench, DefaultChunkSizeLeavesRoomForScratch) {
  DualSpace space = flat_space(MiB(4));
  auto data = mlm::sort::make_input(300000,
                                    mlm::sort::InputOrder::Random, 4);
  MergeBenchConfig cfg = small_config();
  cfg.elements = data.size();
  cfg.chunk_elements = 0;  // auto
  EXPECT_NO_THROW(
      run_merge_bench(space, std::span<std::int64_t>(data), cfg));
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

// The default chunk is carved per buffer in whole cache lines: a near
// tier of 1 MiB + 200 B holds four 256 KiB buffers, not four of
// 262,192 B (which round up past the capacity).
TEST(MergeBench, DefaultChunkFitsTheCacheLineRoundUp) {
  DualSpace space = flat_space(MiB(1) + 200);
  std::vector<std::int64_t> data(327680);
  MergeBenchConfig cfg = small_config();
  cfg.elements = data.size();
  cfg.chunk_elements = 0;  // auto
  const MergeBenchResult r =
      run_merge_bench(space, std::span<std::int64_t>(data), cfg);
  EXPECT_EQ(r.pipeline.chunks, 10u);  // 32,768 elements each
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

// An unlimited near tier takes the whole problem in one chunk.
TEST(MergeBench, UnlimitedNearTierRunsOneChunk) {
  HierarchyConfig hcfg;
  hcfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                TierConfig{"ddr", MemKind::DDR, 0},
                TierConfig{"mcdram", MemKind::MCDRAM, MiB(1)}};
  MemoryHierarchy hier(hcfg);
  std::vector<std::int64_t> data(100000);
  MergeBenchConfig cfg = small_config();
  cfg.elements = data.size();
  cfg.chunk_elements = 0;  // auto
  const MergeBenchResult r =
      run_merge_bench(hier.pair(0), std::span<std::int64_t>(data), cfg);
  EXPECT_EQ(r.pipeline.chunks, 1u);
}

TEST(MergeBench, RejectsBadConfigs) {
  DualSpace space = flat_space();
  std::vector<std::int64_t> data(100);
  MergeBenchConfig cfg = small_config();
  cfg.elements = 200;  // more than data holds
  EXPECT_THROW(run_merge_bench(space, std::span<std::int64_t>(data), cfg),
               InvalidArgumentError);
  cfg = small_config();
  cfg.elements = 100;
  cfg.repeats = 0;
  EXPECT_THROW(run_merge_bench(space, std::span<std::int64_t>(data), cfg),
               InvalidArgumentError);
  cfg = small_config();
  cfg.elements = 100;
  cfg.copy_threads = 0;
  EXPECT_THROW(run_merge_bench(space, std::span<std::int64_t>(data), cfg),
               InvalidArgumentError);
}

}  // namespace
}  // namespace mlm::core
