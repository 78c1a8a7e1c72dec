#include "mlm/core/mlm_radix.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mlm/memory/dual_space.h"
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

class MlmRadixProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlmRadixProperty, SortsCorrectly) {
  const std::size_t n = GetParam();
  DualSpace space = flat_space();
  ThreadPool pool(4);
  auto data = make_input(n, InputOrder::Random, n * 23 + 7);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  const auto cs = sort::checksum(data);
  const MlmRadixStats stats =
      mlm_radix_sort(space, pool, std::span<std::int64_t>(data));
  EXPECT_EQ(data, expect);
  EXPECT_EQ(sort::checksum(data), cs);
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
  EXPECT_EQ(space.ddr().stats().used_bytes, 0u);
  if (n * sizeof(std::int64_t) > MiB(1)) {
    // Data exceeds half the MCDRAM (the radix ping-pong budget):
    // chunking and the final merge must have engaged.
    EXPECT_GE(stats.megachunks, 2u);
    EXPECT_TRUE(stats.final_merge_ran);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MlmRadixProperty,
                         ::testing::Values(0, 1, 1000, 100000, 500000,
                                           1000000));

TEST(MlmRadix, ReverseAndDuplicateInputs) {
  DualSpace space = flat_space();
  ThreadPool pool(3);
  for (InputOrder order : {InputOrder::Reverse, InputOrder::FewDistinct}) {
    auto data = make_input(300000, order, 11);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    mlm_radix_sort(space, pool, std::span<std::int64_t>(data));
    EXPECT_EQ(data, expect) << to_string(order);
  }
}

TEST(MlmRadix, ExplicitMegachunkHonoredAndValidated) {
  DualSpace space = flat_space(MiB(2));
  ThreadPool pool(2);
  auto data = make_input(400000, InputOrder::Random, 13);
  // 2 MiB MCDRAM / 8 B / 2 buffers = 131072 elements max.
  const MlmRadixStats stats = mlm_radix_sort(
      space, pool, std::span<std::int64_t>(data), 100000);
  EXPECT_EQ(stats.megachunks, 4u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));

  EXPECT_THROW(mlm_radix_sort(space, pool,
                              std::span<std::int64_t>(data), 200000),
               InvalidArgumentError);
}

// The default megachunk is carved per buffer in whole cache lines: a
// near tier of 1 MiB + 72 B holds two 512 KiB buffers, not two of
// 524,320 B (which round up past the capacity).
TEST(MlmRadix, DefaultMegachunkFitsTheCacheLineRoundUp) {
  DualSpace space = flat_space(MiB(1) + 72);
  ThreadPool pool(2);
  auto data = make_input(300000, InputOrder::Random, 15);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  const MlmRadixStats stats =
      mlm_radix_sort(space, pool, std::span<std::int64_t>(data));
  EXPECT_EQ(data, expect);
  EXPECT_EQ(stats.megachunks, 5u);  // 65,536 elements each
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

// An unlimited near tier takes the whole input in one megachunk.
TEST(MlmRadix, UnlimitedNearTierSortsInOneMegachunk) {
  HierarchyConfig hcfg;
  hcfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                TierConfig{"ddr", MemKind::DDR, 0},
                TierConfig{"mcdram", MemKind::MCDRAM, MiB(1)}};
  MemoryHierarchy hier(hcfg);
  ThreadPool pool(2);
  auto data = make_input(100000, InputOrder::Random, 16);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  const MlmRadixStats stats =
      mlm_radix_sort(hier.pair(0), pool, std::span<std::int64_t>(data));
  EXPECT_EQ(data, expect);
  EXPECT_EQ(stats.megachunks, 1u);
  EXPECT_FALSE(stats.final_merge_ran);
}

TEST(MlmRadix, RequiresAddressableMcdram) {
  DualSpaceConfig cfg;
  cfg.mode = McdramMode::Cache;
  cfg.mcdram_bytes = MiB(2);
  DualSpace space(cfg);
  ThreadPool pool(2);
  std::vector<std::int64_t> data(10);
  EXPECT_THROW(
      mlm_radix_sort(space, pool, std::span<std::int64_t>(data)),
      InvalidArgumentError);
}

}  // namespace
}  // namespace mlm::core
