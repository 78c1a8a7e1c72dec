#include "mlm/core/mlm_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mlm/memory/dual_space.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/units.h"
#include "sort/test_inputs.h"

namespace mlm::core {
namespace {

using mlm::sort::InputOrder;
using mlm::sort::TestInput;
using mlm::sort::checksum;
using mlm::sort::make_input;

DualSpace make_space(MlmVariant variant, std::uint64_t mcdram = MiB(2)) {
  DualSpaceConfig cfg;
  switch (variant) {
    case MlmVariant::Flat: cfg.mode = McdramMode::Flat; break;
    case MlmVariant::Implicit: cfg.mode = McdramMode::ImplicitCache; break;
    case MlmVariant::DdrOnly: cfg.mode = McdramMode::DdrOnly; break;
  }
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

using Case = std::tuple<MlmVariant, std::size_t, TestInput>;

class MlmSortProperty : public ::testing::TestWithParam<Case> {};

TEST_P(MlmSortProperty, SortsCorrectlyAndPreservesData) {
  const auto [variant, n, shape] = GetParam();
  DualSpace space = make_space(variant);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = variant;
  // The adversarial inputs run through eight megachunks on every variant
  // (DdrOnly and Implicit would otherwise take one), so the
  // cross-megachunk merge sees them too.
  const bool adversarial = n == mlm::sort::kAdversarialElements;
  if (adversarial) cfg.megachunk_elements = n / 8;

  auto data = mlm::sort::make_test_input(n, shape,
                                         n * 7 + static_cast<int>(shape));
  auto expect = data;
  std::stable_sort(expect.begin(), expect.end());
  const auto cs = checksum(data);

  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));

  EXPECT_EQ(data, expect);
  EXPECT_EQ(checksum(data), cs);
  if (n > 1) {
    EXPECT_GE(stats.megachunks, 1u);
  }
  if (adversarial) {
    EXPECT_EQ(stats.megachunks, 8u);
  }
  // All scratch returned.
  EXPECT_EQ(space.ddr().stats().used_bytes, 0u);
  if (variant == MlmVariant::Flat) {
    EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MlmSortProperty,
    ::testing::Combine(
        ::testing::Values(MlmVariant::Flat, MlmVariant::Implicit,
                          MlmVariant::DdrOnly),
        ::testing::Values(0, 1, 2, 1000, 100000, 500000),
        ::testing::Values(TestInput::Random, TestInput::Reverse,
                          TestInput::FewDistinct)));

INSTANTIATE_TEST_SUITE_P(
    Adversarial, MlmSortProperty,
    ::testing::Combine(
        ::testing::Values(MlmVariant::Flat, MlmVariant::DdrOnly),
        ::testing::Values(mlm::sort::kAdversarialElements),
        mlm::sort::adversarial_inputs()),
    [](const auto& info) {
      const bool flat = std::get<0>(info.param) == MlmVariant::Flat;
      return (flat ? "flat_" : "ddronly_") +
             mlm::sort::name_of(std::get<2>(info.param));
    });

// Records with duplicate keys through four megachunks on every variant:
// the per-thread sort is stable and every merge breaks ties by run
// order, so the output is std::stable_sort's, byte for byte (payloads
// tell equal keys apart).
using RecordCase = std::tuple<MlmVariant, TestInput>;

class MlmSortRecordStability : public ::testing::TestWithParam<RecordCase> {
 protected:
  template <std::size_t N>
  void expect_stable(std::size_t n) {
    const auto [variant, keys] = GetParam();
    DualSpace space = make_space(variant);
    ThreadPool pool(4);
    MlmSortConfig cfg;
    cfg.variant = variant;
    cfg.megachunk_elements = n / 4;
    auto data = mlm::sort::make_test_records<N>(n, keys, 31);
    auto expect = data;
    std::stable_sort(expect.begin(), expect.end());
    MlmSorter<mlm::sort::Record<N>> sorter(space, pool, cfg);
    EXPECT_EQ(sorter.sort(std::span<mlm::sort::Record<N>>(data)).megachunks,
              4u);
    EXPECT_TRUE(data == expect);
  }
};

TEST_P(MlmSortRecordStability, Record64MatchesStableSort) {
  expect_stable<56>(20000);
}

TEST_P(MlmSortRecordStability, Record16MatchesStableSort) {
  expect_stable<8>(40000);
}

INSTANTIATE_TEST_SUITE_P(
    Duplicates, MlmSortRecordStability,
    ::testing::Combine(
        ::testing::Values(MlmVariant::Flat, MlmVariant::Implicit,
                          MlmVariant::DdrOnly),
        ::testing::Values(TestInput::FewDistinct, TestInput::AllEqual)),
    [](const auto& info) {
      std::string variant = to_string(std::get<0>(info.param));
      std::erase(variant, '-');
      return variant + "_" + mlm::sort::name_of(std::get<1>(info.param));
    });

TEST(MlmSorter, FlatUsesMultipleMegachunksWhenDataExceedsMcdram) {
  // 2 MiB MCDRAM, 500k int64 = ~3.8 MiB of data -> >= 2 megachunks.
  DualSpace space = make_space(MlmVariant::Flat, MiB(2));
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  auto data = make_input(500000, InputOrder::Random, 3);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_GE(stats.megachunks, 2u);
  EXPECT_TRUE(stats.final_merge_ran);
  EXPECT_EQ(stats.bytes_copied_in, 500000 * sizeof(std::int64_t));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(MlmSorter, ImplicitDefaultsToSingleMegachunk) {
  DualSpace space = make_space(MlmVariant::Implicit);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Implicit;
  auto data = make_input(300000, InputOrder::Random, 5);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_EQ(stats.megachunks, 1u);
  EXPECT_FALSE(stats.final_merge_ran);
  EXPECT_EQ(stats.bytes_copied_in, 0u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(MlmSorter, ExplicitMegachunkSizeHonored) {
  DualSpace space = make_space(MlmVariant::DdrOnly);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::DdrOnly;
  cfg.megachunk_elements = 100000;
  auto data = make_input(350000, InputOrder::Random, 6);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_EQ(stats.megachunks, 4u);  // 3 full + 1 partial
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(MlmSorter, FlatRejectsMegachunkBiggerThanMcdram) {
  DualSpace space = make_space(MlmVariant::Flat, MiB(1));
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  cfg.megachunk_elements = MiB(2) / sizeof(std::int64_t);
  auto data = make_input(100000, InputOrder::Random, 8);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  EXPECT_THROW(sorter.sort(std::span<std::int64_t>(data)),
               InvalidArgumentError);
}

// The default megachunk is carved per buffer in whole cache lines, the
// unit MemorySpace rounds every allocation up to: 4104 bytes hold one
// 4096-byte buffer, not a 4104-byte one, and 4160 bytes hold two
// 2048-byte buffers when the copy-in is double-buffered.
TEST(MlmSorter, FlatDefaultMegachunkFitsTheCacheLineRoundUp) {
  for (const auto& [mcdram, buffered] :
       {std::pair<std::uint64_t, bool>{4104, false}, {4160, true}}) {
    DualSpace space = make_space(MlmVariant::Flat, mcdram);
    ThreadPool pool(2);
    MlmSortConfig cfg;
    cfg.variant = MlmVariant::Flat;
    cfg.overlap_copy_in = buffered;
    auto data = make_input(10000, InputOrder::Random, 11);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    MlmSorter<std::int64_t> sorter(space, pool, cfg);
    const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
    EXPECT_EQ(data, expect) << "mcdram=" << mcdram;
    const std::size_t mega = (buffered ? 2048 : 4096) / sizeof(std::int64_t);
    EXPECT_EQ(stats.megachunks, (10000 + mega - 1) / mega)
        << "mcdram=" << mcdram;
    EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
  }
}

TEST(MlmSorter, FlatBelowOneCacheLinePerBufferIsACleanOutOfMemory) {
  for (const auto& [mcdram, buffered] :
       {std::pair<std::uint64_t, bool>{32, false}, {100, true}}) {
    DualSpace space = make_space(MlmVariant::Flat, mcdram);
    ThreadPool pool(2);
    MlmSortConfig cfg;
    cfg.variant = MlmVariant::Flat;
    cfg.overlap_copy_in = buffered;
    auto data = make_input(1000, InputOrder::Random, 12);
    const auto before = data;
    MlmSorter<std::int64_t> sorter(space, pool, cfg);
    try {
      sorter.sort(std::span<std::int64_t>(data));
      ADD_FAILURE() << "mcdram=" << mcdram << " did not throw";
    } catch (const OutOfMemoryError& e) {
      // The buffer-fit rule's refusal, naming the tier.
      const std::string what = e.what();
      EXPECT_NE(what.find("'mcdram'"), std::string::npos) << what;
      EXPECT_NE(what.find("too few for"), std::string::npos) << what;
    }
    EXPECT_EQ(data, before) << "mcdram=" << mcdram;
    EXPECT_EQ(space.ddr().stats().used_bytes, 0u);
  }
}

// An unlimited near tier has no capacity to carve megachunks from: Flat
// takes the whole problem in one, whatever else lives in the tier.
TEST(MlmSorter, FlatOverAnUnlimitedNearTierSortsInOneMegachunk) {
  HierarchyConfig hcfg;
  hcfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                TierConfig{"ddr", MemKind::DDR, 0},
                TierConfig{"mcdram", MemKind::MCDRAM, MiB(1)}};
  MemoryHierarchy hier(hcfg);
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  for (const bool ddr_in_use : {false, true}) {
    Allocation unrelated;
    if (ddr_in_use) unrelated = Allocation(hier.tier(1), 64);
    auto data = make_input(100000, InputOrder::Random, 14);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    MlmSorter<std::int64_t> sorter(hier.pair(0), pool, cfg);
    const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
    EXPECT_EQ(data, expect) << "ddr_in_use=" << ddr_in_use;
    EXPECT_EQ(stats.megachunks, 1u) << "ddr_in_use=" << ddr_in_use;
  }
}

TEST(MlmSorter, FlatVariantRequiresAddressableMcdram) {
  DualSpace space = make_space(MlmVariant::Implicit);  // cache mode
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  EXPECT_THROW((MlmSorter<std::int64_t>(space, pool, cfg)),
               InvalidArgumentError);
}

TEST(MlmSorter, CustomComparator) {
  DualSpace space = make_space(MlmVariant::DdrOnly);
  ThreadPool pool(4);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::DdrOnly;
  auto data = make_input(50000, InputOrder::Random, 10);
  MlmSorter<std::int64_t, std::greater<>> sorter(space, pool, cfg,
                                                 std::greater<>{});
  sorter.sort(std::span<std::int64_t>(data));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), std::greater<>{}));
}

// MlmSorter<int64_t> sorts each thread's chunk with radix_sort, using
// the DDR scratch the megachunk merge overwrites next; a lambda `a < b`
// comparator sends the same sort through std::sort.  The two must agree
// byte for byte and leave the same memory footprint.
struct RadixPathCase {
  const char* name;
  MlmVariant variant;
  bool buffered;
  std::size_t megachunk_elements;
};

/// Per addressable tier: high-water bytes and lifetime allocations.
std::vector<std::uint64_t> footprint(const DualSpace& space) {
  std::vector<std::uint64_t> out;
  const MemoryHierarchy& hier = space.hierarchy();
  for (std::size_t level = 0; level < hier.tier_count(); ++level) {
    if (!hier.tier_addressable(level)) continue;
    const SpaceStats st = hier.tier(level).stats();
    out.push_back(st.high_water_bytes);
    out.push_back(st.total_allocations);
  }
  return out;
}

class MlmSortRadixPath
    : public ::testing::TestWithParam<std::tuple<RadixPathCase, TestInput>> {
 protected:
  template <typename Comp>
  std::vector<std::uint64_t> sort(std::vector<std::int64_t>& data,
                                  Comp comp) const {
    const RadixPathCase& c = std::get<0>(GetParam());
    DualSpace space = make_space(c.variant);
    ThreadPool pool(4);
    MlmSortConfig cfg;
    cfg.variant = c.variant;
    cfg.overlap_copy_in = c.buffered;
    cfg.megachunk_elements = c.megachunk_elements;
    MlmSorter<std::int64_t, Comp> sorter(space, pool, cfg, comp);
    const MlmSortStats stats = sorter.sort(std::span<std::int64_t>(data));
    EXPECT_EQ(stats.overlapped_copies > 0, c.buffered);
    return footprint(space);
  }
};

TEST_P(MlmSortRadixPath, ByteIdenticalToStdSortPathWithSameFootprint) {
  const TestInput shape = std::get<1>(GetParam());
  // 500k int64 is ~3.8 MiB against 2 MiB of MCDRAM: several megachunks.
  const auto input = mlm::sort::make_test_input(500000, shape, 77);
  auto radix = input;
  auto lambda = input;
  const auto radix_footprint = sort(radix, std::less<>{});
  const auto lambda_footprint =
      sort(lambda, [](std::int64_t a, std::int64_t b) { return a < b; });
  ASSERT_EQ(radix.size(), lambda.size());
  EXPECT_EQ(0, std::memcmp(radix.data(), lambda.data(),
                           radix.size() * sizeof(std::int64_t)));
  EXPECT_TRUE(std::is_sorted(radix.begin(), radix.end()));
  EXPECT_EQ(radix_footprint, lambda_footprint);
}

const RadixPathCase kRadixPathCases[] = {
    {"flat", MlmVariant::Flat, false, 0},
    {"flatbuffered", MlmVariant::Flat, true, 0},
    {"implicit", MlmVariant::Implicit, false, 0},
    {"ddronly", MlmVariant::DdrOnly, false, 0},
    {"ddronlymegachunks", MlmVariant::DdrOnly, false, 100000},
};

INSTANTIATE_TEST_SUITE_P(
    Variants, MlmSortRadixPath,
    ::testing::Combine(::testing::ValuesIn(kRadixPathCases),
                       ::testing::Values(TestInput::Random,
                                         TestInput::FewDistinct,
                                         TestInput::OrganPipe)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             mlm::sort::name_of(std::get<1>(info.param));
    });

TEST(BasicChunkedSort, SortsThroughPipeline) {
  DualSpaceConfig scfg;
  scfg.mode = McdramMode::Flat;
  scfg.mcdram_bytes = MiB(2);
  DualSpace space(scfg);
  ThreadPool pool(4);
  auto data = make_input(300000, InputOrder::Random, 12);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  basic_chunked_sort(space, pool, std::span<std::int64_t>(data), 100000);
  EXPECT_EQ(data, expect);
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

TEST(BasicChunkedSort, DdrOnlyPath) {
  DualSpaceConfig scfg;
  scfg.mode = McdramMode::DdrOnly;
  DualSpace space(scfg);
  ThreadPool pool(3);
  auto data = make_input(120000, InputOrder::Reverse, 13);
  basic_chunked_sort(space, pool, std::span<std::int64_t>(data), 50000);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(MlmVariant, Names) {
  EXPECT_STREQ(to_string(MlmVariant::Flat), "flat");
  EXPECT_STREQ(to_string(MlmVariant::Implicit), "implicit");
  EXPECT_STREQ(to_string(MlmVariant::DdrOnly), "ddr-only");
}

}  // namespace
}  // namespace mlm::core
