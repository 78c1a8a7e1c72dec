#include "mlm/core/scatter_bench.h"

#include <gtest/gtest.h>

#include <numeric>

#include "mlm/memory/dual_space.h"
#include "mlm/support/error.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

DualSpace flat_space(std::uint64_t mcdram = KiB(256)) {
  DualSpaceConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

class ScatterStrategyTest
    : public ::testing::TestWithParam<ScatterStrategy> {};

TEST_P(ScatterStrategyTest, MatchesReference) {
  DualSpace space = flat_space();
  ThreadPool pool(4);
  const auto keys = make_scatter_keys(200000, 1u << 20, 0.0, 7);
  // Table of 64K slots = 512 KiB > the 256 KiB near space.
  std::vector<std::uint64_t> table(1 << 16, 0);
  std::vector<std::uint64_t> expect(table.size(), 0);
  scatter_reference(keys, std::span<std::uint64_t>(expect));

  ScatterConfig cfg;
  cfg.strategy = GetParam();
  const ScatterStats stats =
      run_scatter(space.hierarchy(), pool, keys,
                  std::span<std::uint64_t>(table), cfg);
  EXPECT_EQ(table, expect);
  EXPECT_GE(stats.buckets_used, 1u);
  if (GetParam() == ScatterStrategy::Partitioned) {
    // 512 KiB table over (256/2) KiB slice budget -> 4 buckets.
    EXPECT_GE(stats.buckets_used, 4u);
    EXPECT_EQ(stats.bucket_bytes, keys.size() * sizeof(std::uint64_t));
  }
}

INSTANTIATE_TEST_SUITE_P(Both, ScatterStrategyTest,
                         ::testing::Values(ScatterStrategy::Direct,
                                           ScatterStrategy::Partitioned),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Scatter, SkewedKeysStillExact) {
  DualSpace space = flat_space();
  ThreadPool pool(3);
  const auto keys = make_scatter_keys(100000, 1u << 18, 2.0, 3);
  std::vector<std::uint64_t> t1(1 << 14, 0), t2(1 << 14, 0);
  scatter_reference(keys, std::span<std::uint64_t>(t1));
  ScatterConfig cfg;
  cfg.strategy = ScatterStrategy::Partitioned;
  run_scatter(space.hierarchy(), pool, keys,
              std::span<std::uint64_t>(t2), cfg);
  EXPECT_EQ(t1, t2);
}

TEST(Scatter, ExplicitBucketCountHonored) {
  DualSpace space = flat_space();
  ThreadPool pool(2);
  const auto keys = make_scatter_keys(10000, 1000, 0.0, 1);
  std::vector<std::uint64_t> table(1000, 0);
  ScatterConfig cfg;
  cfg.strategy = ScatterStrategy::Partitioned;
  cfg.buckets = 7;
  const auto stats =
      run_scatter(space.hierarchy(), pool, keys,
                  std::span<std::uint64_t>(table), cfg);
  EXPECT_EQ(stats.buckets_used, 7u);
  EXPECT_EQ(std::accumulate(table.begin(), table.end(), 0ull), 10000u);
}

TEST(Scatter, MoreBucketsThanSlotsClamped) {
  DualSpace space = flat_space();
  ThreadPool pool(2);
  const auto keys = make_scatter_keys(100, 10, 0.0, 2);
  std::vector<std::uint64_t> table(10, 0);
  ScatterConfig cfg;
  cfg.strategy = ScatterStrategy::Partitioned;
  cfg.buckets = 50;
  const auto stats =
      run_scatter(space.hierarchy(), pool, keys,
                  std::span<std::uint64_t>(table), cfg);
  EXPECT_LE(stats.buckets_used, 10u);
  EXPECT_EQ(std::accumulate(table.begin(), table.end(), 0ull), 100u);
}

TEST(Scatter, ImplicitModeUsesCacheSizedSlices) {
  DualSpaceConfig scfg;
  scfg.mode = McdramMode::ImplicitCache;
  scfg.mcdram_bytes = KiB(256);
  DualSpace space(scfg);
  ThreadPool pool(2);
  const auto keys = make_scatter_keys(50000, 1u << 16, 0.0, 9);
  std::vector<std::uint64_t> table(1 << 16, 0);
  std::vector<std::uint64_t> expect(table.size(), 0);
  scatter_reference(keys, std::span<std::uint64_t>(expect));
  ScatterConfig cfg;
  cfg.strategy = ScatterStrategy::Partitioned;
  const auto stats =
      run_scatter(space.hierarchy(), pool, keys,
                  std::span<std::uint64_t>(table), cfg);
  EXPECT_EQ(table, expect);
  EXPECT_GE(stats.buckets_used, 4u);
}

// In cache-like modes a slice is budgeted against the physical MCDRAM
// size, not the cache share: DdrOnly caches nothing yet buckets alike.
TEST(Scatter, AutoBucketsUseThePhysicalMcdramSizeInCacheModes) {
  ThreadPool pool(2);
  const auto keys = make_scatter_keys(10000, 1u << 16, 0.0, 5);
  for (McdramMode mode : {McdramMode::ImplicitCache, McdramMode::Cache,
                          McdramMode::DdrOnly}) {
    DualSpaceConfig scfg;
    scfg.mode = mode;
    scfg.mcdram_bytes = KiB(256);
    DualSpace space(scfg);
    std::vector<std::uint64_t> table(1 << 16, 0);  // 512 KiB
    ScatterConfig cfg;
    cfg.strategy = ScatterStrategy::Partitioned;
    const auto stats = run_scatter(space.hierarchy(), pool, keys,
                                   std::span<std::uint64_t>(table), cfg);
    // 512 KiB table over a (256/2) KiB slice budget.
    EXPECT_EQ(stats.buckets_used, 4u) << to_string(mode);
  }
}

TEST(Scatter, EmptyKeysLeaveTableUntouched) {
  DualSpace space = flat_space();
  ThreadPool pool(2);
  std::vector<std::uint64_t> table(100, 5);
  ScatterConfig cfg;
  run_scatter(space.hierarchy(), pool, {},
              std::span<std::uint64_t>(table), cfg);
  EXPECT_TRUE(std::all_of(table.begin(), table.end(),
                          [](std::uint64_t v) { return v == 5; }));
}

TEST(Scatter, EmptyTableRejected) {
  DualSpace space = flat_space();
  ThreadPool pool(1);
  const auto keys = make_scatter_keys(10, 10, 0.0, 1);
  EXPECT_THROW(
      run_scatter(space.hierarchy(), pool, keys, {}, ScatterConfig{}),
      InvalidArgumentError);
  EXPECT_THROW(scatter_reference(keys, {}), InvalidArgumentError);
}

TEST(MakeScatterKeys, UniformAndSkewedShapes) {
  const auto uniform = make_scatter_keys(100000, 1000, 0.0, 4);
  const auto skewed = make_scatter_keys(100000, 1000, 2.0, 4);
  auto count_low = [](const std::vector<std::uint64_t>& v) {
    return std::count_if(v.begin(), v.end(),
                         [](std::uint64_t k) { return k < 100; });
  };
  // Uniform: ~10% below 100.  Skewed: the hot set dominates.
  EXPECT_NEAR(static_cast<double>(count_low(uniform)), 10000.0, 1500.0);
  EXPECT_GT(count_low(skewed), 40000);
  for (std::uint64_t k : skewed) ASSERT_LT(k, 1000u);
}

TEST(MakeScatterKeys, Deterministic) {
  EXPECT_EQ(make_scatter_keys(1000, 50, 1.0, 11),
            make_scatter_keys(1000, 50, 1.0, 11));
  EXPECT_NE(make_scatter_keys(1000, 50, 1.0, 11),
            make_scatter_keys(1000, 50, 1.0, 12));
}

}  // namespace
}  // namespace mlm::core
