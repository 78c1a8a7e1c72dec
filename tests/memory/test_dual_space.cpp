#include "mlm/memory/dual_space.h"

#include <gtest/gtest.h>

#include "mlm/support/units.h"

namespace mlm {
namespace {

DualSpaceConfig cfg(McdramMode mode, std::uint64_t mcdram = GiB(1),
                    double hybrid_frac = 0.5) {
  DualSpaceConfig c;
  c.mode = mode;
  c.mcdram_bytes = mcdram;
  c.hybrid_flat_fraction = hybrid_frac;
  return c;
}

TEST(DualSpace, FlatModeExposesAllMcdram) {
  DualSpace ds(cfg(McdramMode::Flat));
  EXPECT_TRUE(ds.hierarchy().tier_addressable(1));
  EXPECT_EQ(ds.hierarchy().addressable_bytes(1), GiB(1));
  EXPECT_EQ(ds.hierarchy().cache_bytes(1), 0u);
  EXPECT_EQ(ds.mcdram().capacity_bytes(), GiB(1));
  EXPECT_EQ(&ds.hierarchy().nearest_addressable(), &ds.mcdram());
}

TEST(DualSpace, CacheModeHasNoAddressableMcdram) {
  DualSpace ds(cfg(McdramMode::Cache));
  EXPECT_FALSE(ds.hierarchy().tier_addressable(1));
  EXPECT_EQ(ds.hierarchy().addressable_bytes(1), 0u);
  EXPECT_EQ(ds.hierarchy().cache_bytes(1), GiB(1));
  EXPECT_THROW(ds.mcdram(), Error);
  EXPECT_EQ(&ds.hierarchy().nearest_addressable(), &ds.ddr());
}

TEST(DualSpace, ImplicitCacheBehavesLikeCacheForAllocation) {
  DualSpace ds(cfg(McdramMode::ImplicitCache));
  EXPECT_FALSE(ds.hierarchy().tier_addressable(1));
  EXPECT_EQ(ds.hierarchy().cache_bytes(1), GiB(1));
}

TEST(DualSpace, HybridSplitsMcdram) {
  DualSpace ds(cfg(McdramMode::Hybrid, GiB(1), 0.25));
  EXPECT_TRUE(ds.hierarchy().tier_addressable(1));
  EXPECT_EQ(ds.hierarchy().addressable_bytes(1), GiB(1) / 4);
  EXPECT_EQ(ds.hierarchy().cache_bytes(1), GiB(1) * 3 / 4);
  EXPECT_EQ(ds.mcdram().capacity_bytes(), GiB(1) / 4);
}

TEST(DualSpace, DdrOnlyUsesNoMcdram) {
  DualSpace ds(cfg(McdramMode::DdrOnly));
  EXPECT_FALSE(ds.hierarchy().tier_addressable(1));
  EXPECT_EQ(ds.hierarchy().cache_bytes(1), 0u);
  EXPECT_EQ(&ds.hierarchy().nearest_addressable(), &ds.ddr());
}

TEST(DualSpace, McdramCapacityEnforced) {
  DualSpace ds(cfg(McdramMode::Flat, MiB(1)));
  void* p = ds.mcdram().allocate(MiB(1) - 64);
  EXPECT_THROW(ds.mcdram().allocate(KiB(64)), OutOfMemoryError);
  ds.mcdram().deallocate(p);
}

TEST(DualSpace, DdrUnlimitedByDefault) {
  DualSpace ds(cfg(McdramMode::Flat));
  EXPECT_TRUE(ds.ddr().unlimited());
}

TEST(DualSpace, RejectsBadConfig) {
  EXPECT_THROW(DualSpace(cfg(McdramMode::Flat, 0)), InvalidArgumentError);
  EXPECT_THROW(DualSpace(cfg(McdramMode::Hybrid, GiB(1), 0.0)),
               InvalidArgumentError);
  EXPECT_THROW(DualSpace(cfg(McdramMode::Hybrid, GiB(1), 1.0)),
               InvalidArgumentError);
}

TEST(McdramMode, Names) {
  EXPECT_STREQ(to_string(McdramMode::Flat), "flat");
  EXPECT_STREQ(to_string(McdramMode::Cache), "cache");
  EXPECT_STREQ(to_string(McdramMode::Hybrid), "hybrid");
  EXPECT_STREQ(to_string(McdramMode::ImplicitCache), "implicit");
  EXPECT_STREQ(to_string(McdramMode::DdrOnly), "ddr-only");
}

TEST(McdramMode, Predicates) {
  EXPECT_TRUE(mode_has_addressable_mcdram(McdramMode::Flat));
  EXPECT_TRUE(mode_has_addressable_mcdram(McdramMode::Hybrid));
  EXPECT_FALSE(mode_has_addressable_mcdram(McdramMode::Cache));
  EXPECT_FALSE(mode_has_addressable_mcdram(McdramMode::ImplicitCache));
  EXPECT_FALSE(mode_has_addressable_mcdram(McdramMode::DdrOnly));

  EXPECT_TRUE(mode_has_hardware_cache(McdramMode::Cache));
  EXPECT_TRUE(mode_has_hardware_cache(McdramMode::Hybrid));
  EXPECT_TRUE(mode_has_hardware_cache(McdramMode::ImplicitCache));
  EXPECT_FALSE(mode_has_hardware_cache(McdramMode::Flat));
  EXPECT_FALSE(mode_has_hardware_cache(McdramMode::DdrOnly));
}

}  // namespace
}  // namespace mlm
