// The three-level NVM -> DDR -> MCDRAM setting of the paper's §6, built
// as a three-tier MemoryHierarchy.
#include <gtest/gtest.h>

#include "mlm/core/external_sort.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/support/units.h"

namespace mlm {
namespace {

HierarchyConfig cfg(McdramMode mode) {
  return HierarchyConfig{{TierConfig{"nvm", MemKind::NVM, MiB(16)},
                          TierConfig{"ddr", MemKind::DDR, MiB(2)},
                          TierConfig{"mcdram", MemKind::MCDRAM, KiB(512)}},
                         mode};
}

TEST(TripleSpace, ExposesThreeTierHierarchy) {
  MemoryHierarchy h(cfg(McdramMode::Flat));
  EXPECT_EQ(h.tier_count(), 3u);
  EXPECT_EQ(h.tier(0).kind(), MemKind::NVM);
  EXPECT_EQ(h.tier(1).kind(), MemKind::DDR);
  EXPECT_EQ(h.tier(2).kind(), MemKind::MCDRAM);
}

TEST(TripleSpace, CapacityAccountingPerTier) {
  MemoryHierarchy h(cfg(McdramMode::Flat));
  MemorySpace& nvm = h.tier(0);
  MemorySpace& ddr = h.tier(1);
  MemorySpace& mcdram = h.tier(2);
  void* n = nvm.allocate(MiB(8));
  void* d = ddr.allocate(MiB(1));
  void* m = mcdram.allocate(KiB(256));
  EXPECT_EQ(nvm.stats().used_bytes, MiB(8));
  EXPECT_EQ(ddr.stats().used_bytes, MiB(1));
  EXPECT_EQ(mcdram.stats().used_bytes, KiB(256));
  // Usage in one tier does not consume another tier's capacity.
  EXPECT_EQ(ddr.fit_elements(1, 1), MiB(1));
  EXPECT_EQ(mcdram.fit_elements(1, 1), KiB(256));
  nvm.deallocate(n);
  ddr.deallocate(d);
  mcdram.deallocate(m);
  EXPECT_EQ(ddr.stats().used_bytes, 0u);
}

TEST(TripleSpace, UpperPairSharesTheHierarchyTiers) {
  MemoryHierarchy h(cfg(McdramMode::Flat));
  const TierPair upper = h.pair(1);
  EXPECT_EQ(upper.far_tier, &h.tier(1));
  EXPECT_EQ(upper.near_tier, &h.tier(2));
  // Allocations through the pair are visible through the hierarchy.
  void* p = upper.near_tier->allocate(KiB(128));
  EXPECT_EQ(h.tier(2).stats().used_bytes, KiB(128));
  upper.near_tier->deallocate(p);
}

TEST(TripleSpace, ModeGovernsMcdramAddressability) {
  for (McdramMode mode : {McdramMode::Cache, McdramMode::ImplicitCache,
                          McdramMode::DdrOnly}) {
    MemoryHierarchy h(cfg(mode));
    EXPECT_FALSE(h.tier_addressable(2)) << to_string(mode);
    EXPECT_THROW(h.tier(2), Error);
    EXPECT_FALSE(h.pair(1).explicit_copies());
    // The NVM and DDR tiers stay addressable regardless of mode.
    EXPECT_EQ(h.tier(0).capacity_bytes(), MiB(16));
    EXPECT_EQ(&h.nearest_addressable(), &h.tier(1));
  }
  MemoryHierarchy hybrid(cfg(McdramMode::Hybrid));
  EXPECT_TRUE(hybrid.tier_addressable(2));
  EXPECT_EQ(hybrid.tier(2).capacity_bytes(), KiB(256));
}

TEST(TripleSpace, OutOfMemoryPropagatesPerTier) {
  MemoryHierarchy h(cfg(McdramMode::Flat));
  EXPECT_THROW(h.tier(2).allocate(MiB(1)), OutOfMemoryError);
  EXPECT_THROW(h.tier(1).allocate(MiB(4)), OutOfMemoryError);
  EXPECT_THROW(h.tier(0).allocate(MiB(32)), OutOfMemoryError);
  // try_allocate reports the same exhaustion without throwing.
  EXPECT_EQ(h.tier(2).try_allocate(MiB(1)), nullptr);
}

// The external sorter carves its outer chunk from free DDR, so it
// refuses an unlimited DDR tier.
TEST(TripleSpace, RequiresDdrLimit) {
  HierarchyConfig c = cfg(McdramMode::Flat);
  c.tiers[1].capacity_bytes = 0;
  MemoryHierarchy h(c);
  ThreadPool pool(1);
  EXPECT_THROW(core::ExternalMlmSorter<std::int64_t>(h, pool, {}),
               InvalidArgumentError);
}

}  // namespace
}  // namespace mlm
