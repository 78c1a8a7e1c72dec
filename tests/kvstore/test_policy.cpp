// Placement policies: plan_migration under static / LRU-epoch /
// frequency-threshold, budget handling, plan determinism, selection
// against a full-sort oracle, and FreqThreshold's hysteresis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mlm/kvstore/heat.h"
#include "mlm/kvstore/policy.h"
#include "mlm/kvstore/store.h"
#include "mlm/kvstore/trace.h"
#include "mlm/kvstore/workload.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/error.h"
#include "mlm/support/proptest.h"
#include "mlm/support/units.h"

namespace mlm::kv {
namespace {

HierarchyConfig two_tier(std::uint64_t mcdram_bytes) {
  HierarchyConfig cfg;
  cfg.tiers = {TierConfig{"ddr", MemKind::DDR, 0},
               TierConfig{"mcdram", MemKind::MCDRAM, mcdram_bytes}};
  return cfg;
}

KvConfig small_config() {
  KvConfig cfg;
  cfg.value_bytes = 56;
  cfg.records_per_segment = 16;  // 1 KiB segments
  cfg.index_prefers_near = false;
  return cfg;
}

// 8 segments over a 2-segment near tier; segments 0-1 start near.
struct Fixture {
  Fixture() : hier(two_tier(KiB(2))), store(hier, small_config()) {
    std::vector<std::uint8_t> value(56, 0);
    for (std::uint64_t k = 0; k < 8 * 16; ++k) store.put(k, value.data());
    EXPECT_EQ(store.segment_count(), 8u);
    EXPECT_EQ(store.near_segment_count(), 2u);
  }

  /// Record `n` accesses to `segment` (shard 0) without folding.
  void touch(std::size_t segment, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) store.monitor().record(0, segment);
  }

  MemoryHierarchy hier;
  TieredKvStore store;
};

TEST(PlacementPolicy, Names) {
  EXPECT_STREQ(to_string(PlacementPolicy::StaticNearFirst), "static");
  EXPECT_STREQ(to_string(PlacementPolicy::LruEpoch), "lru");
  EXPECT_STREQ(to_string(PlacementPolicy::FreqThreshold), "freq");
  EXPECT_EQ(placement_policy_from_string("static"),
            PlacementPolicy::StaticNearFirst);
  EXPECT_EQ(placement_policy_from_string("lru"), PlacementPolicy::LruEpoch);
  EXPECT_EQ(placement_policy_from_string("freq"),
            PlacementPolicy::FreqThreshold);
  EXPECT_THROW(placement_policy_from_string("hot"), InvalidArgumentError);
}

TEST(PlacementPolicy, StaticNeverMigrates) {
  Fixture f;
  f.touch(7, 100);
  f.store.monitor().fold_epoch();
  PolicyConfig cfg;
  cfg.policy = PlacementPolicy::StaticNearFirst;
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.to_string(), "-");
}

TEST(PlacementPolicy, FreqPromotesHottestWithinBudget) {
  Fixture f;
  f.touch(5, 50);
  f.touch(6, 40);
  f.touch(0, 30);  // already near: stays
  f.store.monitor().fold_epoch();

  PolicyConfig cfg;  // FreqThreshold, budget derived: 2 segments
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  // Want-near = {5, 6}: the cold residents demote, 0 (heat 30) misses
  // the 2-segment budget.
  EXPECT_EQ(plan.demote, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(plan.promote, (std::vector<std::size_t>{5, 6}));
  EXPECT_EQ(plan.to_string(), "D:0,1 P:5,6");
}

TEST(PlacementPolicy, FreqRespectsMinHeat) {
  Fixture f;
  f.touch(5, 2);
  f.store.monitor().fold_epoch();
  PolicyConfig cfg;
  cfg.min_heat = 10;  // nothing qualifies
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  // No segment is eligible for near: both resident segments demote.
  EXPECT_EQ(plan.demote, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(plan.promote.empty());
}

TEST(PlacementPolicy, LruKeepsMostRecentlyAccessed) {
  Fixture f;
  f.touch(3, 1);
  f.store.monitor().fold_epoch();  // epoch 1: segment 3
  f.touch(4, 1);
  f.touch(0, 1);
  f.store.monitor().fold_epoch();  // epoch 2: segments 4, 0

  PolicyConfig cfg;
  cfg.policy = PlacementPolicy::LruEpoch;
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  // Most recent: {4, 0} (epoch 2), then 3 (epoch 1) over budget.
  EXPECT_EQ(plan.demote, (std::vector<std::size_t>{1}));
  EXPECT_EQ(plan.promote, (std::vector<std::size_t>{4}));
}

TEST(PlacementPolicy, ExplicitBudgetOverridesDerived) {
  Fixture f;
  f.touch(4, 10);
  f.touch(5, 9);
  f.touch(6, 8);
  f.store.monitor().fold_epoch();
  PolicyConfig cfg;
  cfg.max_near_segments = 1;
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  EXPECT_EQ(plan.demote, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(plan.promote, (std::vector<std::size_t>{4}));
}

TEST(PlacementPolicy, TieBreaksById) {
  Fixture f;
  // Equal heat everywhere eligible: lowest ids win the budget.
  for (std::size_t s = 0; s < 8; ++s) f.touch(s, 5);
  f.store.monitor().fold_epoch();
  PolicyConfig cfg;
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  // Want-near = {0, 1}, which is the current placement: no moves.
  EXPECT_TRUE(plan.empty());
}

TEST(PlacementPolicy, NoNearTierMeansNoPlan) {
  HierarchyConfig cfg = two_tier(KiB(2));
  cfg.mode = McdramMode::Cache;
  MemoryHierarchy hier(cfg);
  TieredKvStore store(hier, small_config());
  std::vector<std::uint8_t> value(56, 0);
  for (std::uint64_t k = 0; k < 32; ++k) store.put(k, value.data());
  store.monitor().record(0, 1);
  store.monitor().fold_epoch();
  EXPECT_TRUE(
      plan_migration(store, store.monitor(), PolicyConfig{}).empty());
}

TEST(PlacementPolicy, PlansAreDeterministic) {
  PolicyConfig cfg;
  MigrationPlan first;
  for (int run = 0; run < 3; ++run) {
    Fixture f;
    f.touch(6, 20);
    f.touch(2, 15);
    f.touch(0, 10);
    f.store.monitor().fold_epoch();
    const MigrationPlan plan =
        plan_migration(f.store, f.store.monitor(), cfg);
    if (run == 0) {
      first = plan;
    } else {
      EXPECT_EQ(plan.demote, first.demote);
      EXPECT_EQ(plan.promote, first.promote);
    }
  }
}

// ---------------------------------------------------------------------------
// Selection against the full-sort ranking it replaced.

/// Reference ranking: sort every segment, then take the eligible
/// prefix.  Returns ids ascending.
std::vector<std::size_t> oracle_near(const HeatMonitor& m, bool lru,
                                     std::uint64_t min_heat,
                                     std::size_t budget) {
  std::vector<std::size_t> ranked(m.segments());
  for (std::size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
  std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    const std::uint64_t pa = lru ? m.last_access_epoch(a) : m.heat(a);
    const std::uint64_t pb = lru ? m.last_access_epoch(b) : m.heat(b);
    if (pa != pb) return pa > pb;
    const std::uint64_t sa = lru ? m.heat(a) : m.last_access_epoch(a);
    const std::uint64_t sb = lru ? m.heat(b) : m.last_access_epoch(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  std::vector<std::size_t> near;
  for (const std::size_t id : ranked) {
    if (near.size() == budget) break;
    const bool eligible =
        lru ? m.last_access_epoch(id) > 0 : m.heat(id) >= min_heat;
    if (!eligible) break;
    near.push_back(id);
  }
  std::sort(near.begin(), near.end());
  return near;
}

/// A few epochs of small random per-segment access counts, mostly
/// zero: heats and last-access epochs tie heavily.
void random_heat(HeatMonitor& m, Gen& gen) {
  const std::size_t epochs = 1 + gen.below(4);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t s = 0; s < m.segments(); ++s) {
      const std::uint64_t n = gen.below(2) == 0 ? 0 : gen.below(4);
      for (std::uint64_t i = 0; i < n; ++i) m.record(0, s);
    }
    m.fold_epoch();
  }
}

TEST(PlacementPolicy, SelectionMatchesFullSortOracle) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Gen gen(seed);
    const std::size_t segments = 1 + gen.below(40);
    HeatMonitor m;
    for (std::size_t s = 0; s < segments; ++s) m.add_segment();
    random_heat(m, gen);
    const std::uint64_t min_heat = gen.below(3);
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{1}, segments - 1, segments + 3}) {
      for (const bool lru : {false, true}) {
        PolicyConfig cfg;
        cfg.policy =
            lru ? PlacementPolicy::LruEpoch : PlacementPolicy::FreqThreshold;
        cfg.min_heat = min_heat;
        std::vector<std::size_t> got = select_near(m, cfg, budget);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, oracle_near(m, lru, min_heat, budget))
            << "seed " << seed << " budget " << budget << " lru " << lru;
      }
    }
  }
}

TEST(PlacementPolicy, LruPlansMatchFullSortOracle) {
  // 8 segments, 0-1 near; shuffle the placement, randomize the heat and
  // compare the whole LRU plan with the oracle's placement difference.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Gen gen(seed);
    Fixture f;
    const std::size_t from = gen.below(2);
    const std::size_t to = 2 + gen.below(6);
    f.store.move_segment(from, false);
    f.store.move_segment(to, true);
    random_heat(f.store.monitor(), gen);
    for (const std::size_t budget :
         {std::size_t{1}, std::size_t{7}, std::size_t{11}}) {
      PolicyConfig cfg;
      cfg.policy = PlacementPolicy::LruEpoch;
      cfg.max_near_segments = budget;
      const std::vector<std::size_t> want =
          oracle_near(f.store.monitor(), true, 0, budget);
      MigrationPlan expected;
      for (std::size_t id = 0; id < 8; ++id) {
        const bool wanted = std::binary_search(want.begin(), want.end(), id);
        if (f.store.segment_near(id) && !wanted) expected.demote.push_back(id);
        if (!f.store.segment_near(id) && wanted) expected.promote.push_back(id);
      }
      EXPECT_EQ(plan_migration(f.store, f.store.monitor(), cfg).to_string(),
                expected.to_string())
          << "seed " << seed << " budget " << budget;
    }
  }
}

TEST(PlacementPolicy, SelectRejectsStaticPolicy) {
  HeatMonitor m;
  PolicyConfig cfg;
  cfg.policy = PlacementPolicy::StaticNearFirst;
  EXPECT_THROW(select_near(m, cfg, 1), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// FreqThreshold hysteresis.

TEST(PlacementPolicy, FreqIgnoresHeatWithinTheMargin) {
  // Segment 2 (far) runs slightly hotter than resident 0 every epoch:
  // the ranking wants 2 near, but a lead of at most 4 decayed accesses
  // (the margin) is noise, so no epoch moves anything.
  Fixture f;
  PolicyConfig cfg;
  cfg.max_near_segments = 1;
  f.store.move_segment(1, false);
  for (int epoch = 0; epoch < 20; ++epoch) {
    f.touch(0, 3);
    f.touch(2, 4 + (epoch % 2));
    f.store.monitor().fold_epoch();
    ASSERT_GT(f.store.monitor().heat(2), f.store.monitor().heat(0));
    EXPECT_EQ(select_near(f.store.monitor(), cfg, 1),
              (std::vector<std::size_t>{2}));
    EXPECT_TRUE(plan_migration(f.store, f.store.monitor(), cfg).empty())
        << "epoch " << epoch;
  }
}

TEST(PlacementPolicy, FreqSwapsAClearWinner) {
  Fixture f;
  f.touch(0, 3);
  f.touch(1, 3);
  f.touch(4, 20);  // leads resident 1 by far more than the margin
  f.touch(5, 6);   // leads resident 0 by 3: noise
  f.store.monitor().fold_epoch();
  PolicyConfig cfg;
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  EXPECT_EQ(plan.to_string(), "D:1 P:4");
}

TEST(PlacementPolicy, FreqFillsFreeSlotsOnlyAboveTheMargin) {
  Fixture f;
  f.store.move_segment(0, false);
  f.store.move_segment(1, false);  // two free near slots
  f.touch(3, 9);
  f.touch(6, 2);  // eligible, but too cold to be worth a copy
  f.store.monitor().fold_epoch();
  PolicyConfig cfg;
  const MigrationPlan plan = plan_migration(f.store, f.store.monitor(), cfg);
  EXPECT_EQ(plan.to_string(), "P:3");
}

TEST(PlacementPolicy, FreqDemotesResidentsBeyondTheBudgetColdestFirst) {
  Fixture f;
  f.touch(0, 5);
  f.touch(1, 8);
  f.store.monitor().fold_epoch();
  PolicyConfig cfg;
  cfg.max_near_segments = 1;
  EXPECT_EQ(plan_migration(f.store, f.store.monitor(), cfg).to_string(),
            "D:0");
}

// ---------------------------------------------------------------------------
// Derived budget.

TEST(PlacementPolicy, DerivedBudgetLeavesRoomForANearIndex) {
  // 2800 keys in 1 KiB segments (175) under a 192 KiB near tier that
  // also holds a 64 KiB index: only 128 segments fit near.  A budget of
  // 192 would keep asking for promotions that cannot be placed.
  MemoryHierarchy hier(two_tier(KiB(192)));
  KvConfig kv = small_config();
  kv.index_prefers_near = true;
  kv.initial_buckets = 4096;
  TieredKvStore store(hier, kv);
  std::vector<std::uint8_t> value(56, 0);
  for (std::uint64_t k = 0; k < 2800; ++k) store.put(k, value.data());
  ASSERT_TRUE(store.stats().index_near);
  ASSERT_EQ(store.stats().index_bytes, KiB(64));
  ASSERT_EQ(store.near_segment_count(), 128u);

  TraceConfig tc;
  tc.keys = 2800;
  tc.ops = 65536;
  tc.seed = 7;
  ThreadPool pool(2, "kv");
  WorkloadConfig cfg;
  cfg.epoch_ops = 2048;
  cfg.degrade.allow_tier_fallback = true;
  const WorkloadStats stats =
      run_workload(store, pool, generate_trace(tc), cfg);
  EXPECT_EQ(stats.migration.abandoned, 0u);
  EXPECT_GT(stats.migration.promoted, 0u);
  EXPECT_EQ(store.near_segment_count(), 128u);
}

}  // namespace
}  // namespace mlm::kv
