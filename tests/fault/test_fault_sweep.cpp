// The acceptance sweep for deterministic fault injection: every
// registered fault site is exercised over many seeded schedules, and
// each run must either fully recover (digest and byte-count invariants
// hold) or surface a clean structured error naming the failing
// stage/chunk/tier.  Determinism comes from DeterministicScheduler
// (pipeline runs) and from the seeded triggers themselves.
#include "mlm/fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/external_sort.h"
#include "mlm/core/pipeline_validator.h"
#include "mlm/memory/dual_space.h"
#include "mlm/memory/memkind_shim.h"
#include "mlm/memory/memory_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/proptest.h"
#include "mlm/support/rng.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

constexpr std::uint64_t kSeedsPerSite = 100;

DegradePolicy full_recovery_policy() {
  DegradePolicy p;
  p.max_retries = 3;
  p.allow_chunk_halving = true;
  p.min_chunk_bytes = 4096;
  p.allow_tier_fallback = true;
  return p;
}

// A seed-varied *transient* trigger: at most 3 fires, which the
// full-recovery policy (3 retries + halving + tier fallback) must
// always absorb at allocation/stage boundaries.
fault::FaultTrigger transient_trigger(std::uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return fault::FaultTrigger::nth_call(seed % 7);
    case 1:
      return fault::FaultTrigger::after_n(seed % 5, 1 + seed % 3);
    default:
      return fault::FaultTrigger::probability(0.2, seed, 3);
  }
}

// ---------------------------------------------------------------------
// Pipeline sweep: seven sites x kSeedsPerSite seeded schedules each.
// ---------------------------------------------------------------------

struct PipelineOutcome {
  bool recovered = false;
  bool invariant_error = false;  // PipelineInvariantError specifically
  std::uint64_t fires = 0;
  PipelineStats stats;
  std::string error_what;
  std::vector<ErrorFrame> chain;
};

PipelineOutcome run_pipeline_under_fault(const char* site,
                                         std::uint64_t seed,
                                         const fault::FaultTrigger& trigger,
                                         const DegradePolicy& policy) {
  constexpr std::size_t kChunkBytes = 64 * 1024;
  const std::size_t n = 5 * kChunkBytes / sizeof(std::int64_t);

  DualSpaceConfig space_cfg;
  space_cfg.mode = McdramMode::Flat;
  space_cfg.mcdram_bytes = MiB(4);
  DualSpace space(space_cfg);

  std::vector<std::int64_t> data(n);
  std::iota(data.begin(), data.end(), 0);

  DeterministicScheduler sched(seed);
  PipelineValidator validator;
  PipelineConfig cfg;
  cfg.chunk_bytes = kChunkBytes;
  cfg.pools = PoolSizes{2, 2, 2};
  cfg.buffering = Buffering::Triple;
  cfg.scheduler = &sched;
  cfg.validator = &validator;
  cfg.degrade = policy;

  fault::FaultPlan plan;
  plan.arm(site, trigger);

  PipelineOutcome out;
  try {
    fault::ScopedFaultInjector inject(plan);
    out.stats = run_chunk_pipeline_typed<std::int64_t>(
        space, std::span<std::int64_t>(data), cfg,
        [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
          for (auto& x : chunk) x += 1;
        });
    out.recovered = true;
  } catch (const PipelineInvariantError& e) {
    out.invariant_error = true;
    out.error_what = e.what();
    out.chain = e.chain();
  } catch (const Error& e) {
    out.error_what = e.what();
    out.chain = e.chain();
  }
  out.fires = plan.total_fires();

  if (out.recovered) {
    // Digest invariant: the full transform happened exactly once.
    std::vector<std::int64_t> expected(n);
    std::iota(expected.begin(), expected.end(), 1);
    EXPECT_EQ(digest_of(std::span<const std::int64_t>(data)),
              digest_of(std::span<const std::int64_t>(expected)))
        << "site=" << site << " seed=" << seed;
    // Byte-count invariant: each element crossed the tier boundary once
    // per direction (explicit path) or never (in-place tier fallback).
    const std::uint64_t total = n * sizeof(std::int64_t);
    EXPECT_TRUE(out.stats.bytes_copied_in == total ||
                out.stats.bytes_copied_in == 0)
        << "site=" << site << " seed=" << seed
        << " bytes_in=" << out.stats.bytes_copied_in;
    EXPECT_EQ(out.stats.bytes_copied_out, out.stats.bytes_copied_in)
        << "site=" << site << " seed=" << seed;
    if (out.stats.bytes_copied_in == 0) {
      EXPECT_GE(out.stats.tier_fallbacks, 1u)
          << "site=" << site << " seed=" << seed;
    }
  } else {
    // Structured-error invariant: a non-empty annotation chain whose
    // outermost frame names the pipeline and whose frames carry a tier.
    EXPECT_FALSE(out.chain.empty())
        << "site=" << site << " seed=" << seed << ": " << out.error_what;
    if (!out.chain.empty()) {
      EXPECT_FALSE(out.chain.front().op.empty());
      EXPECT_EQ(out.chain.back().op, "run_chunk_pipeline");
      const bool has_tier = std::any_of(
          out.chain.begin(), out.chain.end(),
          [](const ErrorFrame& f) { return !f.tier.empty(); });
      EXPECT_TRUE(has_tier) << "site=" << site << " seed=" << seed;
      EXPECT_NE(out.error_what.find("\n  in "), std::string::npos)
          << "what() must render the frame chain: " << out.error_what;
    }
  }
  return out;
}

struct SiteCase {
  const char* site;
  /// Transient triggers at this site must never escape the recovery
  /// ladder (allocation/stage launch points are cleanly retryable).
  bool guaranteed_recovery;
  /// Failures surface as PipelineInvariantError (validator catch).
  bool invariant_error;
};

class PipelineFaultSweep : public ::testing::TestWithParam<SiteCase> {};

TEST_P(PipelineFaultSweep, RecoversOrFailsStructuredOverManySchedules) {
  const SiteCase c = GetParam();
  std::uint64_t recovered = 0, errored = 0, fired_and_recovered = 0;
  for (std::uint64_t seed = 0; seed < kSeedsPerSite; ++seed) {
    const PipelineOutcome out = run_pipeline_under_fault(
        c.site, seed, transient_trigger(seed), full_recovery_policy());
    if (out.recovered) {
      ++recovered;
      if (out.fires > 0) {
        ++fired_and_recovered;
        if (c.guaranteed_recovery) {
          // A fire that was absorbed must be visible in the stats.
          EXPECT_GE(out.stats.retries + out.stats.chunk_halvings +
                        out.stats.tier_fallbacks,
                    1u)
              << "site=" << c.site << " seed=" << seed;
          EXPECT_FALSE(out.stats.degradations.empty())
              << "site=" << c.site << " seed=" << seed;
        }
      }
    } else {
      ++errored;
      EXPECT_EQ(out.invariant_error, c.invariant_error)
          << "site=" << c.site << " seed=" << seed << ": "
          << out.error_what;
    }
  }
  EXPECT_EQ(recovered + errored, kSeedsPerSite);
  if (c.guaranteed_recovery) {
    EXPECT_EQ(errored, 0u) << "site=" << c.site;
    EXPECT_GT(fired_and_recovered, 0u)
        << "site=" << c.site << ": sweep never actually injected";
  } else {
    // Non-retryable sites must see both branches across the sweep.
    EXPECT_GT(errored, 0u) << "site=" << c.site;
    EXPECT_GT(recovered, 0u) << "site=" << c.site;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sites, PipelineFaultSweep,
    ::testing::Values(
        SiteCase{fault::sites::kMemorySpaceAllocate, true, false},
        SiteCase{fault::sites::kPipelineBufferAlloc, true, false},
        SiteCase{fault::sites::kPipelineCopyIn, true, false},
        SiteCase{fault::sites::kPipelineCompute, true, false},
        SiteCase{fault::sites::kPipelineCopyOut, true, false},
        // A task fault strikes mid-execution: not retryable, surfaces
        // as a structured error.
        SiteCase{fault::sites::kTaskRun, false, false},
        // The planted ordering bug is never recovered from; the
        // validator must convict it.
        SiteCase{fault::sites::kPipelineSkipCopyOutWait, false, true}),
    [](const ::testing::TestParamInfo<SiteCase>& info) {
      std::string name = info.param.site;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// Permanent (always-firing) faults at retryable sites: the ladder's
// final rung decides the outcome.
TEST(PipelineFaultSweep, PermanentExhaustionFallsBackToFarTier) {
  for (const char* site : {fault::sites::kPipelineBufferAlloc,
                           fault::sites::kMemorySpaceAllocate}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const PipelineOutcome out = run_pipeline_under_fault(
          site, seed, fault::FaultTrigger::always(),
          full_recovery_policy());
      ASSERT_TRUE(out.recovered)
          << "site=" << site << " seed=" << seed << ": "
          << out.error_what;
      EXPECT_GE(out.stats.tier_fallbacks, 1u);
      EXPECT_EQ(out.stats.bytes_copied_in, 0u);  // ran in place
    }
  }
}

TEST(PipelineFaultSweep, PermanentExhaustionWithoutFallbackIsStructured) {
  DegradePolicy policy = full_recovery_policy();
  policy.allow_tier_fallback = false;
  const PipelineOutcome out =
      run_pipeline_under_fault(fault::sites::kPipelineBufferAlloc, 0,
                               fault::FaultTrigger::always(), policy);
  ASSERT_FALSE(out.recovered);
  ASSERT_FALSE(out.chain.empty());
  EXPECT_EQ(out.chain.front().op, "buffer_alloc");
  EXPECT_FALSE(out.chain.front().tier.empty());
  EXPECT_NE(out.chain.front().detail.find("chunk_bytes="),
            std::string::npos);
  EXPECT_EQ(out.chain.back().op, "run_chunk_pipeline");
}

TEST(PipelineFaultSweep, PermanentStageFaultNamesStageChunkAndTier) {
  struct Expect {
    const char* site;
    const char* op;
  };
  for (const Expect e : {Expect{fault::sites::kPipelineCopyIn, "copy_in"},
                         Expect{fault::sites::kPipelineCompute, "compute"},
                         Expect{fault::sites::kPipelineCopyOut,
                                "copy_out"}}) {
    const PipelineOutcome out = run_pipeline_under_fault(
        e.site, 0, fault::FaultTrigger::always(), full_recovery_policy());
    ASSERT_FALSE(out.recovered) << "site=" << e.site;
    ASSERT_FALSE(out.chain.empty()) << "site=" << e.site;
    EXPECT_EQ(out.chain.front().op, e.op);
    EXPECT_GE(out.chain.front().chunk, 0);  // a concrete chunk index
    EXPECT_FALSE(out.chain.front().tier.empty());
    EXPECT_NE(out.error_what.find(e.site), std::string::npos)
        << out.error_what;
  }
}

// ---------------------------------------------------------------------
// Tiered (double-chunking) driver under injected stage faults.
// ---------------------------------------------------------------------

TEST(TieredFaultSweep, TransientStageFaultsRecoverAcrossLevels) {
  const std::size_t n = MiB(1) / sizeof(std::int64_t);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    HierarchyConfig hc;
    hc.mode = McdramMode::Flat;
    hc.tiers = {
        TierConfig{"nvm", MemKind::NVM, 0, 0.0, 0.0, 0.0},
        TierConfig{"ddr", MemKind::DDR, MiB(2), 0.0, 0.0, 0.0},
        TierConfig{"mcdram", MemKind::MCDRAM, KiB(512), 0.0, 0.0, 0.0},
    };
    MemoryHierarchy hier(hc);
    std::vector<std::int64_t> data(n);
    std::iota(data.begin(), data.end(), 0);

    DeterministicScheduler sched(seed);
    TieredPipelineConfig cfg;
    cfg.scheduler = &sched;
    cfg.levels.resize(2);
    cfg.levels[0].chunk_bytes = KiB(256);
    cfg.levels[0].pools = PoolSizes{1, 1, 1};
    cfg.levels[0].degrade = full_recovery_policy();
    cfg.levels[1].chunk_bytes = KiB(128);
    cfg.levels[1].pools = PoolSizes{1, 1, 2};
    cfg.levels[1].degrade = full_recovery_policy();

    fault::FaultPlan plan;
    plan.arm(fault::sites::kPipelineCopyIn, transient_trigger(seed));
    fault::ScopedFaultInjector inject(plan);

    const TieredPipelineStats stats =
        run_tiered_pipeline_typed<std::int64_t>(
            hier, std::span<std::int64_t>(data), cfg,
            [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
              for (auto& x : chunk) x += 1;
            });

    ASSERT_EQ(stats.levels.size(), 2u);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], static_cast<std::int64_t>(i) + 1)
          << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(TieredFaultSweep, PermanentStageFaultNamesTieredLevel) {
  const std::size_t n = MiB(1) / sizeof(std::int64_t);
  HierarchyConfig hc;
  hc.mode = McdramMode::Flat;
  hc.tiers = {
      TierConfig{"nvm", MemKind::NVM, 0, 0.0, 0.0, 0.0},
      TierConfig{"ddr", MemKind::DDR, MiB(2), 0.0, 0.0, 0.0},
      TierConfig{"mcdram", MemKind::MCDRAM, KiB(512), 0.0, 0.0, 0.0},
  };
  MemoryHierarchy hier(hc);
  std::vector<std::int64_t> data(n, 1);

  DeterministicScheduler sched(0);
  TieredPipelineConfig cfg;
  cfg.scheduler = &sched;
  cfg.levels.resize(2);
  cfg.levels[0].chunk_bytes = KiB(256);
  cfg.levels[0].pools = PoolSizes{1, 1, 1};
  cfg.levels[1].chunk_bytes = KiB(128);
  cfg.levels[1].pools = PoolSizes{1, 1, 2};

  // Hit 0 of the buffer-alloc site is the outer (NVM->DDR) ladder;
  // firing from hit 1 on makes the *inner* (DDR->MCDRAM) pipeline the
  // one that fails, so the error must climb through the tiered driver.
  fault::FaultPlan plan;
  plan.arm(fault::sites::kPipelineBufferAlloc,
           fault::FaultTrigger::after_n(1));
  fault::ScopedFaultInjector inject(plan);
  try {
    run_tiered_pipeline_typed<std::int64_t>(
        hier, std::span<std::int64_t>(data), cfg,
        [](std::span<std::int64_t>, Executor&, std::size_t) {});
    FAIL() << "expected the injected inner-level fault to propagate";
  } catch (const Error& e) {
    const auto& chain = e.chain();
    ASSERT_FALSE(chain.empty());
    const bool names_level = std::any_of(
        chain.begin(), chain.end(), [](const ErrorFrame& f) {
          return f.op.rfind("tiered_level_", 0) == 0;
        });
    EXPECT_TRUE(names_level) << e.what();
  }
}

// ---------------------------------------------------------------------
// memkind-shim sweep: injected HBW exhaustion under both policies.
// ---------------------------------------------------------------------

TEST(MemkindFaultSweep, InjectedExhaustionHonorsPolicyOverManySeeds) {
  for (std::uint64_t seed = 0; seed < kSeedsPerSite; ++seed) {
    MemorySpace space("hbw", MemKind::MCDRAM, MiB(1));
    mlm_hbw_set_space(&space);

    fault::FaultPlan plan;
    plan.arm(fault::sites::kHbwMalloc,
             fault::FaultTrigger::probability(0.5, seed));
    plan.arm(fault::sites::kHbwPosixMemalign,
             fault::FaultTrigger::probability(0.5, seed + 1));
    fault::ScopedFaultInjector inject(plan);

    // BIND: a fire is a hard ENOMEM, like hbw_malloc on exhausted HBW.
    mlm_hbw_set_policy(MLM_HBW_POLICY_BIND);
    std::vector<void*> live;
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t before =
          plan.stats(fault::sites::kHbwMalloc).fires;
      void* p = mlm_hbw_malloc(1024);
      const bool fired =
          plan.stats(fault::sites::kHbwMalloc).fires > before;
      if (fired) {
        EXPECT_EQ(p, nullptr) << "seed=" << seed << " i=" << i;
      } else {
        ASSERT_NE(p, nullptr) << "seed=" << seed << " i=" << i;
        EXPECT_EQ(mlm_hbw_verify(p), 1);
        live.push_back(p);
      }

      void* q = nullptr;
      const std::uint64_t before_ma =
          plan.stats(fault::sites::kHbwPosixMemalign).fires;
      const int rc = mlm_hbw_posix_memalign(&q, 64, 1024);
      const bool fired_ma =
          plan.stats(fault::sites::kHbwPosixMemalign).fires > before_ma;
      if (fired_ma) {
        EXPECT_EQ(rc, ENOMEM) << "seed=" << seed << " i=" << i;
      } else {
        ASSERT_EQ(rc, 0);
        EXPECT_EQ(mlm_hbw_verify(q), 1);
        live.push_back(q);
      }
    }

    // PREFERRED: a fire silently falls back to the heap (verify == 0),
    // exactly memkind's behaviour.
    mlm_hbw_set_policy(MLM_HBW_POLICY_PREFERRED);
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t before =
          plan.stats(fault::sites::kHbwMalloc).fires;
      void* p = mlm_hbw_malloc(1024);
      const bool fired =
          plan.stats(fault::sites::kHbwMalloc).fires > before;
      ASSERT_NE(p, nullptr) << "seed=" << seed << " i=" << i;
      EXPECT_EQ(mlm_hbw_verify(p), fired ? 0 : 1)
          << "seed=" << seed << " i=" << i;
      live.push_back(p);

      void* q = nullptr;
      const std::uint64_t before_ma =
          plan.stats(fault::sites::kHbwPosixMemalign).fires;
      ASSERT_EQ(mlm_hbw_posix_memalign(&q, 64, 1024), 0);
      const bool fired_ma =
          plan.stats(fault::sites::kHbwPosixMemalign).fires > before_ma;
      EXPECT_EQ(mlm_hbw_verify(q), fired_ma ? 0 : 1)
          << "seed=" << seed << " i=" << i;
      live.push_back(q);
    }

    for (void* p : live) mlm_hbw_free(p);
    EXPECT_EQ(space.stats().used_bytes, 0u) << "seed=" << seed;
    mlm_hbw_set_space(nullptr);
    mlm_hbw_set_policy(MLM_HBW_POLICY_PREFERRED);
  }
}

// ---------------------------------------------------------------------
// External-sorter sweep: four phase sites x kSeedsPerSite seeds each.
// ---------------------------------------------------------------------

struct SortOutcome {
  bool recovered = false;
  std::uint64_t fires = 0;
  ExternalSortStats stats;
  std::string error_what;
  std::vector<ErrorFrame> chain;
};

SortOutcome run_sort_under_fault(const char* site,
                                 const fault::FaultTrigger& trigger,
                                 const DegradePolicy& policy,
                                 std::uint64_t data_seed) {
  constexpr std::size_t n = 1 << 16;  // 512 KiB of int64 in NVM
  MemoryHierarchy hier(HierarchyConfig{
      {TierConfig{"nvm", MemKind::NVM, 0},  // unlimited
       TierConfig{"ddr", MemKind::DDR, MiB(2)},
       TierConfig{"mcdram", MemKind::MCDRAM, KiB(512)}},
      McdramMode::Flat});
  ThreadPool pool(2);

  SpaceBuffer<std::int64_t> data(hier.tier(0), n);
  Xoshiro256ss rng(data_seed + 1);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::int64_t>(rng.next());
  }
  std::vector<std::int64_t> expected(data.data(), data.data() + n);
  std::sort(expected.begin(), expected.end());

  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 1 << 14;  // 4 outer chunks
  cfg.inner.variant = MlmVariant::Flat;
  cfg.degrade = policy;
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);

  fault::FaultPlan plan;
  plan.arm(site, trigger);

  SortOutcome out;
  try {
    fault::ScopedFaultInjector inject(plan);
    out.stats = sorter.sort(std::span<std::int64_t>(data.data(), n));
    out.recovered = true;
  } catch (const Error& e) {
    out.error_what = e.what();
    out.chain = e.chain();
  }
  out.fires = plan.total_fires();

  if (out.recovered) {
    EXPECT_EQ(digest_of(std::span<const std::int64_t>(data.data(), n)),
              digest_of(std::span<const std::int64_t>(expected)))
        << "site=" << site << " data_seed=" << data_seed;
    // Byte-count invariant: every outer chunk staged in and out at
    // least once (a tier fallback re-stages, hence >=).
    EXPECT_GE(out.stats.bytes_staged_in, n * sizeof(std::int64_t));
    EXPECT_GE(out.stats.bytes_staged_out, n * sizeof(std::int64_t));
    EXPECT_EQ(out.stats.outer_chunks, 4u);
    EXPECT_TRUE(out.stats.external_merge_ran);
  } else {
    EXPECT_FALSE(out.chain.empty())
        << "site=" << site << ": " << out.error_what;
    if (!out.chain.empty()) {
      EXPECT_EQ(out.chain.back().op, "external_sort");
      EXPECT_FALSE(out.chain.front().op.empty());
    }
  }
  return out;
}

class SorterFaultSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SorterFaultSweep, TransientPhaseFaultsAlwaysRecover) {
  const char* site = GetParam();
  std::uint64_t fired = 0;
  for (std::uint64_t seed = 0; seed < kSeedsPerSite; ++seed) {
    const SortOutcome out = run_sort_under_fault(
        site, transient_trigger(seed), full_recovery_policy(), seed);
    ASSERT_TRUE(out.recovered)
        << "site=" << site << " seed=" << seed << ": " << out.error_what;
    if (out.fires > 0) {
      ++fired;
      EXPECT_FALSE(out.stats.degradations.empty())
          << "site=" << site << " seed=" << seed;
    }
  }
  EXPECT_GT(fired, 0u) << "site=" << site << ": sweep never injected";
}

INSTANTIATE_TEST_SUITE_P(
    Phases, SorterFaultSweep,
    ::testing::Values(fault::sites::kExternalSortStageIn,
                      fault::sites::kExternalSortInner,
                      fault::sites::kExternalSortStageOut,
                      fault::sites::kExternalSortMerge),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

// A permanently failing inner sort (MCDRAM gone for good) degrades to
// the DDR-only sorter — the HBW_POLICY_PREFERRED analogue — and still
// produces a fully sorted result.
TEST(SorterFaultSweep, PermanentInnerFaultFallsBackToDdrOnly) {
  const SortOutcome out =
      run_sort_under_fault(fault::sites::kExternalSortInner,
                           fault::FaultTrigger::always(),
                           full_recovery_policy(), 7);
  ASSERT_TRUE(out.recovered) << out.error_what;
  EXPECT_TRUE(out.stats.inner_tier_fallback);
  const bool has_fallback_event = std::any_of(
      out.stats.degradations.begin(), out.stats.degradations.end(),
      [](const DegradationEvent& e) { return e.action == "tier_fallback"; });
  EXPECT_TRUE(has_fallback_event);
  // The fallback re-stages the failed chunk from NVM: extra traffic.
  EXPECT_GT(out.stats.bytes_staged_in,
            (std::uint64_t{1} << 16) * sizeof(std::int64_t));
}

TEST(SorterFaultSweep, PermanentPhaseFaultNamesPhaseChunkAndTier) {
  DegradePolicy no_recovery;  // everything off: fail fast, annotated
  {
    const SortOutcome out =
        run_sort_under_fault(fault::sites::kExternalSortStageIn,
                             fault::FaultTrigger::always(), no_recovery, 3);
    ASSERT_FALSE(out.recovered);
    ASSERT_FALSE(out.chain.empty());
    EXPECT_EQ(out.chain.front().op, "stage_in");
    EXPECT_EQ(out.chain.front().chunk, 0);
    EXPECT_FALSE(out.chain.front().tier.empty());
  }
  {
    const SortOutcome out =
        run_sort_under_fault(fault::sites::kExternalSortMerge,
                             fault::FaultTrigger::always(), no_recovery, 3);
    ASSERT_FALSE(out.recovered);
    ASSERT_FALSE(out.chain.empty());
    EXPECT_EQ(out.chain.front().op, "merge");
    EXPECT_EQ(out.chain.front().chunk, -1);  // not chunk-scoped
  }
}

}  // namespace
}  // namespace mlm::core
