// Schedule-exploration suite: every pipeline variant runs under many
// seeded deterministic schedules with the invariant validator armed.
// Each seed is a different task interleaving; the data result, the
// validator, and the stats must hold under all of them, and a failing
// seed reproduces its exact schedule (trace equality is asserted below).
#include "mlm/core/chunk_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "mlm/core/pipeline_validator.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/dual_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

constexpr std::uint64_t kSeedsPerVariant = 100;

DualSpace make_space(McdramMode mode, std::uint64_t mcdram = MiB(4)) {
  DualSpaceConfig cfg;
  cfg.mode = mode;
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

PipelineConfig sched_config(Buffering buffering,
                            DeterministicScheduler& sched,
                            PipelineValidator& validator) {
  PipelineConfig cfg;
  cfg.chunk_bytes = 64 * 1024;
  cfg.pools = PoolSizes{2, 2, 2};
  cfg.buffering = buffering;
  cfg.scheduler = &sched;
  cfg.validator = &validator;
  return cfg;
}

struct Variant {
  McdramMode mode;
  Buffering buffering;
  bool write_back;
};

std::string variant_name(const Variant& v) {
  std::string name = std::string(to_string(v.mode)) + "_" +
                     to_string(v.buffering) +
                     (v.write_back ? "_wb" : "_ro");
  // gtest parameterized names must be alphanumeric/underscore only.
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class PipelineSchedules : public ::testing::TestWithParam<Variant> {};

// The acceptance sweep: kSeedsPerVariant seeded schedules per pipeline
// variant, each checked by the validator and by the data itself.
TEST_P(PipelineSchedules, HoldsInvariantsUnderManySchedules) {
  const Variant v = GetParam();
  const std::size_t n = 5 * 64 * 1024 / sizeof(std::int64_t);  // 5 chunks
  PipelineValidator validator;

  for (std::uint64_t seed = 0; seed < kSeedsPerVariant; ++seed) {
    DualSpace space = make_space(v.mode);
    std::vector<std::int64_t> data(n);
    std::iota(data.begin(), data.end(), 0);

    DeterministicScheduler sched(seed);
    PipelineConfig cfg = sched_config(v.buffering, sched, validator);
    cfg.write_back = v.write_back;

    const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
        space, std::span<std::int64_t>(data), cfg,
        [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
          for (auto& x : chunk) x += 1;
        });
    ASSERT_EQ(stats.chunks, 5u) << "seed=" << seed;

    // Explicit modes write back when asked; implicit modes always
    // mutate in place.  Either way the result must be exact.
    if (v.write_back) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(data[i], static_cast<std::int64_t>(i) + 1)
            << "seed=" << seed << " i=" << i;
      }
    }
  }
  EXPECT_EQ(validator.runs_completed(), kSeedsPerVariant);
  EXPECT_GT(validator.events_checked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSchedules,
    ::testing::Values(
        // Explicit-copy modes x all bufferings, write-back and read-only.
        Variant{McdramMode::Flat, Buffering::Single, true},
        Variant{McdramMode::Flat, Buffering::Double, true},
        Variant{McdramMode::Flat, Buffering::Triple, true},
        Variant{McdramMode::Flat, Buffering::Triple, false},
        Variant{McdramMode::Hybrid, Buffering::Double, true},
        Variant{McdramMode::Hybrid, Buffering::Triple, true},
        // Degenerate in-place modes (no explicit copies).
        Variant{McdramMode::ImplicitCache, Buffering::Triple, true},
        Variant{McdramMode::Cache, Buffering::Triple, true},
        Variant{McdramMode::DdrOnly, Buffering::Single, true}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return variant_name(info.param);
    });

// Replaying a seed must reproduce the identical schedule, task for task.
TEST(PipelineScheduleReplay, SameSeedIdenticalTrace) {
  auto run = [](std::uint64_t seed) {
    DualSpace space = make_space(McdramMode::Flat);
    const std::size_t n = 4 * 64 * 1024 / sizeof(std::int64_t);
    std::vector<std::int64_t> data(n, 1);
    DeterministicScheduler sched(seed);
    PipelineValidator validator;
    PipelineConfig cfg =
        sched_config(Buffering::Triple, sched, validator);
    run_chunk_pipeline_typed<std::int64_t>(
        space, std::span<std::int64_t>(data), cfg,
        [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
          for (auto& x : chunk) x *= 2;
        });
    return sched.trace();
  };
  for (std::uint64_t seed : {0ULL, 1ULL, 99ULL, 0xdeadbeefULL}) {
    const auto first = run(seed);
    const auto second = run(seed);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first, second) << "seed=" << seed;
  }
  // Distinct seeds explore distinct interleavings of the same task set.
  EXPECT_NE(run(0), run(1));
}

// The deliberately-injected ordering bug: the step barrier "forgets" to
// join copy-out futures, so a buffer is reused while its copy-out is
// still (logically) in flight.  The validator must catch this under
// every seed, for every buffering depth.
TEST(PipelineFaults, SkippedCopyOutWaitIsCaughtUnderEverySchedule) {
  for (Buffering buffering :
       {Buffering::Single, Buffering::Double, Buffering::Triple}) {
    for (std::uint64_t seed = 0; seed < kSeedsPerVariant; ++seed) {
      DualSpace space = make_space(McdramMode::Flat);
      const std::size_t n = 6 * 64 * 1024 / sizeof(std::int64_t);
      std::vector<std::int64_t> data(n, 1);
      DeterministicScheduler sched(seed);
      PipelineValidator validator;
      PipelineConfig cfg = sched_config(buffering, sched, validator);
      fault::FaultPlan plan;
      plan.arm(fault::sites::kPipelineSkipCopyOutWait,
               fault::FaultTrigger::always());
      fault::ScopedFaultInjector inject(plan);
      EXPECT_THROW(
          run_chunk_pipeline_typed<std::int64_t>(
              space, std::span<std::int64_t>(data), cfg,
              [](std::span<std::int64_t>, Executor&, std::size_t) {}),
          PipelineInvariantError)
          << to_string(buffering) << " seed=" << seed;
    }
  }
}

// Same bug, but without enough chunks to force buffer reuse: the leak is
// still caught at end_run (buffer owned when the run finished).
TEST(PipelineFaults, SkippedCopyOutWaitCaughtAtEndOfRunWithoutReuse) {
  DualSpace space = make_space(McdramMode::Flat);
  const std::size_t n = 2 * 64 * 1024 / sizeof(std::int64_t);  // 2 chunks
  std::vector<std::int64_t> data(n, 1);
  DeterministicScheduler sched(0);
  PipelineValidator validator;
  PipelineConfig cfg = sched_config(Buffering::Triple, sched, validator);
  fault::FaultPlan plan;
  plan.arm(fault::sites::kPipelineSkipCopyOutWait,
           fault::FaultTrigger::always());
  fault::ScopedFaultInjector inject(plan);
  EXPECT_THROW(
      run_chunk_pipeline_typed<std::int64_t>(
          space, std::span<std::int64_t>(data), cfg,
          [](std::span<std::int64_t>, Executor&, std::size_t) {}),
      PipelineInvariantError);
}

// A compute exception under a deterministic schedule must propagate
// without executing stale tasks against freed buffers (the executors
// drop their pending tasks on teardown).
TEST(PipelineSchedules, ComputeExceptionPropagatesUnderSchedules) {
  for (std::uint64_t seed = 0; seed < kSeedsPerVariant; ++seed) {
    DualSpace space = make_space(McdramMode::Flat);
    const std::size_t n = 5 * 64 * 1024 / sizeof(std::int64_t);
    std::vector<std::int64_t> data(n, 1);
    DeterministicScheduler sched(seed);
    PipelineConfig cfg;
    cfg.chunk_bytes = 64 * 1024;
    cfg.pools = PoolSizes{2, 2, 2};
    cfg.scheduler = &sched;
    EXPECT_THROW(run_chunk_pipeline_typed<std::int64_t>(
                     space, std::span<std::int64_t>(data), cfg,
                     [](std::span<std::int64_t>, Executor&,
                        std::size_t idx) {
                       if (idx == 2) throw Error("injected compute fault");
                     }),
                 Error)
        << "seed=" << seed;
  }
}

// Double chunking: the whole two-level pipeline — outer NVM->DDR copies,
// inner DDR->MCDRAM copies, innermost compute — interleaves under one
// seeded schedule, with a validator per level.
TEST(TieredPipelineSchedules, DoubleChunkingHoldsUnderManySchedules) {
  const std::size_t n = MiB(2) / sizeof(std::int64_t);
  for (std::uint64_t seed = 0; seed < kSeedsPerVariant; ++seed) {
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
    PipelineValidator outer_validator;
    PipelineValidator inner_validator;
    TieredPipelineConfig cfg;
    cfg.scheduler = &sched;
    cfg.levels.resize(2);
    cfg.levels[0].chunk_bytes = KiB(512);
    cfg.levels[0].pools = PoolSizes{1, 1, 1};
    cfg.levels[0].validator = &outer_validator;
    cfg.levels[1].chunk_bytes = KiB(128);
    cfg.levels[1].pools = PoolSizes{1, 1, 2};
    cfg.levels[1].validator = &inner_validator;

    const TieredPipelineStats stats =
        run_tiered_pipeline_typed<std::int64_t>(
            hier, std::span<std::int64_t>(data), cfg,
            [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
              for (auto& x : chunk) x += 1;
            });

    ASSERT_EQ(stats.levels.size(), 2u);
    ASSERT_EQ(outer_validator.runs_completed(), 1u) << "seed=" << seed;
    // The inner pipeline runs once per outer chunk.
    ASSERT_EQ(inner_validator.runs_completed(),
              stats.levels[0].chunks)
        << "seed=" << seed;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], static_cast<std::int64_t>(i) + 1)
          << "seed=" << seed << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace mlm::core
