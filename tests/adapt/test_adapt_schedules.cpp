// The adaptive controller's acceptance harness: 100-seed deterministic
// schedule sweeps over both engines with the tuning hook installed.
//
// Under every seeded schedule, for both the chunk pipeline (live
// TriplePools resize + copy-out mode switches) and the external sorter
// (mid-run re-chunking + inner copy-pool resize), two runs of the same
// seed must produce byte-identical controller decision traces,
// tick-identical schedules, and digest-identical output — including
// runs with faults injected at adapt.controller.decide and the
// existing pipeline/sorter sites with the recovery ladder armed.  The
// controller runs under its determinism contract
// (ControllerConfig::use_model_times, DESIGN.md section 8), so its
// decisions are a pure function of the observed byte sequence: the
// sweep also asserts the decision trace is identical across *seeds*,
// not just across replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mlm/adapt/controller.h"
#include "mlm/adapt/pipeline_hook.h"
#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/external_sort.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/dual_space.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/proptest.h"
#include "mlm/support/units.h"

namespace mlm::adapt {
namespace {

constexpr std::uint64_t kSeeds = 100;

// A copy-starved machine: the hill-climb must move copy threads from
// the blind starting split toward the cap, exercising the engines'
// live-resize paths on a known trajectory.
core::ModelParams copy_bound_params() {
  return core::ModelParams{90e9, 400e9, 0.05e9, 6.78e9};
}

ControllerConfig deterministic_config(std::size_t total_threads) {
  ControllerConfig cfg;
  cfg.total_threads = total_threads;
  cfg.use_model_times = true;
  cfg.model_params = copy_bound_params();
  cfg.model_passes = 1.0;
  return cfg;
}

std::unique_ptr<Controller> make_hill_climber(std::size_t total_threads,
                                              std::size_t start_copy) {
  HillClimbPolicy::Options opts;
  opts.start.copy_threads = start_copy;
  opts.start.compute_threads = total_threads - 2 * start_copy;
  return std::make_unique<Controller>(
      std::make_unique<HillClimbPolicy>(opts),
      deterministic_config(total_threads));
}

std::uint64_t digest(std::span<const std::int64_t> data) {
  return digest_of(data);
}

// ---------------------------------------------------------------------------
// Chunk pipeline sweep

struct PipelineRun {
  std::string ctl_trace;
  std::string sched_trace;
  std::uint64_t data_digest = 0;
  core::PipelineStats stats;
};

enum class PipelineFaults : std::uint8_t {
  None,         ///< undisturbed run
  StageRetries, ///< stage sites + decide site, retry rung recovers
  ChunkHalving, ///< buffer-alloc fault forces the chunk-halving rung
};

PipelineRun run_pipeline(std::uint64_t seed, PipelineFaults faults) {
  fault::FaultPlan plan;
  if (faults == PipelineFaults::StageRetries) {
    plan.arm(fault::sites::kAdaptControllerDecide,
             fault::FaultTrigger::probability(0.3, seed * 2 + 1));
    plan.arm(fault::sites::kPipelineCopyIn,
             fault::FaultTrigger::probability(0.05, seed * 3 + 7));
    plan.arm(fault::sites::kPipelineCopyOut,
             fault::FaultTrigger::probability(0.05, seed * 5 + 11));
    plan.arm(fault::sites::kPipelineCompute,
             fault::FaultTrigger::probability(0.05, seed * 7 + 13));
  } else if (faults == PipelineFaults::ChunkHalving) {
    // No decide-site fault here: a skipped round would drop the very
    // degradation signal this case asserts the controller reacts to.
    plan.arm(fault::sites::kPipelineBufferAlloc,
             fault::FaultTrigger::nth_call(0));
  }
  std::optional<fault::ScopedFaultInjector> inject;
  if (faults != PipelineFaults::None) inject.emplace(plan);

  DualSpaceConfig space_cfg;
  space_cfg.mode = McdramMode::Flat;
  space_cfg.mcdram_bytes = MiB(4);
  DualSpace space(space_cfg);

  const std::size_t n = 8 * KiB(64) / sizeof(std::int64_t);
  std::vector<std::int64_t> data(n);
  std::iota(data.begin(), data.end(), 0);

  DeterministicScheduler sched(seed);
  auto ctl = make_hill_climber(8, 1);

  core::PipelineConfig cfg;
  cfg.chunk_bytes = KiB(64);
  cfg.pools = PoolSizes{1, 1, 6};  // copy-in, copy-out, compute
  cfg.buffering = core::Buffering::Triple;
  cfg.scheduler = &sched;
  cfg.tuning_hook = make_tuning_hook(*ctl);
  if (faults == PipelineFaults::StageRetries) {
    cfg.degrade.max_retries = 8;
  } else if (faults == PipelineFaults::ChunkHalving) {
    cfg.degrade.allow_chunk_halving = true;
  }

  PipelineRun run;
  run.stats = core::run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg,
      [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        for (auto& x : chunk) x += 1;
      });
  run.ctl_trace = ctl->format_trace();
  run.sched_trace = sched.format_trace();

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(data[i], static_cast<std::int64_t>(i) + 1)
        << "seed " << seed << " i=" << i;
  }
  run.data_digest = digest(std::span<const std::int64_t>(data));
  return run;
}

TEST(AdaptSchedules, PipelineHundredSeedSweepReplaysTickForTick) {
  std::string seed0_trace;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const PipelineRun a = run_pipeline(seed, PipelineFaults::None);
    const PipelineRun b = run_pipeline(seed, PipelineFaults::None);
    ASSERT_EQ(a.ctl_trace, b.ctl_trace) << "seed " << seed;
    ASSERT_EQ(a.sched_trace, b.sched_trace) << "seed " << seed;
    ASSERT_EQ(a.data_digest, b.data_digest) << "seed " << seed;

    // The copy-starved model drives exactly one live pool resize
    // (1 -> 3 copy threads, the Eq. 1 jump) plus the round-0 copy-out
    // mode resolution, on every schedule.
    EXPECT_EQ(a.stats.adaptation.split_changes, 1u) << "seed " << seed;
    EXPECT_EQ(a.stats.adaptation.final_copy_threads, 3u)
        << "seed " << seed << "\n" << a.ctl_trace;
    EXPECT_EQ(a.stats.adaptation.final_compute_threads, 2u);
    EXPECT_GE(a.stats.adaptation.mode_changes, 1u);
    EXPECT_EQ(a.stats.adaptation.decisions, a.stats.steps);

    // Decisions are a pure function of the observation sequence, which
    // the schedule does not alter: every seed sees one trace.
    if (seed == 0) {
      seed0_trace = a.ctl_trace;
      EXPECT_FALSE(seed0_trace.empty());
    } else {
      EXPECT_EQ(a.ctl_trace, seed0_trace) << "seed " << seed;
    }
  }
}

TEST(AdaptSchedules, PipelineFaultSweepReplaysWithInjectedFaults) {
  std::size_t skipped_rounds = 0;
  std::size_t retries = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const PipelineRun a = run_pipeline(seed, PipelineFaults::StageRetries);
    const PipelineRun b = run_pipeline(seed, PipelineFaults::StageRetries);
    ASSERT_EQ(a.ctl_trace, b.ctl_trace) << "seed " << seed;
    ASSERT_EQ(a.sched_trace, b.sched_trace) << "seed " << seed;
    ASSERT_EQ(a.data_digest, b.data_digest) << "seed " << seed;
    if (a.ctl_trace.find("fault_skip") != std::string::npos) {
      ++skipped_rounds;
    }
    retries += a.stats.retries;
  }
  // The sweep must actually have exercised both fault classes.
  EXPECT_GT(skipped_rounds, kSeeds / 4);
  EXPECT_GT(retries, 0u);
}

TEST(AdaptSchedules, PipelineChunkHalvingRungCoolsTheControllerDown) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const PipelineRun a = run_pipeline(seed, PipelineFaults::ChunkHalving);
    const PipelineRun b = run_pipeline(seed, PipelineFaults::ChunkHalving);
    ASSERT_EQ(a.ctl_trace, b.ctl_trace) << "seed " << seed;
    ASSERT_EQ(a.data_digest, b.data_digest) << "seed " << seed;
    EXPECT_GE(a.stats.chunk_halvings, 1u) << "seed " << seed;
    // The ladder's move shows up as a degraded round followed by the
    // cooldown freeze — retune, don't thrash.
    EXPECT_NE(a.ctl_trace.find("degraded"), std::string::npos)
        << a.ctl_trace;
    EXPECT_NE(a.ctl_trace.find("cooldown"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// External sorter sweep

struct SortRun {
  std::string ctl_trace;
  std::string sched_trace;
  std::uint64_t data_digest = 0;
  core::ExternalSortStats stats;
};

constexpr std::size_t kSortElements = 4096;
constexpr std::uint64_t kInputSeed = 42;

HierarchyConfig sort_hierarchy() {
  HierarchyConfig cfg;
  cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
               TierConfig{"ddr", MemKind::DDR, MiB(2)},
               TierConfig{"mcdram", MemKind::MCDRAM, KiB(256)}};
  cfg.mode = McdramMode::Flat;
  return cfg;
}

core::ExternalSortConfig sort_config() {
  core::ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 512;  // 8 outer chunks
  cfg.inner.variant = core::MlmVariant::Flat;
  cfg.inner.megachunk_elements = 128;
  cfg.inner.overlap_copy_in = true;
  cfg.inner.copy_threads = 2;
  return cfg;
}

std::uint64_t sorted_reference_digest() {
  std::vector<std::int64_t> data =
      sort::make_input(kSortElements, sort::InputOrder::Random, kInputSeed);
  std::sort(data.begin(), data.end());
  return digest(std::span<const std::int64_t>(data));
}

enum class SortFaults : std::uint8_t {
  None,         ///< undisturbed run
  StageRetries, ///< staging sites + decide site, retry rung recovers
  TierFallback, ///< one inner-sort fault forces the DDR-only rung
};

SortRun run_sorter(std::uint64_t seed, SortFaults faults,
                   ControllerPolicy* policy_override = nullptr) {
  fault::FaultPlan plan;
  if (faults == SortFaults::StageRetries) {
    plan.arm(fault::sites::kAdaptControllerDecide,
             fault::FaultTrigger::probability(0.3, seed * 2 + 1));
    plan.arm(fault::sites::kExternalSortStageIn,
             fault::FaultTrigger::probability(0.05, seed * 3 + 7));
    plan.arm(fault::sites::kExternalSortStageOut,
             fault::FaultTrigger::probability(0.05, seed * 5 + 11));
  } else if (faults == SortFaults::TierFallback) {
    plan.arm(fault::sites::kExternalSortInner,
             fault::FaultTrigger::nth_call(0));
  }
  std::optional<fault::ScopedFaultInjector> inject;
  if (faults != SortFaults::None) inject.emplace(plan);

  MemoryHierarchy hier(sort_hierarchy());
  DeterministicScheduler sched(seed);
  DeterministicExecutor pool(sched, 8, "pool");

  SpaceBuffer<std::int64_t> buffer(hier.tier(0), kSortElements);
  const auto init =
      sort::make_input(kSortElements, sort::InputOrder::Random, kInputSeed);
  std::copy(init.begin(), init.end(), buffer.data());

  std::unique_ptr<Controller> ctl;
  if (policy_override == nullptr) {
    ctl = make_hill_climber(8, 2);
  }

  core::ExternalSortConfig cfg = sort_config();
  if (faults == SortFaults::StageRetries) {
    cfg.degrade.max_retries = 8;
  } else if (faults == SortFaults::TierFallback) {
    cfg.degrade.allow_tier_fallback = true;
  }

  SortRun run;
  std::string override_trace;
  {
    Controller* active = ctl.get();
    std::optional<Controller> local;
    if (policy_override != nullptr) {
      ControllerConfig ccfg = deterministic_config(8);
      ccfg.min_chunk_bytes = 1024;
      // The override policy object is owned by the caller per case; we
      // wrap a fresh non-owning unique_ptr-free controller here.
      struct Forward : ControllerPolicy {
        ControllerPolicy* inner;
        explicit Forward(ControllerPolicy* p) : inner(p) {}
        const char* name() const override { return inner->name(); }
        Tuning initial() const override { return inner->initial(); }
        Tuning propose(const PolicyInput& input,
                       std::string& reason) override {
          return inner->propose(input, reason);
        }
      };
      local.emplace(std::make_unique<Forward>(policy_override), ccfg);
      active = &*local;
    }
    cfg.tuning_hook = make_tuning_hook(*active);

    core::ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
    run.stats =
        sorter.sort(std::span<std::int64_t>(buffer.data(), kSortElements));
    run.ctl_trace = active->format_trace();
  }
  run.sched_trace = sched.format_trace();
  run.data_digest =
      digest(std::span<const std::int64_t>(buffer.data(), kSortElements));
  EXPECT_TRUE(std::is_sorted(buffer.data(), buffer.data() + kSortElements))
      << "seed " << seed;
  return run;
}

TEST(AdaptSchedules, SorterHundredSeedSweepReplaysTickForTick) {
  const std::uint64_t expected = sorted_reference_digest();
  std::string seed0_trace;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const SortRun a = run_sorter(seed, SortFaults::None);
    const SortRun b = run_sorter(seed, SortFaults::None);
    ASSERT_EQ(a.ctl_trace, b.ctl_trace) << "seed " << seed;
    ASSERT_EQ(a.sched_trace, b.sched_trace) << "seed " << seed;
    ASSERT_EQ(a.data_digest, expected) << "seed " << seed;
    ASSERT_EQ(b.data_digest, expected) << "seed " << seed;

    // One inner copy-pool resize (2 -> 3 copy threads), applied at an
    // outer-chunk boundary, on every schedule.
    EXPECT_EQ(a.stats.adaptation.split_changes, 1u)
        << "seed " << seed << "\n" << a.ctl_trace;
    EXPECT_EQ(a.stats.adaptation.final_copy_threads, 3u);
    EXPECT_EQ(a.stats.adaptation.decisions, a.stats.outer_chunks);
    EXPECT_EQ(a.stats.outer_chunks, 8u);

    if (seed == 0) {
      seed0_trace = a.ctl_trace;
      EXPECT_FALSE(seed0_trace.empty());
    } else {
      EXPECT_EQ(a.ctl_trace, seed0_trace) << "seed " << seed;
    }
  }
}

TEST(AdaptSchedules, SorterFaultSweepReplaysWithInjectedFaults) {
  const std::uint64_t expected = sorted_reference_digest();
  std::size_t skipped_rounds = 0;
  std::size_t retries = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const SortRun a = run_sorter(seed, SortFaults::StageRetries);
    const SortRun b = run_sorter(seed, SortFaults::StageRetries);
    ASSERT_EQ(a.ctl_trace, b.ctl_trace) << "seed " << seed;
    ASSERT_EQ(a.sched_trace, b.sched_trace) << "seed " << seed;
    ASSERT_EQ(a.data_digest, expected) << "seed " << seed;
    ASSERT_EQ(b.data_digest, expected) << "seed " << seed;
    if (a.ctl_trace.find("fault_skip") != std::string::npos) {
      ++skipped_rounds;
    }
    retries += a.stats.retries;
  }
  EXPECT_GT(skipped_rounds, kSeeds / 4);
  EXPECT_GT(retries, 0u);
}

TEST(AdaptSchedules, SorterTierFallbackRungStaysDigestIdentical) {
  const std::uint64_t expected = sorted_reference_digest();
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const SortRun a = run_sorter(seed, SortFaults::TierFallback);
    const SortRun b = run_sorter(seed, SortFaults::TierFallback);
    ASSERT_EQ(a.ctl_trace, b.ctl_trace) << "seed " << seed;
    ASSERT_EQ(a.data_digest, expected) << "seed " << seed;
    EXPECT_TRUE(a.stats.inner_tier_fallback) << "seed " << seed;
    // The fallback is a recovery rung: the controller sees it and
    // freezes instead of fighting it, and — with the inner sorter now
    // pinned DDR-only — never resizes the dead copy pool.
    EXPECT_NE(a.ctl_trace.find("degraded"), std::string::npos);
    EXPECT_EQ(a.stats.adaptation.split_changes, 0u) << a.ctl_trace;
  }
}

// A policy that halves the outer chunk once: proves mid-sort
// re-chunking is output-transparent (the final merge consumes sorted
// runs of any sizes).
class ShrinkOncePolicy : public ControllerPolicy {
 public:
  const char* name() const override { return "shrink-once"; }
  Tuning initial() const override { return Tuning{2, 4, 0, CopyMode::Auto}; }
  Tuning propose(const PolicyInput& input, std::string& reason) override {
    Tuning t = input.current;
    if (!done_) {
      done_ = true;
      t.chunk_bytes = input.chunk_bytes / 2;
      reason = "shrink";
    } else {
      reason = "hold";
    }
    return t;
  }

 private:
  bool done_ = false;
};

TEST(AdaptSchedules, SorterReChunksRemainingInputDigestIdentical) {
  const std::uint64_t expected = sorted_reference_digest();
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ShrinkOncePolicy pa;
    const SortRun a = run_sorter(seed, SortFaults::None, &pa);
    ShrinkOncePolicy pb;
    const SortRun b = run_sorter(seed, SortFaults::None, &pb);
    ASSERT_EQ(a.ctl_trace, b.ctl_trace) << "seed " << seed;
    ASSERT_EQ(a.sched_trace, b.sched_trace) << "seed " << seed;
    ASSERT_EQ(a.data_digest, expected) << "seed " << seed;

    // Chunk 0 ran at 512 elements; the remaining 3584 re-chunked at
    // 256 elements -> 1 + 14 outer chunks, one applied chunk change.
    EXPECT_EQ(a.stats.adaptation.chunk_changes, 1u)
        << "seed " << seed << "\n" << a.ctl_trace;
    EXPECT_EQ(a.stats.outer_chunks, 15u);
    EXPECT_EQ(a.stats.adaptation.decisions, 15u);
  }
}

}  // namespace
}  // namespace mlm::adapt
