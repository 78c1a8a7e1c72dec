// Graceful-degradation tests that do NOT rely on injection for the
// failure itself: real near-tier capacity pressure drives the recovery
// ladder (retry -> chunk halving -> tier fallback), and the structured
// error chain is inspected when the ladder is exhausted.
#include "mlm/core/degrade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/external_sort.h"
#include "mlm/fault/fault.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/cache_line.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

DualSpace tiny_mcdram_space(std::uint64_t mcdram_bytes) {
  DualSpaceConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.mcdram_bytes = mcdram_bytes;
  return DualSpace(cfg);
}

std::vector<std::int64_t> iota_data(std::size_t n) {
  std::vector<std::int64_t> data(n);
  std::iota(data.begin(), data.end(), 0);
  return data;
}

void check_incremented(const std::vector<std::int64_t>& data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], static_cast<std::int64_t>(i) + 1) << "i=" << i;
  }
}

PipelineConfig triple_config(std::size_t chunk_bytes) {
  PipelineConfig cfg;
  cfg.chunk_bytes = chunk_bytes;
  cfg.pools = PoolSizes{1, 1, 1};
  cfg.buffering = Buffering::Triple;
  return cfg;
}

auto increment = [](std::span<std::int64_t> chunk, Executor&,
                    std::size_t) {
  for (auto& x : chunk) x += 1;
};

// 3 x 64 KiB triple buffers cannot fit in 128 KiB of MCDRAM; with
// halving allowed the pipeline lands on 32 KiB chunks and completes.
TEST(DegradeChunkHalving, RealCapacityPressureHalvesUntilFit) {
  DualSpace space = tiny_mcdram_space(KiB(128));
  auto data = iota_data(4 * KiB(64) / sizeof(std::int64_t));
  PipelineConfig cfg = triple_config(KiB(64));
  cfg.degrade.allow_chunk_halving = true;
  cfg.degrade.min_chunk_bytes = 4096;

  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg, increment);

  EXPECT_EQ(stats.chunk_halvings, 1u);
  EXPECT_EQ(stats.tier_fallbacks, 0u);
  EXPECT_EQ(stats.chunks, 8u);  // 256 KiB of data in 32 KiB chunks
  ASSERT_EQ(stats.degradations.size(), 1u);
  EXPECT_EQ(stats.degradations[0].action, "chunk_halved");
  EXPECT_EQ(stats.degradations[0].site,
            fault::sites::kPipelineBufferAlloc);
  check_incremented(data);
}

// 8 KiB of MCDRAM cannot hold three 4 KiB buffers even at the halving
// floor; with tier fallback allowed the run completes in place in DDR.
TEST(DegradeTierFallback, ExhaustedLadderRunsInPlaceInFarTier) {
  DualSpace space = tiny_mcdram_space(KiB(8));
  auto data = iota_data(2 * KiB(64) / sizeof(std::int64_t));
  PipelineConfig cfg = triple_config(KiB(64));
  cfg.degrade.allow_chunk_halving = true;
  cfg.degrade.min_chunk_bytes = 4096;
  cfg.degrade.allow_tier_fallback = true;

  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg, increment);

  EXPECT_GE(stats.chunk_halvings, 1u);
  EXPECT_EQ(stats.tier_fallbacks, 1u);
  EXPECT_EQ(stats.bytes_copied_in, 0u);   // no explicit staging
  EXPECT_EQ(stats.bytes_copied_out, 0u);
  check_incremented(data);
}

// With the ladder disabled the same pressure is a structured error:
// innermost frame names the allocation, outermost names the pipeline.
TEST(DegradeDisabled, CapacityPressureIsAStructuredError) {
  DualSpace space = tiny_mcdram_space(KiB(128));
  auto data = iota_data(4 * KiB(64) / sizeof(std::int64_t));
  PipelineConfig cfg = triple_config(KiB(64));  // degrade defaults off
  EXPECT_FALSE(cfg.degrade.any_enabled());

  try {
    run_chunk_pipeline_typed<std::int64_t>(
        space, std::span<std::int64_t>(data), cfg, increment);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    const auto& chain = e.chain();
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0].op, "buffer_alloc");
    EXPECT_EQ(chain[0].tier, space.mcdram().name());
    EXPECT_EQ(chain[0].thread, "orchestrator");
    EXPECT_NE(chain[0].detail.find("chunk_bytes=65536"),
              std::string::npos);
    EXPECT_EQ(chain[1].op, "run_chunk_pipeline");
    // what() renders the base message plus one line per frame.
    const std::string what = e.what();
    EXPECT_NE(what.find("in buffer_alloc"), std::string::npos);
    EXPECT_NE(what.find("in run_chunk_pipeline"), std::string::npos);
  }
}

// Retry bookkeeping: a single injected transient exhaustion costs
// exactly one retry and is recorded as a degradation event.
TEST(DegradeRetry, TransientExhaustionCostsOneRecordedRetry) {
  DualSpace space = tiny_mcdram_space(MiB(4));
  auto data = iota_data(4 * KiB(64) / sizeof(std::int64_t));
  PipelineConfig cfg = triple_config(KiB(64));
  cfg.degrade.max_retries = 2;

  fault::FaultPlan plan;
  plan.arm(fault::sites::kPipelineBufferAlloc,
           fault::FaultTrigger::nth_call(0));
  fault::ScopedFaultInjector inject(plan);

  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg, increment);

  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.chunk_halvings, 0u);
  ASSERT_EQ(stats.degradations.size(), 1u);
  EXPECT_EQ(stats.degradations[0].action, "retry");
  EXPECT_EQ(stats.degradations[0].attempt, 1u);
  check_incremented(data);
}

// Backoff path smoke test: real (microsecond) backoff between retries
// on real thread pools — must terminate promptly and still recover.
TEST(DegradeRetry, BackoffBetweenRetriesRecovers) {
  DualSpace space = tiny_mcdram_space(MiB(4));
  auto data = iota_data(4 * KiB(64) / sizeof(std::int64_t));
  PipelineConfig cfg = triple_config(KiB(64));
  cfg.degrade.max_retries = 3;
  cfg.degrade.backoff_us = 10;

  fault::FaultPlan plan;
  plan.arm(fault::sites::kPipelineCopyIn,
           fault::FaultTrigger::after_n(0, 3));
  fault::ScopedFaultInjector inject(plan);

  const PipelineStats stats = run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg, increment);

  EXPECT_EQ(stats.retries, 3u);
  check_incremented(data);
}

// Stage retries exhausted: the error says how many attempts were made
// and the stats that *were* accumulated are lost with the throw, but
// the degradation trail travels in the error chain detail.
TEST(DegradeRetry, ExhaustedStageRetriesThrowWithAttemptCount) {
  DualSpace space = tiny_mcdram_space(MiB(4));
  auto data = iota_data(4 * KiB(64) / sizeof(std::int64_t));
  PipelineConfig cfg = triple_config(KiB(64));
  cfg.degrade.max_retries = 2;

  fault::FaultPlan plan;
  plan.arm(fault::sites::kPipelineCopyIn, fault::FaultTrigger::always());
  fault::ScopedFaultInjector inject(plan);

  try {
    run_chunk_pipeline_typed<std::int64_t>(
        space, std::span<std::int64_t>(data), cfg, increment);
    FAIL() << "expected InjectedFaultError";
  } catch (const fault::InjectedFaultError& e) {
    const auto& chain = e.chain();
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front().op, "copy_in");
    EXPECT_NE(chain.front().detail.find("retries exhausted after 2"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------
// External sorter rungs.  The DDR staging buffer is the sort's first
// MemorySpace allocation, so memory.space.allocate armed with
// nth_call(0) fails exactly that allocation.

constexpr std::size_t kSortElements = 4000;
constexpr const char* kDdrStaging = "sort.external.ddr_staging";

// 512 KiB "MCDRAM", 2 MiB "DDR", unlimited NVM.
TripleSpace small_triple_space() {
  TripleSpaceConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.mcdram_bytes = KiB(512);
  cfg.ddr_bytes = MiB(2);
  cfg.nvm_bytes = 0;
  return TripleSpace(cfg);
}

ExternalSortConfig staging_config() {
  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 1000;  // 8000 B of int64
  cfg.inner.variant = MlmVariant::Flat;
  return cfg;
}

// NVM-resident random input, allocated before any fault plan is armed.
struct NvmInput {
  explicit NvmInput(TripleSpace& space) : buf(space.nvm(), kSortElements) {
    const auto init = sort::make_input(kSortElements,
                                       sort::InputOrder::Random, 11);
    std::copy(init.begin(), init.end(), buf.data());
  }
  std::span<std::int64_t> span() {
    return std::span<std::int64_t>(buf.data(), kSortElements);
  }
  bool sorted() const {
    return std::is_sorted(buf.data(), buf.data() + kSortElements);
  }
  SpaceBuffer<std::int64_t> buf;
};

void arm_staging_exhaustion(fault::FaultPlan& plan) {
  plan.arm(fault::sites::kMemorySpaceAllocate,
           fault::FaultTrigger::nth_call(0));
}

TEST(DegradeSorterStaging, TransientExhaustionCostsOneRecordedRetry) {
  TripleSpace space = small_triple_space();
  ThreadPool pool(2);
  NvmInput input(space);
  ExternalSortConfig cfg = staging_config();
  cfg.degrade.max_retries = 1;
  ExternalMlmSorter<std::int64_t> sorter(space, pool, cfg);

  fault::FaultPlan plan;
  arm_staging_exhaustion(plan);
  fault::ScopedFaultInjector inject(plan);
  const ExternalSortStats stats = sorter.sort(input.span());

  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.outer_chunk_halvings, 0u);
  ASSERT_EQ(stats.degradations.size(), 1u);
  EXPECT_EQ(stats.degradations[0].site, kDdrStaging);
  EXPECT_EQ(stats.degradations[0].action, "retry");
  EXPECT_EQ(stats.degradations[0].attempt, 1u);
  EXPECT_TRUE(input.sorted());
}

TEST(DegradeSorterStaging, HalvingRungShrinksTheOuterChunk) {
  TripleSpace space = small_triple_space();
  ThreadPool pool(2);
  NvmInput input(space);
  ExternalSortConfig cfg = staging_config();
  cfg.degrade.allow_chunk_halving = true;
  cfg.degrade.min_chunk_bytes = 1024;
  ExternalMlmSorter<std::int64_t> sorter(space, pool, cfg);

  fault::FaultPlan plan;
  arm_staging_exhaustion(plan);
  fault::ScopedFaultInjector inject(plan);
  const ExternalSortStats stats = sorter.sort(input.span());

  EXPECT_EQ(stats.outer_chunk_halvings, 1u);
  EXPECT_EQ(stats.retries, 0u);
  ASSERT_EQ(stats.degradations.size(), 1u);
  EXPECT_EQ(stats.degradations[0].site, kDdrStaging);
  EXPECT_EQ(stats.degradations[0].action, "chunk_halved");
  EXPECT_TRUE(input.sorted());
}

// Regression: the sorter used to halve the element count (1000 -> 500
// int64 = 4000 B), breaking the 64-byte-aligned halving rule.
TEST(DegradeSorterStaging, HalvedOuterChunkStaysCacheLineAligned) {
  TripleSpace space = small_triple_space();
  ThreadPool pool(2);
  NvmInput input(space);
  ExternalSortConfig cfg = staging_config();
  cfg.degrade.allow_chunk_halving = true;
  cfg.degrade.min_chunk_bytes = 1024;
  ExternalMlmSorter<std::int64_t> sorter(space, pool, cfg);

  fault::FaultPlan plan;
  arm_staging_exhaustion(plan);
  fault::ScopedFaultInjector inject(plan);
  ExternalMlmSorter<std::int64_t>::Stepper stepper(sorter, input.span());
  const ExternalSortCheckpoint ckpt = stepper.checkpoint();

  // 8000 B halve to 4000 B, rounded down to 3968 B = 496 elements.
  ASSERT_GE(ckpt.chunk_begins.size(), 2u);
  EXPECT_EQ(ckpt.chunk_begins[1], 496u);
  EXPECT_EQ(ckpt.chunk_begins[1] * sizeof(std::int64_t) % kCacheLineBytes,
            0u);
  while (stepper.step()) {
  }
  EXPECT_EQ(stepper.finish().outer_chunk_halvings, 1u);
  EXPECT_TRUE(input.sorted());
}

TEST(DegradeSorterStaging, LadderOffIsAStructuredError) {
  TripleSpace space = small_triple_space();
  ThreadPool pool(2);
  NvmInput input(space);
  ExternalMlmSorter<std::int64_t> sorter(space, pool, staging_config());

  fault::FaultPlan plan;
  arm_staging_exhaustion(plan);
  fault::ScopedFaultInjector inject(plan);
  try {
    sorter.sort(input.span());
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    const auto& chain = e.chain();
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0].op, "ddr_staging_alloc");
    EXPECT_EQ(chain[0].tier, space.ddr().name());
    EXPECT_EQ(chain[0].thread, "orchestrator");
    EXPECT_EQ(chain[0].detail, "outer_chunk_elements=1000");
    EXPECT_EQ(chain[1].op, "external_sort");
  }
}

// The restore constructor walks the retry rung only; with the ladder
// off its error names the checkpointed chunk it had to fit.
TEST(DegradeSorterStaging, RestoreLadderOffNamesTheCheckpointedChunk) {
  TripleSpace space = small_triple_space();
  ThreadPool pool(2);
  NvmInput input(space);
  ExternalMlmSorter<std::int64_t> sorter(space, pool, staging_config());
  ExternalSortCheckpoint ckpt;
  ckpt.chunk_begins = {0, 1000, 2000, 3000, kSortElements};

  fault::FaultPlan plan;
  arm_staging_exhaustion(plan);
  fault::ScopedFaultInjector inject(plan);
  try {
    ExternalMlmSorter<std::int64_t>::Stepper restored(sorter, input.span(),
                                                      ckpt);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    const auto& chain = e.chain();
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0].op, "ddr_staging_alloc");
    EXPECT_EQ(chain[0].detail, "restore outer_chunk_elements=1000");
    EXPECT_EQ(chain[1].op, "external_sort");
  }
}

// Regression: the sorter used to sleep through its backoff even on a
// deterministic executor, where DegradePolicy promises it never sleeps.
TEST(DegradeSorterBackoff, DeterministicExecutorNeverSleeps) {
  TripleSpace space = small_triple_space();
  DeterministicScheduler sched(3);
  DeterministicExecutor pool(sched, 2, "pool");
  NvmInput input(space);
  ExternalSortConfig cfg = staging_config();
  cfg.degrade.max_retries = 1;
  cfg.degrade.backoff_us = 1'000'000;
  ExternalMlmSorter<std::int64_t> sorter(space, pool, cfg);

  fault::FaultPlan plan;
  plan.arm(fault::sites::kExternalSortStageIn,
           fault::FaultTrigger::nth_call(0));
  fault::ScopedFaultInjector inject(plan);
  Stopwatch clock;
  const ExternalSortStats stats = sorter.sort(input.span());

  EXPECT_LT(clock.elapsed_s(), 0.5);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_TRUE(input.sorted());
}

// Regression: the doubled backoff must saturate at backoff_cap_us, not
// shift off the end of std::size_t.  Before the cap, a retry chain in
// the tens of attempts wrapped the delay back to ~0 and turned backoff
// into a busy spin exactly when the system was most overloaded.
TEST(DegradePolicy, BackoffDelaySaturatesAtCapForLongRetryChains) {
  DegradePolicy p;
  p.backoff_us = 100;
  p.backoff_cap_us = 1u << 20;

  EXPECT_EQ(p.delay_us(0), 0u);    // attempt 0: no wait
  EXPECT_EQ(p.delay_us(1), 100u);  // base
  EXPECT_EQ(p.delay_us(2), 200u);  // doubled
  EXPECT_EQ(p.delay_us(5), 1600u);

  // Past the doubling range the delay pins to the cap — including
  // attempt counts far beyond the word size, which used to wrap.
  const std::size_t cap = p.backoff_cap_us;
  EXPECT_EQ(p.delay_us(20), cap);
  EXPECT_EQ(p.delay_us(64), cap);
  EXPECT_EQ(p.delay_us(65), cap);
  EXPECT_EQ(p.delay_us(100000), cap);
  for (std::size_t attempt = 1; attempt < 80; ++attempt) {
    EXPECT_LE(p.delay_us(attempt), cap) << "attempt " << attempt;
    EXPECT_GE(p.delay_us(attempt + 1), p.delay_us(attempt))
        << "attempt " << attempt;  // monotone, never wraps
  }

  // Backoff disabled stays disabled regardless of attempt count.
  DegradePolicy off;
  EXPECT_EQ(off.delay_us(64), 0u);
}

// DegradePolicy::any_enabled drives the zero-cost default path.
TEST(DegradePolicy, AnyEnabledReflectsConfiguredRungs) {
  DegradePolicy p;
  EXPECT_FALSE(p.any_enabled());
  p.max_retries = 1;
  EXPECT_TRUE(p.any_enabled());
  p = DegradePolicy{};
  p.allow_chunk_halving = true;
  EXPECT_TRUE(p.any_enabled());
  p = DegradePolicy{};
  p.allow_tier_fallback = true;
  EXPECT_TRUE(p.any_enabled());
}

}  // namespace
}  // namespace mlm::core
