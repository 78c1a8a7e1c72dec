// Failure injection: capacity exhaustion mid-run, compute-stage
// exceptions inside pipelines, and recovery/cleanup guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/mlm_sort.h"
#include "mlm/memory/dual_space.h"
#include "mlm/memory/memkind_shim.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/units.h"

namespace mlm {
namespace {

DualSpace flat_space(std::uint64_t mcdram = MiB(2)) {
  DualSpaceConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.mcdram_bytes = mcdram;
  return DualSpace(cfg);
}

TEST(FailureInjection, MlmSortFailsCleanlyWhenMcdramAlreadyOccupied) {
  DualSpace space = flat_space(MiB(1));
  ThreadPool pool(2);
  // A co-tenant holds almost all of MCDRAM.
  Allocation squatter(space.mcdram(), MiB(1) - KiB(64));

  core::MlmSortConfig cfg;
  cfg.variant = core::MlmVariant::Flat;
  cfg.megachunk_elements = MiB(1) / sizeof(std::int64_t);  // > free
  auto data = sort::make_input(100000, sort::InputOrder::Random, 1);
  core::MlmSorter<std::int64_t> sorter(space, pool, cfg);
  EXPECT_THROW(sorter.sort(std::span<std::int64_t>(data)),
               InvalidArgumentError);
  // Nothing leaked beyond the squatter.
  EXPECT_EQ(space.mcdram().stats().used_bytes, MiB(1) - KiB(64));
  EXPECT_EQ(space.ddr().stats().used_bytes, 0u);
}

TEST(FailureInjection, MlmSortAdaptsMegachunkToRemainingCapacity) {
  // With the default (auto) megachunk, the sorter sizes itself to the
  // capacity that is actually free and still succeeds.
  DualSpace space = flat_space(MiB(1));
  ThreadPool pool(2);
  Allocation squatter(space.mcdram(), KiB(512));

  core::MlmSortConfig cfg;
  cfg.variant = core::MlmVariant::Flat;  // auto megachunk
  auto data = sort::make_input(200000, sort::InputOrder::Random, 2);
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  core::MlmSorter<std::int64_t> sorter(space, pool, cfg);
  const auto stats = sorter.sort(std::span<std::int64_t>(data));
  EXPECT_EQ(data, expect);
  EXPECT_GE(stats.megachunks, 3u);  // 1.6 MB data over ~0.5 MB chunks
}

TEST(FailureInjection, PipelineThrowsOnFirstChunkFailure) {
  DualSpace space = flat_space();
  std::vector<std::int64_t> data(200000, 1);
  core::PipelineConfig cfg;
  cfg.chunk_bytes = 128 * 1024;
  cfg.pools = PoolSizes{1, 1, 2};
  std::atomic<int> chunks_started{0};
  EXPECT_THROW(
      core::run_chunk_pipeline_typed<std::int64_t>(
          space, std::span<std::int64_t>(data), cfg,
          [&](std::span<std::int64_t>, Executor&, std::size_t) {
            ++chunks_started;
            throw Error("injected compute failure");
          }),
      Error);
  EXPECT_GE(chunks_started.load(), 1);
  // All MCDRAM buffers returned despite the exception (RAII).
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

TEST(FailureInjection, PipelineMidStreamFailureStillCleansUp) {
  DualSpace space = flat_space();
  std::vector<std::int64_t> data(400000, 1);
  core::PipelineConfig cfg;
  cfg.chunk_bytes = 64 * 1024;
  cfg.pools = PoolSizes{1, 1, 2};
  EXPECT_THROW(
      core::run_chunk_pipeline_typed<std::int64_t>(
          space, std::span<std::int64_t>(data), cfg,
          [&](std::span<std::int64_t>, Executor&, std::size_t idx) {
            if (idx == 17) throw Error("late failure");
          }),
      Error);
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

TEST(FailureInjection, ComputeThrowingOnFinalChunkStillCleansUp) {
  // The last chunk's failure happens after every copy-in has been
  // posted; the step barrier must still join the in-flight copies
  // before the buffers die.
  DualSpace space = flat_space();
  const std::size_t n = 5 * 64 * 1024 / sizeof(std::int64_t);  // 5 chunks
  std::vector<std::int64_t> data(n, 1);
  core::PipelineConfig cfg;
  cfg.chunk_bytes = 64 * 1024;
  cfg.pools = PoolSizes{1, 1, 2};
  std::atomic<std::size_t> last_seen{0};
  EXPECT_THROW(
      core::run_chunk_pipeline_typed<std::int64_t>(
          space, std::span<std::int64_t>(data), cfg,
          [&](std::span<std::int64_t>, Executor&, std::size_t idx) {
            last_seen = idx;
            if (idx == 4) throw Error("final chunk failure");
          }),
      Error);
  EXPECT_EQ(last_seen.load(), 4u);
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

TEST(PipelineEdgeCases, ZeroLengthInputIsNoop) {
  DualSpace space = flat_space();
  core::PipelineConfig cfg;
  cfg.chunk_bytes = 64 * 1024;
  cfg.pools = PoolSizes{1, 1, 1};
  std::atomic<int> calls{0};
  const core::PipelineStats stats =
      core::run_chunk_pipeline_typed<std::int64_t>(
          space, std::span<std::int64_t>(), cfg,
          [&](std::span<std::int64_t>, Executor&, std::size_t) {
            ++calls;
          });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_EQ(stats.bytes_copied_in, 0u);
  EXPECT_EQ(stats.bytes_copied_out, 0u);
  EXPECT_EQ(space.mcdram().stats().used_bytes, 0u);
}

TEST(PipelineEdgeCases, ChunkBytesNotMultipleOfElementSize) {
  // The typed wrapper rounds chunk_bytes down to an element boundary,
  // so a ragged request still touches every element exactly once.
  DualSpace space = flat_space();
  const std::size_t n = 40000;
  std::vector<std::int64_t> data(n);
  std::iota(data.begin(), data.end(), 0);
  core::PipelineConfig cfg;
  cfg.chunk_bytes = 64 * 1024 + 3;  // not a multiple of 8
  cfg.pools = PoolSizes{1, 1, 2};
  core::run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg,
      [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        for (auto& x : chunk) x += 1;
      });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i], static_cast<std::int64_t>(i) + 1) << i;
  }
}

TEST(PipelineEdgeCases, ChunkLargerThanInputRunsAsOneChunk) {
  DualSpace space = flat_space();
  const std::size_t n = 1000;
  std::vector<std::int64_t> data(n, 5);
  core::PipelineConfig cfg;
  cfg.chunk_bytes = 512 * 1024;  // far larger than 8 KB of data
  cfg.pools = PoolSizes{1, 1, 1};
  const core::PipelineStats stats =
      core::run_chunk_pipeline_typed<std::int64_t>(
          space, std::span<std::int64_t>(data), cfg,
          [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
            for (auto& x : chunk) x *= 2;
          });
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.bytes_copied_in, n * sizeof(std::int64_t));
  EXPECT_TRUE(std::all_of(data.begin(), data.end(),
                          [](std::int64_t v) { return v == 10; }));
}

TEST(FailureInjection, ShimPreferredPolicySurvivesExhaustion) {
  // A chunked workflow whose staging space fills up: PREFERRED policy
  // degrades to heap (as memkind does on KNL when MCDRAM runs out)
  // instead of failing the run.
  MemorySpace hbw("hbw", MemKind::MCDRAM, KiB(64));
  mlm_hbw_set_space(&hbw);
  mlm_hbw_set_policy(MLM_HBW_POLICY_PREFERRED);
  std::vector<void*> blocks;
  for (int i = 0; i < 8; ++i) {
    void* p = mlm_hbw_malloc(KiB(16));  // exceeds capacity after 4
    ASSERT_NE(p, nullptr) << i;
    blocks.push_back(p);
  }
  EXPECT_EQ(hbw.stats().used_bytes, KiB(64));
  for (void* p : blocks) mlm_hbw_free(p);
  EXPECT_EQ(hbw.stats().used_bytes, 0u);
  mlm_hbw_set_space(nullptr);
}

TEST(FailureInjection, ScratchReleaseAllowsRetryAfterFailure) {
  DualSpace space = flat_space(MiB(1));
  ThreadPool pool(2);
  core::MlmSortConfig bad;
  bad.variant = core::MlmVariant::Flat;
  bad.megachunk_elements = MiB(2) / sizeof(std::int64_t);
  auto data = sort::make_input(50000, sort::InputOrder::Reverse, 3);
  core::MlmSorter<std::int64_t> bad_sorter(space, pool, bad);
  EXPECT_THROW(bad_sorter.sort(std::span<std::int64_t>(data)),
               InvalidArgumentError);

  // The failed attempt must not poison the space: a valid retry works.
  core::MlmSortConfig good;
  good.variant = core::MlmVariant::Flat;
  core::MlmSorter<std::int64_t> good_sorter(space, pool, good);
  good_sorter.sort(std::span<std::int64_t>(data));
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

}  // namespace
}  // namespace mlm
