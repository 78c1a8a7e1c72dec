#include "mlm/core/merge_bench.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "mlm/parallel/parallel_for.h"
#include "mlm/support/error.h"
#include "mlm/support/stopwatch.h"

namespace mlm::core {

MergeBenchResult run_merge_bench(TierPair tiers,
                                 std::span<std::int64_t> data,
                                 const MergeBenchConfig& config) {
  MLM_REQUIRE(config.elements > 0 && data.size() >= config.elements,
              "data must hold config.elements values");
  MLM_REQUIRE(config.copy_threads >= 1 && config.compute_threads >= 1,
              "need at least one thread per pool");
  MLM_REQUIRE(config.repeats >= 1, "need at least one repeat");

  std::size_t chunk_elems = config.chunk_elements;
  if (chunk_elems == 0) {
    // Three pipeline buffers plus one compute scratch buffer.
    chunk_elems = tiers.explicit_copies()
                      ? tiers.near_tier->fit_elements(4, sizeof(std::int64_t))
                      : MemorySpace::kNoLimit;
    if (chunk_elems == MemorySpace::kNoLimit) chunk_elems = config.elements;
  }
  MLM_REQUIRE(chunk_elems >= 2, "chunk must hold at least two elements");

  // Per-chunk compute scratch, in near memory next to the chunk buffers.
  SpaceBuffer<std::int64_t> scratch(
      tiers.explicit_copies() ? *tiers.near_tier : *tiers.far_tier,
      chunk_elems);

  PipelineConfig pcfg;
  pcfg.chunk_bytes = chunk_elems * sizeof(std::int64_t);
  pcfg.pools.copy_in = config.copy_threads;
  pcfg.pools.copy_out = config.copy_threads;
  pcfg.pools.compute = config.compute_threads;
  pcfg.buffering = config.buffering;

  std::atomic<std::uint64_t> merges{0};
  MergeBenchResult result;
  Stopwatch timer;
  result.pipeline = run_chunk_pipeline_typed<std::int64_t>(
      tiers, data.subspan(0, config.elements), pcfg,
      [&](std::span<std::int64_t> chunk, Executor& pool,
          std::size_t /*chunk_index*/) {
        // Disperse the chunk among the compute threads; each thread
        // merges its portion's two halves `repeats` times.
        for (unsigned rep = 0; rep < config.repeats; ++rep) {
          parallel_for_ranges(pool, 0, chunk.size(), [&](IndexRange r) {
            const std::size_t mid = r.begin + r.size() / 2;
            std::int64_t* out = scratch.data() + r.begin;
            std::merge(chunk.begin() + r.begin, chunk.begin() + mid,
                       chunk.begin() + mid, chunk.begin() + r.end, out);
            std::copy(out, out + r.size(), chunk.begin() + r.begin);
            merges.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
  result.seconds = timer.elapsed_s();
  result.merges_performed = merges.load();
  return result;
}

}  // namespace mlm::core
