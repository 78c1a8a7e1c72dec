// MLM-radix: the chunking recipe of MLM-sort applied to LSD radix sort.
//
// Radix sort is the archetypal bandwidth-bound sort (no comparisons,
// pure streaming passes), so by the paper's own §2.3 test it is exactly
// the kind of kernel that should be rewritten for MLM: every radix pass
// that would have streamed DDR instead streams MCDRAM.
//
//   1. divide the input into megachunks that fit two MCDRAM buffers
//      (the radix passes ping-pong between them),
//   2. copy each megachunk in, run the parallel LSD radix sort entirely
//      inside MCDRAM, and write the sorted run back to DDR,
//   3. finish with the same parallel multiway merge MLM-sort uses.
//
// int64 only (radix needs the key representation).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/radix_sort.h"
#include "mlm/support/error.h"

namespace mlm::core {

struct MlmRadixStats {
  std::size_t megachunks = 0;
  std::uint64_t bytes_copied_in = 0;
  bool final_merge_ran = false;
};

/// Sort `data` (resident in the far tier) via near-tier-chunked radix
/// sort.  `megachunk_elements` = 0 picks the largest size that leaves
/// room for the in-MCDRAM ping-pong scratch (the whole input when the
/// near tier is unlimited).
inline MlmRadixStats mlm_radix_sort(TierPair tiers, ThreadPool& pool,
                                    std::span<std::int64_t> data,
                                    std::size_t megachunk_elements = 0) {
  MLM_REQUIRE(tiers.explicit_copies(),
              "MLM-radix requires flat/hybrid mode (addressable MCDRAM)");
  MlmRadixStats stats;
  if (data.size() <= 1) {
    stats.megachunks = data.empty() ? 0 : 1;
    return stats;
  }

  const std::size_t cap =
      tiers.near_tier->fit_elements(2, sizeof(std::int64_t));
  std::size_t mega = megachunk_elements == 0 ? cap : megachunk_elements;
  MLM_REQUIRE(mega <= cap,
              "megachunk plus radix scratch exceed MCDRAM capacity");
  mega = std::min(mega, data.size());

  const std::vector<IndexRange> chunks = chunk_ranges(data.size(), mega);
  stats.megachunks = chunks.size();

  SpaceBuffer<std::int64_t> work(*tiers.near_tier, mega);
  SpaceBuffer<std::int64_t> ping_pong(*tiers.near_tier, mega);
  SpaceBuffer<std::int64_t> ddr_runs(*tiers.far_tier, data.size());

  for (const IndexRange& c : chunks) {
    parallel_memcpy(pool, work.data(), data.data() + c.begin,
                    c.size() * sizeof(std::int64_t));
    stats.bytes_copied_in += c.size() * sizeof(std::int64_t);
    mlm::sort::parallel_radix_sort(
        pool, std::span<std::int64_t>(work.data(), c.size()),
        std::span<std::int64_t>(ping_pong.data(), c.size()));
    parallel_memcpy(pool, ddr_runs.data() + c.begin, work.data(),
                    c.size() * sizeof(std::int64_t));
  }

  if (chunks.size() == 1) {
    parallel_memcpy(pool, data.data(), ddr_runs.data(),
                    data.size() * sizeof(std::int64_t));
    return stats;
  }

  std::vector<mlm::sort::Run<std::int64_t>> runs;
  runs.reserve(chunks.size());
  for (const IndexRange& c : chunks) {
    runs.emplace_back(ddr_runs.data() + c.begin, c.size());
  }
  mlm::sort::parallel_multiway_merge(
      pool, std::span<const mlm::sort::Run<std::int64_t>>(runs), data);
  stats.final_merge_ran = true;
  return stats;
}

}  // namespace mlm::core
