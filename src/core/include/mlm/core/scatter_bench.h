// Non-uniform-access workload (paper §6: "we intend to examine more
// complex benchmarks and applications that exhibit non-uniform data
// access patterns for which a chunking approach is not obvious").
//
// The kernel is a scatter/histogram: `updates` random keys increment
// slots of a `table` that may be far larger than the near memory.  Two
// strategies:
//
//   Direct       every thread scatters straight into the shared table
//                (atomic increments) — the access pattern the MCDRAM
//                hardware cache is supposed to absorb.
//   Partitioned  the chunking answer: pass 1 streams the keys into B
//                key-range buckets; pass 2 processes each bucket against
//                its OWN slice of the table, so the active slice is
//                near-memory-sized and updates need no atomics (slices
//                are disjoint).  This is the classic cache/memory
//                partitioned histogram, i.e. chunking applied to an
//                irregular kernel.
//
// Both run as real host code against a MemoryHierarchy whose nearest
// tier is the near memory; the simulator twin in
// mlm/knlsim/scatter_timeline.h projects the same two strategies onto
// the KNL memory envelope.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/thread_pool.h"

namespace mlm::core {

enum class ScatterStrategy : std::uint8_t { Direct, Partitioned };

const char* to_string(ScatterStrategy strategy);

struct ScatterConfig {
  ScatterStrategy strategy = ScatterStrategy::Partitioned;
  /// Number of key-range buckets for the Partitioned strategy; 0 = pick
  /// so one table slice fits the nearest tier.
  std::size_t buckets = 0;
};

struct ScatterStats {
  std::size_t buckets_used = 0;     ///< 1 for Direct
  std::uint64_t bucket_bytes = 0;   ///< staging written in pass 1
  double seconds = 0.0;
};

/// Apply `keys` as increments to `table` (key k increments
/// table[k % table.size()]).  Returns timing/shape statistics.
ScatterStats run_scatter(MemoryHierarchy& hierarchy, ThreadPool& pool,
                         std::span<const std::uint64_t> keys,
                         std::span<std::uint64_t> table,
                         const ScatterConfig& config);

/// Reference single-threaded implementation for verification.
void scatter_reference(std::span<const std::uint64_t> keys,
                       std::span<std::uint64_t> table);

/// Deterministic key generators for the scatter experiments.
/// `skew` = 0 gives uniform keys; larger values concentrate hits on a
/// shrinking hot set (approximating power-law access).
std::vector<std::uint64_t> make_scatter_keys(std::size_t count,
                                             std::uint64_t key_range,
                                             double skew,
                                             std::uint64_t seed);

}  // namespace mlm::core
