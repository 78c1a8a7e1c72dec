// The streaming 'merge' benchmark of Section 5, host-executable.
//
// The generic chunking pipeline runs with a compute stage that performs
// `repeats` merges per chunk: the chunk's data is dispersed evenly among
// the compute threads; each thread chops its portion in half and merges
// the two halves (into per-thread scratch, then back).  The repeats
// parameter scales compute work while the copy work per chunk stays
// constant — the knob the paper uses to study the copy/compute thread
// trade-off (Figure 8, Table 3).
#pragma once

#include <cstddef>
#include <cstdint>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/memory/memory_hierarchy.h"

namespace mlm::core {

struct MergeBenchConfig {
  /// Total data size in elements (int64).
  std::size_t elements = 0;
  /// Chunk size in elements; 0 = as large as four near buffers allow
  /// (three pipeline buffers plus the compute scratch buffer).
  std::size_t chunk_elements = 0;
  /// Copy threads per direction.
  std::size_t copy_threads = 1;
  /// Compute threads.
  std::size_t compute_threads = 1;
  /// Merges performed on each chunk.
  unsigned repeats = 1;
  Buffering buffering = Buffering::Triple;
};

struct MergeBenchResult {
  PipelineStats pipeline;
  double seconds = 0.0;
  std::uint64_t merges_performed = 0;
};

/// Run the merge benchmark on host threads across `tiers`.
/// `data` must hold config.elements int64 values; each chunk portion's
/// two halves must be sorted if the caller wants a meaningful merged
/// order (the benchmark itself only measures streaming work).
MergeBenchResult run_merge_bench(TierPair tiers,
                                 std::span<std::int64_t> data,
                                 const MergeBenchConfig& config);

}  // namespace mlm::core
