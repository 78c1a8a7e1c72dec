// Simulated timeline of the paper's streaming 'merge' benchmark
// (Section 5, Figure 8(b), Table 3 "Empirical" column).
//
// The benchmark runs the generic triple-buffered chunking pipeline of
// Section 3 with a compute stage that merges each chunk `repeats` times:
// per pipeline step, the copy-in pool loads chunk s, the compute pool
// streams 2 * chunk_bytes * repeats through MCDRAM on chunk s-1, and the
// copy-out pool stores chunk s-2.  A step ends when all three finish
// ("the time for each step is determined by the longest of the
// components").  The repeats parameter scales compute work while copy
// work stays constant, which is what drives the optimal copy-thread
// count down as computation grows.
//
// The steps are those of the StepPlan (mlm/support/step_plan.h) of depth
// `buffers` with write-back, the schedule the host ChunkPipelineStepper
// executes; each step is priced as concurrent lanes of serialized stages
// (see simulate_merge_bench).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mlm/machine/knl_config.h"

namespace mlm::knlsim {

struct MergeBenchConfig {
  /// Total data set size (paper: B_copy = 14.9 GB).
  double data_bytes = 14.9e9;
  /// Chunk size; 0 = min(MCDRAM/3, 1 GB) — three live buffers, sized for
  /// fill/drain amortization as in the double-buffering study the paper
  /// builds on (Olivier et al., IWOMP'17).
  double chunk_bytes = 0.0;
  /// Copy threads per direction (p_in == p_out, as the model assumes).
  std::size_t copy_threads = 8;
  /// Total hardware threads to divide among the pools.
  std::size_t total_threads = 256;
  /// Number of times the compute stage merges each chunk.
  unsigned repeats = 1;
  /// Pipeline buffer count: 3 = full copy-in/compute/copy-out overlap
  /// (the paper's scheme), 2 = copy-in overlaps {compute; copy-out},
  /// 1 = fully serialized stages.  Used by the buffering ablation.
  unsigned buffers = 3;
};

struct MergeBenchResult {
  double seconds = 0.0;
  std::size_t chunks = 0;
  std::size_t compute_threads = 0;
  double ddr_traffic_bytes = 0.0;
  double mcdram_traffic_bytes = 0.0;
  /// Per-step durations (pipeline fill and drain included).
  std::vector<double> step_seconds;
};

/// Simulate one merge-benchmark run on `machine` in flat mode.
MergeBenchResult simulate_merge_bench(const KnlConfig& machine,
                                      const MergeBenchConfig& config);

/// Sweep copy-thread counts, returning one result per entry of `counts`.
std::vector<MergeBenchResult> sweep_copy_threads(
    const KnlConfig& machine, MergeBenchConfig config,
    const std::vector<std::size_t>& counts);

/// The copy-thread count from `counts` minimizing simulated time
/// (Table 3's "Empirical (Powers of 2)" column when counts = 1,2,...,32).
std::size_t best_copy_threads(const KnlConfig& machine,
                              MergeBenchConfig config,
                              const std::vector<std::size_t>& counts);

}  // namespace mlm::knlsim
