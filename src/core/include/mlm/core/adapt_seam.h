// The engine side of the online adaptive-buffering seam.
//
// The paper's Eqs. 1-5 (mlm/core/buffer_model.h) pick the copy/compute
// thread split and chunk size *statically*; the service layer (PR 6)
// runs workload mixes that shift under live traffic, so the chunk
// engines expose a feedback seam instead of baking a controller in:
// after every chunk-iteration barrier the engine reports what the
// iteration cost (StepFeedback) and applies whatever retuning the
// installed hook returns (StepTuning).  The controller itself — the
// policy seam, hysteresis, cooldown, and the decision trace — lives in
// mlm::adapt (src/adapt), which depends on core; core only knows this
// callback type, so the dependency stays one-way.
//
// Application points:
//  - ChunkPipelineStepper consults the hook after every barrier step.
//    The copy/compute split is applied *live* (all three stage pools
//    are idle at a barrier — TriplePools::resize is safe there), and so
//    is the copy-out CopyMode.  Chunk size cannot change mid-run
//    (buffers are allocated up front); the engine records the request
//    in AdaptationStats::desired_chunk_bytes for the next run.
//  - ExternalMlmSorter::Stepper consults the hook at the barrier after
//    every outer chunk's StageOut and re-chunks the *remaining* input,
//    rebuilding its StepPlan over it, so chunk-size decisions take
//    effect mid-sort at the outer level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "mlm/parallel/stream_copy.h"
#include "mlm/parallel/triple_pools.h"

namespace mlm::core {

/// What one completed chunk iteration cost, reported to the tuning
/// hook at the barrier.  Stage seconds are the engine's measured spans
/// for this iteration only (deltas, not run totals); a deterministic
/// controller replaces them with model-predicted times (see
/// mlm/adapt/controller.h, ControllerConfig::use_model_times).
struct StepFeedback {
  /// Iteration index within the run (pipeline barrier step or sorter
  /// outer chunk).
  std::size_t step = 0;
  /// Chunk size this iteration ran with.
  std::size_t chunk_bytes = 0;
  /// Current stage-pool split (copy pools are per direction).
  PoolSizes pools;
  double copy_in_seconds = 0.0;
  double compute_seconds = 0.0;
  double copy_out_seconds = 0.0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Recovery-ladder rungs taken during this iteration (retries,
  /// halvings, fallbacks) — the controller's cooldown input.
  std::size_t new_degradations = 0;
  bool write_back = true;
};

/// What the hook wants changed.  Zero-valued fields mean "keep"; the
/// engine applies what is safe at its seam and records the rest.
struct StepTuning {
  /// Copy threads per direction (0 = keep).  Applied live at pipeline
  /// barriers via TriplePools::resize.
  std::size_t copy_threads = 0;
  /// Compute threads (0 = derive from the pool total).
  std::size_t compute_threads = 0;
  /// Desired chunk size (0 = keep).  The sorter re-chunks the
  /// remaining input; the pipeline defers it to the next run.
  std::size_t chunk_bytes = 0;
  /// Copy-out slice kernel, applied from the next copy-out on.
  CopyMode copy_out_mode = CopyMode::Auto;
  bool set_copy_out_mode = false;
};

/// Chunk-iteration tuning callback.  Called from the orchestrating
/// thread only (never a pool worker), once per iteration, after the
/// barrier.  Exceptions propagate like stage errors and kill the run.
using TuningHook = std::function<StepTuning(const StepFeedback&)>;

/// Engine-side record of what the hook did to a run; merged across
/// runs like the other stats blocks.
struct AdaptationStats {
  std::size_t decisions = 0;      ///< hook invocations
  std::size_t split_changes = 0;  ///< TriplePools resizes applied
  std::size_t mode_changes = 0;   ///< copy-out CopyMode switches
  std::size_t chunk_changes = 0;  ///< outer re-chunks applied (sorter)
  /// Last split in effect (0 until a hook ever ran).
  std::size_t final_copy_threads = 0;
  std::size_t final_compute_threads = 0;
  /// Last chunk size the hook asked for that the engine could not
  /// apply mid-run (pipeline level; 0 = none pending).
  std::size_t desired_chunk_bytes = 0;

  void merge(const AdaptationStats& other) {
    decisions += other.decisions;
    split_changes += other.split_changes;
    mode_changes += other.mode_changes;
    chunk_changes += other.chunk_changes;
    if (other.decisions > 0) {
      final_copy_threads = other.final_copy_threads;
      final_compute_threads = other.final_compute_threads;
    }
    if (other.desired_chunk_bytes != 0) {
      desired_chunk_bytes = other.desired_chunk_bytes;
    }
  }
};

}  // namespace mlm::core
