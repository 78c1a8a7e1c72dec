// StepPlan: the barrier schedule of the paper's chunk pipeline (§3,
// Figure 2), shared by every loop that executes or prices it.
//
// n chunks pass through copy-in, compute and copy-out with `depth` chunk
// buffers.  At step s copy-in holds chunk s, and the other stages lag it:
//
//   depth 1: compute s,   out s    (fully serialized)
//   depth 2: compute s-1, out s-1  (copy-in overlaps {compute; out})
//   depth 3: compute s-1, out s-2  (all three overlap, Fig. 2)
//
// A run has n steps plus the last stage's lag (copy-out with write-back,
// compute without): fill and drain steps, never a dead one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>

#include "mlm/support/error.h"

namespace mlm {

/// The chunk each stage works on in one step; empty = the stage idles.
struct PlanStep {
  std::optional<std::size_t> in, compute, out;
};

class StepPlan {
 public:
  /// The empty plan: no chunks, no steps.
  StepPlan() = default;

  StepPlan(std::size_t depth, std::size_t chunks, bool write_back)
      : depth_(depth), chunks_(chunks), write_back_(write_back) {
    MLM_REQUIRE(depth >= 1 && depth <= 3,
                "pipeline depth must be 1, 2 or 3, got " +
                    std::to_string(depth));
  }

  std::size_t depth() const { return depth_; }
  std::size_t steps() const { return chunks_ == 0 ? 0 : chunks_ + last_lag(); }

  PlanStep step(std::size_t s) const {
    return {at(s, 0), at(s, compute_lag()),
            write_back_ ? at(s, depth_ - 1) : std::nullopt};
  }

  /// Depth 1: copy-in completes before compute starts.
  bool in_joins_before_compute() const { return depth_ == 1; }
  /// Depths 1-2: copy-out runs after compute, on compute's lane.
  bool out_after_compute() const { return depth_ <= 2; }

  /// Chunks whose far range is final after steps [0, s).
  std::size_t retired(std::size_t s) const {
    return std::min(s > last_lag() ? s - last_lag() : 0, chunks_);
  }

 private:
  std::size_t compute_lag() const { return depth_ == 1 ? 0 : 1; }
  std::size_t last_lag() const {
    return write_back_ ? depth_ - 1 : compute_lag();
  }
  std::optional<std::size_t> at(std::size_t s, std::size_t lag) const {
    if (s < lag || s - lag >= chunks_) return std::nullopt;
    return s - lag;
  }

  std::size_t depth_ = 1;
  std::size_t chunks_ = 0;
  bool write_back_ = true;
};

}  // namespace mlm
