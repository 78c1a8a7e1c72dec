// Online adaptive buffering controller.
//
// The paper's Eqs. 1-5 (mlm/core/buffer_model.h) pick the copy/compute
// thread split and chunk size before the run starts; this module closes
// the loop and retunes them *during* the run from the per-stage times
// the engines already measure.  The controller sits behind the
// core::TuningHook seam (mlm/core/adapt_seam.h): once per chunk
// iteration it receives a StageSample, consults a ControllerPolicy, and
// emits a clamped Tuning that the engine applies at the barrier.
//
// Two policies ship:
//  - StaticModelPolicy: the Eqs. 1-5 optimum as a null controller.  It
//    never moves; wiring it through the hook proves the seam costs
//    nothing and gives benchmarks a like-for-like baseline.
//  - HillClimbPolicy: a greedy hill-climb over the measured stage
//    imbalance.  Instead of blind +/-1 steps (which take O(p*) rounds
//    and lose the 5% bar on the table3 workloads), it jumps to the
//    split that would balance the two stage times if per-thread rates
//    stayed constant — the fixed point of Eq. 1 — then verifies the
//    move against the measured per-byte step cost and reverts + locks
//    if it did not pay off.  The score guard is what keeps the climb
//    stable where the model's T_copy goes flat in p (DDR saturated,
//    Eq. 3): there the imbalance never flips sign, so a pure
//    ratio-chaser would climb to the thread cap for no gain.
//
// Determinism contract (DESIGN.md section 8): with
// ControllerConfig::use_model_times set, observed stage seconds are
// replaced by Eqs. 1-5 predictions for the observed bytes and current
// split, making every Decision a pure function of the observation
// sequence — the 100-seed schedule sweeps assert tick-for-tick replay
// of the full decision trace on top of this.  Without it (production),
// wall-clock times drive the same code path.
//
// Degradation handshake: when a StageSample reports recovery-ladder
// rungs (chunk halving, tier fallback — mlm/core/degrade.h), the
// controller adopts the smaller chunk and freezes for cooldown_rounds
// rounds so the ladder's move is not immediately fought (retune, don't
// thrash).  The adapt.controller.decide fault site can skip any
// decision round; a skipped round keeps the previous tuning and is
// still traced, so fault sweeps replay exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mlm/core/buffer_model.h"
#include "mlm/parallel/stream_copy.h"

namespace mlm::adapt {

/// One complete knob setting: the paper's three buffering decisions.
struct Tuning {
  std::size_t copy_threads = 1;  ///< per direction (p_in == p_out)
  std::size_t compute_threads = 1;
  std::size_t chunk_bytes = 0;  ///< 0 = engine default
  CopyMode copy_out_mode = CopyMode::Auto;

  bool operator==(const Tuning& other) const {
    return copy_threads == other.copy_threads &&
           compute_threads == other.compute_threads &&
           chunk_bytes == other.chunk_bytes &&
           copy_out_mode == other.copy_out_mode;
  }
  bool operator!=(const Tuning& other) const { return !(*this == other); }
};

/// What one chunk iteration observed (the policy-facing mirror of
/// core::StepFeedback, without the engine-side pool bookkeeping).
struct StageSample {
  std::size_t chunk_bytes = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double copy_in_seconds = 0.0;
  double compute_seconds = 0.0;
  double copy_out_seconds = 0.0;
  /// Degradation-ladder rungs taken during this iteration.
  std::size_t new_degradations = 0;
};

/// One controller round, recorded in the decision trace.
struct Decision {
  std::size_t round = 0;
  Tuning tuning;        ///< in effect after this round
  bool changed = false; ///< tuning differs from the previous round
  bool cooldown = false;///< held by the post-degradation freeze
  bool skipped = false; ///< adapt.controller.decide fired
  std::string reason;   ///< policy/controller verdict, for the trace
};

/// Controller-level configuration (policy-independent guard rails).
struct ControllerConfig {
  /// Hardware-thread budget split across the three pools
  /// (copy_in + copy_out + compute); the clamp keeps
  /// 2*copy + compute == total_threads with every pool >= 1.
  std::size_t total_threads = 4;
  /// Admitted near-tier budget in bytes (0 = unbounded).  The clamp
  /// guarantees chunk_bytes * buffers_per_chunk <= near_budget_bytes —
  /// the controller can never out-allocate admission control.
  std::size_t near_budget_bytes = 0;
  /// Near-tier buffers alive per chunk (double buffering holds an
  /// in/compute/out triple).
  std::size_t buffers_per_chunk = 3;
  /// Stage-imbalance dead zone: |T_copy/T_comp - 1| below this is
  /// "balanced" and the split holds.
  double hysteresis = 0.10;
  /// Rounds to freeze after a degradation event.
  std::size_t cooldown_rounds = 4;
  /// Floor for chunk-size decisions (also the alignment grain, 64B).
  std::size_t min_chunk_bytes = 4096;
  /// Chunks at/above this use streaming copy-out, below cached.
  std::size_t streaming_cutoff_bytes = kStreamCopyThresholdBytes;
  /// Replace measured stage seconds with Eqs. 1-5 predictions for the
  /// observed bytes + current split (the determinism contract).
  bool use_model_times = false;
  core::ModelParams model_params;  ///< used when use_model_times
  double model_passes = 1.0;       ///< compute passes for the model
};

/// What a policy sees each round, after the controller normalized the
/// sample: copy_seconds = max(in, out) so the binding copy direction
/// drives the split, imbalance = copy_seconds/compute_seconds - 1.
struct PolicyInput {
  Tuning current;
  std::size_t round = 0;
  /// Bytes the observed iteration moved (per-byte score denominator).
  std::size_t chunk_bytes = 0;
  double copy_seconds = 0.0;
  double compute_seconds = 0.0;
  double imbalance = 0.0;
  std::size_t max_copy_threads = 1;  ///< clamp ceiling, (total-1)/2
  /// Largest chunk the near-tier budget admits (0 = unbounded).
  std::size_t chunk_cap_bytes = 0;
  double hysteresis = 0.10;
};

/// The strategy seam.  Policies are pure over their own state: given
/// the same input sequence they produce the same proposal sequence
/// (the determinism sweeps rely on this).
class ControllerPolicy {
 public:
  virtual ~ControllerPolicy() = default;

  virtual const char* name() const = 0;

  /// Tuning to start the run with (before any sample).
  virtual Tuning initial() const = 0;

  /// Propose the next tuning; `reason` (<= a few words) lands in the
  /// decision trace.  The controller clamps whatever comes back.
  virtual Tuning propose(const PolicyInput& input, std::string& reason) = 0;
};

/// Null controller: holds the Eqs. 1-5 optimum for the declared
/// workload.  The model *is* the decision — proposing is a no-op.
class StaticModelPolicy : public ControllerPolicy {
 public:
  StaticModelPolicy(const core::ModelParams& params,
                    const core::ModelWorkload& workload,
                    std::size_t total_threads, std::size_t chunk_bytes);

  const char* name() const override { return "static"; }
  Tuning initial() const override { return initial_; }
  Tuning propose(const PolicyInput& input, std::string& reason) override;

 private:
  Tuning initial_;
};

/// Greedy score-guarded hill-climb (see file comment).  Two climbing
/// gears, each probe verified against the measured per-byte step cost:
///
///   Jump — ratio-jump to the split balancing the measured stage times
///          (the Eq. 1 fixed point under constant rates).  A failed
///          jump reverts and drops to Fine: near the DDR/MCDRAM
///          saturation knees the constant-rate extrapolation over- or
///          undershoots, but single steps still find the downhill.
///   Fine — +/-1 steps in the imbalance direction.  A failed fine
///          probe reverts and locks: this is the flat plateau (Eq. 3
///          saturated), where imbalance persists but no split is
///          better, and a pure ratio-chaser would wander forever.
///   Locked — hold.  Re-opens (back to Jump) only when the per-byte
///          cost drifts far from the locked baseline — a workload
///          phase change — never on persistent imbalance.
///
/// Once balanced, remaining headroom goes to multiplicative chunk
/// growth toward the budget cap.  Every accepted move improves the
/// per-byte score by at least min_gain, so the climb converges in a
/// bounded number of moves (the property harness asserts this).
class HillClimbPolicy : public ControllerPolicy {
 public:
  struct Options {
    Tuning start;  ///< where the climb begins (no model knowledge)
    /// Minimum relative per-byte improvement for a probe to stick.
    double min_gain = 0.005;
    /// Relative score drift that re-opens a locked split.
    double unlock_deviation = 0.20;
  };

  explicit HillClimbPolicy(const Options& options);

  const char* name() const override { return "hill-climb"; }
  Tuning initial() const override { return options_.start; }
  Tuning propose(const PolicyInput& input, std::string& reason) override;

 private:
  enum class Mode : std::uint8_t { Jump, Fine, Locked };

  Options options_;
  Mode mode_ = Mode::Jump;
  /// Seconds-per-byte of the last round, the hill-climb's objective.
  double last_score_ = 0.0;
  bool trying_ = false;     ///< a probe move is awaiting verification
  Tuning prev_;             ///< tuning to revert to if the probe fails
  double prev_score_ = 0.0;
  double locked_score_ = 0.0;
};

/// The feedback loop: normalizes samples, runs the policy, clamps the
/// proposal, and records every round in a replayable trace.
class Controller {
 public:
  Controller(std::unique_ptr<ControllerPolicy> policy,
             const ControllerConfig& config);
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  const ControllerConfig& config() const { return config_; }
  const char* policy_name() const;

  /// Tuning currently in effect (policy initial() clamped, before any
  /// sample; thereafter the last Decision's tuning).
  const Tuning& current() const { return current_; }

  /// Feed one chunk iteration; returns (and traces) the decision.
  Decision observe(const StageSample& sample);

  /// Every decision so far, in round order.
  const std::vector<Decision>& trace() const { return trace_; }

  /// One line per round: "round tuning flags reason" — the string the
  /// determinism sweeps compare across runs.
  std::string format_trace() const;

  std::size_t decisions() const { return trace_.size(); }
  /// Rounds whose tuning differed from the previous round.
  std::size_t changes() const { return changes_; }

 private:
  Tuning clamp(Tuning t) const;

  std::unique_ptr<ControllerPolicy> policy_;
  ControllerConfig config_;
  Tuning current_;
  std::vector<Decision> trace_;
  std::size_t changes_ = 0;
  std::size_t cooldown_left_ = 0;
};

}  // namespace mlm::adapt
