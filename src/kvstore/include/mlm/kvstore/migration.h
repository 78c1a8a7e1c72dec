// MigrationEngine: executes a MigrationPlan as resumable steps, one
// segment move per step, riding the library's degradation ladder.
//
// A step moves exactly one segment (demotes first, freeing budget for
// the promotes) and queries the kvstore.migrate.step fault site at
// every attempt.  Failures — injected, or a real OutOfMemoryError when
// the near budget is tighter than the planner believed — walk the
// DegradePolicy ladder through core::RecoveryLadder:
//
//   1. retry      up to max_retries (transient exhaustion: a co-tenant
//                 releasing its grant).  Retries never sleep, whatever
//                 backoff_us says: the move is retried at once;
//   2. (chunk halving does not apply — the segment is the atom);
//   3. fall back  with allow_tier_fallback: abandon this move and leave
//                 the segment where it is.  Record contents are never
//                 at risk, only placement quality; the abandonment is
//                 recorded as a "tier_fallback" DegradationEvent with
//                 attempt 0, like every non-retry rung.
//
// With the ladder disabled, the failure propagates as a structured
// Error naming the segment, direction, and tier.
//
// The Stepper is the suspension-point protocol shared with the sorter
// steppers, so mlm/kvstore/migration_job.h can wrap it as a service
// JobStepper and the JobScheduler can interleave migration with sorts
// under admission control.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mlm/core/degrade.h"
#include "mlm/kvstore/policy.h"

namespace mlm::kv {

class TieredKvStore;

struct MigrationStats {
  std::size_t steps = 0;      ///< stepper steps executed
  std::size_t promoted = 0;   ///< segments moved far -> near
  std::size_t demoted = 0;    ///< segments moved near -> far
  std::size_t retries = 0;    ///< ladder rung 1 attempts
  std::size_t abandoned = 0;  ///< ladder rung 3: moves given up
  std::uint64_t moved_bytes = 0;
  std::vector<core::DegradationEvent> degradations;
};

class MigrationEngine {
 public:
  explicit MigrationEngine(TieredKvStore& store,
                           core::DegradePolicy policy = {});

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  TieredKvStore& store() { return store_; }
  const core::DegradePolicy& policy() const { return policy_; }

  /// Resumable execution of one plan: each step() moves (or, under the
  /// ladder's last rung, abandons) one segment.
  class Stepper {
   public:
    Stepper(MigrationEngine& engine, MigrationPlan plan);

    /// Restore at move index `resume_next` of the *same* plan — the
    /// crash-consistency seam (mlm/service/checkpoint.h).  Moves below
    /// the index are redone as no-ops when they had completed
    /// (TieredKvStore::move_segment is idempotent), so resuming at the
    /// last checkpointed index never double-moves a segment.
    Stepper(MigrationEngine& engine, MigrationPlan plan,
            std::size_t resume_next);

    Stepper(const Stepper&) = delete;
    Stepper& operator=(const Stepper&) = delete;

    /// Next move index (checkpoint payload; restore with the
    /// resuming constructor).
    std::size_t next_move() const { return next_; }

    /// The plan being executed (serialized into checkpoints so a
    /// recovered run replays exactly the crashed run's moves).
    const MigrationPlan& plan() const { return plan_; }

    /// Execute the next move; true while more remain.  Throws a
    /// structured Error when a move fails and the ladder cannot absorb
    /// it (a throwing stepper is dead).
    bool step();

    bool done() const { return next_ >= plan_.moves(); }

    /// Close the run and take its statistics.  Call once, after done().
    MigrationStats finish();

   private:
    /// The `index`-th move of the plan (demotes first).
    void move_at(std::size_t index);

    MigrationEngine& engine_;
    MigrationPlan plan_;
    std::size_t next_ = 0;
    bool finished_ = false;
    MigrationStats stats_;
    /// Never backs off (may_sleep = false): a migration step is
    /// interleaved with other jobs, so it retries at once.
    core::RecoveryLadder ladder_{engine_.policy_, false, stats_.degradations,
                                 stats_.retries, nullptr, &stats_.abandoned};
  };

  /// Run `plan` to completion (the library-mode convenience; service
  /// mode drives a Stepper through the JobScheduler instead).
  MigrationStats run(MigrationPlan plan);

 private:
  TieredKvStore& store_;
  core::DegradePolicy policy_;
};

}  // namespace mlm::kv
