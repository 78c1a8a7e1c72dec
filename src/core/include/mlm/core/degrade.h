// Graceful-degradation policy shared by the chunk pipeline, the
// external sorter and the kvstore migration engine.
//
// The paper's working regime is "data doesn't fit in MCDRAM": the near
// tier is, by construction, one failed allocation away from exhaustion.
// Real memkind gives applications two answers — BIND fails hard,
// PREFERRED silently moves to DDR.  DegradePolicy spells out the middle
// ground as an explicit recovery ladder, applied when a near-tier
// allocation or a pipeline stage fails (for real, or through an armed
// fault site from mlm/fault/fault.h):
//
//   1. retry     — up to max_retries, with doubling backoff, for
//                  transient exhaustion (a co-tenant freeing MCDRAM);
//   2. halve     — shrink the chunk size (keeping 64-byte alignment)
//                  down to min_chunk_bytes so the working set fits;
//   3. fall back — run on the far tier without explicit near buffers,
//                  mirroring HBW_POLICY_PREFERRED's DDR fallback.
//
// Every rung taken is recorded as a DegradationEvent in the run's stats,
// so a run that survived pressure is distinguishable from one that never
// saw it.  All rungs default off: with a default policy, behaviour is
// byte-identical to the pre-policy library and failures propagate as
// structured errors (mlm/support/error.h).
//
// RecoveryLadder is the ladder's one implementation; each caller holds
// one and says which rungs apply, what to attempt, and how to annotate
// a failure the ladder could not absorb.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mlm/fault/fault.h"
#include "mlm/support/error.h"

namespace mlm::core {

/// Recovery ladder configuration.  Defaults disable every rung.
struct DegradePolicy {
  /// Rung 1: re-attempts per failing operation before moving down the
  /// ladder (0 = no retries).
  std::size_t max_retries = 0;
  /// Sleep before the first retry, doubling each subsequent retry
  /// (0 = no backoff).  Never sleeps under a deterministic schedule
  /// (see RecoveryLadder) — schedule exploration must stay a pure
  /// function of the seed.
  std::size_t backoff_us = 0;
  /// Ceiling for the doubled backoff.  Long retry chains saturate here
  /// instead of shifting backoff_us off the end of std::size_t (which
  /// wrapped the delay back to ~0 and turned backoff into a busy spin).
  std::size_t backoff_cap_us = 1u << 20;  ///< ~1 s

  /// Backoff before retry `attempt` (1-based): backoff_us doubled per
  /// attempt, saturating at backoff_cap_us.  0 when backoff is off.
  std::size_t delay_us(std::size_t attempt) const {
    if (backoff_us == 0 || attempt == 0) return 0;
    std::size_t delay = backoff_us;
    for (std::size_t i = 1; i < attempt; ++i) {
      if (delay >= backoff_cap_us / 2 + backoff_cap_us % 2) {
        return backoff_cap_us;
      }
      delay *= 2;
    }
    return std::min(delay, backoff_cap_us);
  }
  /// Rung 2: allow halving the chunk size when near-tier buffers do not
  /// fit.  Halved sizes stay 64-byte aligned, so element alignment is
  /// preserved for power-of-two scalar types.
  bool allow_chunk_halving = false;
  /// Floor for rung 2; halving below this moves to rung 3.
  std::size_t min_chunk_bytes = 4096;
  /// Rung 3: allow falling back to the far tier (in-place compute, no
  /// explicit near buffers) — the HBW_POLICY_PREFERRED analogue.
  bool allow_tier_fallback = false;

  /// True when any rung is enabled.
  bool any_enabled() const {
    return max_retries > 0 || allow_chunk_halving || allow_tier_fallback;
  }
};

/// One rung taken during a run; collected in PipelineStats /
/// ExternalSortStats / kv::MigrationStats so degradation is observable,
/// not silent.
struct DegradationEvent {
  std::string site;    ///< fault-site or phase name that failed
  std::string action;  ///< "retry" | "chunk_halved" | "tier_fallback"
  std::int64_t chunk = -1;  ///< chunk/outer-chunk index; -1 = run-level
  std::size_t attempt = 0;  ///< 1-based for retries; 0 for other rungs
};

/// The rungs below retry that a RecoveryLadder::run caller offers; each
/// is further gated by its DegradePolicy switch.
struct LadderRungs {
  /// Rung 2: the chunk size to halve, in units of `unit_bytes`.  Null =
  /// the operation has no chunk to shrink.
  std::size_t* chunk = nullptr;
  std::size_t unit_bytes = 1;
  /// Rung 3: the caller can carry on without the operation.
  bool fall_back = false;
};

/// The recovery ladder of one run.  It owns retry counting, backoff,
/// the halving rule, the DegradationEvents and rung counters it writes
/// into the caller's stats, and the error thrown when it gives up.
class RecoveryLadder {
 public:
  /// `may_sleep` = false turns backoff off (deterministic schedules must
  /// stay a pure function of their seed).  Every rung taken appends to
  /// `events` and bumps its counter; a null counter is not kept.
  RecoveryLadder(const DegradePolicy& policy, bool may_sleep,
                 std::vector<DegradationEvent>& events, std::size_t& retries,
                 std::size_t* halvings = nullptr,
                 std::size_t* fallbacks = nullptr)
      : policy_(policy),
        may_sleep_(may_sleep),
        events_(events),
        retries_(retries),
        halvings_(halvings),
        fallbacks_(fallbacks) {}

  /// Launch guard for an operation that has not touched any data yet, at
  /// the fault site named `Site` (a fault::sites constant): each fire
  /// costs one retry.  Once retries are exhausted it throws
  /// fault::InjectedFaultError framed {op, chunk, tier, "orchestrator"}.
  /// Unfired, this is the site's single relaxed load.
  template <const char* const& Site>
  void guard(const char* op, std::int64_t chunk, const std::string& tier) {
    static fault::FaultSite site(Site);
    if (site.should_fire()) absorb_fires(site, op, chunk, tier);
  }

  /// Run `op` until it succeeds, walking retry -> `rungs` on each
  /// `Failure` it throws.  Returns true on success, false when rung 3
  /// fell back.  When the ladder is exhausted it calls
  /// `annotate(error, retries_at_this_size)` and rethrows.
  template <typename Failure = Error, typename Op, typename Annotate>
  bool run(std::string_view site, std::int64_t chunk, const LadderRungs& rungs,
           Op&& op, Annotate&& annotate) {
    for (std::size_t attempt = 0;;) {
      try {
        op();
        return true;
      } catch (Failure& e) {
        if (retry(site, chunk, attempt)) continue;
        if (rungs.chunk != nullptr &&
            halve(site, chunk, *rungs.chunk, rungs.unit_bytes)) {
          attempt = 0;  // a smaller chunk earns a fresh set of retries
          continue;
        }
        if (rungs.fall_back && fall_back(site, chunk)) return false;
        annotate(e, attempt);
        throw;
      }
    }
  }

  /// Rung 3 on its own, for a caller that handles the fallback itself:
  /// records it and returns true when the policy allows it.
  bool fall_back(std::string_view site, std::int64_t chunk);

 private:
  bool retry(std::string_view site, std::int64_t chunk, std::size_t& attempt);
  bool halve(std::string_view site, std::int64_t chunk, std::size_t& units,
             std::size_t unit_bytes);
  void record(std::string_view site, const char* action, std::int64_t chunk,
              std::size_t attempt);
  void absorb_fires(fault::FaultSite& site, const char* op, std::int64_t chunk,
                    const std::string& tier);

  DegradePolicy policy_;
  bool may_sleep_;
  std::vector<DegradationEvent>& events_;
  std::size_t& retries_;
  std::size_t* halvings_;
  std::size_t* fallbacks_;
};

}  // namespace mlm::core
