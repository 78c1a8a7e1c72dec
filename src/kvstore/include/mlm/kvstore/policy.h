// Placement policies for the tiered record store: which value segments
// deserve the scarce near tier, decided once per epoch from the
// HeatMonitor's folded counters.
//
// All three policies are deterministic functions of (placement, heat,
// budget) with id-ordered tie-breaks, so a plan — and therefore a whole
// workload run — replays exactly under the schedule sweeps:
//
//   - StaticNearFirst  never migrates: segments keep the near-first
//     placement they got at insertion (the no-monitor baseline).
//   - LruEpoch         keeps the most *recently* accessed segments near
//     (last-access epoch, heat then id as tie-breaks).
//   - FreqThreshold    keeps the *hottest* segments near (decayed
//     frequency >= min_heat, DAMON's "regions with access frequency F"),
//     with hysteresis so ranking noise does not move data.
//
// Both ranked policies select the top `budget` eligible segments with a
// selection (std::nth_element), not a full sort, under a strict total
// order — primary score, secondary score, then id — so the selected set
// is unique and equals the prefix a full sort would give.
//
// Why FreqThreshold needs hysteresis: a segment's heat is the sum over
// the unrelated keys that happen to share it, so under a skewed trace
// the ranking near the budget boundary is nearly flat and an epoch's
// sampling noise reorders it.  Moving whatever crossed the boundary
// copies segments back and forth for no gain in hits.  The policy
// therefore only acts on a clear lead, DAMOS-style ("access frequency
// F for time T"):
//   - a resident never accessed leaves at once, as do residents beyond
//     the budget (coldest first);
//   - a free near slot takes the hottest wanted far segment whose heat
//     is at least max(min_heat, margin);
//   - otherwise the hottest wanted far segment swaps with the coldest
//     outranked resident only if its heat exceeds the resident's by
//     more than the margin (4 decayed accesses); the first pair that
//     fails ends the epoch's swaps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mlm::kv {

class HeatMonitor;
class TieredKvStore;

enum class PlacementPolicy : std::uint8_t {
  StaticNearFirst,
  LruEpoch,
  FreqThreshold,
};

const char* to_string(PlacementPolicy policy);

/// Inverse of to_string; throws InvalidArgumentError on unknown names.
/// Accepts "static", "lru", "freq".
PlacementPolicy placement_policy_from_string(const std::string& name);

struct PolicyConfig {
  PlacementPolicy policy = PlacementPolicy::FreqThreshold;
  /// Near-tier budget in segments; 0 = derive from the near space's
  /// addressable capacity minus the index's bytes when the index lives
  /// near (other allocation failures ride the migration engine's
  /// degradation ladder).
  std::size_t max_near_segments = 0;
  /// FreqThreshold: minimum decayed heat to be worth promoting.
  std::uint64_t min_heat = 1;
};

/// One epoch's migration work: demotes run before promotes so the
/// freed budget is available.  Segment ids, each list ascending.
struct MigrationPlan {
  std::vector<std::size_t> demote;
  std::vector<std::size_t> promote;

  bool empty() const { return demote.empty() && promote.empty(); }
  std::size_t moves() const { return demote.size() + promote.size(); }

  /// Compact "D:1,4 P:2,9" rendering for placement traces ("-" when
  /// empty); replay tests compare these strings epoch by epoch.
  std::string to_string() const;
};

/// The segments `config.policy` (LruEpoch or FreqThreshold) wants near:
/// the top `budget` eligible segments under its rank order, in no
/// particular order.  FreqThreshold's plan applies hysteresis on top of
/// this set; LruEpoch's plan is exactly the difference to the placement.
/// Throws InvalidArgumentError for StaticNearFirst, which ranks nothing.
std::vector<std::size_t> select_near(const HeatMonitor& monitor,
                                     const PolicyConfig& config,
                                     std::size_t budget);

/// Decide this epoch's plan.  Pure: reads placement from `store` and
/// counters from `monitor`, mutates nothing.
MigrationPlan plan_migration(const TieredKvStore& store,
                             const HeatMonitor& monitor,
                             const PolicyConfig& config);

}  // namespace mlm::kv
