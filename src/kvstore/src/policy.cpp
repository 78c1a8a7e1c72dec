#include "mlm/kvstore/policy.h"

#include <algorithm>

#include "mlm/kvstore/heat.h"
#include "mlm/kvstore/store.h"
#include "mlm/support/error.h"

namespace mlm::kv {

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::StaticNearFirst:
      return "static";
    case PlacementPolicy::LruEpoch:
      return "lru";
    case PlacementPolicy::FreqThreshold:
      return "freq";
  }
  return "?";
}

PlacementPolicy placement_policy_from_string(const std::string& name) {
  if (name == "static") return PlacementPolicy::StaticNearFirst;
  if (name == "lru") return PlacementPolicy::LruEpoch;
  if (name == "freq") return PlacementPolicy::FreqThreshold;
  throw InvalidArgumentError("unknown placement policy: '" + name +
                             "' (expected static | lru | freq)");
}

std::string MigrationPlan::to_string() const {
  if (empty()) return "-";
  std::string out;
  const auto join = [&out](const char* prefix,
                           const std::vector<std::size_t>& ids) {
    if (ids.empty()) return;
    if (!out.empty()) out += ' ';
    out += prefix;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out += (i == 0 ? ":" : ",") + std::to_string(ids[i]);
    }
  };
  join("D", demote);
  join("P", promote);
  return out;
}

namespace {

/// FreqThreshold's hysteresis: a far segment displaces a resident only
/// when its decayed heat leads by more than this, and fills a free near
/// slot only when its heat reaches it (see policy.h).
constexpr std::uint64_t kSwapMargin = 4;

/// One segment's rank key.  Ordered best-first by (primary desc,
/// secondary desc, id asc): a strict total order, so the top `budget`
/// segments are the same set however they are selected.
struct Rank {
  std::uint64_t primary;
  std::uint64_t secondary;
  std::size_t id;
};

Rank rank_of(const HeatMonitor& monitor, bool lru, std::size_t id) {
  const std::uint64_t heat = monitor.heat(id);
  const std::uint64_t last = monitor.last_access_epoch(id);
  return lru ? Rank{last, heat, id} : Rank{heat, last, id};
}

/// The rank order, best first.
struct BestFirst {
  bool operator()(const Rank& a, const Rank& b) const {
    if (a.primary != b.primary) return a.primary > b.primary;
    if (a.secondary != b.secondary) return a.secondary > b.secondary;
    return a.id < b.id;
  }
};

/// Near-tier budget in segments: the explicit cap, or the near bytes
/// left to segments once a near-resident index has taken its share.
std::size_t near_budget(const TieredKvStore& store,
                        const PolicyConfig& config) {
  if (config.max_near_segments != 0) return config.max_near_segments;
  const KvStoreStats s = store.stats();
  if (s.near_capacity_bytes == 0) {
    return store.segment_count();  // unlimited near space: everything fits
  }
  const std::uint64_t index_near_bytes = s.index_near ? s.index_bytes : 0;
  const std::uint64_t segment_space =
      s.near_capacity_bytes > index_near_bytes
          ? s.near_capacity_bytes - index_near_bytes
          : 0;
  return static_cast<std::size_t>(segment_space / store.segment_bytes());
}

}  // namespace

std::vector<std::size_t> select_near(const HeatMonitor& monitor,
                                     const PolicyConfig& config,
                                     std::size_t budget) {
  if (config.policy == PlacementPolicy::StaticNearFirst) {
    throw InvalidArgumentError("select_near: the static policy ranks nothing");
  }
  const bool lru = config.policy == PlacementPolicy::LruEpoch;
  std::vector<Rank> ranked;
  ranked.reserve(monitor.segments());
  for (std::size_t id = 0; id < monitor.segments(); ++id) {
    const Rank r = rank_of(monitor, lru, id);
    const bool eligible = lru ? r.primary > 0 : r.primary >= config.min_heat;
    if (eligible) ranked.push_back(r);
  }
  if (ranked.size() > budget) {
    std::nth_element(ranked.begin(),
                     ranked.begin() + static_cast<std::ptrdiff_t>(budget),
                     ranked.end(), BestFirst{});
    ranked.resize(budget);
  }
  std::vector<std::size_t> ids;
  ids.reserve(ranked.size());
  for (const Rank& r : ranked) ids.push_back(r.id);
  return ids;
}

MigrationPlan plan_migration(const TieredKvStore& store,
                             const HeatMonitor& monitor,
                             const PolicyConfig& config) {
  MigrationPlan plan;
  if (config.policy == PlacementPolicy::StaticNearFirst) return plan;
  if (!store.has_near_tier()) return plan;

  const std::size_t segments = store.segment_count();
  const std::size_t budget = near_budget(store, config);
  const bool lru = config.policy == PlacementPolicy::LruEpoch;
  std::vector<char> want_near(segments, 0);
  for (const std::size_t id : select_near(monitor, config, budget)) {
    want_near[id] = 1;
  }

  if (lru) {
    for (std::size_t id = 0; id < segments; ++id) {
      const bool is_near = store.segment_near(id);
      if (is_near && want_near[id] == 0) plan.demote.push_back(id);
      if (!is_near && want_near[id] != 0) plan.promote.push_back(id);
    }
    return plan;
  }

  // FreqThreshold with hysteresis.  Candidates are far segments the
  // ranking wants near, hottest first; outranked residents are near
  // segments it does not, coldest first.
  std::vector<Rank> candidates;
  std::vector<Rank> outranked;
  std::size_t residents = 0;
  for (std::size_t id = 0; id < segments; ++id) {
    const bool is_near = store.segment_near(id);
    residents += is_near ? 1 : 0;
    if (is_near == (want_near[id] != 0)) continue;
    if (!is_near) {
      candidates.push_back(rank_of(monitor, false, id));
    } else if (monitor.last_access_epoch(id) == 0) {
      plan.demote.push_back(id);  // never accessed: leaves at once
      --residents;
    } else {
      outranked.push_back(rank_of(monitor, false, id));
    }
  }
  std::sort(candidates.begin(), candidates.end(), BestFirst{});
  std::sort(outranked.begin(), outranked.end(),
            [](const Rank& a, const Rank& b) { return BestFirst{}(b, a); });

  // Residents beyond the budget leave at once, coldest first.
  std::size_t cold = 0;
  for (; residents > budget && cold < outranked.size(); ++cold, --residents) {
    plan.demote.push_back(outranked[cold].id);
  }
  // Free near slots take the hottest candidates that clear the margin.
  const std::uint64_t fill_heat = std::max(config.min_heat, kSwapMargin);
  std::size_t hot = 0;
  for (; residents < budget && hot < candidates.size() &&
         candidates[hot].primary >= fill_heat;
       ++hot, ++residents) {
    plan.promote.push_back(candidates[hot].id);
  }
  // Otherwise a candidate gets in only by displacing a colder resident
  // by more than the margin; pairs only get closer, so stop at the
  // first that fails.
  for (; hot < candidates.size() && cold < outranked.size(); ++hot, ++cold) {
    if (candidates[hot].primary <= outranked[cold].primary + kSwapMargin) {
      break;
    }
    plan.promote.push_back(candidates[hot].id);
    plan.demote.push_back(outranked[cold].id);
  }
  std::sort(plan.demote.begin(), plan.demote.end());
  std::sort(plan.promote.begin(), plan.promote.end());
  return plan;
}

}  // namespace mlm::kv
