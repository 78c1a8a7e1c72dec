// NUMA topology description and affinity planning.
//
// The paper's placement story is two memories on one die (MCDRAM vs
// DDR); on modern multi-socket hosts the natural stand-in is "near tier
// = local NUMA node, far tier = remote node".  This header describes
// the machine (nodes, cpus per node), maps hierarchy tiers onto nodes,
// and turns an AffinityPolicy into a concrete per-worker cpu plan.
//
// Everything here is *pure*: discovery reads sysfs (with a deterministic
// synthetic fallback for CI and non-Linux hosts), and plan_affinity is a
// plain function of (policy, topology, worker count) — so planning is
// unit-testable on any machine, against any synthetic topology, without
// ever touching a real thread.  Actually pinning a thread lives in
// mlm/parallel/affinity.h.
//
// Planning never fails: requests that exceed the machine (more workers
// than cpus, a preferred node the machine doesn't have) degrade
// gracefully — wrap around, clamp to the last node — and the plan
// records how much clamping happened so callers can surface it in
// stats.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mlm {

/// One NUMA node: its id and the cpus it owns.
struct NumaNode {
  int id = 0;
  std::vector<int> cpus;
};

/// Machine topology: the NUMA nodes and their cpus.
struct Topology {
  std::vector<NumaNode> nodes;
  /// True when this did not come from the running machine (synthetic or
  /// fallback) — pinning to it is pointless and callers should treat
  /// plans as descriptive only.
  bool synthetic = true;
  /// Where the description came from: "sysfs", "fallback", "synthetic".
  std::string source = "synthetic";

  std::size_t total_cpus() const {
    std::size_t n = 0;
    for (const auto& node : nodes) n += node.cpus.size();
    return n;
  }

  /// Node owning `cpu`, or -1 if no node lists it.
  int node_of_cpu(int cpu) const {
    for (const auto& node : nodes) {
      for (int c : node.cpus) {
        if (c == cpu) return node.id;
      }
    }
    return -1;
  }
};

/// Deterministic synthetic topology: `nodes` nodes of `cpus_per_node`
/// cpus each, numbered node-major (node 0 owns cpus 0..cpus_per_node-1).
/// The CI stand-in for a multi-socket host.
Topology synthetic_topology(std::size_t nodes, std::size_t cpus_per_node);

/// Parse a sysfs cpulist string ("0-3,8,10-11") into cpu ids.  Ignores
/// whitespace around each comma-separated token; throws
/// InvalidArgumentError on malformed input or an id >= CPU_SETSIZE.
std::vector<int> parse_cpu_list(const std::string& text);

/// Discover the running machine's topology from
/// /sys/devices/system/node/node*/cpulist.  When sysfs is unavailable
/// (non-Linux, containers without /sys) falls back to a single node
/// holding hardware_concurrency cpus, with source = "fallback" and
/// synthetic = true.  Never throws.
Topology discover_topology();

/// Map hierarchy tiers onto NUMA nodes: tier 0 (nearest) -> node 0,
/// farther tiers -> higher-numbered nodes, clamped to the last node
/// when the machine has fewer nodes than the hierarchy has tiers.
/// Returns one node index per tier; empty when the topology is empty.
std::vector<std::size_t> map_tiers_to_nodes(const Topology& topo,
                                            std::size_t tier_count);

/// How a pool's workers relate to the machine's cpus.
enum class AffinityPolicy {
  None,      ///< no pinning; the OS scheduler places threads
  Compact,   ///< fill cpus in order, packing one node before the next
  Scatter,   ///< round-robin workers across nodes
  TierLocal, ///< pin every worker to one preferred (tier-mapped) node
};

const char* to_string(AffinityPolicy policy);

/// Parse "none" / "compact" / "scatter" / "tier_local" (also accepts
/// "tier-local").  Throws InvalidArgumentError on anything else.
AffinityPolicy affinity_policy_from_string(const std::string& name);

/// All four policies, in declaration order — for policy-grid benches
/// and sweep tests.
inline constexpr AffinityPolicy kAllAffinityPolicies[] = {
    AffinityPolicy::None, AffinityPolicy::Compact, AffinityPolicy::Scatter,
    AffinityPolicy::TierLocal};

/// Concrete plan: one cpu per worker (-1 = leave unpinned).
struct AffinityPlan {
  AffinityPolicy policy = AffinityPolicy::None;
  /// cpu for worker i, or -1 to leave worker i unpinned.  Empty when
  /// the policy is None or the topology has no cpus.
  std::vector<int> worker_cpus;
  /// Workers that wrapped past the machine's cpu supply and therefore
  /// share a cpu with an earlier worker (oversubscription, recorded but
  /// never an error).
  std::size_t oversubscribed = 0;
  /// 1 when a preferred node beyond the machine was clamped to the last
  /// node (TierLocal on a machine with fewer nodes than tiers).
  std::size_t clamped_nodes = 0;

  bool pins() const { return !worker_cpus.empty(); }
};

/// Plan cpus for `workers` pool threads under `policy`.
///
///  - None: empty plan (no pinning).
///  - Compact: cpus in node-major order starting `cpu_offset` cpus in
///    (the offset lets sibling pools occupy disjoint cpu ranges).
///  - Scatter: worker i -> node (i % nodes), next unused cpu there.
///  - TierLocal: all workers on `preferred_node` (clamped to the last
///    real node), starting `cpu_offset` cpus into that node.
///
/// Requests exceeding the machine wrap around (recorded in
/// `oversubscribed`); an out-of-range preferred node is clamped
/// (recorded in `clamped_nodes`).  An empty topology yields an empty,
/// never-failing plan.
AffinityPlan plan_affinity(AffinityPolicy policy, const Topology& topo,
                           std::size_t workers,
                           std::size_t preferred_node = 0,
                           std::size_t cpu_offset = 0);

}  // namespace mlm
