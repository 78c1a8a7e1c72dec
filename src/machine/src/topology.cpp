#include "mlm/machine/topology.h"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "mlm/support/error.h"

namespace mlm {

Topology synthetic_topology(std::size_t nodes, std::size_t cpus_per_node) {
  MLM_REQUIRE(nodes >= 1, "synthetic_topology: need at least one node");
  MLM_REQUIRE(cpus_per_node >= 1,
              "synthetic_topology: need at least one cpu per node");
  Topology topo;
  topo.synthetic = true;
  topo.source = "synthetic";
  topo.nodes.reserve(nodes);
  int cpu = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    NumaNode node;
    node.id = static_cast<int>(n);
    node.cpus.reserve(cpus_per_node);
    for (std::size_t c = 0; c < cpus_per_node; ++c) {
      node.cpus.push_back(cpu++);
    }
    topo.nodes.push_back(std::move(node));
  }
  return topo;
}

std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  const auto is_space = [](unsigned char ch) { return std::isspace(ch) != 0; };
  // A blank file means "no cpus"; an empty token between commas is a
  // malformed list and must not be silently dropped.
  if (std::all_of(text.begin(), text.end(), is_space)) return cpus;
  std::string token;
  // One cpu id: the whole field in decimal, below CPU_SETSIZE (the ids
  // an affinity mask can hold).
  const auto parse_id = [&](std::string_view field) {
    int id = 0;
    const char* end = field.data() + field.size();
    const auto [stop, ec] = std::from_chars(field.data(), end, id);
    if (ec != std::errc() || stop != end || id >= CPU_SETSIZE) {
      throw InvalidArgumentError(
          "parse_cpu_list: bad token '" + token + "' in '" + text +
          "' (cpu ids are decimal, below " + std::to_string(CPU_SETSIZE) +
          ")");
    }
    return id;
  };
  std::stringstream ss(text);
  while (std::getline(ss, token, ',')) {
    // Trim the token's ends (sysfs cpulist files end in '\n').
    const auto first = std::find_if_not(token.begin(), token.end(), is_space);
    const auto last =
        std::find_if_not(token.rbegin(), token.rend(), is_space).base();
    token = first < last ? std::string(first, last) : std::string();
    if (token.empty()) {
      throw InvalidArgumentError("parse_cpu_list: empty token in '" + text +
                                 "'");
    }
    const std::string_view tv(token);
    const auto dash = tv.find('-');
    if (dash == std::string_view::npos) {
      cpus.push_back(parse_id(tv));
    } else {
      const int lo = parse_id(tv.substr(0, dash));
      const int hi = parse_id(tv.substr(dash + 1));
      MLM_REQUIRE(lo <= hi, "parse_cpu_list: descending range");
      for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    }
  }
  return cpus;
}

namespace {

Topology fallback_topology() {
  const unsigned hw = std::thread::hardware_concurrency();
  Topology topo = synthetic_topology(1, hw == 0 ? 1 : hw);
  topo.source = "fallback";
  return topo;
}

}  // namespace

Topology discover_topology() {
  Topology topo;
  topo.synthetic = false;
  topo.source = "sysfs";
  // Nodes are not necessarily dense, but scanning a generous id range
  // covers every real machine without readdir.
  constexpr int kMaxNodeScan = 256;
  for (int id = 0; id < kMaxNodeScan; ++id) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(id) + "/cpulist";
    std::ifstream in(path);
    if (!in) continue;
    std::string text;
    std::getline(in, text);
    try {
      NumaNode node;
      node.id = id;
      node.cpus = parse_cpu_list(text);
      // Memory-only nodes (CXL expanders, some SNC configs) have no
      // cpus; they cannot host workers, so skip them for planning.
      if (!node.cpus.empty()) topo.nodes.push_back(std::move(node));
    } catch (const InvalidArgumentError&) {
      return fallback_topology();
    }
  }
  if (topo.nodes.empty()) return fallback_topology();
  return topo;
}

std::vector<std::size_t> map_tiers_to_nodes(const Topology& topo,
                                            std::size_t tier_count) {
  std::vector<std::size_t> map;
  if (topo.nodes.empty()) return map;
  map.reserve(tier_count);
  for (std::size_t t = 0; t < tier_count; ++t) {
    map.push_back(std::min(t, topo.nodes.size() - 1));
  }
  return map;
}

const char* to_string(AffinityPolicy policy) {
  switch (policy) {
    case AffinityPolicy::None: return "none";
    case AffinityPolicy::Compact: return "compact";
    case AffinityPolicy::Scatter: return "scatter";
    case AffinityPolicy::TierLocal: return "tier_local";
  }
  return "?";
}

AffinityPolicy affinity_policy_from_string(const std::string& name) {
  if (name == "none") return AffinityPolicy::None;
  if (name == "compact") return AffinityPolicy::Compact;
  if (name == "scatter") return AffinityPolicy::Scatter;
  if (name == "tier_local" || name == "tier-local") {
    return AffinityPolicy::TierLocal;
  }
  throw InvalidArgumentError("unknown AffinityPolicy name: " + name);
}

AffinityPlan plan_affinity(AffinityPolicy policy, const Topology& topo,
                           std::size_t workers,
                           std::size_t preferred_node,
                           std::size_t cpu_offset) {
  AffinityPlan plan;
  plan.policy = policy;
  if (policy == AffinityPolicy::None || workers == 0 ||
      topo.nodes.empty() || topo.total_cpus() == 0) {
    return plan;
  }

  plan.worker_cpus.reserve(workers);
  switch (policy) {
    case AffinityPolicy::None:
      break;

    case AffinityPolicy::Compact: {
      // Node-major flat cpu list; sibling pools pass disjoint offsets.
      std::vector<int> flat;
      flat.reserve(topo.total_cpus());
      for (const auto& node : topo.nodes) {
        flat.insert(flat.end(), node.cpus.begin(), node.cpus.end());
      }
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t slot = cpu_offset + w;
        if (slot >= flat.size()) ++plan.oversubscribed;
        plan.worker_cpus.push_back(flat[slot % flat.size()]);
      }
      break;
    }

    case AffinityPolicy::Scatter: {
      // Worker i on node (i % nodes), next unused cpu of that node.
      std::vector<std::size_t> next(topo.nodes.size(), 0);
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t n = w % topo.nodes.size();
        const auto& cpus = topo.nodes[n].cpus;
        const std::size_t slot = next[n]++;
        if (slot >= cpus.size()) ++plan.oversubscribed;
        plan.worker_cpus.push_back(cpus[slot % cpus.size()]);
      }
      break;
    }

    case AffinityPolicy::TierLocal: {
      std::size_t n = preferred_node;
      if (n >= topo.nodes.size()) {
        n = topo.nodes.size() - 1;
        plan.clamped_nodes = 1;
      }
      const auto& cpus = topo.nodes[n].cpus;
      for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t slot = cpu_offset + w;
        if (slot >= cpus.size()) ++plan.oversubscribed;
        plan.worker_cpus.push_back(cpus[slot % cpus.size()]);
      }
      break;
    }
  }
  return plan;
}

}  // namespace mlm
