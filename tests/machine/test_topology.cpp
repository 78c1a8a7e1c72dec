// Topology description and affinity planning (DESIGN.md §11): synthetic
// topologies, sysfs cpulist parsing, tier->node mapping, and the pure
// per-policy cpu plans — including the graceful wrap/clamp behaviour for
// requests that exceed the machine, which must degrade with counters and
// never fail.
#include "mlm/machine/topology.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <set>
#include <string>

#include "mlm/support/error.h"
#include "mlm/support/proptest.h"

namespace mlm {
namespace {

TEST(SyntheticTopology, NodeMajorNumbering) {
  const Topology topo = synthetic_topology(2, 4);
  ASSERT_EQ(topo.nodes.size(), 2u);
  EXPECT_TRUE(topo.synthetic);
  EXPECT_EQ(topo.source, "synthetic");
  EXPECT_EQ(topo.total_cpus(), 8u);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(topo.node_of_cpu(0), 0);
  EXPECT_EQ(topo.node_of_cpu(7), 1);
  EXPECT_EQ(topo.node_of_cpu(8), -1);
}

TEST(ParseCpuList, RangesSinglesAndWhitespace) {
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list(" 5 , 7 \n"), (std::vector<int>{5, 7}));
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_TRUE(parse_cpu_list(" \n").empty());
}

TEST(ParseCpuList, RejectsMalformedInput) {
  EXPECT_THROW(parse_cpu_list("a-b"), InvalidArgumentError);
  EXPECT_THROW(parse_cpu_list("3-1"), InvalidArgumentError);
  EXPECT_THROW(parse_cpu_list("1,,2"), InvalidArgumentError);
  EXPECT_THROW(parse_cpu_list("1-"), InvalidArgumentError);
}

// Each id is a whole decimal field: trailing garbage, a second dash, a
// hex prefix or whitespace inside a token is malformed, not truncated.
TEST(ParseCpuList, RejectsPartialNumbers) {
  for (const char* bad : {"3x", "1-2-3", "0-3abc", "0x10", "2 3", "1 - 2",
                          "-1", "+5", "4,5x"}) {
    EXPECT_THROW(parse_cpu_list(bad), InvalidArgumentError) << bad;
  }
  EXPECT_EQ(parse_cpu_list("\t0-1 ,2\n"), (std::vector<int>{0, 1, 2}));
}

// An affinity mask holds ids below CPU_SETSIZE; a larger id or range end
// is rejected before any id is expanded.
TEST(ParseCpuList, RejectsIdsAnAffinityMaskCannotHold) {
  ASSERT_THROW(parse_cpu_list("0-1048575"), InvalidArgumentError);
  EXPECT_THROW(parse_cpu_list(std::to_string(CPU_SETSIZE)),
               InvalidArgumentError);
  EXPECT_THROW(parse_cpu_list("0-" + std::to_string(CPU_SETSIZE)),
               InvalidArgumentError);
  EXPECT_THROW(parse_cpu_list("99999999999"), InvalidArgumentError);
  EXPECT_EQ(parse_cpu_list(std::to_string(CPU_SETSIZE - 1)),
            (std::vector<int>{CPU_SETSIZE - 1}));
}

// Seeded mutation of a sysfs cpulist: every mutant yields ids an
// affinity mask can hold, or throws InvalidArgumentError.
TEST(ParseCpuList, MutantsYieldIdsInRangeOrFailStructured) {
  const std::string base = "0-3,8,10-11,64-127\n";
  constexpr char kBytes[] = "0123456789-, \n\tx";
  Gen gen(24);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    std::string m = base;
    for (std::size_t op = gen.size_in(1, 3); op > 0 && !m.empty(); --op) {
      const std::size_t at = gen.below(m.size());
      const char byte = kBytes[gen.below(sizeof kBytes - 1)];
      switch (gen.below(3)) {
        case 0: m[at] = byte; break;
        case 1: m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), byte);
                break;
        default: m.erase(at, 1);
      }
    }
    try {
      for (int id : parse_cpu_list(m)) {
        ASSERT_TRUE(id >= 0 && id < CPU_SETSIZE) << "mutant '" << m << "'";
      }
      ++parsed;
    } catch (const InvalidArgumentError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant '" << m << "' escaped as " << e.what();
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(DiscoverTopology, NeverThrowsAndReportsItsSource) {
  const Topology topo = discover_topology();
  EXPECT_GE(topo.total_cpus(), 1u);
  EXPECT_TRUE(topo.source == "sysfs" || topo.source == "fallback")
      << topo.source;
  // A fallback description must say it is not the real machine.
  if (topo.source == "fallback") {
    EXPECT_TRUE(topo.synthetic);
  }
}

TEST(MapTiersToNodes, NearTierOnNodeZeroFartherTiersOutward) {
  const Topology topo = synthetic_topology(2, 4);
  EXPECT_EQ(map_tiers_to_nodes(topo, 2), (std::vector<std::size_t>{0, 1}));
  // More tiers than nodes: clamp to the last node.
  EXPECT_EQ(map_tiers_to_nodes(topo, 3),
            (std::vector<std::size_t>{0, 1, 1}));
  // Single-node machine: every tier lands on node 0.
  EXPECT_EQ(map_tiers_to_nodes(synthetic_topology(1, 4), 2),
            (std::vector<std::size_t>{0, 0}));
  EXPECT_TRUE(map_tiers_to_nodes(Topology{}, 2).empty());
}

TEST(AffinityPolicyNames, RoundTripAndAliases) {
  for (AffinityPolicy policy : kAllAffinityPolicies) {
    EXPECT_EQ(affinity_policy_from_string(to_string(policy)), policy);
  }
  EXPECT_EQ(affinity_policy_from_string("tier-local"),
            AffinityPolicy::TierLocal);
  EXPECT_THROW(affinity_policy_from_string("bogus"), InvalidArgumentError);
}

TEST(PlanAffinity, NonePlansNoPins) {
  const Topology topo = synthetic_topology(2, 4);
  const AffinityPlan plan = plan_affinity(AffinityPolicy::None, topo, 8);
  EXPECT_FALSE(plan.pins());
  EXPECT_EQ(plan.oversubscribed, 0u);
}

TEST(PlanAffinity, CompactFillsNodeMajor) {
  const Topology topo = synthetic_topology(2, 4);
  const AffinityPlan plan = plan_affinity(AffinityPolicy::Compact, topo, 6);
  EXPECT_EQ(plan.worker_cpus, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(plan.oversubscribed, 0u);
}

TEST(PlanAffinity, CompactOffsetGivesSiblingPoolsDisjointRanges) {
  const Topology topo = synthetic_topology(2, 4);
  const AffinityPlan plan =
      plan_affinity(AffinityPolicy::Compact, topo, 3, 0, 2);
  EXPECT_EQ(plan.worker_cpus, (std::vector<int>{2, 3, 4}));
}

TEST(PlanAffinity, ScatterRoundRobinsNodes) {
  const Topology topo = synthetic_topology(2, 4);
  const AffinityPlan plan = plan_affinity(AffinityPolicy::Scatter, topo, 4);
  ASSERT_EQ(plan.worker_cpus.size(), 4u);
  EXPECT_EQ(topo.node_of_cpu(plan.worker_cpus[0]), 0);
  EXPECT_EQ(topo.node_of_cpu(plan.worker_cpus[1]), 1);
  EXPECT_EQ(topo.node_of_cpu(plan.worker_cpus[2]), 0);
  EXPECT_EQ(topo.node_of_cpu(plan.worker_cpus[3]), 1);
  // Distinct cpus while supply lasts.
  const std::set<int> unique(plan.worker_cpus.begin(),
                             plan.worker_cpus.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(PlanAffinity, TierLocalKeepsEveryWorkerOnTheNode) {
  const Topology topo = synthetic_topology(2, 4);
  const AffinityPlan plan =
      plan_affinity(AffinityPolicy::TierLocal, topo, 3, 1);
  for (int cpu : plan.worker_cpus) {
    EXPECT_EQ(topo.node_of_cpu(cpu), 1);
  }
  EXPECT_EQ(plan.clamped_nodes, 0u);
}

TEST(PlanAffinity, OversizedRequestsWrapAndCount) {
  const Topology topo = synthetic_topology(2, 2);
  for (AffinityPolicy policy :
       {AffinityPolicy::Compact, AffinityPolicy::Scatter,
        AffinityPolicy::TierLocal}) {
    const AffinityPlan plan = plan_affinity(policy, topo, 10, 0);
    ASSERT_EQ(plan.worker_cpus.size(), 10u) << to_string(policy);
    // Every worker still got a real cpu (wrapped, not dropped)...
    for (int cpu : plan.worker_cpus) {
      EXPECT_NE(topo.node_of_cpu(cpu), -1) << to_string(policy);
    }
    // ...and the wrap was recorded, never thrown.
    EXPECT_GT(plan.oversubscribed, 0u) << to_string(policy);
  }
}

TEST(PlanAffinity, OutOfRangePreferredNodeClampsWithCounter) {
  const Topology topo = synthetic_topology(2, 4);
  const AffinityPlan plan =
      plan_affinity(AffinityPolicy::TierLocal, topo, 2, 7);
  EXPECT_EQ(plan.clamped_nodes, 1u);
  for (int cpu : plan.worker_cpus) {
    EXPECT_EQ(topo.node_of_cpu(cpu), 1);  // clamped to the last node
  }
}

TEST(PlanAffinity, EmptyTopologyYieldsEmptyPlanNeverThrows) {
  for (AffinityPolicy policy : kAllAffinityPolicies) {
    const AffinityPlan plan = plan_affinity(policy, Topology{}, 4);
    EXPECT_FALSE(plan.pins()) << to_string(policy);
  }
}

TEST(PlanAffinity, PlansAreDeterministic) {
  const Topology topo = synthetic_topology(4, 16);
  for (AffinityPolicy policy : kAllAffinityPolicies) {
    const AffinityPlan a = plan_affinity(policy, topo, 23, 2, 3);
    const AffinityPlan b = plan_affinity(policy, topo, 23, 2, 3);
    EXPECT_EQ(a.worker_cpus, b.worker_cpus) << to_string(policy);
    EXPECT_EQ(a.oversubscribed, b.oversubscribed);
  }
}

}  // namespace
}  // namespace mlm
