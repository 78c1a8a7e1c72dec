// F1 — fault-injection overhead and forced-degradation benchmarks.
//
// The fault subsystem's contract is near-zero cost when no FaultPlan is
// installed: a site query is one relaxed atomic load.  The wall-clock
// cases here put a number on that (raw query throughput, and a full
// pipeline run with sites compiled in but nothing armed).  The
// deterministic cases arm transient faults under a seeded schedule and
// record exactly which recovery rungs the ladder takes — counters that
// must never drift run-to-run.
#include <cstdint>
#include <numeric>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/pipeline_validator.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/dual_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/support/table.h"
#include "mlm/support/units.h"
#include "suites.h"

namespace mlm::bench::suites {

namespace {

using core::Buffering;
using core::PipelineConfig;
using core::PipelineStats;

DualSpace flat_space(std::uint64_t mcdram_bytes) {
  DualSpaceConfig cfg;
  cfg.mode = McdramMode::Flat;
  cfg.mcdram_bytes = mcdram_bytes;
  return DualSpace(cfg);
}

PipelineStats run_pipeline(DualSpace& space,
                           std::vector<std::int64_t>& data,
                           const core::DegradePolicy& policy,
                           DeterministicScheduler* sched) {
  PipelineConfig cfg;
  cfg.chunk_bytes = 64 * 1024;
  cfg.pools = PoolSizes{2, 2, 2};
  cfg.buffering = Buffering::Triple;
  cfg.scheduler = sched;
  cfg.degrade = policy;
  return core::run_chunk_pipeline_typed<std::int64_t>(
      space, std::span<std::int64_t>(data), cfg,
      [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        for (auto& x : chunk) x += 1;
      });
}

void view(const RunReport& report, std::ostream& out) {
  out << "=== Fault-injection overhead & forced degradation ===\n\n";
  TextTable table({"Case", "Metric", "Value"});
  for (const CaseResult& c : report.cases) {
    if (c.suite != "fault_overhead") continue;
    for (const Metric& m : c.metrics) {
      table.add_row(
          {c.name.substr(std::string("fault_overhead/").size()), m.name,
           fmt_double(m.summary().mean, 6) +
               (m.unit.empty() ? "" : " " + m.unit)});
    }
  }
  table.print(out);
}

}  // namespace

void register_fault_overhead(Harness& h) {
  Suite suite = h.suite(
      "fault_overhead",
      "Fault-site query cost with no plan installed, pipeline overhead "
      "with unarmed sites, and deterministic forced-degradation runs");

  // Raw site-query throughput on the production fast path (no plan):
  // each query must be one relaxed atomic load plus a branch.
  suite.add_case("site_query_no_plan", [](BenchContext& ctx) {
    const std::uint64_t queries = ctx.scaled(64 << 20, 1 << 20);
    ctx.param("queries", queries);
    static fault::FaultSite site("bench.fault_overhead.query");
    std::uint64_t fired = 0;
    ctx.measure("query_seconds", [&] {
      for (std::uint64_t i = 0; i < queries; ++i) {
        fired += site.should_fire() ? 1 : 0;
      }
    });
    ctx.metric("fires", static_cast<double>(fired));
  });

  // A full (real-thread-pool) pipeline run with every site compiled in
  // and nothing armed: the end-to-end cost of being instrumentable.
  suite.add_case("pipeline_no_plan", [](BenchContext& ctx) {
    const std::uint64_t n_bytes = ctx.scaled(MiB(16), MiB(1));
    const std::size_t n =
        static_cast<std::size_t>(n_bytes) / sizeof(std::int64_t);
    ctx.param("bytes", n_bytes);
    DualSpace space = flat_space(MiB(4));
    std::vector<std::int64_t> data(n);
    std::iota(data.begin(), data.end(), 0);
    ctx.measure("pipeline_seconds", [&] {
      run_pipeline(space, data, core::DegradePolicy{}, nullptr);
    });
  });

  // Deterministic forced ladder: transient buffer-alloc exhaustion under
  // a seeded schedule.  The recovery counters are exact model outputs.
  suite.add_case("forced_retry_ladder", [](BenchContext& ctx) {
    const std::size_t n = 5 * 64 * 1024 / sizeof(std::int64_t);
    ctx.param("chunks", std::uint64_t{5});
    DualSpace space = flat_space(MiB(4));
    std::vector<std::int64_t> data(n);
    std::iota(data.begin(), data.end(), 0);

    core::DegradePolicy policy;
    policy.max_retries = 3;
    policy.allow_chunk_halving = true;
    policy.allow_tier_fallback = true;

    fault::FaultPlan plan;
    plan.arm(fault::sites::kPipelineBufferAlloc,
             fault::FaultTrigger::after_n(0, 2));
    plan.arm(fault::sites::kPipelineCopyIn,
             fault::FaultTrigger::nth_call(1));
    fault::ScopedFaultInjector inject(plan);

    DeterministicScheduler sched(ctx.seed());
    const PipelineStats stats =
        run_pipeline(space, data, policy, &sched);

    ctx.metric("retries", static_cast<double>(stats.retries));
    ctx.metric("chunk_halvings",
               static_cast<double>(stats.chunk_halvings));
    ctx.metric("tier_fallbacks",
               static_cast<double>(stats.tier_fallbacks));
    ctx.metric("degradation_events",
               static_cast<double>(stats.degradations.size()));
    ctx.metric("fires", static_cast<double>(plan.total_fires()));
  });

  // Deterministic tier fallback: permanent near-tier exhaustion degrades
  // to in-place far-tier compute (the PREFERRED analogue).
  suite.add_case("forced_tier_fallback", [](BenchContext& ctx) {
    const std::size_t n = 5 * 64 * 1024 / sizeof(std::int64_t);
    DualSpace space = flat_space(MiB(4));
    std::vector<std::int64_t> data(n);
    std::iota(data.begin(), data.end(), 0);

    core::DegradePolicy policy;
    policy.max_retries = 1;
    policy.allow_chunk_halving = true;
    policy.allow_tier_fallback = true;

    fault::FaultPlan plan;
    plan.arm(fault::sites::kPipelineBufferAlloc,
             fault::FaultTrigger::always());
    fault::ScopedFaultInjector inject(plan);

    DeterministicScheduler sched(ctx.seed());
    const PipelineStats stats =
        run_pipeline(space, data, policy, &sched);

    ctx.metric("tier_fallbacks",
               static_cast<double>(stats.tier_fallbacks));
    ctx.metric("bytes_copied_in",
               static_cast<double>(stats.bytes_copied_in));
    ctx.metric("chunks", static_cast<double>(stats.chunks));
  });

  suite.set_view(view);
}

}  // namespace mlm::bench::suites
