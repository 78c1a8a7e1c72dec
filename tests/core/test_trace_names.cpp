// The trace events the library emits, pinned by (name, category, track)
// in emission order.  perfbench's host benchmark attributes trace time
// to layers by event-name prefix ("mega copy-in", "mega sort+merge",
// "final merge", "stage-", "outer sort", "external merge"), so these
// names are a contract: a rename here silently moves time between
// perfbench's layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/core/external_sort.h"
#include "mlm/core/mlm_sort.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/dual_space.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/json.h"
#include "mlm/support/trace.h"
#include "mlm/support/units.h"

namespace mlm::core {
namespace {

using Event = std::tuple<std::string, std::string, std::uint32_t>;

/// The complete events of `trace`, in the order they were added.
std::vector<Event> events_of(const TraceWriter& trace) {
  std::vector<Event> out;
  const JsonValue doc = json_parse(trace.to_json());
  for (const JsonValue& e : doc.get("traceEvents").items()) {
    if (e.get("ph").as_string() != "X") continue;
    out.emplace_back(e.get("name").as_string(), e.get("cat").as_string(),
                     static_cast<std::uint32_t>(e.get("tid").as_number()));
  }
  return out;
}

std::string listing(const std::vector<Event>& events) {
  std::string out;
  for (const auto& [name, cat, track] : events) {
    out += "  {\"" + name + "\", \"" + cat + "\", " + std::to_string(track) +
           "},\n";
  }
  return out;
}

void expect_events(const TraceWriter& trace,
                   const std::vector<Event>& expected) {
  const std::vector<Event> got = events_of(trace);
  EXPECT_EQ(got, expected) << "emitted:\n" << listing(got);
}

/// MLM-sort Flat over 3 megachunks, traced on track 4.
void sort_three_megachunks(TraceWriter& trace, bool overlap_copy_in) {
  DualSpaceConfig space_cfg;
  space_cfg.mode = McdramMode::Flat;
  space_cfg.mcdram_bytes = MiB(1);
  DualSpace space(space_cfg);
  ThreadPool pool(2);
  MlmSortConfig cfg;
  cfg.variant = MlmVariant::Flat;
  cfg.megachunk_elements = 1000;
  cfg.overlap_copy_in = overlap_copy_in;
  cfg.trace = &trace;
  cfg.trace_track = 4;
  auto data = sort::make_input(3000, sort::InputOrder::Random, 5);
  MlmSorter<std::int64_t> sorter(space, pool, cfg);
  EXPECT_EQ(sorter.sort(std::span<std::int64_t>(data)).megachunks, 3u);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(TraceNames, MlmSorterFlatMegachunks) {
  TraceWriter trace;
  sort_three_megachunks(trace, false);
  expect_events(trace, {
      {"mega copy-in 0", "mlm-sort", 4},
      {"mega sort+merge 0", "mlm-sort", 4},
      {"mega copy-in 1", "mlm-sort", 4},
      {"mega sort+merge 1", "mlm-sort", 4},
      {"mega copy-in 2", "mlm-sort", 4},
      {"mega sort+merge 2", "mlm-sort", 4},
      {"final merge", "mlm-sort", 4},
  });
}

// Overlapped copy-ins run on the copy pool; each is traced from issue
// until the workers wait for it, on the next track, and is emitted when
// that wait returns: after the sort+merge it overlapped.
TEST(TraceNames, MlmSorterFlatOverlappedMegachunks) {
  TraceWriter trace;
  sort_three_megachunks(trace, true);
  expect_events(trace, {
      {"mega copy-in 0", "mlm-sort", 5},
      {"mega sort+merge 0", "mlm-sort", 4},
      {"mega copy-in 1", "mlm-sort", 5},
      {"mega sort+merge 1", "mlm-sort", 4},
      {"mega copy-in 2", "mlm-sort", 5},
      {"mega sort+merge 2", "mlm-sort", 4},
      {"final merge", "mlm-sort", 4},
  });
}

// The layout perfbench's service_sort uses: outer spans on trace_track
// and trace_track + 1, the inner sorter's megachunk spans on track 2.
TEST(TraceNames, ExternalSorterOuterChunks) {
  HierarchyConfig hier_cfg;
  hier_cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                    TierConfig{"ddr", MemKind::DDR, MiB(2)},
                    TierConfig{"mcdram", MemKind::MCDRAM, KiB(512)}};
  hier_cfg.mode = McdramMode::Flat;
  MemoryHierarchy hier(hier_cfg);
  ThreadPool pool(2);
  TraceWriter trace;
  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 1000;
  cfg.inner.variant = MlmVariant::Flat;
  cfg.inner.megachunk_elements = 500;
  cfg.trace = cfg.inner.trace = &trace;
  cfg.inner.trace_track = 2;
  SpaceBuffer<std::int64_t> data(hier.tier(0), 3000);
  const auto init = sort::make_input(3000, sort::InputOrder::Random, 7);
  std::copy(init.begin(), init.end(), data.data());
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  EXPECT_EQ(sorter.sort(std::span<std::int64_t>(data.data(), 3000))
                .outer_chunks,
            3u);
  EXPECT_TRUE(std::is_sorted(data.data(), data.data() + 3000));

  std::vector<Event> expected;
  for (const std::string c : {"0", "1", "2"}) {
    const std::vector<Event> chunk = {
        {"stage-in " + c, "external-sort", 0},
        {"mega copy-in 0", "mlm-sort", 2},
        {"mega sort+merge 0", "mlm-sort", 2},
        {"mega copy-in 1", "mlm-sort", 2},
        {"mega sort+merge 1", "mlm-sort", 2},
        {"final merge", "mlm-sort", 2},
        {"outer sort " + c, "external-sort", 1},
        {"stage-out " + c, "external-sort", 0},
    };
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  expected.emplace_back("external merge", "external-sort", 0);
  expect_events(trace, expected);
}

/// Sum of the durations (seconds) of the complete events on `track`
/// whose name starts with `prefix`.
double seconds_of(const TraceWriter& trace, const std::string& prefix,
                  std::uint32_t track) {
  double us = 0.0;
  const JsonValue doc = json_parse(trace.to_json());
  for (const JsonValue& e : doc.get("traceEvents").items()) {
    if (e.get("ph").as_string() == "X" &&
        e.get("name").as_string().rfind(prefix, 0) == 0 &&
        static_cast<std::uint32_t>(e.get("tid").as_number()) == track) {
      us += e.get("dur").as_number();
    }
  }
  return us * 1e-6;
}

// The DDR-only fallback (rung 3) re-stages the failed chunk from NVM.
// That copy is a second "stage-in" span, booked to staging_seconds; the
// chunk's "outer sort" span starts after it.  So the stats' staging and
// sorting totals are the sums of the stage-* and outer-sort spans.
TEST(TraceNames, ExternalSorterFallbackRestageIsStaging) {
  fault::FaultPlan plan;
  plan.arm(fault::sites::kExternalSortInner, fault::FaultTrigger::nth_call(0));
  fault::ScopedFaultInjector inject(plan);
  HierarchyConfig hier_cfg;
  hier_cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                    TierConfig{"ddr", MemKind::DDR, MiB(2)},
                    TierConfig{"mcdram", MemKind::MCDRAM, KiB(512)}};
  hier_cfg.mode = McdramMode::Flat;
  MemoryHierarchy hier(hier_cfg);
  ThreadPool pool(2);
  TraceWriter trace;
  ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 100'000;
  cfg.inner.variant = MlmVariant::Flat;
  cfg.inner.megachunk_elements = 50'000;
  cfg.degrade.allow_tier_fallback = true;
  cfg.trace = &trace;
  constexpr std::size_t kElements = 200'000;
  SpaceBuffer<std::int64_t> data(hier.tier(0), kElements);
  const auto init = sort::make_input(kElements, sort::InputOrder::Random, 9);
  std::copy(init.begin(), init.end(), data.data());
  ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);
  const ExternalSortStats stats =
      sorter.sort(std::span<std::int64_t>(data.data(), kElements));
  EXPECT_TRUE(stats.inner_tier_fallback);
  EXPECT_EQ(stats.outer_chunks, 2u);
  EXPECT_TRUE(std::is_sorted(data.data(), data.data() + kElements));

  expect_events(trace, {
      {"stage-in 0", "external-sort", 0},
      {"stage-in 0", "external-sort", 0},
      {"outer sort 0", "external-sort", 1},
      {"stage-out 0", "external-sort", 0},
      {"stage-in 1", "external-sort", 0},
      {"outer sort 1", "external-sort", 1},
      {"stage-out 1", "external-sort", 0},
      {"external merge", "external-sort", 0},
  });
  // Three stage-ins of 100,000 int64: the re-stage's bytes too.
  EXPECT_EQ(stats.bytes_staged_in, 3 * 100'000 * sizeof(std::int64_t));
  // The trace keeps microseconds to 6 significant digits.
  EXPECT_NEAR(stats.staging_seconds, seconds_of(trace, "stage-", 0),
              1e-6 + 1e-5 * stats.staging_seconds);
  EXPECT_NEAR(stats.sorting_seconds, seconds_of(trace, "outer sort", 1),
              1e-6 + 1e-5 * stats.sorting_seconds);
}

// Two levels, two chunks each: level L's stages on tracks 3L..3L+2,
// every name prefixed "L<L> ", the category the stage name.
TEST(TraceNames, TieredPipelineTwoLevels) {
  HierarchyConfig hier_cfg;
  hier_cfg.mode = McdramMode::Flat;
  hier_cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                    TierConfig{"ddr", MemKind::DDR, MiB(2)},
                    TierConfig{"mcdram", MemKind::MCDRAM, KiB(512)}};
  MemoryHierarchy hier(hier_cfg);
  TraceWriter trace;
  TieredPipelineConfig cfg;
  cfg.levels.resize(2);
  cfg.levels[0].chunk_bytes = KiB(256);
  cfg.levels[0].pools = PoolSizes{1, 1, 1};
  cfg.levels[1].chunk_bytes = KiB(128);
  cfg.levels[1].pools = PoolSizes{1, 1, 2};
  cfg.trace = &trace;
  std::vector<std::int64_t> data(KiB(512) / sizeof(std::int64_t));
  std::iota(data.begin(), data.end(), 0);
  run_tiered_pipeline_typed<std::int64_t>(
      hier, std::span<std::int64_t>(data), cfg,
      [](std::span<std::int64_t> chunk, Executor&, std::size_t) {
        for (std::int64_t& v : chunk) ++v;
      });
  EXPECT_EQ(data.front(), 1);
  EXPECT_EQ(data.back(), static_cast<std::int64_t>(data.size()));

  expect_events(trace, {
      {"L0 copy-in c0", "copy-in", 0},
      {"L1 copy-in c0", "copy-in", 3},
      {"L1 compute c0", "compute", 4},
      {"L1 copy-in c1", "copy-in", 3},
      {"L1 compute c1", "compute", 4},
      {"L1 copy-out c0", "copy-out", 5},
      {"L1 copy-out c1", "copy-out", 5},
      {"L0 compute c0", "compute", 1},
      {"L0 copy-in c1", "copy-in", 0},
      {"L1 copy-in c0", "copy-in", 3},
      {"L1 compute c0", "compute", 4},
      {"L1 copy-in c1", "copy-in", 3},
      {"L1 compute c1", "compute", 4},
      {"L1 copy-out c0", "copy-out", 5},
      {"L1 copy-out c1", "copy-out", 5},
      {"L0 compute c1", "compute", 1},
      {"L0 copy-out c0", "copy-out", 2},
      {"L0 copy-out c1", "copy-out", 2},
  });
}

}  // namespace
}  // namespace mlm::core
