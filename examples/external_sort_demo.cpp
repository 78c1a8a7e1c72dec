// Three memory levels, double chunking: sort "NVM"-resident data bigger
// than "DDR" (paper §6's future-work architecture, working end-to-end).
//
// The scaled machine: 512 KiB MCDRAM, 2 MiB DDR, unlimited NVM.  The
// 16 MiB data set is 8x the DDR and 32x the MCDRAM, so all three levels
// chunk: NVM -> DDR outer chunks, DDR -> MCDRAM inner megachunks, and a
// block-buffered external merge staged through DDR finishes the sort.
#include <algorithm>
#include <iostream>
#include <string>

#include "mlm/core/external_sort.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/table.h"
#include "mlm/support/trace.h"
#include "mlm/support/units.h"

int main(int argc, char** argv) {
  using namespace mlm;

  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else {
      std::cerr << "usage: " << argv[0] << " [--trace=out.json]\n";
      return 2;
    }
  }

  const std::uint64_t ddr_bytes = MiB(2);
  const std::uint64_t mcdram_bytes = KiB(512);
  MemoryHierarchy hier(HierarchyConfig{
      {TierConfig{"nvm", MemKind::NVM, 0},  // unlimited
       TierConfig{"ddr", MemKind::DDR, ddr_bytes},
       TierConfig{"mcdram", MemKind::MCDRAM, mcdram_bytes}},
      McdramMode::Flat});
  ThreadPool pool(4);

  const std::size_t n = 2 << 20;  // 2M int64 = 16 MiB
  std::cout << "Machine: MCDRAM " << fmt_count(mcdram_bytes)
            << " B, DDR " << fmt_count(ddr_bytes)
            << " B, NVM unlimited\n"
            << "Data:    " << fmt_count(n) << " int64 ("
            << fmt_count(n * 8) << " B) resident in NVM — "
            << (n * 8) / ddr_bytes << "x the DDR\n\n";

  SpaceBuffer<std::int64_t> data(hier.tier(0), n);
  {
    auto init = sort::make_input(n, sort::InputOrder::Random, 2024);
    std::copy(init.begin(), init.end(), data.data());
  }

  core::ExternalSortConfig cfg;
  cfg.inner.variant = core::MlmVariant::Flat;

  // One track per tier level: NVM<->DDR staging traffic, the DDR-level
  // outer sorts, and the MCDRAM-level megachunk work.
  TraceWriter trace;
  Stopwatch epoch;
  if (!trace_path.empty()) {
    trace.set_track_name(0, "L0 nvm<->ddr staging/merge");
    trace.set_track_name(1, "L1 ddr outer sort");
    trace.set_track_name(2, "L2 mcdram megachunks");
    cfg.trace = &trace;
    cfg.trace_track = 0;
    cfg.trace_epoch = &epoch;
    cfg.inner.trace = &trace;
    cfg.inner.trace_track = 2;
    cfg.inner.trace_epoch = &epoch;
  }
  core::ExternalMlmSorter<std::int64_t> sorter(hier, pool, cfg);

  Stopwatch timer;
  const core::ExternalSortStats stats =
      sorter.sort(std::span<std::int64_t>(data.data(), n));
  const double s = timer.elapsed_s();

  const bool ok = std::is_sorted(data.data(), data.data() + n);
  std::cout << "Sorted: " << (ok ? "yes" : "NO") << " in "
            << fmt_double(s, 2) << " s\n"
            << "Outer chunks (NVM->DDR):        " << stats.outer_chunks
            << "\n"
            << "Inner megachunks per outer:     "
            << stats.last_inner.megachunks << " (DDR->MCDRAM)\n"
            << "Bytes staged into DDR:          "
            << fmt_count(stats.bytes_staged_in) << "\n"
            << "External merge ran:             "
            << (stats.external_merge_ran ? "yes" : "no") << "\n"
            << "DDR high-water:                 "
            << fmt_count(hier.tier(1).stats().high_water_bytes) << " of "
            << fmt_count(ddr_bytes) << "\n"
            << "MCDRAM high-water:              "
            << fmt_count(hier.tier(2).stats().high_water_bytes)
            << " of " << fmt_count(mcdram_bytes) << "\n"
            << "Phases (staging/sorting/merging): "
            << fmt_double(stats.staging_seconds, 2) << " / "
            << fmt_double(stats.sorting_seconds, 2) << " / "
            << fmt_double(stats.merging_seconds, 2) << " s\n"
            << "NVM traffic (read/write):       "
            << fmt_count(stats.nvm_read_bytes) << " / "
            << fmt_count(stats.nvm_write_bytes) << " B\n";
  if (!trace_path.empty()) {
    trace.write_file(trace_path);
    std::cout << "Trace (" << trace.size() << " events, 3 tier tracks): "
              << trace_path << "\n";
  }
  return ok ? 0 : 1;
}
