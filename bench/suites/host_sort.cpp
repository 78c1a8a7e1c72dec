// H1 — host-mode microbenchmarks: real throughput of the library's
// sorting building blocks and of MLM-sort end-to-end on *this* machine
// (not the simulated KNL).  Validates that the real code paths behind
// the simulated timelines are sound and measures their native
// performance.  Previously a google-benchmark binary; now harness
// wall-clock cases so the samples land in the same JSON artifact as
// everything else.
#include <algorithm>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "mlm/core/mlm_sort.h"
#include "mlm/machine/knl_config.h"
#include "mlm/sort/funnelsort.h"
#include "mlm/sort/input_gen.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/parallel_sort.h"
#include "mlm/sort/serial_sort.h"
#include "mlm/support/table.h"
#include "suites.h"

namespace mlm::bench::suites {

namespace {

using sort::InputOrder;

/// Register one sort-style case: restore the pristine input (untimed),
/// run `body`, record the time and derived throughput.
template <typename Body>
void add_sort_case(Suite& suite, const std::string& name,
                   std::size_t full_n, InputOrder order, Body body) {
  suite.add_case(name, [=](BenchContext& ctx) {
    const std::size_t n =
        static_cast<std::size_t>(ctx.scaled(full_n, full_n / 8));
    ctx.param("elements", static_cast<std::uint64_t>(n));
    ctx.param("order",
              order == InputOrder::Random ? "random" : "reverse");
    const auto base = sort::make_input(n, order, ctx.seed());
    std::vector<std::int64_t> v(n);
    ctx.measure("sort_seconds", [&] { v = base; }, [&] { body(v); });
  });
}

void view(const RunReport& report, std::ostream& out) {
  out << "=== Host sort microbenchmarks (this machine, not the "
         "simulated KNL) ===\n\n";
  TextTable table({"Case", "Elements", "Mean(s)", "Stddev(s)",
                   "M elem/s"});
  for (const CaseResult& c : report.cases) {
    if (c.suite != "host_sort") continue;
    const Metric* m = c.find_metric("sort_seconds");
    if (m == nullptr) m = c.find_metric("merge_seconds");
    if (m == nullptr) continue;
    const SampleSummary s = m->summary();
    const double n = std::stod(*c.find_param("elements"));
    table.add_row({c.name.substr(std::string("host_sort/").size()),
                   fmt_count(static_cast<std::uint64_t>(n)),
                   fmt_double(s.mean, 4), fmt_double(s.stddev, 4),
                   fmt_double(n / s.mean / 1e6, 1)});
  }
  table.print(out);
}

}  // namespace

void register_host_sort(Harness& h) {
  Suite suite = h.suite(
      "host_sort",
      "Host-mode microbenchmarks: serial sort, funnelsort, "
      "multiway merge, parallel sorts, MLM-sort end-to-end");

  for (std::size_t n : {std::size_t{1} << 14, std::size_t{1} << 17,
                        std::size_t{1} << 20}) {
    add_sort_case(suite, "serial_introsort/" + std::to_string(n), n,
                  InputOrder::Random, [](std::vector<std::int64_t>& v) {
                    sort::serial_sort(v.begin(), v.end());
                  });
  }
  for (std::size_t n :
       {std::size_t{1} << 17, std::size_t{1} << 20}) {
    add_sort_case(suite,
                  "serial_introsort_reverse/" + std::to_string(n), n,
                  InputOrder::Reverse, [](std::vector<std::int64_t>& v) {
                    sort::serial_sort(v.begin(), v.end());
                  });
    add_sort_case(suite, "std_sort/" + std::to_string(n), n,
                  InputOrder::Random, [](std::vector<std::int64_t>& v) {
                    std::sort(v.begin(), v.end());
                  });
    // The cache-oblivious alternative (§2.1): no MCDRAM-size parameter.
    add_sort_case(suite, "funnelsort/" + std::to_string(n), n,
                  InputOrder::Random, [](std::vector<std::int64_t>& v) {
                    std::vector<std::int64_t> scratch(v.size());
                    sort::funnelsort(std::span<std::int64_t>(v),
                                     std::span<std::int64_t>(scratch));
                  });
  }

  for (std::size_t k : {std::size_t{2}, std::size_t{8}, std::size_t{64},
                        std::size_t{256}}) {
    suite.add_case("multiway_merge/k" + std::to_string(k),
                   [=](BenchContext& ctx) {
      const std::size_t total =
          static_cast<std::size_t>(ctx.scaled(1 << 20, 1 << 17));
      ctx.param("elements", static_cast<std::uint64_t>(total));
      ctx.param("runs", static_cast<std::uint64_t>(k));
      std::vector<std::vector<std::int64_t>> runs(k);
      for (std::size_t i = 0; i < k; ++i) {
        runs[i] = sort::make_input(total / k, InputOrder::Random, i);
        std::sort(runs[i].begin(), runs[i].end());
      }
      std::vector<sort::Run<std::int64_t>> spans;
      for (const auto& r : runs) spans.emplace_back(r.data(), r.size());
      std::vector<std::int64_t> out(k * (total / k));
      ctx.measure("merge_seconds", [&] {
        sort::multiway_merge(
            std::span<const sort::Run<std::int64_t>>(spans),
            std::span<std::int64_t>(out));
      });
    });
  }

  for (std::size_t n :
       {std::size_t{1} << 18, std::size_t{1} << 21}) {
    suite.add_case("gnu_like_parallel_sort/" + std::to_string(n),
                   [=](BenchContext& ctx) {
      const std::size_t sz =
          static_cast<std::size_t>(ctx.scaled(n, n / 8));
      ctx.param("elements", static_cast<std::uint64_t>(sz));
      ThreadPool pool(4);
      const auto base =
          sort::make_input(sz, InputOrder::Random, ctx.seed());
      std::vector<std::int64_t> v(sz), scratch(sz);
      ctx.measure("sort_seconds", [&] { v = base; }, [&] {
        sort::gnu_like_parallel_sort(pool, std::span<std::int64_t>(v),
                                     std::span<std::int64_t>(scratch));
      });
    });
  }

  for (std::size_t n :
       {std::size_t{1} << 20, std::size_t{1} << 22}) {
    // MLM-sort against a scaled KNL whose "MCDRAM" (16 MiB) is smaller
    // than the data, so real chunking happens.
    suite.add_case("mlm_sort_end_to_end/" + std::to_string(n),
                   [=](BenchContext& ctx) {
      const std::size_t sz =
          static_cast<std::size_t>(ctx.scaled(n, n / 8));
      ctx.param("elements", static_cast<std::uint64_t>(sz));
      const KnlConfig machine = scaled_knl(1024, 4);
      DualSpace space(make_dual_space_config(machine, McdramMode::Flat));
      ThreadPool pool(4);
      core::MlmSortConfig cfg;
      cfg.variant = core::MlmVariant::Flat;
      core::MlmSorter<std::int64_t> sorter(space, pool, cfg);
      const auto base =
          sort::make_input(sz, InputOrder::Random, ctx.seed());
      std::vector<std::int64_t> v(sz);
      ctx.measure("sort_seconds", [&] { v = base; }, [&] {
        sorter.sort(std::span<std::int64_t>(v));
      });
    });
  }
  suite.set_view(view);
}

}  // namespace mlm::bench::suites
