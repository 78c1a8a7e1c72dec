// The benchmark binary: every suite in bench/suites/ on one harness.
//
// `bench_all --json=BENCH.json` runs every suite and writes one merged
// JSON perf artifact; `bench_all --smoke --json=...` is the CI
// liveness configuration compared against bench/baselines/smoke.json by
// tools/bench_compare.  `--filter=<suite>/` runs one suite (e.g.
// `--filter=fig7_chunksize/`) with its paper-comparison view; `--list`
// enumerates cases.
#include "mlm/bench/bench.h"
#include "suites/suites.h"

int main(int argc, char** argv) {
  namespace s = mlm::bench::suites;
  mlm::bench::Harness h(
      "bench_all",
      "Runs every benchmark suite (paper reproductions, ablations, "
      "extensions, host benchmarks) and writes one merged artifact; "
      "--filter=<suite>/ runs one suite.");
  s::register_table1_fig6(h);
  s::register_fig7_chunksize(h);
  s::register_table2_params(h);
  s::register_fig8a_model(h);
  s::register_fig8b_empirical(h);
  s::register_table3_copythreads(h);
  s::register_bender_corroboration(h);
  s::register_ablation_buffering(h);
  s::register_ablation_serialsort(h);
  s::register_ext_buffered_mlmsort(h);
  s::register_ext_nvm_projection(h);
  s::register_ext_cluster_scaling(h);
  s::register_ext_design_space(h);
  s::register_ext_scatter(h);
  s::register_ext_radix(h);
  s::register_host_merge(h);
  s::register_host_sort(h);
  s::register_kernel_micro(h);
  s::register_fault_overhead(h);
  s::register_service(h);
  s::register_adapt(h);
  s::register_kv(h);
  s::register_topo(h);
  return h.run(argc, argv);
}
