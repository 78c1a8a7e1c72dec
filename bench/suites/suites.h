// Registration functions for every benchmark suite.
//
// Each bench/suites/<name>.cpp registers one experiment on the
// mlm::bench harness: its measured configurations become cases
// (deterministic knlsim outputs and/or host wall-clock timings) and
// its paper-comparison tables a suite view over the recorded results.
// bench_all, the one bench binary, calls every function below;
// `bench_all --filter=<name>/` runs a single suite.
//
// Per-suite tunables registered on the shared CLI use suite-prefixed
// flag names (e.g. --table1-threads) so all suites coexist in bench_all
// without flag collisions.
#pragma once

#include "mlm/bench/bench.h"

namespace mlm::bench::suites {

// Paper reproductions (knlsim; deterministic metrics).
void register_table1_fig6(Harness& h);
void register_fig7_chunksize(Harness& h);
void register_table2_params(Harness& h);
void register_fig8a_model(Harness& h);
void register_fig8b_empirical(Harness& h);
void register_table3_copythreads(Harness& h);
void register_bender_corroboration(Harness& h);

// Ablations (knlsim; deterministic metrics).
void register_ablation_buffering(Harness& h);
void register_ablation_serialsort(Harness& h);

// Extensions (knlsim; deterministic metrics, some host timings).
void register_ext_buffered_mlmsort(Harness& h);
void register_ext_nvm_projection(Harness& h);
void register_ext_cluster_scaling(Harness& h);
void register_ext_design_space(Harness& h);
void register_ext_scatter(Harness& h);
void register_ext_radix(Harness& h);

// Host benchmarks (real execution; wall-clock metrics).
void register_host_merge(Harness& h);
void register_host_sort(Harness& h);

// Kernel microbenchmarks (host; before/after pairs per hot kernel).
void register_kernel_micro(Harness& h);

// Robustness (wall-clock overhead + deterministic degradation counters).
void register_fault_overhead(Harness& h);

// Service layer (wall-clock batch/arbiter cost + deterministic
// schedule counters for the multi-tenant sort-job scheduler).
void register_service(Harness& h);

// Adaptive controller (model-driven, fully deterministic): hill-climb
// vs the best static copy-thread configuration on Table 3 workloads.
void register_adapt(Harness& h);

// Tiered record store (deterministic): near-tier hit rate and
// simulated service time vs access skew, static vs migrating placement.
void register_kv(Harness& h);

// Topology-aware execution (PR 10): deterministic affinity planning,
// pinned memory-bound copies (wall + counter metrics), AoS vs
// key/payload-split record sorts with baseline-pinned output digests,
// first-touch arena faulting.  With --perf-counters the host-measured
// cases also record hardware counts (never compared in CI).
void register_topo(Harness& h);

}  // namespace mlm::bench::suites
