// kv_zipf: a Zipf 0.99 lookup trace against the tiered record store,
// FreqThreshold placement, the near tier holding a quarter of the store,
// 4 workers.  Random 64-byte reads run beside segment migrations (writes
// plus MemorySpace alloc/free), the only workload that reaches the
// kvstore layer.
//
// The epoch loop is kv::run_workload's (lookups across the workers, heat
// fold, plan, migrate), written out over the same public pieces so each
// phase can be timed and every looked-up value checked against the value
// that was put.
#include <cstring>
#include <memory>

#include "bench.h"
#include "mlm/kvstore/migration.h"
#include "mlm/kvstore/policy.h"
#include "mlm/kvstore/store.h"
#include "mlm/kvstore/trace.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/cache_line.h"
#include "mlm/support/units.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kValueWords = 7;  // 56-byte values, 64-byte records

struct Sizes {
  std::size_t keys;
  std::size_t ops;  ///< lookups per operation
  std::size_t epoch_ops;
};

Sizes sizes(bool small) {
  if (small) return {std::size_t{1} << 13, std::size_t{1} << 16, 1024};
  return {std::size_t{1} << 18, std::size_t{1} << 22, 8192};
}

/// The checksum a key's value words must add up to.
std::uint64_t value_checksum(std::uint64_t salt, std::uint64_t key) {
  return mix64(salt ^ key);
}

/// A key's value: hashed words, the last one chosen so the words add up
/// to value_checksum(), which a lookup verifies with one hash.
void make_value(std::uint64_t salt, std::uint64_t key,
                std::uint64_t (&value)[kValueWords]) {
  std::uint64_t sum = 0;
  for (std::size_t w = 0; w + 1 < kValueWords; ++w) {
    value[w] = mix64(salt + key * kValueWords + w);
    sum += value[w];
  }
  value[kValueWords - 1] = value_checksum(salt, key) - sum;
}

struct alignas(mlm::kCacheLineBytes) Tally {
  std::size_t near_hits = 0;
  std::size_t far_hits = 0;
  std::size_t bad = 0;  ///< misses of present keys and wrong values
};

struct Env {
  Env(const Sizes& sz, std::uint64_t seed)
      : sz(sz),
        salt(mix64(seed)),
        hier(mlm::HierarchyConfig{
            {mlm::TierConfig{"ddr", mlm::MemKind::DDR, 0},
             mlm::TierConfig{"mcdram", mlm::MemKind::MCDRAM,
                             sz.keys * 64 / 4}},
            mlm::McdramMode::Flat}),
        pool(kWorkers, "kv"),
        store(hier),
        engine(store, degrade()) {
    store.monitor().ensure_shards(kWorkers);
    std::uint64_t value[kValueWords];
    for (std::uint64_t k = 0; k < sz.keys; ++k) {
      make_value(salt, k, value);
      store.put(k, value);
    }
    trace = mlm::kv::generate_trace(
        {mlm::kv::TraceKind::Zipfian, sz.keys, sz.ops, 0.99, seed});
  }

  static mlm::core::DegradePolicy degrade() {
    // A move that does not fit is abandoned, never fatal.
    mlm::core::DegradePolicy p;
    p.allow_tier_fallback = true;
    return p;
  }

  Sizes sz;
  std::uint64_t salt;
  mlm::MemoryHierarchy hier;
  mlm::ThreadPool pool;
  mlm::kv::TieredKvStore store;
  mlm::kv::MigrationEngine engine;
  std::vector<std::uint64_t> trace;
};

struct Run {
  Tracer& tracer;
  Result& result;
  std::vector<std::vector<double>> epoch_seconds{};  ///< per operation
  std::size_t near_hits = 0;
  std::size_t hits = 0;
  mlm::kv::MigrationStats moved{};

  std::pair<double, double> op(Env& env, bool traced) {
    const std::size_t n = env.trace.size();
    std::vector<Tally> tallies(kWorkers);
    std::vector<std::uint64_t> scratch(kWorkers * 16);
    epoch_seconds.emplace_back();
    const double t0 = tracer.now();
    for (std::size_t begin = 0; begin < n; begin += env.sz.epoch_ops) {
      const std::size_t end = std::min(begin + env.sz.epoch_ops, n);
      const double e0 = tracer.now();
      {
        Scope s(tracer, "kvstore", "kv.lookup");
        env.pool.run_on_all([&, begin, end](std::size_t w) {
          Tally& t = tallies[w];
          std::uint64_t* out = scratch.data() + w * 16;
          for (std::size_t i = begin + w; i < end; i += kWorkers) {
            const std::uint64_t key = env.trace[i];
            bool near = false;
            if (!env.store.get(key, out, w, &near)) {
              ++t.bad;
              continue;
            }
            ++(near ? t.near_hits : t.far_hits);
            std::uint64_t sum = 0;
            for (std::size_t v = 0; v < kValueWords; ++v) sum += out[v];
            if (sum != value_checksum(env.salt, key)) ++t.bad;
          }
        });
      }
      {
        Scope s(tracer, "kvstore", "kv.fold");
        env.store.monitor().fold_epoch();
      }
      mlm::kv::MigrationPlan plan;
      {
        Scope s(tracer, "kvstore", "kv.plan");
        plan = mlm::kv::plan_migration(env.store, env.store.monitor(), {});
      }
      if (!plan.empty()) {
        Scope s(tracer, "kvstore", "kv.migrate");
        const mlm::kv::MigrationStats m = env.engine.run(std::move(plan));
        if (traced) {
          moved.moved_bytes += m.moved_bytes;
          moved.abandoned += m.abandoned;
          moved.steps += m.steps;
        }
      }
      epoch_seconds.back().push_back(tracer.now() - e0);
    }
    const double t1 = tracer.now();

    result.attempted += n;
    for (const Tally& t : tallies) {
      result.failed += t.bad;
      if (traced) {
        near_hits += t.near_hits;
        hits += t.near_hits + t.far_hits;
      }
    }
    return {t0, t1};
  }
};

}  // namespace

Result run_kv_zipf(const Options& opt) {
  const Sizes sz = sizes(opt.small);
  Result result;
  Tracer tracer;
  Run run{tracer, result};

  Report kernels;
  if (opt.trace) {
    measure_ceilings({std::size_t{1} << 16, std::size_t{1} << 16,
                      std::size_t{1} << 12, std::size_t{1} << 16,
                      opt.small ? mlm::MiB(16) : mlm::MiB(1280)},
                     opt.seed, kernels);
  }

  std::unique_ptr<Env> env;
  const std::vector<double> setups = time_setups(opt, 3, env, [&] {
    auto e = std::make_unique<Env>(sz, opt.seed);
    run.op(*e, false);
    return e;
  });
  run.epoch_seconds.clear();
  env->hier.tier(0).reset_high_water();
  env->hier.tier(1).reset_high_water();
  if (opt.corrupt) {
    // Store a wrong value under the trace's first key; the lookups'
    // value check has to catch it.
    std::uint64_t value[kValueWords];
    make_value(env->salt, env->trace[0], value);
    value[0] ^= 1;
    env->store.put(env->trace[0], value);
  }

  tracer.restart();
  const Loop loop = measure_loop(opt, tracer, 3, [&](bool traced) {
    return Windows{run.op(*env, traced)};
  });

  Report& out = result.metrics;
  const double mib = static_cast<double>(sz.ops * env->store.record_bytes()) /
                     static_cast<double>(mlm::MiB(1));
  if (!opt.trace) {
    std::vector<double> tput;
    for (double s : loop.untraced) tput.push_back(mib / s);
    report_end_to_end(tput, run.epoch_seconds, setups, out);
    return result;
  }

  out.append(kernels);
  const std::vector<SpanRecord> spans = tracer.spans();
  const double ops = static_cast<double>(loop.traced.size());
  out.add("kvstore.lookup_s", "s", span_total(spans, "kv.lookup") / ops);
  out.add("kvstore.lookups_per_s", "1/s",
          static_cast<double>(sz.ops) * ops / span_total(spans, "kv.lookup"));
  out.add("kvstore.migrate_s", "s", span_total(spans, "kv.migrate") / ops);
  out.add("kvstore.near_hit_rate", "ratio",
          run.hits == 0 ? 0.0
                        : static_cast<double>(run.near_hits) /
                              static_cast<double>(run.hits));
  out.add("kvstore.moved_bytes", "bytes",
          static_cast<double>(run.moved.moved_bytes) / ops);
  out.add("kvstore.abandoned", "count",
          static_cast<double>(run.moved.abandoned) / ops);
  report_memory(env->hier, out);
  report_attribution(attribute(spans, loop.windows), ops, out);
  report_overhead(loop, out);
  return result;
}

}  // namespace perfbench
