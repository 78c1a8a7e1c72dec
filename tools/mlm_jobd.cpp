// mlm_jobd: demo driver for the service layer ("MLM-as-a-service").
//
// Stands up a JobScheduler over a three-tier NVM -> DDR -> MCDRAM
// hierarchy and runs a batch of sort tenants against it, printing the
// per-job service records (admission decision, queue rounds, steps,
// timing) and the service-level aggregate.  Two modes:
//
//   - batch (default): a small fixed tenant mix that exercises every
//     admission path — two contending budgets, a token (no-near)
//     tenant, and a whale that can only run degraded;
//   - load-generator (--loadgen): --jobs random tenants with seeded
//     sizes/budgets/priorities, for soaking the scheduler and for the
//     bench_service suite's queue-latency numbers.  With --max-queued
//     the bounded queue sheds load and the ingestion loop rides the
//     client retry ladder: capped exponential backoff with
//     deterministic seeded jitter (mlm/service/overload.h).
//
// Crash consistency (--journal=PATH): recoverable jobs are journaled to
// an append-only WAL — Submitted on entry, a Checkpoint every
// --checkpoint-interval steps, one terminal record — and a clean
// shutdown ends the log with a Shutdown marker.  --recover replays the
// journal on startup and resubmits every job without a terminal
// record.  Process-level recovery restarts those jobs from scratch
// (at-least-once): this process regenerates tenant inputs from the
// seed, so a mid-sort checkpoint taken over the dead process's memory
// must not be resumed over different bytes.  (True checkpoint resume is
// exercised by the in-process crash harness in tests/recover/, where
// the far tier survives the crash.)  Run --recover with the same
// --seed/--jobs/--elements as the crashed run so tenant names rebind to
// equivalent inputs.
//
// SIGINT/SIGTERM request a clean shutdown: ingestion stops, admitted
// and queued jobs drain, the Shutdown record is written, and the
// process exits 0.
//
// --det runs the whole batch under a seeded DeterministicExecutor, so
// a schedule that misbehaves is reproducible from --seed alone.
//
// Usage:
//   mlm_jobd [--jobs=8] [--loadgen] [--det] [--seed=1]
//            [--mcdram-kib=256] [--ddr-mib=2] [--max-concurrent=2]
//            [--job-workers=2] [--elements=4096] [--quiet]
//            [--journal=PATH] [--recover] [--max-queued=N]
//            [--checkpoint-interval=N] [--retry-attempts=N]
//            [--ingest-delay-ms=N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mlm/memory/memory_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/service/job_scheduler.h"
#include "mlm/service/journal.h"
#include "mlm/service/overload.h"
#include "mlm/service/sort_job.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/cli.h"
#include "mlm/support/rng.h"
#include "mlm/support/units.h"

namespace {

using namespace mlm;

/// Durable factory name for jobd's sort jobs: the journal stores this
/// key, and a --recover run registers the same key to rebuild steppers.
constexpr const char* kJobdSortKey = "jobd.sort.v1";

volatile std::sig_atomic_t g_stop = 0;

extern "C" void on_stop_signal(int) { g_stop = 1; }

struct Options {
  std::uint64_t jobs = 8;
  bool loadgen = false;
  bool det = false;
  std::uint64_t seed = 1;
  std::uint64_t mcdram_kib = 256;
  std::uint64_t ddr_mib = 2;
  std::uint64_t max_concurrent = 2;
  std::uint64_t job_workers = 2;
  std::uint64_t elements = 4096;
  bool quiet = false;
  std::string journal_path;
  bool recover = false;
  std::uint64_t max_queued = 0;
  std::uint64_t checkpoint_interval = 4;
  std::uint64_t retry_attempts = 6;
  std::uint64_t ingest_delay_ms = 0;
};

struct Tenant {
  std::string name;
  std::size_t n;
  sort::InputOrder order;
  int priority;
  std::uint64_t near_budget;
};

std::vector<Tenant> batch_mix(const Options& opt) {
  const std::uint64_t cap = KiB(opt.mcdram_kib);
  return {
      {"contend-a", opt.elements, sort::InputOrder::Random, 0,
       cap * 5 / 8},
      {"contend-b", opt.elements, sort::InputOrder::Reverse, 1,
       cap * 5 / 8},
      {"token", opt.elements / 2, sort::InputOrder::FewDistinct, 0, 0},
      {"whale", opt.elements, sort::InputOrder::NearlySorted, 0, cap * 2},
  };
}

std::vector<Tenant> loadgen_mix(const Options& opt) {
  Xoshiro256ss rng(opt.seed);
  const std::uint64_t cap = KiB(opt.mcdram_kib);
  std::vector<Tenant> tenants;
  tenants.reserve(opt.jobs);
  for (std::uint64_t i = 0; i < opt.jobs; ++i) {
    Tenant t;
    t.name = "load" + std::to_string(i);
    t.n = opt.elements / 2 + rng.next() % std::max<std::uint64_t>(
                                              opt.elements, 1);
    t.order = static_cast<sort::InputOrder>(rng.next() % 5);
    t.priority = static_cast<int>(rng.next() % 3);
    // Budgets from 0 to ~1.25x capacity: some admit, some queue, some
    // degrade.
    t.near_budget = rng.next() % (cap + cap / 4);
    if (t.near_budget < cap / 16) t.near_budget = 0;
    tenants.push_back(t);
  }
  return tenants;
}

int run(const Options& opt) {
  HierarchyConfig hcfg;
  hcfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
                TierConfig{"ddr", MemKind::DDR, MiB(opt.ddr_mib)},
                TierConfig{"mcdram", MemKind::MCDRAM, KiB(opt.mcdram_kib)}};
  hcfg.mode = McdramMode::Flat;
  MemoryHierarchy hier(hcfg);

  DeterministicScheduler sched(opt.seed);
  std::unique_ptr<Executor> driver;
  if (opt.det) {
    driver = std::make_unique<DeterministicExecutor>(sched, 2, "driver");
  } else {
    driver = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(opt.max_concurrent) + 1, "driver");
  }

  std::unique_ptr<service::JobJournal> journal;
  if (!opt.journal_path.empty()) {
    journal = std::make_unique<service::JobJournal>(opt.journal_path);
  }
  MLM_REQUIRE(!opt.recover || journal != nullptr,
              "--recover requires --journal");

  service::JobSchedulerConfig scfg;
  scfg.max_concurrent = static_cast<std::size_t>(opt.max_concurrent);
  scfg.job_workers = static_cast<std::size_t>(opt.job_workers);
  scfg.degrade.allow_tier_fallback = true;
  scfg.journal = journal.get();
  scfg.checkpoint_interval_steps =
      static_cast<std::size_t>(opt.checkpoint_interval);
  scfg.max_queued = static_cast<std::size_t>(opt.max_queued);
  service::JobScheduler svc(hier, *driver, scfg);

  const std::vector<Tenant> tenants =
      opt.loadgen ? loadgen_mix(opt) : batch_mix(opt);

  // Tenant data, regenerated from the seed: the journal survives a
  // crash but this demo's "NVM" does not, so a --recover run rebinds
  // the journaled names to equivalent fresh inputs.
  std::vector<SpaceBuffer<std::int64_t>> buffers;
  buffers.reserve(tenants.size());
  std::map<std::string, std::span<std::int64_t>> spans;
  for (std::size_t j = 0; j < tenants.size(); ++j) {
    const Tenant& t = tenants[j];
    buffers.emplace_back(hier.tier(0), t.n);
    const auto init = sort::make_input(t.n, t.order, opt.seed + j);
    std::copy(init.begin(), init.end(), buffers[j].data());
    spans[t.name] = std::span<std::int64_t>(buffers[j].data(), t.n);
  }

  core::ExternalSortConfig sort_cfg;
  sort_cfg.outer_chunk_elements = std::max<std::size_t>(
      static_cast<std::size_t>(opt.elements) / 4, 64);
  sort_cfg.inner.variant = core::MlmVariant::Flat;

  // Resume state is deliberately ignored: this process regenerated the
  // inputs, so a checkpoint naming the dead process's chunk layout must
  // not be resumed over different bytes — process-level recovery is
  // restart-from-scratch (at-least-once).
  service::RecoverableFactory jobd_factory =
      [&spans, sort_cfg](const service::JobConfig& jc,
                         service::JobContext& ctx,
                         const service::Checkpoint*) {
        auto it = spans.find(jc.name);
        if (it == spans.end()) {
          Error e("no tenant data for journaled job '" + jc.name +
                  "' (rerun --recover with the crashed run's --seed, "
                  "--jobs and --elements)");
          throw e.with_frame({"jobd_recover", -1, "", "service", ""});
        }
        service::JobFactory fresh =
            service::make_sort_job(it->second, sort_cfg);
        return fresh(ctx);
      };

  service::JobScheduler::RecoveryReport recovery;
  if (opt.recover) {
    service::FactoryResolver resolver;
    resolver.register_factory(kJobdSortKey, jobd_factory);
    recovery = svc.recover(resolver);
    if (!opt.quiet) {
      std::cout << "recover: resubmitted=" << recovery.jobs_resubmitted
                << " terminal=" << recovery.jobs_already_terminal
                << " with_checkpoint=" << recovery.with_checkpoint
                << (recovery.torn_tail
                        ? " torn_tail=" +
                              std::to_string(recovery.torn_bytes) + "B"
                        : "")
                << "\n";
    }
  }

  // Background pump for threaded loadgen runs: the ingestion loop needs
  // jobs to drain while it is still submitting, or a bounded queue
  // could never empty between retries.  Deterministic runs pump inline
  // with run_ticks instead.
  std::atomic<bool> pump_stop{false};
  std::thread pumper;
  if (!opt.det && opt.loadgen) {
    pumper = std::thread([&svc, &pump_stop] {
      while (!pump_stop.load(std::memory_order_relaxed)) {
        svc.run_all();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  service::RetryPolicy retry;
  retry.max_attempts = static_cast<std::size_t>(opt.retry_attempts);
  retry.jitter_seed = opt.seed;

  std::vector<std::uint64_t> ids;
  std::size_t gave_up = 0;
  // A --recover run's work is defined by the journal, not the tenant
  // mix: submitting the mix again would race a second sort job onto
  // every span a recovered job is already sorting.  (Jobs whose
  // Submitted record was torn off the tail are lost with the process —
  // the WAL acknowledgement contract makes those the client's to
  // resubmit, which this demo does not do.)
  const std::size_t to_ingest = opt.recover ? 0 : tenants.size();
  for (std::size_t j = 0; j < to_ingest && g_stop == 0; ++j) {
    const Tenant& t = tenants[j];
    service::JobConfig jc;
    jc.name = t.name;
    jc.priority = t.priority;
    jc.near_budget_bytes = t.near_budget;
    if (journal != nullptr) jc.recovery_key = kJobdSortKey;

    std::uint64_t id = 0;
    std::size_t attempt = 0;
    for (;;) {
      id = journal != nullptr
               ? svc.submit_recoverable(jc, jobd_factory)
               : svc.submit(jc, service::make_sort_job(spans[t.name],
                                                       sort_cfg));
      if (!svc.job_stats(id).shed) break;  // accepted (or failed for real)
      ++attempt;
      if (attempt > retry.max_attempts) {
        ++gave_up;
        break;
      }
      // Client retry ladder: capped exponential backoff, deterministic
      // seeded jitter.  Deterministic runs convert the delay to virtual
      // ticks so the whole overload episode replays from the seed.
      const std::uint64_t backoff_us = service::retry_backoff_us(retry,
                                                                 attempt);
      if (opt.det) {
        svc.run_ticks(static_cast<std::size_t>(
            std::max<std::uint64_t>(1, backoff_us / 50)));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
    }
    ids.push_back(id);
    if (opt.det && opt.loadgen) svc.run_ticks(4);  // interleave some work
    if (opt.ingest_delay_ms != 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opt.ingest_delay_ms));
    }
  }
  const bool interrupted = g_stop != 0;

  if (pumper.joinable()) {
    pump_stop.store(true, std::memory_order_relaxed);
    pumper.join();
  }

  // Final drain: every admitted and queued job reaches a terminal
  // state; on a signalled shutdown this is the "drain in-flight jobs"
  // phase before the clean Shutdown record.
  const service::ServiceStats m = svc.run_all();
  if (journal != nullptr) {
    journal->append(service::JournalRecordType::Shutdown, 0);
  }

  int sorted_ok = 0;
  for (std::size_t j = 0; j < tenants.size(); ++j) {
    if (std::is_sorted(buffers[j].data(),
                       buffers[j].data() + tenants[j].n)) {
      ++sorted_ok;
    }
  }

  if (!opt.quiet) {
    std::cout << "job          state      admission  pri  req-KiB  "
                 "granted-KiB  q-rounds  steps\n";
    for (const auto id : ids) {
      const service::SortStats st = svc.job_stats(id);
      std::cout << st.name;
      for (std::size_t p = st.name.size(); p < 13; ++p) std::cout << ' ';
      std::cout << to_string(st.state) << "  "
                << to_string(st.admission) << "  " << st.priority << "  "
                << st.requested_near_bytes / 1024 << "  "
                << st.granted_near_bytes / 1024 << "  " << st.queue_rounds
                << "  " << st.steps;
      if (st.shed) std::cout << "  [shed]";
      if (st.error.has_value()) {
        std::cout << "  [" << st.error->what() << "]";
      }
      std::cout << "\n";
    }
    std::cout << "\nservice: submitted=" << m.jobs_submitted
              << " completed=" << m.jobs_completed
              << " failed=" << m.jobs_failed
              << " cancelled=" << m.jobs_cancelled
              << " degraded=" << m.jobs_degraded
              << " shed=" << m.jobs_shed
              << " recovered=" << m.jobs_recovered << "\n"
              << "         steps=" << m.total_steps
              << " queue_rounds=" << m.queue_rounds
              << " checkpoints=" << m.checkpoints_written
              << " near_peak=" << m.peak_near_committed_bytes << "/"
              << m.near_capacity_bytes << " bytes\n"
              << "         sorted_ok=" << sorted_ok << "/"
              << tenants.size() << " gave_up=" << gave_up << "\n";
    if (opt.det) {
      std::cout << "         deterministic seed=" << opt.seed
                << " ticks=" << sched.now() << "\n";
    }
    if (interrupted) {
      std::cout << "shutdown: signal received; drained "
                << m.jobs_completed << " job(s) and wrote the Shutdown "
                << "record\n";
    }
  }

  if (interrupted) return 0;  // clean signalled shutdown

  const std::size_t unshed_failures = m.jobs_failed - m.jobs_shed;
  bool ok = unshed_failures == 0 &&
            m.peak_near_committed_bytes <= m.near_capacity_bytes;
  if (!opt.loadgen && !opt.recover) {
    // The fixed batch has no overload or recovery churn: every tenant
    // must complete and sort, exactly as before.
    ok = ok && m.jobs_completed == tenants.size() &&
         sorted_ok == static_cast<int>(tenants.size());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  CliParser cli(
      "mlm_jobd: multi-tenant sort-job scheduler demo (batch and "
      "load-generator modes)");
  cli.add_uint("jobs", &opt.jobs, "tenants in --loadgen mode");
  cli.add_flag("loadgen", &opt.loadgen,
               "seeded random tenant mix instead of the fixed batch");
  cli.add_flag("det", &opt.det,
               "drive everything under a seeded deterministic schedule");
  cli.add_uint("seed", &opt.seed, "input / schedule / loadgen seed");
  cli.add_uint("mcdram-kib", &opt.mcdram_kib, "near-tier arena (KiB)");
  cli.add_uint("ddr-mib", &opt.ddr_mib, "DDR staging tier (MiB)");
  cli.add_uint("max-concurrent", &opt.max_concurrent,
               "jobs running at once");
  cli.add_uint("job-workers", &opt.job_workers,
               "worker-executor size per job");
  cli.add_uint("elements", &opt.elements, "base tenant size (elements)");
  cli.add_flag("quiet", &opt.quiet, "suppress the report");
  cli.add_string("journal", &opt.journal_path,
                 "crash-consistency WAL path (enables job journaling)");
  cli.add_flag("recover", &opt.recover,
               "replay --journal and resubmit unfinished jobs");
  cli.add_uint("max-queued", &opt.max_queued,
               "bounded queue depth; 0 = unbounded (no shedding)");
  cli.add_uint("checkpoint-interval", &opt.checkpoint_interval,
               "steps between journal checkpoints (0 = none)");
  cli.add_uint("retry-attempts", &opt.retry_attempts,
               "client retry ladder length for shed submissions");
  cli.add_uint("ingest-delay-ms", &opt.ingest_delay_ms,
               "pause between tenant submissions (shutdown-drain tests)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (!cli.positional().empty()) {
      // Unknown --flags already throw in parse(); stray positional
      // arguments (e.g. a typo like "-loadgen" or "jobs=8") used to be
      // silently accepted and run the default batch instead of what
      // the user asked for.  Reject them the same way.
      std::cerr << "mlm_jobd: unrecognized argument '"
                << cli.positional().front() << "'\n\n"
                << cli.help();
      return 2;
    }
    std::signal(SIGINT, on_stop_signal);
    std::signal(SIGTERM, on_stop_signal);
    return run(opt);
  } catch (const mlm::Error& e) {
    std::cerr << "mlm_jobd: " << e.what() << "\n";
    return 2;
  }
}
