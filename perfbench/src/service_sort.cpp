// service_sort: an open loop of external-sort jobs against the
// multi-tenant JobScheduler, the pattern of `mlm_jobd --loadgen`: one
// generator thread submits jobs on a fixed arrival schedule while a pump
// thread drives run_all().  The scheduler runs over an NVM -> DDR ->
// MCDRAM hierarchy with two jobs at a time, two workers per job and an
// in-memory journal with checkpoints.  Jobs sort 4 and 16 MiB of
// Record64 with mixed priorities and near budgets; one tenant asks for
// no near budget (token) and one for more than the whole near tier
// (degraded).  Admission, queueing, the journal, the stepper phases,
// staging copies and the external merge of 64-byte records do the work.
//
// Job latency runs from when a job was *due*, so a stalled generator or
// a backlog counts against every job behind it.  The arrival schedule
// sets the open loop's throughput, so untraced runs also submit every
// episode's jobs at once (a burst) and report the burst's throughput:
// the service's capacity.
//
// Every job sets outer_chunk_elements and merge_block_elements.  Left at
// 0, both are sized from the free bytes of the shared DDR tier, which
// the scheduler does not budget, so two concurrent jobs each claim half
// of the same free space and then fail to allocate (see NOTES.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "bench.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/service/job_scheduler.h"
#include "mlm/service/journal.h"
#include "mlm/service/sort_job.h"
#include "mlm/sort/record.h"
#include "mlm/support/units.h"

namespace perfbench {

namespace {

using mlm::service::JobConfig;
using mlm::service::JobScheduler;
using mlm::service::JobStepper;
using Rec = mlm::sort::Record64;
constexpr std::size_t kRecWords = sizeof(Rec) / 8;

constexpr std::size_t kMaxConcurrent = 2;
constexpr std::size_t kJobWorkers = 2;
constexpr std::size_t kCheckThreads = 4;
/// Arrivals per episode: enough that ten jobs lie beyond the p90.
constexpr std::size_t kJobsPerEpisode = 100;
constexpr std::size_t kWarmupJobs = 4;

struct Sizes {
  std::size_t small_job;  ///< records
  std::size_t large_job;
  std::size_t outer_chunk;
  std::size_t merge_block;
  std::uint64_t near_bytes;
  std::uint64_t ddr_bytes;
};

Sizes sizes(bool small) {
  if (small) return {1024, 4096, 512, 64, mlm::KiB(128), mlm::MiB(4)};
  return {std::size_t{1} << 16,  // 4 MiB
          std::size_t{1} << 18,  // 16 MiB
          std::size_t{1} << 15,  // 2 MiB outer chunks
          1024,                  // 64 KiB merge blocks
          mlm::MiB(8), mlm::MiB(64)};
}

std::string layer_of(const std::string& event) {
  if (event.rfind("stage-", 0) == 0 || event.rfind("mega copy-in", 0) == 0) {
    return "parallel";
  }
  if (event.rfind("outer sort", 0) == 0) return "mlm_sort";
  if (event.rfind("mega sort+merge", 0) == 0 ||
      event.rfind("final merge", 0) == 0) {
    return "sort";
  }
  // "external merge" spans the Merge and MoveHome steps and the gap
  // between them; the step spans already cover it.
  return "";
}

/// One job: its submission parameters, its NVM-resident data and, after
/// the episode, what the scheduler recorded about it.
struct Job {
  std::size_t index = 0;
  JobConfig config;
  mlm::SpaceBuffer<Rec> data;
  Fingerprint input_fp;
  std::uint64_t id = 0;
  double due = 0.0;
  double submitted = 0.0;
  std::unique_ptr<mlm::TraceWriter> writer;
  mlm::Stopwatch writer_clock;
  double writer_offset = 0.0;  ///< writer_clock's start on the tracer clock
  std::vector<std::int64_t> step_spans;
  mlm::core::ExternalSortStats sort_stats;
};

/// Times each step of the wrapped sort job from outside and keeps its
/// statistics when it finishes.
class TimedStepper : public JobStepper {
 public:
  TimedStepper(std::unique_ptr<JobStepper> inner, Tracer& tracer, Job& job)
      : inner_(std::move(inner)), tracer_(tracer), job_(job) {}

  bool step() override {
    Scope s(tracer_, "external_sort", "sort.step", -1,
            static_cast<std::int64_t>(job_.index));
    if (s.id() >= 0) job_.step_spans.push_back(s.id());
    return inner_->step();
  }
  void finish() override {
    inner_->finish();
    job_.sort_stats = *inner_->sort_stats();
  }
  const mlm::core::ExternalSortStats* sort_stats() const override {
    return inner_->sort_stats();
  }
  std::optional<mlm::service::Checkpoint> checkpoint() const override {
    return inner_->checkpoint();
  }

 private:
  std::unique_ptr<JobStepper> inner_;
  Tracer& tracer_;
  Job& job_;
};

struct Env {
  Env(const Sizes& sz, std::size_t jobs, std::uint64_t seed)
      : sz(sz),
        seed(seed),
        hier(mlm::HierarchyConfig{
            {mlm::TierConfig{"nvm", mlm::MemKind::NVM, 0},
             mlm::TierConfig{"ddr", mlm::MemKind::DDR, sz.ddr_bytes},
             mlm::TierConfig{"mcdram", mlm::MemKind::MCDRAM, sz.near_bytes}},
            mlm::McdramMode::Flat}),
        driver(kMaxConcurrent + 1, "driver"),
        check_pool(kCheckThreads, "service-check") {
    // The job mix is the same for every seed (the seed only changes the
    // records), so runs with different seeds time the same traffic.
    const std::uint64_t budgets[] = {sz.near_bytes / 8, sz.near_bytes / 4,
                                     sz.near_bytes / 2};
    for (std::size_t i = 0; i < jobs; ++i) {
      auto j = std::make_unique<Job>();
      j->index = i;
      JobConfig& c = j->config;
      c.name = "job" + std::to_string(i);
      c.recovery_key = c.name;
      c.priority = static_cast<int>(i * 7 % 3);
      std::size_t n = i % 4 == 1 ? sz.large_job : sz.small_job;
      switch (i % 10) {
        case 3:  // token tenant: declares no near working set
          c.near_budget_bytes = 0;
          break;
        case 7:  // degraded tenant: asks for more than the whole tier
          c.near_budget_bytes = 2 * sz.near_bytes;
          n = sz.large_job;
          break;
        default:
          c.near_budget_bytes = budgets[i % 3];
      }
      j->data = mlm::SpaceBuffer<Rec>(hier.tier(0), n);
      list.push_back(std::move(j));
    }
    generate();
    for (const auto& j : list) {
      j->input_fp =
          fingerprint(check_pool, j->data.data(), j->data.size(), kRecWords);
    }
  }

  /// (Re)write every job's input; a pure function of (seed, job, index).
  void generate() {
    for (const auto& j : list) {
      Rec* d = j->data.data();
      const std::uint64_t salt = mix64(seed ^ (j->index << 32));
      mlm::parallel_for_ranges(check_pool, 0, j->data.size(),
                               [d, salt](mlm::IndexRange r) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          std::uint64_t h = mix64(salt + i);
          d[i].key = h;
          for (std::size_t b = 0; b < d[i].payload.size(); b += 8) {
            h = mix64(h);
            std::memcpy(d[i].payload.data() + b, &h, 8);
          }
        }
      });
    }
  }

  Sizes sz;
  std::uint64_t seed;
  mlm::MemoryHierarchy hier;
  mlm::ThreadPool driver;
  mlm::ThreadPool check_pool;
  std::vector<std::unique_ptr<Job>> list;
};

/// What the episodes of one kind (traced or untraced) observed.
struct Samples {
  std::vector<std::vector<double>> latency;  ///< per episode
  std::vector<double> queue_wait;
  std::vector<double> run;
  std::vector<double> late;
  std::vector<double> submit_call;
  std::vector<double> throughput;  ///< MiB/s per episode
  std::vector<double> mean_run;    ///< mean job run time per episode
  std::vector<std::pair<double, double>> windows;
  std::size_t queue_rounds = 0;
  std::size_t steps = 0;
  std::size_t checkpoints = 0;
  std::size_t degraded = 0;
  std::size_t shed = 0;
  double journal_bytes = 0.0;
  double staging_s = 0.0;
  double sorting_s = 0.0;
  double merging_s = 0.0;
  double staged_bytes = 0.0;
  double nvm_bytes = 0.0;
};

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Submit jobs [0, count) at `rate` per second (all at once when rate is
/// 0), drive them to terminal states, check their outputs, and add what
/// happened to `out`.  Spans are recorded when the tracer is enabled.
void run_episode(Env& env, Tracer& tracer, const Options& opt,
                 std::size_t count, double rate, Result& result,
                 Samples& out) {
  mlm::service::JobJournal journal;
  mlm::service::JobSchedulerConfig scfg;
  scfg.max_concurrent = kMaxConcurrent;
  scfg.job_workers = kJobWorkers;
  scfg.degrade.allow_tier_fallback = true;
  scfg.journal = &journal;
  scfg.checkpoint_interval_steps = 4;
  JobScheduler svc(env.hier, env.driver, scfg);

  mlm::core::ExternalSortConfig sort_cfg;
  sort_cfg.outer_chunk_elements = env.sz.outer_chunk;
  sort_cfg.merge_block_elements = env.sz.merge_block;
  sort_cfg.inner.variant = mlm::core::MlmVariant::Flat;

  const bool traced = tracer.enabled();
  auto factory_for = [&](Job& job) {
    job.writer = traced ? std::make_unique<mlm::TraceWriter>() : nullptr;
    return [&job, &tracer, sort_cfg](const JobConfig&,
                                     mlm::service::JobContext& ctx,
                                     const mlm::service::Checkpoint*) {
      mlm::core::ExternalSortConfig cfg = sort_cfg;
      if (job.writer != nullptr) {
        cfg.trace = cfg.inner.trace = job.writer.get();
        cfg.trace_epoch = cfg.inner.trace_epoch = &job.writer_clock;
        cfg.inner.trace_track = 2;
        job.writer_offset = tracer.now();
        job.writer_clock.restart();
      }
      std::unique_ptr<JobStepper> inner;
      {
        Scope s(tracer, "external_sort", "sort.setup", -1,
                static_cast<std::int64_t>(job.index));
        inner = std::make_unique<mlm::service::SortJob<Rec, std::less<>>>(
            ctx, std::span<Rec>(job.data.data(), job.data.size()), cfg,
            std::less<>{});
      }
      return std::unique_ptr<JobStepper>(
          std::make_unique<TimedStepper>(std::move(inner), tracer, job));
    };
  };

  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      {
        Scope s(tracer, "service", "service.run_all");
        svc.run_all();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const double begin = tracer.now();
  for (std::size_t i = 0; i < count; ++i) {
    Job& job = *env.list[i];
    job.step_spans.clear();
    job.due = begin + (rate > 0.0 ? static_cast<double>(i) / rate : 0.0);
    const double wait = job.due - tracer.now();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    job.submitted = tracer.now();
    {
      Scope s(tracer, "service", "service.submit", -1,
              static_cast<std::int64_t>(i));
      job.id = svc.submit_recoverable(job.config, factory_for(job));
    }
    out.submit_call.push_back(tracer.now() - job.submitted);
    out.late.push_back(job.submitted - job.due);
  }
  stop.store(true, std::memory_order_relaxed);
  pump.join();
  mlm::service::ServiceStats stats;
  {
    Scope s(tracer, "service", "service.run_all");
    stats = svc.run_all();
  }
  out.queue_rounds += stats.queue_rounds;
  out.steps += stats.total_steps;
  out.checkpoints += stats.checkpoints_written;
  out.degraded += stats.jobs_degraded;
  out.shed += stats.jobs_shed;
  out.journal_bytes += static_cast<double>(journal.bytes());

  double end = begin;
  double completed_mib = 0.0;
  std::vector<double> runs;
  std::vector<double> latency;
  const std::vector<SpanRecord> all = tracer.spans();
  for (std::size_t i = 0; i < count; ++i) {
    Job& job = *env.list[i];
    const mlm::service::SortStats st = svc.job_stats(job.id);
    const double terminal = job.submitted + st.queue_seconds + st.run_seconds;
    end = std::max(end, terminal);
    latency.push_back(terminal - job.due);
    out.queue_wait.push_back(st.queue_seconds);
    runs.push_back(st.run_seconds);

    Rec* d = job.data.data();
    if (opt.corrupt) d[job.data.size() / 2].payload[0] ^= 1;
    ++result.attempted;
    const bool ok =
        st.state == mlm::service::JobState::Completed &&
        keys_ascending(env.check_pool, d, job.data.size(), kRecWords, false) &&
        fingerprint(env.check_pool, d, job.data.size(), kRecWords) ==
            job.input_fp;
    if (!ok) {
      ++result.failed;
      continue;
    }
    completed_mib += static_cast<double>(job.data.size() * sizeof(Rec)) /
                     static_cast<double>(mlm::MiB(1));
    const mlm::core::ExternalSortStats& ss = job.sort_stats;
    out.staging_s += ss.staging_seconds;
    out.sorting_s += ss.sorting_seconds;
    out.merging_s += ss.merging_seconds;
    out.staged_bytes +=
        static_cast<double>(ss.bytes_staged_in + ss.bytes_staged_out);
    out.nvm_bytes += static_cast<double>(ss.nvm_read_bytes + ss.nvm_write_bytes);
    if (job.writer != nullptr) {
      const std::vector<std::int64_t>& steps = job.step_spans;
      tracer.import(*job.writer, job.writer_offset,
                    static_cast<std::int64_t>(i), layer_of,
                    [&](double start) {
                      // The step whose window holds the event.
                      for (std::int64_t s : steps) {
                        const SpanRecord& r = all[static_cast<std::size_t>(s)];
                        if (r.start <= start && start <= r.end) return s;
                      }
                      return std::int64_t{-1};
                    });
    }
  }
  out.latency.push_back(std::move(latency));
  out.run.insert(out.run.end(), runs.begin(), runs.end());
  out.mean_run.push_back(mean(runs));
  out.throughput.push_back(completed_mib / (end - begin));
  out.windows.emplace_back(begin, end);
}

}  // namespace

Result run_service_sort(const Options& opt) {
  const Sizes sz = sizes(opt.small);
  MLM_REQUIRE(opt.small || opt.service_rate > 0.0,
              "service_sort needs --service-rate");
  const double rate = opt.small ? 200.0 : opt.service_rate;
  const std::size_t jobs = opt.small ? 12 : kJobsPerEpisode;
  Result result;
  Tracer tracer;

  Report kernels;
  if (opt.trace) {
    measure_ceilings({sz.outer_chunk / kJobWorkers, sz.outer_chunk / 4,
                      sz.outer_chunk, sz.outer_chunk / 2,
                      opt.small ? mlm::MiB(16) : mlm::MiB(1280)},
                     opt.seed, kernels);
  }

  // Setup: hierarchy, pools, every job's input, and a cold burst of the
  // first jobs.
  std::unique_ptr<Env> env;
  Samples warmup;
  const std::vector<double> setups = time_setups(opt, 5, env, [&] {
    auto e = std::make_unique<Env>(sz, jobs, opt.seed);
    run_episode(*e, tracer, opt, kWarmupJobs, 0.0, result, warmup);
    return e;
  });
  for (std::size_t level = 0; level < 3; ++level) {
    env->hier.tier(level).reset_high_water();
  }

  // Episodes of `jobs` arrivals until the time is up: untraced runs
  // pair a burst with an open-loop episode; traced runs alternate
  // untraced and traced open-loop episodes.
  Samples burst;
  Samples plain;
  Samples traced;
  tracer.restart();
  measure_loop(opt, tracer, 3, [&](bool on) {
    if (!opt.trace) {
      env->generate();
      run_episode(*env, tracer, opt, jobs, 0.0, result, burst);
    }
    env->generate();
    Samples& s = on ? traced : plain;
    run_episode(*env, tracer, opt, jobs, rate, result, s);
    return Windows{s.windows.back()};
  });

  Report& out = result.metrics;
  if (!opt.trace) {
    report_end_to_end(burst.throughput, plain.latency, setups, out);
    return result;
  }

  out.append(kernels);
  const std::vector<SpanRecord> spans = tracer.spans();
  const double eps = static_cast<double>(traced.windows.size());
  const Samples& t = traced;
  out.add("service.submit_s", "s", mean(t.submit_call));
  out.add("service.queue_wait_p50_s", "s", median(t.queue_wait));
  out.add("service.queue_wait_p90_s", "s", pct(t.queue_wait, 90));
  out.add("service.run_p50_s", "s", median(t.run));
  out.add("service.queue_rounds", "count",
          static_cast<double>(t.queue_rounds) / eps);
  out.add("service.steps", "count", static_cast<double>(t.steps) / eps);
  out.add("service.journal_bytes", "bytes", t.journal_bytes / eps);
  out.add("service.checkpoints", "count",
          static_cast<double>(t.checkpoints) / eps);
  out.add("service.degraded", "count", static_cast<double>(t.degraded) / eps);
  out.add("service.shed", "count", static_cast<double>(t.shed) / eps);
  out.add("service.generator_late_p90_s", "s", pct(t.late, 90));

  out.add("external_sort.staging_s", "s", t.staging_s / eps);
  out.add("external_sort.sorting_s", "s", t.sorting_s / eps);
  out.add("external_sort.merging_s", "s", t.merging_s / eps);
  out.add("external_sort.staged_bytes", "bytes", t.staged_bytes / eps);
  out.add("external_sort.nvm_bytes", "bytes", t.nvm_bytes / eps);
  const std::vector<double> steps = span_durations(spans, "sort.step");
  out.add("external_sort.step_p50_s", "s", median(steps));
  out.add("external_sort.step_p90_s", "s", pct(steps, 90));

  out.add("mlm_sort.copy_in_s", "s", span_total(spans, "mega copy-in") / eps);
  out.add("mlm_sort.sort_merge_s", "s",
          span_total(spans, "mega sort+merge") / eps);
  out.add("mlm_sort.final_merge_s", "s", span_total(spans, "final merge") / eps);
  out.add("mlm_sort.megachunks", "count",
          static_cast<double>(span_durations(spans, "mega sort+merge").size()) /
              eps);

  report_memory(env->hier, out);
  report_attribution(attribute(spans, t.windows), eps, out);

  // Episode length is set by the arrival schedule, so the tracing
  // overhead compares mean job run times instead.
  Loop runs;
  runs.untraced = plain.mean_run;
  runs.traced = traced.mean_run;
  report_overhead(runs, out);
  return result;
}

}  // namespace perfbench
