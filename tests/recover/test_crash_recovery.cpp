// CrashHarness: the crash-consistency acceptance suite.  A scheduler
// over journaled sort tenants is killed at seeded step boundaries (and,
// in the torn-tail families, mid-journal-write via the
// service.journal.append site), restarted from the JobJournal, and
// driven to completion — the recovered run must be digest-identical to
// an uninterrupted one, across 100 DeterministicExecutor seeds and any
// number of successive crashes.
//
// Crash model (see ~JobScheduler): an in-process "crash" destroys the
// scheduler and every executor at a step boundary; the MemoryHierarchy
// (far-tier tenant data) and the journal survive, exactly like NVM and
// a WAL survive real process death.  Torn Submitted records lose the
// job with the process — the WAL acknowledgement contract makes those
// the client's to resubmit, which the harness does.
//
// The chaos family reads MLM_CHAOS_PROB / MLM_CHAOS_SEEDS /
// MLM_CHAOS_ARTIFACT_DIR so the nightly job can turn the fault
// probability up, widen the seed sweep, and keep the journal files as
// artifacts when a seed fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mlm/core/external_sort.h"
#include "mlm/fault/fault.h"
#include "mlm/kvstore/migration.h"
#include "mlm/kvstore/migration_job.h"
#include "mlm/kvstore/store.h"
#include "mlm/memory/memory_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/service/job_scheduler.h"
#include "mlm/service/sort_job.h"
#include "mlm/sort/input_gen.h"
#include "mlm/support/error.h"
#include "mlm/support/rng.h"
#include "mlm/support/units.h"

namespace mlm::service {
namespace {

using sort::InputOrder;
using sort::make_input;

constexpr std::uint64_t kSeeds = 100;
constexpr std::size_t kJobs = 3;
constexpr std::size_t kMaxIncarnations = 64;

struct Tenant {
  std::size_t n;
  InputOrder order;
  int priority;
  std::uint64_t near_budget;
};

// Two contending budgets plus a token tenant, over a 256 KiB arena.
constexpr std::array<Tenant, kJobs> kTenants = {{
    {1536, InputOrder::Random, 0, KiB(160)},
    {1024, InputOrder::Reverse, 1, KiB(96)},
    {768, InputOrder::FewDistinct, 0, 0},
}};

std::uint64_t input_seed(std::size_t job) { return 500 + 31 * job; }

std::string tenant_key(std::size_t job) {
  return "sort.tenant" + std::to_string(job);
}

HierarchyConfig service_config() {
  HierarchyConfig cfg;
  cfg.tiers = {TierConfig{"nvm", MemKind::NVM, 0},
               TierConfig{"ddr", MemKind::DDR, MiB(2)},
               TierConfig{"mcdram", MemKind::MCDRAM, KiB(256)}};
  cfg.mode = McdramMode::Flat;
  return cfg;
}

core::ExternalSortConfig sort_config() {
  core::ExternalSortConfig cfg;
  cfg.outer_chunk_elements = 512;
  cfg.inner.variant = core::MlmVariant::Flat;
  return cfg;
}

std::uint64_t fnv1a(std::span<const std::int64_t> data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::int64_t v : data) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest each tenant must end at: sorting is multiset-preserving, so
/// the expected bytes are the sorted input regardless of interleaving,
/// crashes, or resume points.
std::array<std::uint64_t, kJobs> expected_digests() {
  std::array<std::uint64_t, kJobs> out{};
  for (std::size_t j = 0; j < kJobs; ++j) {
    std::vector<std::int64_t> data =
        make_input(kTenants[j].n, kTenants[j].order, input_seed(j));
    std::sort(data.begin(), data.end());
    out[j] = fnv1a(data);
  }
  return out;
}

/// Everything that survives a crash: the hierarchy (the tenants'
/// far-tier data lives in tier 0) and the journal.
struct World {
  explicit World(const std::string& journal_path = "")
      : hier(service_config()) {
    journal = journal_path.empty()
                  ? std::make_unique<JobJournal>()
                  : std::make_unique<JobJournal>(journal_path);
    buffers.reserve(kJobs);
    for (std::size_t j = 0; j < kJobs; ++j) {
      buffers.emplace_back(hier.tier(0), kTenants[j].n);
      const auto init =
          make_input(kTenants[j].n, kTenants[j].order, input_seed(j));
      std::copy(init.begin(), init.end(), buffers[j].data());
    }
  }

  std::span<std::int64_t> span(std::size_t j) {
    return std::span<std::int64_t>(buffers[j].data(), kTenants[j].n);
  }

  FactoryResolver resolver() {
    FactoryResolver r;
    for (std::size_t j = 0; j < kJobs; ++j) {
      r.register_factory(tenant_key(j),
                         make_recoverable_sort_job(span(j), sort_config()));
    }
    return r;
  }

  MemoryHierarchy hier;
  std::vector<SpaceBuffer<std::int64_t>> buffers;
  std::unique_ptr<JobJournal> journal;
};

/// Everything that DIES in a crash, in construction order (destruction
/// tears the scheduler down before its driver, per the crash model).
struct Incarnation {
  Incarnation(World& w, std::uint64_t seed, std::size_t ckpt_interval)
      : sched(seed), driver(sched, 2, "driver") {
    JobSchedulerConfig cfg;
    cfg.max_concurrent = 2;
    cfg.job_workers = 2;
    cfg.degrade.allow_tier_fallback = true;
    cfg.journal = w.journal.get();
    cfg.checkpoint_interval_steps = ckpt_interval;
    svc = std::make_unique<JobScheduler>(w.hier, driver, cfg);
  }

  DeterministicScheduler sched;
  DeterministicExecutor driver;
  std::unique_ptr<JobScheduler> svc;
};

bool has_job(const JobScheduler& svc, std::uint64_t id) {
  try {
    (void)svc.job_stats(id);
    return true;
  } catch (const Error&) {
    return false;
  }
}

std::uint64_t submit_tenant(JobScheduler& svc, std::size_t j,
                            World& w) {
  JobConfig jc;
  jc.name = "tenant" + std::to_string(j);
  jc.priority = kTenants[j].priority;
  jc.near_budget_bytes = kTenants[j].near_budget;
  jc.recovery_key = tenant_key(j);
  return svc.submit_recoverable(
      jc, make_recoverable_sort_job(w.span(j), sort_config()));
}

struct CrashOutcome {
  std::size_t incarnations = 1;
  std::size_t crashes = 0;
  std::size_t recovered_jobs = 0;   ///< jobs resubmitted by recover()
  std::size_t client_resubmits = 0; ///< jobs lost to torn Submitted
  bool torn_seen = false;
  std::size_t with_checkpoint = 0;
  ServiceStats final_metrics;
};

/// Drive the three tenants to completion across crash/recover cycles.
/// `arm` (optional) installs ONE fault plan spanning the whole odyssey,
/// so nth_call triggers count journal appends cumulatively across
/// incarnations (a bounded trigger therefore always fires eventually,
/// and always stops firing, so the run still terminates).
CrashOutcome run_with_crashes(
    World& w, std::uint64_t seed, std::size_t ckpt_interval,
    const std::function<void(fault::FaultPlan&)>& arm = nullptr) {
  const FactoryResolver resolver = w.resolver();
  SplitMix64 rng(seed ^ 0x8badf00ddeadbeefull);
  CrashOutcome out;

  fault::FaultPlan plan;
  std::optional<fault::ScopedFaultInjector> inject;
  if (arm != nullptr) {
    arm(plan);
    inject.emplace(plan);
  }

  std::array<std::optional<std::uint64_t>, kJobs> ids;
  // Completions the client has already observed: a real client learns
  // of these from the response, so it never resubmits them — and
  // recover() deliberately does not resurrect terminal jobs.
  std::array<bool, kJobs> completed{};
  auto inc = std::make_unique<Incarnation>(w, seed, ckpt_interval);

  const auto submit_missing = [&] {
    for (std::size_t j = 0; j < kJobs; ++j) {
      if (completed[j]) continue;
      if (inc->svc->halted()) return;
      if (!ids[j].has_value() || !has_job(*inc->svc, *ids[j])) {
        if (ids[j].has_value()) ++out.client_resubmits;
        ids[j] = submit_tenant(*inc->svc, j, w);
      }
    }
  };

  const auto note_completions = [&] {
    for (std::size_t j = 0; j < kJobs; ++j) {
      if (completed[j] || !ids[j].has_value()) continue;
      if (has_job(*inc->svc, *ids[j]) &&
          inc->svc->state(*ids[j]) == JobState::Completed) {
        completed[j] = true;
      }
    }
  };

  bool done = false;
  for (std::size_t guard = 0; guard < kMaxIncarnations; ++guard) {
    submit_missing();
    if (!inc->svc->halted()) {
      // Grow the kill budget over incarnations so every run
      // terminates: eventually one burst outlasts the remaining work.
      const std::size_t burst = 1 + rng.next() % 23 + guard * 4;
      done = inc->svc->run_ticks(burst);
    }
    if (done) break;

    // The client observes any completions before the world dies (the
    // responses made it out; only in-flight work is lost).
    note_completions();

    // CRASH: the scheduler and its executors die at this boundary; the
    // journal and the far-tier tenant data in `w` survive.
    ++out.crashes;
    inc.reset();
    inc = std::make_unique<Incarnation>(w, seed + 1000 * (guard + 1),
                                        ckpt_interval);
    ++out.incarnations;
    const JobScheduler::RecoveryReport report = inc->svc->recover(resolver);
    out.recovered_jobs += report.jobs_resubmitted;
    out.with_checkpoint += report.with_checkpoint;
    out.torn_seen |= report.torn_tail;
  }
  EXPECT_TRUE(done) << "seed " << seed << " never completed within "
                    << kMaxIncarnations << " incarnations";
  out.final_metrics = inc->svc->metrics();

  for (std::size_t j = 0; j < kJobs; ++j) {
    if (completed[j]) continue;  // observed done in a past incarnation
    if (!ids[j].has_value()) {
      ADD_FAILURE() << "seed " << seed << " job " << j
                    << " was never submitted";
      continue;
    }
    const SortStats st = inc->svc->job_stats(*ids[j]);
    EXPECT_EQ(st.state, JobState::Completed)
        << "seed " << seed << " job " << j << ": "
        << (st.error ? st.error->what() : "no error");
  }
  // However many crashes happened, the final journal is whole: the torn
  // bytes were truncated at recovery, never replayed.
  EXPECT_FALSE(w.journal->replay().torn_tail) << "seed " << seed;
  return out;
}

void expect_digests(World& w, std::uint64_t seed) {
  static const std::array<std::uint64_t, kJobs> expected =
      expected_digests();
  for (std::size_t j = 0; j < kJobs; ++j) {
    EXPECT_EQ(fnv1a(w.span(j)), expected[j])
        << "seed " << seed << " job " << j;
  }
}

TEST(CrashRecovery, HundredSeedKillAtStepBoundariesSweep) {
  std::size_t total_crashes = 0;
  std::size_t total_recovered = 0;
  std::size_t total_with_checkpoint = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    World w;
    const CrashOutcome out = run_with_crashes(w, seed, /*interval=*/2);
    expect_digests(w, seed);
    EXPECT_EQ(out.client_resubmits, 0u) << "seed " << seed
                                        << ": no faults, no lost jobs";
    total_crashes += out.crashes;
    total_recovered += out.recovered_jobs;
    total_with_checkpoint += out.with_checkpoint;
  }
  // The sweep must actually have exercised the recovery path, hard:
  // most seeds crash at least once (small first bursts), and checkpoint
  // resume — not just restart-from-scratch — must show up broadly.
  EXPECT_GT(total_crashes, kSeeds) << "kill points were not exercised";
  EXPECT_GT(total_recovered, kSeeds);
  EXPECT_GT(total_with_checkpoint, kSeeds / 2);
}

TEST(CrashRecovery, SameSeedSameCrashSchedule) {
  // The whole crash/recover odyssey is a pure function of the seed:
  // same seed, same crash count, same recovery counts, same digests.
  for (const std::uint64_t seed : {5ull, 23ull, 77ull}) {
    World w1, w2;
    const CrashOutcome a = run_with_crashes(w1, seed, 2);
    const CrashOutcome b = run_with_crashes(w2, seed, 2);
    EXPECT_EQ(a.crashes, b.crashes) << "seed " << seed;
    EXPECT_EQ(a.recovered_jobs, b.recovered_jobs) << "seed " << seed;
    EXPECT_EQ(a.with_checkpoint, b.with_checkpoint) << "seed " << seed;
    expect_digests(w1, seed);
    expect_digests(w2, seed);
  }
}

TEST(CrashRecovery, TornSubmittedRecordLosesOnlyThatJob) {
  // Tear the m-th journal append mid-write during submission: the
  // world halts before the job is queued, recovery truncates the torn
  // record, and the client (the harness) resubmits the lost tenant.
  for (const std::uint64_t m : {0ull, 1ull, 2ull}) {
    World w;
    const CrashOutcome out = run_with_crashes(
        w, /*seed=*/11 + m, /*interval=*/2, [m](fault::FaultPlan& plan) {
          plan.arm(fault::sites::kServiceJournalAppend,
                   fault::FaultTrigger::nth_call(m));
        });
    EXPECT_TRUE(out.torn_seen) << "m=" << m;
    EXPECT_GE(out.client_resubmits + (m == 0 ? 1 : 0), 1u) << "m=" << m;
    expect_digests(w, 11 + m);
  }
}

TEST(CrashRecovery, TornCheckpointOrCompletionHealsByRedo) {
  // Tear a later append — a Checkpoint or terminal record mid-run.  The
  // job itself is durable (its Submitted record is whole), so recovery
  // resumes it; the torn record is truncated and the work redone.
  for (const std::uint64_t m : {4ull, 7ull, 11ull, 16ull}) {
    World w;
    const CrashOutcome out = run_with_crashes(
        w, /*seed=*/29 + m, /*interval=*/1, [m](fault::FaultPlan& plan) {
          plan.arm(fault::sites::kServiceJournalAppend,
                   fault::FaultTrigger::nth_call(m));
        });
    EXPECT_TRUE(out.torn_seen) << "m=" << m;
    EXPECT_EQ(out.client_resubmits, 0u)
        << "m=" << m << ": torn checkpoints must not lose jobs";
    expect_digests(w, 29 + m);
  }
}

TEST(CrashRecovery, CheckpointResumeIsExercisedNotJustRestart) {
  World w;
  const CrashOutcome out = run_with_crashes(w, /*seed=*/3, /*interval=*/1);
  expect_digests(w, 3);
  if (out.crashes > 0) {
    EXPECT_GT(out.recovered_jobs, 0u);
    EXPECT_GT(out.final_metrics.jobs_recovered, 0u);
    EXPECT_GT(out.final_metrics.checkpoints_written, 0u);
  }
}

TEST(CrashRecovery, RecoverPreconditionsAreEnforced) {
  World w;
  {
    Incarnation inc(w, 1, 2);
    (void)submit_tenant(*inc.svc, 0, w);
    // recover on a scheduler that already has jobs is a usage error.
    const FactoryResolver r = w.resolver();
    EXPECT_THROW((void)inc.svc->recover(r), Error);
    inc.svc->run_all();
  }
  // recover without a configured journal is a usage error.
  DeterministicScheduler sched(1);
  DeterministicExecutor driver(sched, 2, "driver");
  JobScheduler bare(w.hier, driver, JobSchedulerConfig{});
  const FactoryResolver r = w.resolver();
  EXPECT_THROW((void)bare.recover(r), Error);
}

TEST(CrashRecovery, UnresolvedRecoveryKeyFailsTheJobLoudly) {
  World w;
  {
    Incarnation inc(w, 1, 2);
    (void)submit_tenant(*inc.svc, 0, w);
    (void)inc.svc->run_ticks(3);  // crash mid-run
  }
  Incarnation inc(w, 2, 2);
  FactoryResolver empty;
  const JobScheduler::RecoveryReport report = inc.svc->recover(empty);
  EXPECT_EQ(report.jobs_resubmitted, 0u);
  const SortStats st = inc.svc->job_stats(0);
  EXPECT_EQ(st.state, JobState::Failed);
  ASSERT_TRUE(st.error.has_value());
  EXPECT_NE(std::string(st.error->what()).find("no recovery factory"),
            std::string::npos);
}

TEST(CrashRecovery, TransientReplayFaultIsRetriedPermanentOnePropagates) {
  World w;
  {
    Incarnation inc(w, 1, 1);
    (void)submit_tenant(*inc.svc, 0, w);
    (void)inc.svc->run_ticks(5);
  }
  {
    // One transient read failure: recover()'s internal retry absorbs it.
    fault::FaultPlan plan;
    plan.arm(fault::sites::kServiceJournalReplay,
             fault::FaultTrigger::nth_call(0));
    fault::ScopedFaultInjector inject(plan);
    Incarnation inc(w, 2, 1);
    const FactoryResolver r = w.resolver();
    const JobScheduler::RecoveryReport report = inc.svc->recover(r);
    EXPECT_EQ(report.jobs_resubmitted, 1u);
    EXPECT_EQ(plan.stats(fault::sites::kServiceJournalReplay).fires, 1u);
    inc.svc->run_all();
    EXPECT_EQ(inc.svc->state(0), JobState::Completed);
  }
  // Only tenant 0 ever ran in this scenario.
  EXPECT_EQ(fnv1a(w.span(0)), expected_digests()[0]);
  {
    // A permanent read failure exhausts the retries and propagates with
    // the recover frame — never a silent partial recovery.
    World fresh;
    {
      Incarnation inc(fresh, 1, 1);
      (void)submit_tenant(*inc.svc, 0, fresh);
      (void)inc.svc->run_ticks(5);
    }
    fault::FaultPlan plan;
    plan.arm(fault::sites::kServiceJournalReplay,
             fault::FaultTrigger::always());
    fault::ScopedFaultInjector inject(plan);
    Incarnation inc(fresh, 2, 1);
    const FactoryResolver r = fresh.resolver();
    try {
      (void)inc.svc->recover(r);
      FAIL() << "expected the permanent replay fault to propagate";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("journal replay failed"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CrashRecovery, ChaosProbabilisticTornWritesSweep) {
  // Nightly knobs: MLM_CHAOS_PROB (per-append tear probability),
  // MLM_CHAOS_SEEDS (sweep width), MLM_CHAOS_ARTIFACT_DIR (file-backed
  // journals, kept for upload when a seed fails).  Defaults keep the
  // tier-1 run small.
  const char* p_env = std::getenv("MLM_CHAOS_PROB");
  const char* s_env = std::getenv("MLM_CHAOS_SEEDS");
  const char* dir_env = std::getenv("MLM_CHAOS_ARTIFACT_DIR");
  const double p = p_env != nullptr ? std::atof(p_env) : 0.05;
  const std::uint64_t seeds =
      s_env != nullptr ? std::strtoull(s_env, nullptr, 10) : 8;

  std::size_t torn_runs = 0;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const std::string path =
        dir_env != nullptr
            ? std::string(dir_env) + "/chaos_seed" + std::to_string(seed) +
                  ".wal"
            : "";
    if (!path.empty()) std::remove(path.c_str());
    World w(path);
    const CrashOutcome out = run_with_crashes(
        w, seed, /*interval=*/1,
        [p, seed](fault::FaultPlan& plan) {
          plan.arm(fault::sites::kServiceJournalAppend,
                   fault::FaultTrigger::probability(p, seed * 7 + 1,
                                                    /*max_fires=*/2));
        });
    expect_digests(w, seed);
    if (out.torn_seen) ++torn_runs;
    if (!path.empty() && !::testing::Test::HasFailure()) {
      std::remove(path.c_str());
    }
  }
  if (p >= 0.05 && seeds >= 8) {
    EXPECT_GT(torn_runs, 0u) << "chaos sweep tore no journal writes";
  }
}

// ------------------- job ids are never reused ------------------------

constexpr std::uint64_t kLastId = std::numeric_limits<std::uint64_t>::max();

/// A journal whose jobs `ids` were each submitted (as tenant 0) and
/// completed, written record by record.
void journal_completed_jobs(World& w,
                            std::initializer_list<std::uint64_t> ids) {
  // A real Submitted payload, taken from a throwaway world's journal.
  World donor;
  {
    Incarnation inc(donor, 1, 2);
    (void)submit_tenant(*inc.svc, 0, donor);
  }
  const std::vector<std::uint8_t> payload =
      donor.journal->replay().records.at(0).payload;
  for (const std::uint64_t id : ids) {
    w.journal->append(JournalRecordType::Submitted, id, payload);
    w.journal->append(JournalRecordType::Completed, id);
  }
}

// Regression: a journal naming id 2^64 - 1 made the next id wrap to 0,
// which the journal already shows as terminal, so a job submitted after
// recovery was silently skipped by the next recovery.
TEST(CrashRecovery, JournalNamingTheLastJobIdIsRefused) {
  World w;
  journal_completed_jobs(w, {0, kLastId});
  Incarnation inc(w, 1, 2);
  const FactoryResolver r = w.resolver();
  try {
    (void)inc.svc->recover(r);
    FAIL() << "a journal naming the last job id must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("never issued"), std::string::npos)
        << e.what();
  }
}

// The last id the service issues is 2^64 - 2: a job given it after one
// recovery is resubmitted by the next, and one more submission is
// refused instead of wrapping to an id the journal already names.
TEST(CrashRecovery, JobAtTheTopOfTheIdSpaceIsResubmittedAfterACrash) {
  World w;
  journal_completed_jobs(w, {0, kLastId - 2});
  const FactoryResolver r = w.resolver();
  std::uint64_t id = 0;
  {
    Incarnation inc(w, 1, 2);
    const JobScheduler::RecoveryReport report = inc.svc->recover(r);
    EXPECT_EQ(report.jobs_already_terminal, 2u);
    EXPECT_EQ(report.jobs_resubmitted, 0u);
    id = submit_tenant(*inc.svc, 0, w);
    EXPECT_EQ(id, kLastId - 1);
    EXPECT_THROW((void)submit_tenant(*inc.svc, 1, w), Error);
  }  // CRASH before the job runs
  Incarnation inc(w, 2, 2);
  const JobScheduler::RecoveryReport report = inc.svc->recover(r);
  EXPECT_EQ(report.jobs_resubmitted, 1u);
  EXPECT_EQ(inc.svc->state(id), JobState::Queued);
  inc.svc->run_all();
  EXPECT_EQ(inc.svc->state(id), JobState::Completed);
  EXPECT_EQ(fnv1a(w.span(0)), expected_digests()[0]);
}

// ------------------- migration jobs recover too ----------------------

TEST(CrashRecovery, MigrationJobResumesFromJournaledPlan) {
  // The kvstore fixture from tests/kvstore/test_migration.cpp: 8
  // segments over a 2-segment near tier, a plan swapping {0,1} for
  // {5,6}.  The store and engine survive the crash; the half-executed
  // plan is resumed from its journaled checkpoint — never re-planned.
  HierarchyConfig hcfg;
  hcfg.tiers = {TierConfig{"ddr", MemKind::DDR, 0},
                TierConfig{"mcdram", MemKind::MCDRAM, KiB(2)}};
  MemoryHierarchy hier(hcfg);
  kv::KvConfig kcfg;
  kcfg.value_bytes = 56;
  kcfg.records_per_segment = 16;
  kcfg.index_prefers_near = false;
  kv::TieredKvStore store(hier, kcfg);
  std::vector<std::uint8_t> value(56, 0x5A);
  for (std::uint64_t k = 0; k < 8 * 16; ++k) store.put(k, value.data());
  kv::MigrationPlan plan;
  plan.demote = {0, 1};
  plan.promote = {5, 6};
  const std::uint64_t digest = store.contents_digest();
  kv::MigrationEngine engine(store);

  JobJournal journal;
  const std::string kKey = "kv.migration.v1";
  std::uint64_t id = 0;
  {
    DeterministicScheduler sched(9);
    DeterministicExecutor driver(sched, 2, "driver");
    JobSchedulerConfig cfg;
    cfg.journal = &journal;
    cfg.checkpoint_interval_steps = 1;
    JobScheduler svc(hier, driver, cfg);
    JobConfig jc;
    jc.name = "migrate";
    jc.near_budget_bytes = 0;
    jc.recovery_key = kKey;
    id = svc.submit_recoverable(
        jc, kv::make_recoverable_migration_job(engine, plan));
    (void)svc.run_ticks(3);  // part of the plan executes, then CRASH
  }

  DeterministicScheduler sched(10);
  DeterministicExecutor driver(sched, 2, "driver");
  JobSchedulerConfig cfg;
  cfg.journal = &journal;
  cfg.checkpoint_interval_steps = 1;
  JobScheduler svc(hier, driver, cfg);
  FactoryResolver resolver;
  resolver.register_factory(
      kKey, kv::make_recoverable_migration_job(engine, plan));
  const JobScheduler::RecoveryReport report = svc.recover(resolver);
  EXPECT_EQ(report.jobs_resubmitted + report.jobs_already_terminal, 1u);
  svc.run_all();
  EXPECT_EQ(svc.state(id), JobState::Completed);

  EXPECT_FALSE(store.segment_near(0));
  EXPECT_FALSE(store.segment_near(1));
  EXPECT_TRUE(store.segment_near(5));
  EXPECT_TRUE(store.segment_near(6));
  EXPECT_EQ(store.near_segment_count(), 2u);
  EXPECT_EQ(store.contents_digest(), digest);
}

}  // namespace
}  // namespace mlm::service
