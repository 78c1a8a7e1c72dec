// JobScheduler: multi-tenant driver for resumable sort jobs over one
// shared MemoryHierarchy ("MLM-as-a-service").
//
// The scheduler turns the library's run-to-completion sorters into a
// service: tenants submit() jobs with a priority, a near-tier (MCDRAM)
// budget request and optional deadlines; the AdmissionController
// arbitrates the shared arena (admit / queue / degrade-to-far-tier per
// the DegradePolicy ladder); admitted jobs execute as chains of
// continuation tasks on the *driver* Executor, one resumable step per
// task, so jobs interleave at step boundaries — exactly the suspension
// points ExternalMlmSorter::Stepper and ChunkPipelineStepper expose.
//
// The driver seam is what makes schedules testable: with a ThreadPool
// driver, job chains run concurrently on real threads; with a
// DeterministicExecutor driver, every interleaving of job steps and
// their inner parallel tasks is a pure function of the scheduler seed
// (Executor::deterministic() also disables wall-clock deadlines and
// timing so runs stay replayable).  Each admitted job gets
//
//   - a budgeted MemoryHierarchy tenant view (its MCDRAM cap), and
//   - its own worker executor for intra-step parallelism (a ThreadPool,
//     or a DeterministicExecutor sharing the driver's seeded schedule).
//
// Threading model: all scheduler state is guarded by one mutex; job
// steppers are driven by exactly one in-flight task at a time and are
// never touched under the lock, so a step's parallel work proceeds
// while other tenants are admitted or finalized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "mlm/core/degrade.h"
#include "mlm/parallel/executor.h"
#include "mlm/service/admission.h"
#include "mlm/service/job.h"
#include "mlm/service/job_queue.h"
#include "mlm/service/journal.h"
#include "mlm/support/stopwatch.h"

namespace mlm {
class DeterministicExecutor;
}  // namespace mlm

namespace mlm::service {

struct JobSchedulerConfig {
  /// Jobs in the Running state at once.  Queued jobs wait for a slot
  /// even when their budget would fit.
  std::size_t max_concurrent = 2;
  /// Worker-executor size given to each running job for intra-step
  /// parallelism.
  std::size_t job_workers = 2;
  /// Recovery ladder: allow_tier_fallback gates the Degraded admission
  /// decision (a request larger than the whole near tier runs DdrOnly
  /// instead of failing).  The ladder's other rungs remain per-job
  /// concerns inside the steppers' own configs.
  core::DegradePolicy degrade;
  /// Token near budget for degraded / zero-request jobs.
  std::uint64_t degraded_budget_bytes = 64;
  /// Crash-consistency WAL (mlm/service/journal.h); not owned, must
  /// outlive the scheduler.  When set, jobs submitted with a
  /// recovery_key are journaled: one Submitted record on entry, a
  /// Checkpoint record every checkpoint_interval_steps steps, and one
  /// terminal record.  Jobs without a recovery_key are never journaled
  /// (they could not be rebuilt at recovery).  A journal append that
  /// fails (the service.journal.append site's simulated mid-write
  /// death) *halts* the scheduler — see halted().
  JobJournal* journal = nullptr;
  /// Steps between Checkpoint records for journaled jobs (0 = no
  /// mid-run checkpoints; recovery then restarts such jobs from
  /// scratch, which redo idempotency makes digest-safe, just slower).
  std::size_t checkpoint_interval_steps = 0;
  /// Overload protection: bound on Queued jobs (0 = unbounded).  A
  /// submission beyond the bound sheds by priority — a strictly
  /// higher-priority arrival evicts the queue's lowest() victim,
  /// otherwise the arrival is rejected; the shed job fails with the
  /// structured Overloaded error and its stats carry the shed flag
  /// (mlm/service/overload.h).
  std::size_t max_queued = 0;
};

class JobScheduler {
 public:
  /// `hierarchy` — the shared service hierarchy; the arbitrated tier is
  /// its nearest addressable tier.  `driver` — the executor job-step
  /// chains run on; it must outlive the scheduler, and a deterministic
  /// driver must be a DeterministicExecutor (its seeded scheduler also
  /// hosts the per-job executors).
  JobScheduler(MemoryHierarchy& hierarchy, Executor& driver,
               JobSchedulerConfig config = {});

  /// All submitted jobs must have reached a terminal state (run_all()
  /// drains) — EXCEPT in the crash model: a scheduler may be destroyed
  /// mid-run (after run_ticks, or halted by a torn journal write)
  /// provided the driver is never stepped again before it, too, is
  /// destroyed.  DeterministicExecutor drops unexecuted tasks on
  /// destruction, so the orphaned step continuations never touch the
  /// freed scheduler; per-job pools drop theirs the same way.  This is
  /// exactly how the crash harness models process death: scheduler and
  /// executors die, the journal and the far-tier data survive.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Queue a job; returns its id.  A near-tier request that can never
  /// be satisfied (larger than the whole arena) fails the job
  /// immediately unless degradation is allowed.  Ids are never reused:
  /// id 2^64-1 is never issued; a submission that would need it throws.
  std::uint64_t submit(JobConfig config, JobFactory factory);

  /// Submit a crash-recoverable job.  config.recovery_key must be
  /// non-empty; with a configured journal the job is journaled and —
  /// after a crash — rebuilt by recover() through a FactoryResolver
  /// registering the same key.  Admission, scheduling, and overload
  /// semantics match submit().
  std::uint64_t submit_recoverable(JobConfig config,
                                   RecoverableFactory factory);

  /// Rebuild jobs from the configured journal after a crash.  Call on a
  /// fresh scheduler, before any submissions: the journal's torn tail
  /// (if any) is truncated — a half-written record is never replayed —
  /// then every journaled job without a terminal record is re-admitted
  /// under its original id, resuming from its last Checkpoint record
  /// (or from scratch when none was written).  Transient replay faults
  /// (service.journal.replay) are retried a few times before
  /// propagating.  A journal naming job id 2^64-1 is refused (Error).
  struct RecoveryReport {
    std::size_t jobs_resubmitted = 0;      ///< re-admitted, non-terminal
    std::size_t jobs_already_terminal = 0; ///< journaled jobs done before the crash
    std::size_t with_checkpoint = 0;       ///< resubmitted jobs resuming mid-run
    bool torn_tail = false;                ///< journal ended in a torn record
    std::size_t torn_bytes = 0;            ///< bytes truncated from the tail
  };
  RecoveryReport recover(const FactoryResolver& resolver);

  /// Cancel a job: a queued job leaves the queue immediately; a running
  /// job is cancelled at its next step boundary (the
  /// service.job.cancel fault site can delay delivery by one step).
  /// Terminal jobs are unaffected.  Cancelled jobs carry a structured
  /// error chain in their stats.
  void cancel(std::uint64_t id);

  /// Drive every submitted job to a terminal state and return the
  /// service metrics.  Under a deterministic driver the entire
  /// multi-job interleaving is a pure function of the scheduler seed.
  ServiceStats run_all();

  /// Bounded drive for crash harnesses: execute at most `ticks` driver
  /// tasks (deterministic drivers only — a tick is one seeded scheduler
  /// step, so "crash after N ticks" is a pure function of the seed).
  /// Returns true when every job reached a terminal state.  Stops early
  /// when the scheduler halts (see halted()); the caller then treats
  /// the instant as the crash point: destroy the scheduler and recover
  /// a fresh one from the journal.
  bool run_ticks(std::size_t ticks);

  /// True after a journal append failed mid-write: the simulated
  /// process death.  A halted scheduler stops admitting and stepping —
  /// its only valid continuation is destruction followed by recovery
  /// from the journal (which truncates the torn tail).
  bool halted() const;

  JobState state(std::uint64_t id) const;

  /// Snapshot of a job's service record (valid for live and terminal
  /// jobs).
  SortStats job_stats(std::uint64_t id) const;

  /// Service-level aggregate over all jobs ever submitted.
  ServiceStats metrics() const;

  /// Tier index whose budget the AdmissionController arbitrates (the
  /// nearest addressable tier of the service hierarchy).
  std::size_t near_level() const { return near_level_; }

  const AdmissionController& admission() const { return admission_; }

 private:
  struct Job {
    JobConfig config;
    JobFactory factory;
    /// Recoverable jobs carry this instead of `factory`, plus the
    /// checkpoint to resume from (recovered incarnations only).
    RecoverableFactory rfactory;
    std::optional<Checkpoint> resume;
    /// True when this job writes journal records (recovery_key set and
    /// a journal configured).
    bool journaled = false;
    SortStats stats;
    bool degraded = false;
    std::unique_ptr<MemoryHierarchy> view;  ///< budgeted tenant view
    std::unique_ptr<Executor> pool;         ///< per-job workers
    std::unique_ptr<JobStepper> stepper;
    Stopwatch queue_watch;  ///< submit -> admission (wall drivers)
    Stopwatch run_watch;    ///< admission -> terminal (wall drivers)
  };

  std::uint64_t now_tick() const;
  Job& find_job(std::uint64_t id);
  const Job& find_job(std::uint64_t id) const;
  bool all_terminal() const;

  /// Common submit path; exactly one of the factories is set.  Lock
  /// held by callers.
  std::uint64_t submit_locked(JobConfig config, JobFactory factory,
                              RecoverableFactory rfactory);
  /// Overload protection: make room for an arriving job of `priority`,
  /// shedding the queue's lowest victim or rejecting the arrival.
  /// Returns true when the arrival may enter the queue.  Lock held.
  bool shed_for(Job& incoming);
  /// Append to the configured journal; a failed append (the simulated
  /// mid-write death) halts the scheduler and returns false.  Lock
  /// held.
  bool journal_append(JournalRecordType type, std::uint64_t id,
                      std::vector<std::uint8_t> payload = {});
  /// Write a Checkpoint record for `job` when the interval says so.
  /// Lock held.
  void maybe_checkpoint(Job& job);

  /// Admit queued jobs (budget + concurrency permitting) and post their
  /// first step task; returns true when at least one was admitted.
  /// Lock held.
  bool admit_pending();
  /// Lock held.
  void start_job(Job& job, const AdmissionController::Verdict& verdict);
  void post_step(std::uint64_t id);
  /// One continuation of a job's step chain (runs on the driver).
  void step_task(std::uint64_t id);

  /// Terminal transitions; lock held.  finalize_failed consumes `e`'s
  /// chain into the job's stats.
  void finalize(Job& job, JobState state);
  void finalize_failed(Job& job, const Error& e);
  /// Fail every queued job that can no longer make progress (no
  /// running tenant left to release budget).  Lock held.
  void starve_queued();

  MemoryHierarchy& hier_;
  Executor& driver_;
  DeterministicExecutor* det_;  ///< driver as deterministic, else null
  JobSchedulerConfig config_;
  std::size_t near_level_ = 0;
  AdmissionController admission_;

  mutable std::mutex mu_;
  JobQueue queue_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 0;
  std::size_t running_ = 0;
  bool halted_ = false;
  std::size_t checkpoints_written_ = 0;
};

}  // namespace mlm::service
