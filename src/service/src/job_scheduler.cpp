#include "mlm/service/job_scheduler.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mlm/fault/fault.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/service/overload.h"

namespace mlm::service {

namespace {

// Never issued, so the next id cannot wrap to one the journal names.
constexpr std::uint64_t kLastJobId = std::numeric_limits<std::uint64_t>::max();

fault::FaultSite& step_site() {
  static fault::FaultSite site(fault::sites::kServiceJobStep);
  return site;
}
fault::FaultSite& cancel_site() {
  static fault::FaultSite site(fault::sites::kServiceJobCancel);
  return site;
}

// Submitted-record payload: everything needed to re-admit the job after
// a crash.  deadline_seconds is deliberately not journaled — a wall
// deadline spanning a process restart is meaningless, and deterministic
// recovery only honours step deadlines anyway.
std::vector<std::uint8_t> encode_submitted(const JobConfig& c) {
  CheckpointWriter w;
  w.str(c.name);
  w.i64(c.priority);
  w.u64(c.near_budget_bytes);
  w.u64(c.deadline_steps);
  w.str(c.recovery_key);
  return w.take();
}

JobConfig decode_submitted(const std::vector<std::uint8_t>& payload) {
  CheckpointReader r(payload);
  JobConfig c;
  c.name = r.str();
  c.priority = static_cast<int>(r.i64());
  c.near_budget_bytes = r.u64();
  c.deadline_steps = static_cast<std::size_t>(r.u64());
  c.recovery_key = r.str();
  r.expect_done();
  return c;
}

std::size_t nearest_addressable_level(const MemoryHierarchy& h) {
  std::size_t level = h.tier_count();
  for (std::size_t l = 0; l < h.tier_count(); ++l) {
    if (h.tier_addressable(l)) level = l;
  }
  MLM_REQUIRE(level < h.tier_count(),
              "service hierarchy has no addressable tier");
  return level;
}

}  // namespace

JobScheduler::JobScheduler(MemoryHierarchy& hierarchy, Executor& driver,
                           JobSchedulerConfig config)
    : hier_(hierarchy),
      driver_(driver),
      det_(dynamic_cast<DeterministicExecutor*>(&driver)),
      config_(std::move(config)),
      near_level_(nearest_addressable_level(hierarchy)),
      admission_(hierarchy.addressable_bytes(near_level_),
                 config_.degrade.allow_tier_fallback,
                 config_.degraded_budget_bytes) {
  MLM_REQUIRE(config_.max_concurrent >= 1,
              "max_concurrent must be at least 1");
  MLM_REQUIRE(config_.job_workers >= 1, "job_workers must be at least 1");
  MLM_REQUIRE(!driver_.deterministic() || det_ != nullptr,
              "a deterministic driver must be a DeterministicExecutor");
}

JobScheduler::~JobScheduler() = default;

std::uint64_t JobScheduler::now_tick() const {
  return det_ != nullptr ? det_->scheduler().now() : 0;
}

JobScheduler::Job& JobScheduler::find_job(std::uint64_t id) {
  auto it = jobs_.find(id);
  MLM_REQUIRE(it != jobs_.end(), "unknown job id " + std::to_string(id));
  return *it->second;
}

const JobScheduler::Job& JobScheduler::find_job(std::uint64_t id) const {
  return const_cast<JobScheduler*>(this)->find_job(id);
}

bool JobScheduler::all_terminal() const {
  for (const auto& [id, job] : jobs_) {
    if (!is_terminal(job->stats.state)) return false;
  }
  return true;
}

std::uint64_t JobScheduler::submit(JobConfig config, JobFactory factory) {
  MLM_REQUIRE(factory != nullptr, "job factory must be callable");
  std::lock_guard<std::mutex> lock(mu_);
  return submit_locked(std::move(config), std::move(factory), nullptr);
}

std::uint64_t JobScheduler::submit_recoverable(JobConfig config,
                                               RecoverableFactory factory) {
  MLM_REQUIRE(factory != nullptr, "job factory must be callable");
  MLM_REQUIRE(!config.recovery_key.empty(),
              "submit_recoverable requires a recovery_key");
  std::lock_guard<std::mutex> lock(mu_);
  return submit_locked(std::move(config), nullptr, std::move(factory));
}

std::uint64_t JobScheduler::submit_locked(JobConfig config,
                                          JobFactory factory,
                                          RecoverableFactory rfactory) {
  MLM_REQUIRE(!halted_,
              "submit on a halted scheduler (journal write failed; "
              "recover from the journal instead)");
  MLM_CHECK_MSG(next_id_ != kLastJobId, "job id space exhausted");
  const std::uint64_t id = next_id_++;
  auto owned = std::make_unique<Job>();
  Job& job = *owned;
  job.config = config;
  job.factory = std::move(factory);
  job.rfactory = std::move(rfactory);
  SortStats& st = job.stats;
  st.id = id;
  st.name = config.name;
  st.priority = config.priority;
  st.requested_near_bytes = config.near_budget_bytes;
  st.submit_tick = now_tick();
  jobs_.emplace(id, std::move(owned));

  if (!admission_.can_ever_fit(config.near_budget_bytes) &&
      !admission_.allow_degrade()) {
    // Without the degrade rung the request can only wait forever; fail
    // it at submission so the impossibility is immediate and explicit.
    Error e("near-tier budget request exceeds the whole arena");
    e.with_frame({"admit", -1, hier_.tier_config(near_level_).name,
                  "service",
                  "requested=" + std::to_string(config.near_budget_bytes) +
                      " capacity=" +
                      std::to_string(admission_.capacity()) + ", job '" +
                      st.name + "'"});
    finalize_failed(job, e);
    return id;
  }

  if (!shed_for(job)) return id;  // rejected arrival, already finalized

  // A recoverable job becomes durable only once its Submitted record is
  // on the log: a submission the journal never learned of is the
  // client's to retry (the WAL acknowledgement contract).
  if (config_.journal != nullptr && job.rfactory != nullptr &&
      !job.config.recovery_key.empty()) {
    if (!journal_append(JournalRecordType::Submitted, id,
                        encode_submitted(job.config))) {
      return id;  // halted mid-write; the job dies with this process
    }
    job.journaled = true;
  }

  st.state = JobState::Queued;
  queue_.push(id, config.priority);
  return id;
}

bool JobScheduler::shed_for(Job& incoming) {
  if (config_.max_queued == 0 || queue_.size() < config_.max_queued) {
    return true;
  }
  const std::optional<JobQueue::Entry> victim = queue_.lowest();
  if (victim.has_value() && victim->priority < incoming.config.priority) {
    // Evict the worst queued job (lowest priority, latest arrival) in
    // favour of the strictly higher-priority arrival.
    Job& v = find_job(victim->id);
    queue_.erase(victim->id);
    v.stats.shed = true;
    finalize_failed(v, make_overloaded_error(v.stats.name, v.stats.priority,
                                             config_.max_queued,
                                             config_.max_queued,
                                             /*victim=*/true));
    return true;
  }
  incoming.stats.shed = true;
  finalize_failed(incoming,
                  make_overloaded_error(incoming.stats.name,
                                        incoming.stats.priority,
                                        config_.max_queued,
                                        config_.max_queued,
                                        /*victim=*/false));
  return false;
}

bool JobScheduler::journal_append(JournalRecordType type, std::uint64_t id,
                                  std::vector<std::uint8_t> payload) {
  if (config_.journal == nullptr) return true;
  try {
    config_.journal->append(type, id, std::move(payload));
    return true;
  } catch (const Error&) {
    // The simulated process death mid-write (or a real backend
    // failure): stop the world.  No further steps, admissions, or
    // journal writes happen; the crash harness treats this instant as
    // the kill point and recovers a fresh scheduler from the journal's
    // valid prefix.
    halted_ = true;
    return false;
  }
}

void JobScheduler::maybe_checkpoint(Job& job) {
  if (!job.journaled || halted_ ||
      config_.checkpoint_interval_steps == 0) {
    return;
  }
  if (job.stats.steps % config_.checkpoint_interval_steps != 0) return;
  const std::optional<Checkpoint> ckpt = job.stepper->checkpoint();
  if (!ckpt.has_value()) return;
  if (journal_append(JournalRecordType::Checkpoint, job.stats.id,
                     ckpt->encode())) {
    ++job.stats.checkpoints;
    ++checkpoints_written_;
  }
}

void JobScheduler::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  Job& job = find_job(id);
  SortStats& st = job.stats;
  if (is_terminal(st.state)) return;
  st.cancel_requested = true;
  if (st.state == JobState::Running) {
    // Delivered by the job's own step chain at the next boundary.
    return;
  }
  queue_.erase(id);
  Error e("job cancelled while queued");
  e.with_frame(
      {"cancel", -1, "", "service", "job '" + st.name + "'"});
  st.error = e;
  finalize(job, JobState::Cancelled);
}

bool JobScheduler::admit_pending() {
  if (halted_) return false;
  bool progress = false;
  while (running_ < config_.max_concurrent) {
    const std::optional<std::uint64_t> head = queue_.peek();
    if (!head.has_value()) break;
    Job& job = find_job(*head);
    const AdmissionController::Verdict verdict =
        admission_.decide(job.config.near_budget_bytes);
    if (verdict.decision == AdmissionDecision::Queued) {
      // Head-of-line blocking is the fairness guarantee: the head keeps
      // its place and nothing behind it may jump the queue; budget only
      // frees when a running tenant terminates.
      ++job.stats.queue_rounds;
      break;
    }
    queue_.pop();
    start_job(job, verdict);
    progress = true;
  }
  return progress;
}

void JobScheduler::start_job(Job& job,
                             const AdmissionController::Verdict& verdict) {
  SortStats& st = job.stats;
  // Degraded execution = no usable near-tier budget: the Degraded
  // decision, or a zero-request job holding only the token grant (when
  // there is a real arena to stay out of).
  job.degraded = verdict.decision == AdmissionDecision::Degraded ||
                 (job.config.near_budget_bytes == 0 &&
                  admission_.capacity() != 0);
  st.admission = verdict.decision;
  st.granted_near_bytes = verdict.granted_bytes;
  st.admit_tick = now_tick();
  if (det_ == nullptr) st.queue_seconds = job.queue_watch.elapsed_s();

  // The tenant view: the arbitrated tier capped at the grant, every
  // other tier shared.  A zero grant only happens when the arbitrated
  // tier is unlimited (nothing to arbitrate), where 0 = share is right.
  std::vector<std::uint64_t> budgets(hier_.tier_count(), 0);
  budgets[near_level_] = verdict.granted_bytes;
  job.view = std::make_unique<MemoryHierarchy>(hier_, budgets, st.name);

  if (det_ != nullptr) {
    job.pool = std::make_unique<DeterministicExecutor>(
        det_->scheduler(), config_.job_workers, st.name + "-pool");
  } else {
    job.pool =
        std::make_unique<ThreadPool>(config_.job_workers, st.name + "-pool");
  }

  st.state = JobState::Running;
  ++running_;
  job.run_watch.restart();

  JobContext ctx{*job.view, *job.pool, job.degraded};
  try {
    job.stepper = job.rfactory != nullptr
                      ? job.rfactory(job.config, ctx,
                                     job.resume.has_value() ? &*job.resume
                                                            : nullptr)
                      : job.factory(ctx);
    MLM_CHECK_MSG(job.stepper != nullptr, "job factory returned null");
  } catch (Error& e) {
    e.with_frame({"job_setup", -1, hier_.tier_config(near_level_).name,
                  "service", "job '" + st.name + "'"});
    finalize_failed(job, e);
    return;
  } catch (const std::exception& e) {
    Error err(e.what());
    err.with_frame(
        {"job_setup", -1, "", "service", "job '" + st.name + "'"});
    finalize_failed(job, err);
    return;
  }
  post_step(st.id);
}

void JobScheduler::post_step(std::uint64_t id) {
  driver_.post([this, id] { step_task(id); });
}

void JobScheduler::step_task(std::uint64_t id) {
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (halted_) return;
    job = &find_job(id);
    SortStats& st = job->stats;
    if (st.state != JobState::Running) return;

    if (st.cancel_requested) {
      // A firing cancel site models delayed delivery: the cancel is
      // postponed by exactly one step.
      if (!cancel_site().should_fire()) {
        Error e("job cancelled");
        e.with_frame({"cancel", static_cast<std::int64_t>(st.steps), "",
                      "service", "job '" + st.name + "'"});
        st.error = e;
        finalize(*job, JobState::Cancelled);
        admit_pending();
        return;
      }
    }

    if (job->config.deadline_steps != 0 &&
        st.steps >= job->config.deadline_steps) {
      Error e("job deadline exceeded");
      e.with_frame({"deadline", static_cast<std::int64_t>(st.steps), "",
                    "service",
                    "steps=" + std::to_string(st.steps) + " limit=" +
                        std::to_string(job->config.deadline_steps) +
                        ", job '" + st.name + "'"});
      finalize_failed(*job, e);
      admit_pending();
      return;
    }
    if (det_ == nullptr && job->config.deadline_seconds > 0.0 &&
        job->run_watch.elapsed_s() > job->config.deadline_seconds) {
      Error e("job wall-clock deadline exceeded");
      e.with_frame({"deadline", static_cast<std::int64_t>(st.steps), "",
                    "service",
                    "limit=" + std::to_string(job->config.deadline_seconds) +
                        "s, job '" + st.name + "'"});
      finalize_failed(*job, e);
      admit_pending();
      return;
    }
  }

  // One step outside the lock: the stepper is driven by exactly this
  // task, so its intra-step parallel work proceeds while other tenants
  // are admitted and finalized.
  try {
    step_site().maybe_throw();
    const bool more = job->stepper->step();
    if (!more) job->stepper->finish();

    std::lock_guard<std::mutex> lock(mu_);
    ++job->stats.steps;
    if (more) {
      maybe_checkpoint(*job);
      if (!halted_) post_step(id);
      return;
    }
    if (const core::ExternalSortStats* s = job->stepper->sort_stats()) {
      job->stats.sort = *s;
      job->stats.controller_decisions = s->adaptation.decisions;
      job->stats.controller_changes = s->adaptation.split_changes +
                                      s->adaptation.mode_changes +
                                      s->adaptation.chunk_changes;
    }
    finalize(*job, JobState::Completed);
    admit_pending();
  } catch (Error& e) {
    std::lock_guard<std::mutex> lock(mu_);
    e.with_frame({"job_step", static_cast<std::int64_t>(job->stats.steps),
                  "", "service", "job '" + job->stats.name + "'"});
    finalize_failed(*job, e);
    admit_pending();
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    Error err(e.what());
    err.with_frame({"job_step", static_cast<std::int64_t>(job->stats.steps),
                    "", "service", "job '" + job->stats.name + "'"});
    finalize_failed(*job, err);
    admit_pending();
  }
}

void JobScheduler::finalize(Job& job, JobState state) {
  SortStats& st = job.stats;
  if (st.state == JobState::Running) {
    --running_;
    if (det_ == nullptr) st.run_seconds = job.run_watch.elapsed_s();
  }
  st.state = state;
  st.finish_tick = now_tick();
  if (job.journaled) {
    const JournalRecordType type =
        state == JobState::Completed   ? JournalRecordType::Completed
        : state == JobState::Cancelled ? JournalRecordType::Cancelled
                                       : JournalRecordType::Failed;
    journal_append(type, st.id);
  }
  admission_.release(st.granted_near_bytes);
  // Teardown order matters: the stepper holds buffers in the view, and
  // the pool must go before the view's arenas only once idle (it is —
  // a step joins its parallel work before returning).
  job.stepper.reset();
  job.pool.reset();
  job.view.reset();
}

void JobScheduler::finalize_failed(Job& job, const Error& e) {
  job.stats.error = e;
  finalize(job, JobState::Failed);
}

void JobScheduler::starve_queued() {
  while (const std::optional<std::uint64_t> head = queue_.pop()) {
    Job& job = find_job(*head);
    Error e(
        "admission starved: no running tenant will release near-tier "
        "budget");
    e.with_frame(
        {"admit", -1, hier_.tier_config(near_level_).name, "service",
         "requested=" + std::to_string(job.stats.requested_near_bytes) +
             " free=" + std::to_string(admission_.free_bytes()) +
             ", job '" + job.stats.name + "'"});
    finalize_failed(job, e);
  }
}

ServiceStats JobScheduler::run_all() {
  // Rounds with no admission and nothing running before queued tenants
  // are declared starved; transient admission faults (max_fires-bounded
  // triggers) get room to clear.
  constexpr std::size_t kStarvationRounds = 64;
  std::size_t idle_rounds = 0;
  for (;;) {
    bool progress = false;
    bool done = false;
    bool running = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (halted_) break;  // crashed mid-journal-write: nothing drains
      progress = admit_pending();
      done = all_terminal();
      running = running_ > 0;
    }
    if (done) break;
    if (det_ != nullptr) {
      if (det_->scheduler().step()) {
        idle_rounds = 0;
        continue;
      }
    } else if (running || progress) {
      driver_.wait_idle();
      idle_rounds = 0;
      continue;
    }
    if (progress) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds >= kStarvationRounds) {
      std::lock_guard<std::mutex> lock(mu_);
      starve_queued();
    }
  }
  return metrics();
}

bool JobScheduler::run_ticks(std::size_t ticks) {
  MLM_REQUIRE(det_ != nullptr,
              "run_ticks requires a deterministic driver (a crash point "
              "must be a pure function of the seed)");
  for (std::size_t i = 0; i < ticks; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (halted_) return false;
      admit_pending();
      if (all_terminal()) return true;
    }
    if (!det_->scheduler().step()) {
      // Runnable set empty with non-terminal jobs: queued tenants are
      // waiting on budget nothing will release.  A bounded drive just
      // reports; run_all() is the path that starves them out.
      std::lock_guard<std::mutex> lock(mu_);
      return all_terminal();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (halted_) return false;
  admit_pending();
  return all_terminal();
}

bool JobScheduler::halted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return halted_;
}

JobScheduler::RecoveryReport JobScheduler::recover(
    const FactoryResolver& resolver) {
  std::lock_guard<std::mutex> lock(mu_);
  MLM_REQUIRE(config_.journal != nullptr,
              "recover requires a configured journal");
  MLM_REQUIRE(jobs_.empty(), "recover must run on a fresh scheduler");
  JobJournal& journal = *config_.journal;

  RecoveryReport report;
  // A torn tail is truncated before anything else: a half-written
  // record must never be replayed, and appends must never land after
  // garbage.  Resuming from the previous checkpoint instead is what
  // redo idempotency makes digest-safe.
  report.torn_bytes = journal.truncate_to_valid();
  report.torn_tail = report.torn_bytes > 0;

  JobJournal::Replay replay;
  constexpr std::size_t kReplayAttempts = 4;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      replay = journal.replay();
      break;
    } catch (Error& e) {
      // Transient read failure (service.journal.replay); retry.
      if (attempt >= kReplayAttempts) {
        throw e.with_frame({"recover", -1, "", "service",
                            "journal replay failed " +
                                std::to_string(attempt) + " time(s)"});
      }
    }
  }

  // Fold the log into per-job outcomes.  A job re-journaled across
  // several incarnations accumulates checkpoints; the latest wins.
  struct Replayed {
    bool submitted = false;
    JobConfig config;
    std::optional<Checkpoint> resume;
    bool terminal = false;
  };
  std::map<std::uint64_t, Replayed> by_id;
  for (const JournalRecord& rec : replay.records) {
    switch (rec.type) {
      case JournalRecordType::Submitted: {
        Replayed& r = by_id[rec.job_id];
        r.submitted = true;
        r.config = decode_submitted(rec.payload);
        break;
      }
      case JournalRecordType::Checkpoint:
        by_id[rec.job_id].resume = Checkpoint::decode(rec.payload);
        break;
      case JournalRecordType::Completed:
      case JournalRecordType::Failed:
      case JournalRecordType::Cancelled:
        by_id[rec.job_id].terminal = true;
        break;
      case JournalRecordType::Shutdown:
        break;  // service-level marker, no job state
    }
  }

  if (!by_id.empty() && by_id.rbegin()->first == kLastJobId) {
    Error e("journal names job id 2^64-1, which is never issued");
    throw e.with_frame({"recover", -1, "", "service", ""});
  }
  for (auto& [id, r] : by_id) {
    if (!r.submitted) continue;
    if (r.terminal) {
      ++report.jobs_already_terminal;
      continue;
    }
    auto owned = std::make_unique<Job>();
    Job& job = *owned;
    job.config = r.config;
    job.resume = std::move(r.resume);
    job.journaled = true;
    SortStats& st = job.stats;
    st.id = id;
    st.name = job.config.name;
    st.priority = job.config.priority;
    st.requested_near_bytes = job.config.near_budget_bytes;
    st.submit_tick = now_tick();
    st.recovered = true;
    jobs_.emplace(id, std::move(owned));

    const RecoverableFactory* factory =
        resolver.find(job.config.recovery_key);
    if (factory == nullptr) {
      // Refuse to guess: resuming wrong work would corrupt data the
      // crashed run half-processed.
      Error e("no recovery factory registered for key '" +
              job.config.recovery_key + "'");
      e.with_frame({"recover", -1, "", "service", "job '" + st.name + "'"});
      finalize_failed(job, e);
      continue;
    }
    job.rfactory = *factory;
    if (job.resume.has_value()) ++report.with_checkpoint;
    st.state = JobState::Queued;
    queue_.push(id, job.config.priority);
    ++report.jobs_resubmitted;
  }
  if (!by_id.empty()) next_id_ = std::max(next_id_, by_id.rbegin()->first + 1);
  return report;
}

JobState JobScheduler::state(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_job(id).stats.state;
}

SortStats JobScheduler::job_stats(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_job(id).stats;
}

ServiceStats JobScheduler::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s;
  s.jobs_submitted = jobs_.size();
  for (const auto& [id, job] : jobs_) {
    const SortStats& st = job->stats;
    switch (st.state) {
      case JobState::Completed: ++s.jobs_completed; break;
      case JobState::Failed: ++s.jobs_failed; break;
      case JobState::Cancelled: ++s.jobs_cancelled; break;
      default: break;
    }
    if (st.admission == AdmissionDecision::Degraded) ++s.jobs_degraded;
    if (st.shed) ++s.jobs_shed;
    if (st.recovered) ++s.jobs_recovered;
    s.queue_rounds += st.queue_rounds;
    s.total_steps += st.steps;
    s.total_queue_seconds += st.queue_seconds;
    s.total_run_seconds += st.run_seconds;
    s.controller_decisions += st.controller_decisions;
    s.controller_changes += st.controller_changes;
  }
  s.checkpoints_written = checkpoints_written_;
  s.near_capacity_bytes = admission_.capacity();
  s.near_committed_bytes = admission_.committed();
  s.peak_near_committed_bytes = admission_.peak_committed();
  return s;
}

}  // namespace mlm::service
