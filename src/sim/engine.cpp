#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <compare>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/check.hpp"
#include "core/release_timeline.hpp"
#include "sim/trace_sink.hpp"

namespace mkss::sim {

using core::JobOutcome;
using core::TaskIndex;
using core::Ticks;

namespace {

constexpr int kNone = -1;

/// Replica slot of a copy kind: main/optional copies share slot 0, backups
/// use slot 1 (keeps transient-fault draws scheme-independent).
constexpr int slot_of(CopyKind kind) noexcept {
  return kind == CopyKind::kBackup ? 1 : 0;
}

// --- indexed event-core entries -----------------------------------------
//
// All heaps below are vector-backed binary min-heaps driven by
// push_heap/pop_heap with greater<> (the same clearable-arena idiom as the
// deadline queue). Every comparison key embeds a final unique index, so heap
// order is a strict total order and pops are deterministic.

/// Ready-queue entry: the exact copy_precedes() tuple (band, optional rank,
/// task, job, kind), precomputed at admission -- every component is
/// immutable for the copy's lifetime -- plus the copies_ index as the final
/// (never actually tying) component. Packed to 24 bytes so heap sifts move
/// little memory; the comparison order is semantic, not declaration order.
struct ReadyEntry {
  std::uint64_t job{0};
  std::uint32_t rank{0};
  std::uint32_t task{0};
  std::uint32_t idx{0};
  std::uint8_t band{0};
  std::uint8_t kind{0};

  friend bool operator>(const ReadyEntry& a, const ReadyEntry& b) noexcept {
    if (a.band != b.band) return a.band > b.band;
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.task != b.task) return a.task > b.task;
    if (a.job != b.job) return a.job > b.job;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.idx > b.idx;
  }
};

/// A copy's immutable identity and demand. Its mutable lifecycle state
/// (alive flag, eligible time) lives in the engine's parallel
/// copy_alive_/copy_eligible_ arrays indexed by the same copy seq: the lazy
/// heap-invalidation paths (pending_min, ready_best) touch only those one-
/// and eight-byte lanes instead of striding through 80-byte Copy structs.
struct Copy {
  std::size_t job_idx{0};
  CopyKind kind{CopyKind::kMain};
  ProcessorId proc{kPrimary};
  Band band{Band::kMandatory};
  Ticks remaining{0};
  Ticks deadline{0};  ///< the job's deadline, cached to spare a jobs_ hop
  /// The copy's ready-heap entry, precomputed at admission (every component
  /// is immutable for the copy's lifetime) so make_ready() is a copy, not a
  /// jobs_ hop.
  ReadyEntry entry;
  double frequency{1.0};
  std::size_t rec{0};  ///< index of this copy's CopyRecord (tracing runs only)
};

struct LiveJob {
  core::Job job;
  bool mandatory{false};
  bool executed_optional{false};
  bool counted{true};
  bool resolved{false};
  JobOutcome outcome{JobOutcome::kMissed};
  Ticks resolved_at{0};
  int copy_in_slot[2]{kNone, kNone};
  bool slot_failed[2]{false, false};
};

/// (time, index) entry of the release calendar (index == task), the
/// eligibility heaps (index == copy) and the optional prune heap, where
/// `time` is the copy's latest feasible start deadline - remaining.
/// 32-bit indices keep the entry at 16 bytes; a run cannot hold 2^32 copies
/// (each one costs >50 bytes of arena) or 2^32 tasks.
struct TimedEntry {
  Ticks time{0};
  std::uint32_t idx{0};
  friend auto operator<=>(const TimedEntry&, const TimedEntry&) = default;
};

/// One same-instant release drained from the calendar, between the batch
/// job-materialization phase of process_releases and its scheme phase.
struct PendingRelease {
  std::uint32_t task{0};
  std::uint64_t j{0};         ///< 1-based instance number
  std::size_t job_idx{0};     ///< the materialized LiveJob's jobs_ index
};

template <typename T>
void heap_push(std::vector<T>& heap, const T& entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

template <typename T>
void heap_pop(std::vector<T>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  heap.pop_back();
}

/// MKSS_TIMELINE resolution, parsed once per process:
/// -1 = unset, otherwise a TimelineMode value that overrides every run.
int env_timeline_mode() noexcept {
  static const int resolved = [] {
    const char* env = std::getenv("MKSS_TIMELINE");
    if (env == nullptr || *env == '\0') return -1;
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    if (v == "heap" || v == "off") return static_cast<int>(TimelineMode::kHeap);
    if (v == "cached" || v == "on") {
      return static_cast<int>(TimelineMode::kCached);
    }
    if (v == "auto") return static_cast<int>(TimelineMode::kAuto);
    std::fprintf(stderr,
                 "mkss: MKSS_TIMELINE='%s' not recognized "
                 "(auto|cached|heap); ignoring\n",
                 env);
    return -1;
  }();
  return resolved;
}

std::atomic<int> forced_timeline_mode{-1};

}  // namespace

TimelineMode resolved_timeline_mode(const SimConfig& config) noexcept {
  const int forced = forced_timeline_mode.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<TimelineMode>(forced);
  const int env = env_timeline_mode();
  if (env >= 0) return static_cast<TimelineMode>(env);
  return config.timeline;
}

void set_forced_timeline_mode(TimelineMode mode) noexcept {
  forced_timeline_mode.store(static_cast<int>(mode),
                             std::memory_order_relaxed);
}

void clear_forced_timeline_mode() noexcept {
  forced_timeline_mode.store(-1, std::memory_order_relaxed);
}

/// The engine proper. Every vector below is an arena: reset (cleared, never
/// shrunk) at the top of run(), so repeated runs reuse the same buffers.
struct Simulator::Impl {
  void run(const core::TaskSet& ts, Scheme& scheme, const FaultPlan& faults,
           const SimConfig& config, TraceSink& sink,
           const ExecTimeModel* exec_model);

  // --- event processing -----------------------------------------------
  Ticks next_event_time();
  void process_completions();
  void apply_permanent_fault();
  void process_deadlines();
  void fire_tail_deadlines();
  bool release_due() const;
  void process_releases();
  void dispatch(ProcessorId p);

  // --- indexed event core ----------------------------------------------
  void make_ready(std::size_t idx);
  void push_prune(std::size_t idx);
  void wake_eligible(ProcessorId p);
  void prune_pass(ProcessorId p);
  int ready_best(ProcessorId p, bool sleeping);
  Ticks pending_min(std::vector<TimedEntry>& heap);
  bool need_dispatch(ProcessorId p) const;
  void retime_release_top(Ticks time);

  // --- scan oracle (SimConfig::cross_check) -----------------------------
  Ticks scan_next_event_time() const;
  Ticks scan_next_mandatory_activity(ProcessorId p) const;
  void check_dispatch_oracle(ProcessorId p, bool sleeping, int best) const;
  void check_skip_oracle(ProcessorId p) const;

  // --- mechanics --------------------------------------------------------
  void admit_copy(std::size_t job_idx, const CopySpec& spec);
  void complete_copy(int idx);
  void kill_copy(int idx, CopyEnd reason);
  void resolve(std::size_t job_idx, JobOutcome outcome);
  void stop_running(ProcessorId p, Ticks end);
  void start_running(ProcessorId p, int idx);
  bool copy_precedes(const Copy& a, const Copy& b) const;
  Ticks next_mandatory_activity(ProcessorId p);

  void push_deadline(Ticks deadline, std::size_t job_idx);
  void pop_deadline();

  // Per-run bindings (valid only inside run()).
  const core::TaskSet* ts_{nullptr};
  Scheme* scheme_{nullptr};
  const FaultPlan* faults_{nullptr};
  SimConfig config_;
  const ExecTimeModel* exec_model_{nullptr};
  TraceSink* sink_{nullptr};
  SimulationTrace* trace_{nullptr};  ///< null on lean (stats-only) runs

  Ticks now_{0};
  std::vector<Copy> copies_;
  /// Per-copy lifecycle state, parallel to copies_ (SoA): the lazy heap
  /// invalidation in pending_min()/ready_best() and the scan oracles touch
  /// these narrow lanes instead of the Copy structs.
  std::vector<std::uint8_t> copy_alive_;
  std::vector<Ticks> copy_eligible_;
  std::vector<LiveJob> jobs_;
  /// Per-processor admission log (append-only within a run): every copy ever
  /// admitted to the processor, dead or alive. Consumed by the permanent-
  /// fault handover and by the scan oracle; the hot path never walks it.
  std::vector<std::vector<std::size_t>> live_;
  /// True when this run has a consumer for live_ (a pending permanent fault
  /// or the scan oracle). Fault-free production runs skip the log entirely.
  bool track_live_{true};
  std::vector<Ticks> next_release_;    // per task
  std::vector<std::uint64_t> next_j_;  // per task, 1-based next instance
  /// Flat per-task parameter mirrors (structure-of-arrays): the release hot
  /// path reads three Ticks per pop instead of striding through 64-byte Task
  /// structs whose name strings waste most of each cache line.
  std::vector<Ticks> task_period_;
  std::vector<Ticks> task_deadline_;  // relative
  std::vector<Ticks> task_wcet_;
  /// Same-instant releases drained from the calendar this event, in
  /// ascending task order (see process_releases).
  std::vector<PendingRelease> release_batch_;
  // (deadline, job index) min-heap via push_heap/pop_heap with greater<>,
  // exactly the order a std::priority_queue would produce, but clearable.
  // Unused on implicit-deadline runs, where deadline firing folds into the
  // release path (see process_releases).
  std::vector<std::pair<Ticks, std::size_t>> deadlines_;
  /// True when every task has D == P. Then job j's deadline coincides with
  /// job j+1's release (or with the horizon for the final instance), so
  /// deadline firing piggybacks on the release calendar: no deadline heap
  /// traffic and no separate deadline candidate in next_event_time(). The
  /// event set is provably unchanged -- every counted deadline instant
  /// before the horizon is also a release instant of the same task, and a
  /// deadline exactly at the horizon never drives an in-loop event.
  bool implicit_deadlines_{false};
  /// Per task: live index of the most recent release whose deadline has not
  /// fired yet (implicit-deadline runs only), or -1.
  std::vector<std::int64_t> last_released_;

  // --- release timeline (docs/architecture.md, "Release-timeline cache") --
  /// The shared SoA release arena this run walks instead of popping the
  /// calendar heap, or null on heap-mode runs. Points at
  /// SimConfig::timeline_data when one is attached, else at tl_local_.
  const core::ReleaseTimeline* tl_{nullptr};
  /// Locally built arena for kCached runs without an attached timeline
  /// (direct-engine callers, forced-mode tests); reused across runs.
  core::ReleaseTimeline tl_local_;
  /// Next unconsumed arena entry; entries before it are released already.
  std::size_t tl_cursor_{0};

  // --- indexed event core (docs/architecture.md, "Indexed event core") ---
  /// (next release, task) calendar; tasks whose next release reaches the
  /// horizon leave the calendar for the rest of the run. On timeline runs
  /// the calendar is maintained only under cross_check_, where it runs in
  /// lock-step as the heap oracle of the cursor walk.
  std::vector<TimedEntry> release_cal_;
  /// Per processor: copies admitted with a future eligible time (postponed
  /// backups theta, dual-priority promotions Y), split by band so the DPD
  /// sleep decision can query mandatory activity alone. Entries are
  /// immutable; dead copies are discarded lazily on peek.
  std::vector<std::vector<TimedEntry>> pending_mand_;
  std::vector<std::vector<TimedEntry>> pending_opt_;
  /// Per processor: eligible copies ordered by the dispatch priority tuple.
  /// The running copy stays in the heap; dead entries are discarded lazily.
  std::vector<std::vector<ReadyEntry>> ready_;
  /// Per processor: eligible *optional* copies keyed by their latest
  /// feasible start (deadline - remaining). An entry is current only while
  /// the copy has not executed since it was pushed; executing re-indexes the
  /// copy on preemption, and a completed/killed copy invalidates lazily.
  std::vector<std::vector<TimedEntry>> prune_;
  std::vector<std::size_t> prune_scratch_;
  /// Set when something that can change processor p's dispatch choice
  /// mutated this event; cleared when dispatch(p) runs. The rules are
  /// deliberately tight: a ready admission dirties only when it outranks the
  /// running copy or the processor is idle (a lower-priority arrival is a
  /// dispatch no-op under fixed priorities); a kill dirties only when the
  /// victim was running or the processor is idle (killing a parked copy
  /// below the running one cannot move the choice, but on an idle DPD
  /// processor it can move the sleep-commit horizon); pending (future-
  /// eligible) admissions never dirty -- their eligibility instant is a
  /// need_dispatch() trigger, and new arrivals only move the mandatory-
  /// activity minimum down, never invalidating a no-sleep decision.
  /// Completions and the permanent fault always dirty. Together with the
  /// time-driven conditions in need_dispatch() this lets quiet events skip
  /// dispatch entirely -- the skip-soundness argument lives in
  /// docs/architecture.md and is enforced by check_skip_oracle() under
  /// SimConfig::cross_check.
  std::vector<std::uint8_t> dirty_;
  bool cross_check_{false};

  /// Processor count of the current run (== config_.platform.num_procs()).
  /// Every per-processor vector above and below is sized to it in run().
  ProcessorId nproc_{2};
  std::vector<std::uint8_t> proc_alive_;
  std::vector<int> running_;
  /// Priority key of the running copy (valid while running_[p] != kNone):
  /// lets make_ready() decide in O(1) whether a fresh admission outranks the
  /// running copy and therefore needs a dispatch this event.
  std::vector<ReadyEntry> running_entry_;
  std::vector<Ticks> run_start_;
  /// Absolute completion instant of the running copy (valid while
  /// running_[p] != kNone). The running copy's `remaining` field is stale
  /// between start_running() and stop_running() -- stop_running materializes
  /// it from this cache -- which removes the per-event advance loop the
  /// legacy engine used to decrement remaining at every event.
  std::vector<Ticks> completion_at_;
  std::vector<Ticks> sleep_until_;

  std::optional<PermanentFault> pf_;
  bool pf_applied_{false};

  SimStats stats_;
  std::vector<Ticks> death_time_;
  std::vector<Ticks> busy_time_;
  std::vector<std::uint64_t> last_resolved_j_;  // per task, outcome-order check
  std::vector<std::size_t> lost_scratch_;       // permanent-fault handover
};

void Simulator::Impl::push_deadline(Ticks deadline, std::size_t job_idx) {
  deadlines_.emplace_back(deadline, job_idx);
  std::push_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
}

void Simulator::Impl::pop_deadline() {
  std::pop_heap(deadlines_.begin(), deadlines_.end(), std::greater<>{});
  deadlines_.pop_back();
}

void Simulator::Impl::run(const core::TaskSet& ts, Scheme& scheme,
                          const FaultPlan& faults, const SimConfig& config,
                          TraceSink& sink, const ExecTimeModel* exec_model) {
  if (config.horizon <= 0) {
    throw std::invalid_argument("SimConfig::horizon must be positive");
  }
  if (config.platform.num_procs() < 1 || config.platform.num_procs() > 255) {
    throw std::invalid_argument(
        "SimConfig::platform must have 1 to 255 processors");
  }
  ts_ = &ts;
  scheme_ = &scheme;
  faults_ = &faults;
  config_ = config;
  exec_model_ = exec_model;
  sink_ = &sink;
  cross_check_ = config.cross_check;

  // Reset the arenas; every clear()/assign() keeps its buffer's capacity.
  // The per-processor arenas resize only when the platform size changes
  // between runs (a platform switch is a cold path; repeated runs on one
  // platform reuse every inner buffer).
  const std::size_t n = ts.size();
  nproc_ = static_cast<ProcessorId>(config.platform.num_procs());
  now_ = 0;
  copies_.clear();
  copy_alive_.clear();
  copy_eligible_.clear();
  jobs_.clear();
  live_.resize(nproc_);
  pending_mand_.resize(nproc_);
  pending_opt_.resize(nproc_);
  ready_.resize(nproc_);
  prune_.resize(nproc_);
  dirty_.resize(nproc_);
  proc_alive_.resize(nproc_);
  running_.resize(nproc_);
  running_entry_.resize(nproc_);
  run_start_.resize(nproc_);
  completion_at_.resize(nproc_);
  sleep_until_.resize(nproc_);
  death_time_.resize(nproc_);
  busy_time_.resize(nproc_);
  for (auto& lv : live_) lv.clear();
  next_release_.assign(n, 0);
  next_j_.assign(n, 1);
  deadlines_.clear();
  task_period_.resize(n);
  task_deadline_.resize(n);
  task_wcet_.resize(n);
  implicit_deadlines_ = true;
  for (std::size_t i = 0; i < n; ++i) {
    const core::Task& t = ts[i];
    task_period_[i] = t.period;
    task_deadline_[i] = t.deadline;
    task_wcet_[i] = t.wcet;
    if (t.deadline != t.period) implicit_deadlines_ = false;
  }
  last_released_.assign(n, -1);

  // Release discovery: walk a shared (or locally built) timeline arena, or
  // run the calendar heap. Under cross_check the heap runs either way -- on
  // timeline runs in lock-step, as the oracle of the cursor walk.
  tl_ = nullptr;
  tl_cursor_ = 0;
  const TimelineMode tl_mode = resolved_timeline_mode(config);
  if (tl_mode != TimelineMode::kHeap) {
    if (config.timeline_data != nullptr) {
      tl_ = config.timeline_data;
    } else if (tl_mode == TimelineMode::kCached) {
      core::build_release_timeline(ts, config.horizon, tl_local_);
      tl_ = &tl_local_;
    }
  }
  if (tl_ != nullptr) {
    MKSS_CHECK(tl_->horizon == config.horizon && tl_->num_tasks == n,
               "attached release timeline was built for a different horizon "
               "or task count");
  }
  release_cal_.clear();
  if (tl_ == nullptr || cross_check_) {
    for (std::size_t i = 0; i < n; ++i) {
      // (0, 0), (0, 1), ... is already a valid min-heap: equal times,
      // ascending task index.
      release_cal_.push_back(TimedEntry{0, static_cast<std::uint32_t>(i)});
    }
  }
  for (std::size_t p = 0; p < nproc_; ++p) {
    pending_mand_[p].clear();
    pending_opt_[p].clear();
    ready_[p].clear();
    prune_[p].clear();
    proc_alive_[p] = true;
    running_[p] = kNone;
    run_start_[p] = 0;
    completion_at_[p] = 0;
    sleep_until_[p] = 0;
    dirty_[p] = true;
    death_time_[p] = core::kNever;
    busy_time_[p] = 0;
  }
  pf_.reset();
  pf_applied_ = false;
  stats_ = SimStats{};
  last_resolved_j_.assign(n, 0);

  sink.begin_run(ts, config);
  trace_ = sink.trace_buffer();
  if (trace_) {
    trace_->horizon = config_.horizon;
    trace_->segments.clear();
    trace_->jobs.clear();
    trace_->copies.clear();
    trace_->outcomes_per_task.resize(n);
    for (auto& outcomes : trace_->outcomes_per_task) outcomes.clear();
    trace_->death_time.assign(nproc_, core::kNever);
    trace_->busy_time.assign(nproc_, 0);
    trace_->stats = SimStats{};
  }

  scheme_->bind_platform(config_.platform);
  scheme_->setup(ts);
  pf_ = faults.permanent();
  if (pf_ && (pf_->time >= config_.horizon || pf_->proc >= nproc_)) pf_.reset();
  // The admission log only has consumers when a permanent fault can hand
  // copies over or the scan oracle walks it; otherwise skip its upkeep.
  track_live_ = cross_check_ || pf_.has_value();

  // Time 0: an instantaneous permanent fault and the first releases happen
  // before the first dispatch.
  if (pf_ && !pf_applied_ && pf_->time == 0) apply_permanent_fault();
  process_releases();
  for (ProcessorId p = 0; p < nproc_; ++p) dispatch(p);

  // Cooperative wall-clock watchdog: sampled at event 1 and then every 512
  // events, so even a sub-millisecond budget fires deterministically on the
  // first event while the steady-clock call stays off the per-event hot path.
  const bool watchdog = config_.wall_clock_budget_ms > 0;
  const auto watchdog_start = watchdog ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};

  while (true) {
    const Ticks t = next_event_time();
    now_ = std::min(t, config_.horizon);
    if (t >= config_.horizon) break;
    ++stats_.sim_events;
    if (watchdog && (stats_.sim_events & 511) == 1) {
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - watchdog_start;
      if (elapsed.count() > config_.wall_clock_budget_ms) {
        throw RunTimeoutError(
            "run exceeded its wall-clock budget of " +
            std::to_string(config_.wall_clock_budget_ms) + " ms after " +
            std::to_string(stats_.sim_events) + " events (sim time " +
            core::format_ticks(now_) + " of " +
            core::format_ticks(config_.horizon) + ")");
      }
    }

    process_completions();
    if (pf_ && !pf_applied_ && pf_->time == now_) apply_permanent_fault();
    if (!implicit_deadlines_) process_deadlines();
    // Most events are completions/wake-ups with no release due; skip the
    // call on those. Under cross_check the call is unconditional so the
    // cursor-vs-calendar lock-step checks run at every event.
    if (cross_check_ || release_due()) process_releases();
    // Quiet processors skip dispatch entirely: nothing that could change
    // their choice happened this event. Under cross_check the skip itself is
    // proven sound against the scan oracle.
    for (ProcessorId p = 0; p < nproc_; ++p) {
      if (need_dispatch(p)) {
        dispatch(p);
      } else if (cross_check_) {
        check_skip_oracle(p);
      }
    }
  }

  // Horizon edge: copies finishing exactly at the horizon complete, then
  // deadlines falling exactly on the horizon fire, then open segments clip.
  process_completions();
  if (implicit_deadlines_) {
    fire_tail_deadlines();
  } else {
    process_deadlines();
  }
  for (ProcessorId p = 0; p < nproc_; ++p) stop_running(p, config_.horizon);

  if (trace_) {
    // Copies still alive at the horizon close their lifecycle records here.
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      if (copy_alive_[i]) trace_->copies[copies_[i].rec].ended = config_.horizon;
    }

    trace_->jobs.reserve(jobs_.size());
    for (const LiveJob& lj : jobs_) {
      JobRecord rec;
      rec.job = lj.job;
      rec.mandatory = lj.mandatory;
      rec.executed_optional = lj.executed_optional;
      rec.counted = lj.counted;
      rec.resolved = lj.resolved;
      rec.outcome = lj.outcome;
      rec.resolved_at = lj.resolved_at;
      rec.main_transient_fault = lj.slot_failed[0];
      rec.backup_transient_fault = lj.slot_failed[1];
      trace_->jobs.push_back(rec);
    }
    trace_->death_time = death_time_;
    trace_->busy_time = busy_time_;
    trace_->stats = stats_;
  }

  RunFacts facts;
  facts.horizon = config_.horizon;
  facts.death_time = death_time_;
  facts.busy_time = busy_time_;
  facts.stats = &stats_;
  sink.end_run(facts);
}

/// Minimum time of the pending heap's live entries; dead copies and entries
/// staled by a fault-detection promotion (the copy's eligible time was
/// rewritten and it is already ready) peel off lazily (each entry is popped
/// at most once over the whole run).
Ticks Simulator::Impl::pending_min(std::vector<TimedEntry>& heap) {
  while (!heap.empty() && (!copy_alive_[heap.front().idx] ||
                           copy_eligible_[heap.front().idx] !=
                               heap.front().time)) {
    heap_pop(heap);
  }
  return heap.empty() ? core::kNever : heap.front().time;
}

/// True when dispatch(p) could change anything at the current instant:
/// a tracked mutation happened this event, a committed DPD sleep just
/// expired, a pending copy's eligible time arrived, or an eligible optional
/// copy's latest feasible start has passed (prune due). Heap fronts are read
/// without discarding dead entries -- a dead front can only force a spurious
/// (harmless) dispatch, never mask a needed one, because every live copy's
/// trigger time is itself a front candidate no later than its due instant.
bool Simulator::Impl::need_dispatch(ProcessorId p) const {
  if (dirty_[p]) return true;
  if (sleep_until_[p] != 0 && sleep_until_[p] <= now_) return true;
  if (!pending_mand_[p].empty() && pending_mand_[p].front().time <= now_) {
    return true;
  }
  if (!pending_opt_[p].empty() && pending_opt_[p].front().time <= now_) {
    return true;
  }
  if (!prune_[p].empty() && prune_[p].front().time < now_) return true;
  return false;
}

/// Re-keys the release calendar's root to `time` (the releasing task's next
/// instance) and restores the heap with a single sift-down -- one traversal
/// instead of the pop+push pair.
void Simulator::Impl::retime_release_top(Ticks time) {
  auto& h = release_cal_;
  const TimedEntry entry{time, h.front().idx};
  std::size_t i = 0;
  const std::size_t sz = h.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= sz) break;
    if (child + 1 < sz && h[child + 1] < h[child]) ++child;
    if (!(h[child] < entry)) break;
    h[i] = h[child];
    i = child;
  }
  h[i] = entry;
}

Ticks Simulator::Impl::next_event_time() {
  // Constant-size min over the cached candidates: next release, the two
  // running-copy completions, sleep expiries, pending eligibility minima,
  // the earliest deadline and the permanent fault.
  Ticks t = core::kNever;
  if (tl_ != nullptr) {
    if (tl_cursor_ < tl_->release.size()) {
      t = std::min(t, tl_->release[tl_cursor_]);
    }
  } else if (!release_cal_.empty()) {
    t = std::min(t, release_cal_.front().time);
  }
  for (ProcessorId p = 0; p < nproc_; ++p) {
    if (running_[p] != kNone) t = std::min(t, completion_at_[p]);
    if (sleep_until_[p] > now_) t = std::min(t, sleep_until_[p]);
    if (!pending_mand_[p].empty()) t = std::min(t, pending_min(pending_mand_[p]));
    if (!pending_opt_[p].empty()) t = std::min(t, pending_min(pending_opt_[p]));
  }
  // Implicit-deadline runs keep the deadline heap empty: every counted
  // deadline before the horizon is simultaneously a release candidate of the
  // same task, and one exactly at the horizon never drives an in-loop event.
  if (!deadlines_.empty()) t = std::min(t, deadlines_.front().first);
  if (pf_ && !pf_applied_) t = std::min(t, pf_->time);
  if (cross_check_) {
    MKSS_CHECK(t == scan_next_event_time(),
               "indexed next_event_time diverged from the scan oracle at " +
                   core::format_ticks(now_));
  }
  MKSS_CHECK(t > now_ || t == core::kNever,
             "next event time must advance beyond " +
                 core::format_ticks(now_));
  return t;
}

/// The legacy O(tasks + live copies) scan, retained as the cross-check
/// oracle: recomputes the next event time from the raw per-task release
/// state and the per-processor admission logs.
Ticks Simulator::Impl::scan_next_event_time() const {
  Ticks t = core::kNever;
  for (std::size_t i = 0; i < ts_->size(); ++i) {
    if (next_release_[i] < config_.horizon) t = std::min(t, next_release_[i]);
  }
  for (ProcessorId p = 0; p < nproc_; ++p) {
    if (running_[p] != kNone) t = std::min(t, completion_at_[p]);
    if (sleep_until_[p] > now_) t = std::min(t, sleep_until_[p]);
    for (const std::size_t idx : live_[p]) {
      if (copy_alive_[idx] && copy_eligible_[idx] > now_) {
        t = std::min(t, copy_eligible_[idx]);
      }
    }
  }
  if (!deadlines_.empty()) t = std::min(t, deadlines_.front().first);
  if (pf_ && !pf_applied_) t = std::min(t, pf_->time);
  return t;
}

void Simulator::Impl::process_completions() {
  for (ProcessorId p = 0; p < nproc_; ++p) {
    const int idx = running_[p];
    if (idx != kNone && completion_at_[p] == now_) complete_copy(idx);
  }
}

void Simulator::Impl::apply_permanent_fault() {
  pf_applied_ = true;
  const ProcessorId dead = pf_->proc;
  proc_alive_[dead] = false;
  death_time_[dead] = now_;
  // The handover target is the lowest-indexed alive processor -- on the dual
  // platform exactly other(dead). Every alive processor's sleep/dispatch
  // state may be affected by rerouted work, so all of them re-dispatch.
  ProcessorId survivor = dead;
  for (ProcessorId p = 0; p < nproc_; ++p) {
    dirty_[p] = true;
    if (survivor == dead && proc_alive_[p]) survivor = p;
  }
  stop_running(dead, now_);
  scheme_->on_permanent_fault(dead, now_);

  // Copies on the dead processor are lost; jobs left with no live copy get a
  // chance to be re-admitted on the survivor.
  lost_scratch_.assign(live_[dead].begin(), live_[dead].end());
  live_[dead].clear();
  // The dead processor's event indexes only reference copies that die right
  // here; drop them wholesale instead of peeling entries lazily.
  pending_mand_[dead].clear();
  pending_opt_[dead].clear();
  ready_[dead].clear();
  prune_[dead].clear();
  for (const std::size_t idx : lost_scratch_) {
    Copy& c = copies_[idx];
    if (!copy_alive_[idx]) continue;
    const Ticks remaining = c.remaining;
    copy_alive_[idx] = 0;
    if (trace_) {
      trace_->copies[c.rec].ended = now_;
      trace_->copies[c.rec].end = CopyEnd::kLostToDeath;
    }
    LiveJob& job = jobs_[c.job_idx];
    job.copy_in_slot[slot_of(c.kind)] = kNone;
    if (job.resolved) continue;
    const int sibling =
        job.copy_in_slot[0] != kNone ? job.copy_in_slot[0] : job.copy_in_slot[1];
    if (sibling != kNone) {
      // Fault detection promotes the surviving copy: postponement (theta, Y)
      // only pays while the lost copy could still succeed, and the recovery
      // analyses assume the backup runs as soon as the failure is known.
      const auto sib = static_cast<std::size_t>(sibling);
      if (copy_alive_[sib] && copy_eligible_[sib] > now_) {
        copy_eligible_[sib] = now_;
        if (trace_) trace_->copies[copies_[sib].rec].eligible = now_;
        make_ready(sib);
      }
      continue;
    }
    if (survivor == dead) {
      // No processor left: the job misses, now or at its deadline event.
      if (now_ >= job.job.deadline || !job.counted) {
        resolve(c.job_idx, JobOutcome::kMissed);
      }
      continue;
    }
    const auto replacement = scheme_->reroute_on_death(job.job, job.mandatory,
                                                       survivor, now_, remaining);
    if (replacement) {
      CopySpec spec = *replacement;
      spec.proc = survivor;  // the scheme cannot resurrect the dead processor
      admit_copy(c.job_idx, spec);
    } else if (now_ >= job.job.deadline || !job.counted) {
      resolve(c.job_idx, JobOutcome::kMissed);
    }
    // Otherwise the job simply misses at its deadline event.
  }
}

void Simulator::Impl::process_deadlines() {
  while (!deadlines_.empty() && deadlines_.front().first <= now_) {
    const std::size_t job_idx = deadlines_.front().second;
    pop_deadline();
    ++stats_.deadline_fires;
    if (!jobs_[job_idx].resolved) {
      resolve(job_idx, JobOutcome::kMissed);
    }
  }
}

/// Implicit-deadline runs: fires the deadline of each task's final released
/// instance at the horizon edge. Such a job's deadline equals its successor
/// release, which is past or at the horizon; it is counted exactly when the
/// deadline lands on the horizon itself -- the same entries the deadline
/// heap would still hold here, all keyed to the same instant.
void Simulator::Impl::fire_tail_deadlines() {
  for (std::size_t i = 0; i < last_released_.size(); ++i) {
    const std::int64_t prev = last_released_[i];
    if (prev < 0) continue;
    LiveJob& pj = jobs_[static_cast<std::size_t>(prev)];
    if (!pj.counted) continue;
    ++stats_.deadline_fires;
    if (!pj.resolved) resolve(static_cast<std::size_t>(prev), JobOutcome::kMissed);
  }
}

/// True when at least one job releases exactly at now_ (the event loop's
/// call-site guard for process_releases).
bool Simulator::Impl::release_due() const {
  if (tl_ != nullptr) {
    return tl_cursor_ < tl_->release.size() &&
           tl_->release[tl_cursor_] == now_;
  }
  return !release_cal_.empty() && release_cal_.front().time == now_;
}

void Simulator::Impl::process_releases() {
  // Phase 1 -- batch job materialization. Drain every same-instant calendar
  // entry (the calendar pops (time, task) in ascending task order within one
  // instant, exactly the order the legacy per-task scan released in) and
  // materialize the released jobs from the flat task arrays: three Ticks
  // loads per pop instead of a 64-byte Task hop. Calendar retiming order
  // within the instant cannot change later pops -- TimedEntry ordering is a
  // strict total order, so the pop sequence is a pure function of the entry
  // set. Phase 2 runs the stateful per-release work (deadline fold, scheme
  // classification, admissions) over the batch in the same ascending task
  // order, so every observable mutation happens in the legacy sequence.
  release_batch_.clear();
  if (tl_ != nullptr) {
    // Timeline cursor walk: same-instant entries come straight out of the
    // SoA arena in (release, task) order -- the calendar heap's pop order by
    // construction -- with release, absolute deadline and instance number
    // already materialized. Under cross_check the retained calendar pops in
    // lock-step and must agree entry for entry.
    const Ticks* rel = tl_->release.data();
    const std::uint32_t* task_lane = tl_->task.data();
    const std::uint64_t* seq_lane = tl_->seq.data();
    const Ticks* deadline_lane = tl_->deadline.data();
    const std::size_t sz = tl_->release.size();
    while (tl_cursor_ < sz && rel[tl_cursor_] == now_) {
      const std::uint32_t i = task_lane[tl_cursor_];
      const std::uint64_t j = seq_lane[tl_cursor_];
      const Ticks deadline = deadline_lane[tl_cursor_];
      ++tl_cursor_;
      if (cross_check_) {
        MKSS_CHECK(!release_cal_.empty() &&
                       release_cal_.front().time == now_ &&
                       release_cal_.front().idx == i,
                   "timeline cursor diverged from the calendar heap at " +
                       core::format_ticks(now_));
        MKSS_CHECK(j == next_j_[i] && deadline == now_ + task_deadline_[i] &&
                       now_ == static_cast<Ticks>(j - 1) * task_period_[i],
                   "timeline entry of " +
                       core::to_string(core::JobId{i, j}) +
                       " disagrees with the per-task release state");
        next_j_[i] = j + 1;
        next_release_[i] += task_period_[i];
        if (next_release_[i] < config_.horizon) {
          retime_release_top(next_release_[i]);
        } else {
          heap_pop(release_cal_);
        }
      }
      Ticks exec = task_wcet_[i];
      if (exec_model_ != nullptr) {
        exec = std::clamp<Ticks>(
            exec_model_->actual_exec(core::JobId{i, j}, exec), 1, exec);
      }
      jobs_.push_back(LiveJob{});
      const std::size_t job_idx = jobs_.size() - 1;
      LiveJob& lj = jobs_[job_idx];
      lj.job = core::Job{core::JobId{i, j}, now_, deadline, exec};
      lj.counted = deadline <= config_.horizon;
      release_batch_.push_back(PendingRelease{i, j, job_idx});
    }
    if (cross_check_) {
      MKSS_CHECK(release_cal_.empty() || release_cal_.front().time != now_,
                 "calendar heap holds a release the timeline cursor missed "
                 "at " + core::format_ticks(now_));
    }
  } else {
    while (!release_cal_.empty() && release_cal_.front().time == now_) {
      const auto i = release_cal_.front().idx;
      const std::uint64_t j = next_j_[i];
      const Ticks release = static_cast<Ticks>(j - 1) * task_period_[i];
      MKSS_CHECK(release == now_,
                 "release of " + core::to_string(core::JobId{i, j}) +
                     " does not match the current event time");
      Ticks exec = task_wcet_[i];
      if (exec_model_ != nullptr) {
        exec = std::clamp<Ticks>(
            exec_model_->actual_exec(core::JobId{i, j}, exec), 1, exec);
      }
      jobs_.push_back(LiveJob{});
      const std::size_t job_idx = jobs_.size() - 1;
      LiveJob& lj = jobs_[job_idx];
      lj.job = core::Job{core::JobId{i, j}, release,
                         release + task_deadline_[i], exec};
      lj.counted = lj.job.deadline <= config_.horizon;
      release_batch_.push_back(PendingRelease{i, j, job_idx});

      next_j_[i] = j + 1;
      next_release_[i] += task_period_[i];
      if (next_release_[i] < config_.horizon) {
        retime_release_top(next_release_[i]);
      } else {
        heap_pop(release_cal_);  // the task leaves the calendar for good
      }
    }
  }

  // Phase 2 -- deadline fold + scheme + admissions, legacy order.
  for (const PendingRelease& rel : release_batch_) {
    const TaskIndex i = rel.task;
    if (implicit_deadlines_) {
      // D == P: the predecessor instance's deadline is exactly this release
      // instant. Firing it here -- before the scheme classifies the new
      // instance -- reproduces the deadline-heap order: outcome first, then
      // on_release sees the updated (m,k)-history. Cross-task interleaving
      // within one instant is not trace-visible (outcome streams and scheme
      // state are per-task).
      const std::int64_t prev = last_released_[i];
      if (prev >= 0) {
        LiveJob& pj = jobs_[static_cast<std::size_t>(prev)];
        MKSS_CHECK(pj.job.deadline == now_,
                   "implicit-deadline fold out of step with the calendar");
        ++stats_.deadline_fires;
        if (!pj.resolved) {
          resolve(static_cast<std::size_t>(prev), JobOutcome::kMissed);
        }
      }
    }

    LiveJob& lj = jobs_[rel.job_idx];
    ReleaseDecision decision = scheme_->on_release(i, rel.j, now_);
    lj.mandatory = decision.mandatory;
    lj.executed_optional = !decision.mandatory && !decision.copies.empty();

    ++stats_.jobs_released;
    if (decision.mandatory) {
      ++stats_.mandatory_jobs;
    } else if (!decision.copies.empty()) {
      ++stats_.optional_selected;
    } else {
      ++stats_.optional_skipped;
    }

    for (const CopySpec& spec : decision.copies) {
      admit_copy(rel.job_idx, spec);
    }
    if (implicit_deadlines_) {
      last_released_[i] = static_cast<std::int64_t>(rel.job_idx);
    } else if (lj.counted) {
      push_deadline(lj.job.deadline, rel.job_idx);
    }
  }
}

/// Enters an eligible copy into the dispatch indexes: the priority-ordered
/// ready heap, plus the prune heap when it is optional-band work whose
/// feasibility has to be watched.
void Simulator::Impl::make_ready(std::size_t idx) {
  const Copy& c = copies_[idx];
  // The priority entry was precomputed at admission (all components are
  // immutable for the copy's lifetime).
  const ReadyEntry& entry = c.entry;
  // Only an arrival that outranks the running copy (or lands on an idle
  // processor) can change the dispatch choice this event.
  if (running_[c.proc] == kNone || running_entry_[c.proc] > entry) {
    dirty_[c.proc] = true;
  }
  heap_push(ready_[c.proc], entry);
  if (c.band == Band::kOptional) push_prune(idx);
}

void Simulator::Impl::push_prune(std::size_t idx) {
  const Copy& c = copies_[idx];
  heap_push(prune_[c.proc], TimedEntry{c.deadline - c.remaining,
                                       static_cast<std::uint32_t>(idx)});
}

/// Promotes pending copies whose eligible time has arrived (postponed backup
/// releases theta, dual-priority promotions Y) into the ready indexes.
void Simulator::Impl::wake_eligible(ProcessorId p) {
  for (auto* pending : {&pending_mand_[p], &pending_opt_[p]}) {
    while (!pending->empty() && pending->front().time <= now_) {
      const TimedEntry entry = pending->front();
      heap_pop(*pending);
      const std::size_t idx = entry.idx;
      if (!copy_alive_[idx]) continue;
      // A fault-detection promotion rewrites `eligible` and readies the copy
      // directly; its original pending entry is stale and must not re-ready.
      if (copy_eligible_[idx] != entry.time) continue;
      ++stats_.eligibility_wakeups;
      make_ready(idx);
    }
  }
}

/// Drops every eligible optional copy that can no longer meet its deadline
/// (the paper's "O11 will not be invoked at all"), exactly when the legacy
/// scan would have: at the first dispatch with now > deadline - remaining.
///
/// An entry is current iff its key still equals the copy's latest feasible
/// start; a copy that executed since the push is either running (feasible by
/// construction: now + remaining is invariant while it runs) or was
/// re-indexed on preemption, so stale entries are simply discarded. Pruning
/// applies in ascending admission order == per-task job order, which keeps
/// resolve()'s outcome streams ordered; cross-task order within one instant
/// is not trace-visible (`ended`/`end` are per-copy fields and outcome
/// streams are per-task).
void Simulator::Impl::prune_pass(ProcessorId p) {
  auto& heap = prune_[p];
  if (heap.empty() || heap.front().time >= now_) return;  // common fast path
  prune_scratch_.clear();
  while (!heap.empty() && heap.front().time < now_) {
    const TimedEntry entry = heap.front();
    heap_pop(heap);
    const Copy& c = copies_[entry.idx];
    if (!copy_alive_[entry.idx]) continue;
    // The running copy's remaining is stale (completion_at_ carries it) but
    // it needs no check either way: a running optional is feasible by
    // construction -- now + remaining is invariant while it runs -- so the
    // legacy scan always found its current key >= now and skipped it.
    if (running_[p] == static_cast<int>(entry.idx)) continue;
    if (c.deadline - c.remaining != entry.time) continue;
    prune_scratch_.push_back(entry.idx);
  }
  std::sort(prune_scratch_.begin(), prune_scratch_.end());
  for (const std::size_t idx : prune_scratch_) {
    Copy& c = copies_[idx];
    if (!copy_alive_[idx]) continue;
    LiveJob& job = jobs_[c.job_idx];
    // Can no longer finish in time: never invoke / abandon (energy already
    // spent stays spent).
    kill_copy(static_cast<int>(idx), CopyEnd::kAbandoned);
    if (!job.resolved && job.copy_in_slot[0] == kNone &&
        job.copy_in_slot[1] == kNone) {
      resolve(c.job_idx, JobOutcome::kMissed);
    }
  }
}

/// Highest-priority eligible copy on p, or kNone. Dead entries peel off the
/// heap top lazily; the mandatory band sorts strictly first, so a sleeping
/// processor (which ignores optional work) only has to look at the top.
int Simulator::Impl::ready_best(ProcessorId p, bool sleeping) {
  auto& heap = ready_[p];
  while (!heap.empty() && !copy_alive_[heap.front().idx]) {
    heap_pop(heap);
    ++stats_.dispatch_pops;
  }
  if (heap.empty()) return kNone;
  const ReadyEntry& top = heap.front();
  if (sleeping && static_cast<Band>(top.band) == Band::kOptional) return kNone;
  return static_cast<int>(top.idx);
}

void Simulator::Impl::admit_copy(std::size_t job_idx, const CopySpec& spec) {
  LiveJob& job = jobs_[job_idx];
  MKSS_CHECK(spec.proc < nproc_, "admit_copy: processor outside the platform");
  const int slot = slot_of(spec.kind);
  if (job.copy_in_slot[slot] != kNone) {
    throw std::logic_error("admit_copy: replica slot already occupied");
  }
  const std::size_t idx = copies_.size();
  Copy& c = copies_.emplace_back();
  c.job_idx = job_idx;
  c.kind = spec.kind;
  c.proc = spec.proc;
  if (!proc_alive_[c.proc]) {
    // Placement on a dead processor falls through to the lowest-indexed
    // alive one (on the dual platform: the other processor).
    for (ProcessorId p = 0; p < nproc_; ++p) {
      if (proc_alive_[p]) {
        c.proc = p;
        break;
      }
    }
  }
  c.band = spec.band;
  const Ticks eligible = std::max(spec.eligible, now_);
  // DVS: execution stretches to C / f at reduced frequency. Clamp to a sane
  // range; a frequency of exactly 1 keeps the integer WCET untouched.
  c.frequency = std::clamp(spec.frequency, 0.05, 1.0);
  c.remaining = c.frequency == 1.0
                    ? job.job.exec
                    : static_cast<Ticks>(std::llround(
                          static_cast<double>(job.job.exec) / c.frequency));
  c.deadline = job.job.deadline;
  // Precompute the ready-heap entry (the copy_precedes() priority tuple plus
  // the copies_ index this copy takes).
  c.entry.job = job.job.id.job;
  c.entry.rank = spec.rank;
  c.entry.task = static_cast<std::uint32_t>(job.job.id.task);
  c.entry.idx = static_cast<std::uint32_t>(idx);
  c.entry.band = static_cast<std::uint8_t>(spec.band);
  c.entry.kind = static_cast<std::uint8_t>(spec.kind);

  if (trace_) {
    CopyRecord rec;
    rec.job = job.job.id;
    rec.kind = c.kind;
    rec.proc = c.proc;
    rec.band = c.band;
    rec.admitted = now_;
    rec.eligible = eligible;
    rec.work = c.remaining;
    rec.frequency = c.frequency;
    c.rec = trace_->copies.size();
    trace_->copies.push_back(rec);
  }

  copy_alive_.push_back(1);
  copy_eligible_.push_back(eligible);
  job.copy_in_slot[slot] = static_cast<int>(idx);
  if (track_live_) live_[c.proc].push_back(idx);
  if (eligible > now_) {
    auto& pending = c.band == Band::kMandatory ? pending_mand_[c.proc]
                                               : pending_opt_[c.proc];
    heap_push(pending, TimedEntry{eligible, static_cast<std::uint32_t>(idx)});
  } else {
    make_ready(idx);
  }
  if (spec.kind == CopyKind::kBackup) ++stats_.backups_created;
}

void Simulator::Impl::complete_copy(int idx) {
  Copy& c = copies_[static_cast<std::size_t>(idx)];
  stop_running(c.proc, now_);  // materializes remaining (== 0 on completion)
  MKSS_CHECK(c.remaining == 0 && copy_alive_[static_cast<std::size_t>(idx)],
             "completing a copy that is not an exhausted live copy");
  copy_alive_[static_cast<std::size_t>(idx)] = 0;
  dirty_[c.proc] = true;
  ++stats_.completions;
  LiveJob& job = jobs_[c.job_idx];
  const int slot = slot_of(c.kind);
  job.copy_in_slot[slot] = kNone;

  const bool faulted = faults_->transient(job.job.id, slot);
  if (trace_) {
    trace_->copies[c.rec].ended = now_;
    trace_->copies[c.rec].end = CopyEnd::kCompleted;
    trace_->copies[c.rec].transient_fault = faulted;
  }
  if (faulted) {
    ++stats_.transient_faults;
    job.slot_failed[slot] = true;
    const int sibling = job.copy_in_slot[1 - slot];
    if (sibling == kNone && !job.resolved) {
      // No copy left that could still succeed.
      resolve(c.job_idx, JobOutcome::kMissed);
    }
    return;
  }

  // Success: the sibling copy (if any) is canceled immediately.
  const int sibling = job.copy_in_slot[1 - slot];
  if (sibling != kNone && copy_alive_[static_cast<std::size_t>(sibling)]) {
    const CopyKind sk = copies_[static_cast<std::size_t>(sibling)].kind;
    if (sk == CopyKind::kBackup) {
      ++stats_.backups_canceled;
    } else {
      ++stats_.mains_canceled;
    }
  }
  resolve(c.job_idx, JobOutcome::kMet);
}

void Simulator::Impl::kill_copy(int idx, CopyEnd reason) {
  Copy& c = copies_[static_cast<std::size_t>(idx)];
  if (!copy_alive_[static_cast<std::size_t>(idx)]) return;
  if (running_[c.proc] == idx) {
    stop_running(c.proc, now_);
    dirty_[c.proc] = true;  // the processor just went idle
  } else if (running_[c.proc] == kNone) {
    // Killing a parked or pending copy cannot outrank work that is already
    // running, but on an idle DPD processor it can move the sleep-commit
    // horizon (the killed copy may have been the near mandatory activity
    // keeping the processor awake), so the idle case must re-dispatch.
    dirty_[c.proc] = true;
  }
  copy_alive_[static_cast<std::size_t>(idx)] = 0;
  if (trace_) {
    trace_->copies[c.rec].ended = now_;
    trace_->copies[c.rec].end = reason;
  }
  jobs_[c.job_idx].copy_in_slot[slot_of(c.kind)] = kNone;
}

void Simulator::Impl::resolve(std::size_t job_idx, JobOutcome outcome) {
  LiveJob& job = jobs_[job_idx];
  MKSS_CHECK(!job.resolved,
             core::to_string(job.job.id) + " resolved more than once");
  job.resolved = true;
  job.outcome = outcome;
  job.resolved_at = now_;
  // A met job cancels its leftover sibling; a missed one kills its remnants.
  const CopyEnd reason = outcome == JobOutcome::kMet ? CopyEnd::kCanceled
                                                     : CopyEnd::kKilledResolved;
  for (const int slot : {0, 1}) {
    if (job.copy_in_slot[slot] != kNone) kill_copy(job.copy_in_slot[slot], reason);
  }
  if (!job.counted) return;

  const TaskIndex i = job.job.id.task;
  MKSS_CHECK(job.job.id.job == last_resolved_j_[i] + 1,
             "outcomes must resolve in job order per task (" +
                 core::to_string(job.job.id) + ")");
  last_resolved_j_[i] = job.job.id.job;
  if (trace_) trace_->outcomes_per_task[i].push_back(outcome);
  sink_->on_outcome(i, outcome);
  if (outcome == JobOutcome::kMet) {
    ++stats_.jobs_met;
  } else {
    ++stats_.jobs_missed;
    if (job.mandatory) ++stats_.mandatory_misses;
  }
  scheme_->on_outcome(i, job.job.id.job, outcome);
}

void Simulator::Impl::stop_running(ProcessorId p, Ticks end) {
  const int idx = running_[p];
  if (idx == kNone) return;
  running_[p] = kNone;
  Copy& c = copies_[static_cast<std::size_t>(idx)];
  // Materialize the executed progress (remaining went stale at
  // start_running; completion_at_ carried the live value).
  c.remaining = completion_at_[p] - end;
  if (end <= run_start_[p]) return;
  const ExecSegment segment{
      p, jobs_[c.job_idx].job.id, c.kind, {run_start_[p], end}, c.frequency};
  if (trace_) trace_->segments.push_back(segment);
  sink_->on_segment(segment);
  busy_time_[p] += end - run_start_[p];
}

void Simulator::Impl::start_running(ProcessorId p, int idx) {
  running_[p] = idx;
  run_start_[p] = now_;
  completion_at_[p] = now_ + copies_[static_cast<std::size_t>(idx)].remaining;
  // The only caller is dispatch(), which always starts the ready heap's top
  // (dead entries were peeled in ready_best just before).
  running_entry_[p] = ready_[p].front();
}

bool Simulator::Impl::copy_precedes(const Copy& a, const Copy& b) const {
  const auto key = [this](const Copy& c) {
    const core::JobId& id = jobs_[c.job_idx].job.id;
    return std::make_tuple(static_cast<int>(c.band), c.entry.rank, id.task,
                           id.job, static_cast<int>(c.kind));
  };
  return key(a) < key(b);
}

Ticks Simulator::Impl::next_mandatory_activity(ProcessorId p) {
  // Algorithm 1 line 12: "the earliest release time of all jobs in MJQ" --
  // i.e. only mandatory copies already admitted (postponed backups, promoted
  // jobs). A mandatory copy admitted later wakes the processor anyway,
  // because dispatch always considers mandatory-band work regardless of the
  // sleep commitment.
  const Ticks t = std::min(config_.horizon, pending_min(pending_mand_[p]));
  if (cross_check_) {
    MKSS_CHECK(t == scan_next_mandatory_activity(p),
               "indexed next_mandatory_activity diverged from the scan "
               "oracle at " +
                   core::format_ticks(now_));
  }
  return t;
}

Ticks Simulator::Impl::scan_next_mandatory_activity(ProcessorId p) const {
  Ticks t = config_.horizon;
  for (const std::size_t idx : live_[p]) {
    const Copy& c = copies_[idx];
    if (copy_alive_[idx] && c.band == Band::kMandatory &&
        copy_eligible_[idx] > now_) {
      t = std::min(t, copy_eligible_[idx]);
    }
  }
  return t;
}

/// Oracle: re-derives the dispatch choice with the legacy walk over the
/// admission log and checks the prune pass left no infeasible optional copy.
void Simulator::Impl::check_dispatch_oracle(ProcessorId p, bool sleeping,
                                            int best) const {
  int scan = kNone;
  for (const std::size_t idx : live_[p]) {
    const Copy& c = copies_[idx];
    if (!copy_alive_[idx] || c.proc != p || copy_eligible_[idx] > now_) {
      continue;
    }
    if (c.band == Band::kOptional) {
      // The running copy's remaining lives in completion_at_ until
      // stop_running materializes it.
      const Ticks rem = running_[p] == static_cast<int>(idx)
                            ? completion_at_[p] - now_
                            : c.remaining;
      MKSS_CHECK(now_ + rem <= jobs_[c.job_idx].job.deadline,
                 "prune pass left an infeasible optional copy live at " +
                     core::format_ticks(now_));
      if (sleeping) continue;
    }
    if (scan == kNone ||
        copy_precedes(c, copies_[static_cast<std::size_t>(scan)])) {
      scan = static_cast<int>(idx);
    }
  }
  MKSS_CHECK(scan == best,
             "indexed dispatch diverged from the scan oracle at " +
                 core::format_ticks(now_));
}

/// Oracle for skipped dispatches: proves via the legacy scan that running
/// dispatch(p) now would have been a no-op -- the scan-derived best copy is
/// exactly what is already running (or nothing), no eligible optional copy
/// is infeasible, and the DPD sleep decision would not newly commit.
void Simulator::Impl::check_skip_oracle(ProcessorId p) const {
  if (!proc_alive_[p]) return;
  const bool sleeping = !config_.wake_for_optional && sleep_until_[p] > now_;
  check_dispatch_oracle(p, sleeping, running_[p]);
  if (running_[p] == kNone && !config_.wake_for_optional && !sleeping) {
    MKSS_CHECK(scan_next_mandatory_activity(p) - now_ <= config_.break_even,
               "skipped dispatch would have committed to DPD sleep at " +
                   core::format_ticks(now_));
  }
}

void Simulator::Impl::dispatch(ProcessorId p) {
  if (!proc_alive_[p]) {
    dirty_[p] = false;  // a dead processor never needs another dispatch
    return;
  }
  // An expired sleep commitment behaves exactly like none at all (the legacy
  // scan only ever compared sleep_until_ against now); normalizing it to 0
  // makes need_dispatch()'s sleep-expiry trigger one-shot.
  if (sleep_until_[p] != 0 && sleep_until_[p] <= now_) sleep_until_[p] = 0;
  // Call-site guards: wake-ups and prune work are rare (a few percent of
  // dispatches), so the common case pays two heap-front peeks, not calls.
  if ((!pending_mand_[p].empty() && pending_mand_[p].front().time <= now_) ||
      (!pending_opt_[p].empty() && pending_opt_[p].front().time <= now_)) {
    wake_eligible(p);
  }
  const bool sleeping = !config_.wake_for_optional && sleep_until_[p] > now_;
  if (!prune_[p].empty() && prune_[p].front().time < now_) prune_pass(p);
  const int best = ready_best(p, sleeping);
  if (cross_check_) check_dispatch_oracle(p, sleeping, best);

  if (best != kNone) {
    sleep_until_[p] = 0;  // dispatching (mandatory) work ends the sleep
  }
  if (best != running_[p]) {
    const int old = running_[p];
    stop_running(p, now_);  // also materializes the victim's remaining
    if (old != kNone) {
      Copy& victim = copies_[static_cast<std::size_t>(old)];
      if (copy_alive_[static_cast<std::size_t>(old)] && victim.remaining > 0) {
        // A genuinely preempted copy (still alive, work left) pays the
        // context overhead on its remaining demand.
        if (config_.preemption_overhead > 0) {
          victim.remaining += config_.preemption_overhead;
          if (trace_) {
            trace_->copies[victim.rec].work += config_.preemption_overhead;
          }
        }
        ++stats_.preemptions;
        // A preempted optional copy's latest feasible start moved (it
        // executed and may have absorbed preemption overhead): re-index it.
        if (victim.band == Band::kOptional) {
          push_prune(static_cast<std::size_t>(old));
        }
      }
    }
    if (best != kNone) start_running(p, best);
  }

  if (best == kNone && !config_.wake_for_optional && sleep_until_[p] <= now_) {
    const Ticks next_mandatory = next_mandatory_activity(p);
    if (next_mandatory - now_ > config_.break_even) {
      sleep_until_[p] = next_mandatory;  // commit to DPD sleep
    }
  }
  // All kills this dispatch performed (prune pass) were accounted for before
  // the choice, so the processor ends the event clean.
  dirty_[p] = false;
}

Simulator::Simulator() : impl_(std::make_unique<Impl>()) {}
Simulator::~Simulator() = default;
Simulator::Simulator(Simulator&&) noexcept = default;
Simulator& Simulator::operator=(Simulator&&) noexcept = default;

void Simulator::run(const core::TaskSet& ts, Scheme& scheme,
                    const FaultPlan& faults, const SimConfig& config,
                    TraceSink& sink, const ExecTimeModel* exec_model) {
  impl_->run(ts, scheme, faults, config, sink, exec_model);
}

SimulationTrace simulate(const core::TaskSet& ts, Scheme& scheme,
                         const FaultPlan& faults, const SimConfig& config,
                         const ExecTimeModel* exec_model) {
  Simulator sim;
  FullTraceSink sink;
  sim.run(ts, scheme, faults, config, sink, exec_model);
  return sink.take();
}

}  // namespace mkss::sim
