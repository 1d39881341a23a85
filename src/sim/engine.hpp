// Discrete-event simulator for N-processor standby-sparing schedules.
//
// The engine owns the platform mechanics shared by all schemes:
//   * periodic job releases and classification callbacks into the Scheme;
//   * preemptive, band-then-fixed-priority dispatch on each processor
//     (mandatory queue strictly above optional queue);
//   * copy eligibility times (postponed backup releases, dual-priority
//     promotions) -- a copy simply cannot run before its eligible time;
//   * cross-processor cancellation: the first successful completion of a
//     copy resolves the logical job and cancels the sibling copy instantly;
//   * transient faults (drawn from the FaultPlan at the end of each copy's
//     execution, per Section II-B) and the single permanent fault with
//     survivor takeover;
//   * infeasible-optional pruning: an optional copy that can no longer meet
//     its deadline is dropped instead of burning energy (the paper's
//     "O11 will not be invoked at all");
//   * optional dynamic power-down behaviour: with `wake_for_optional` off, a
//     processor whose queues are empty commits to sleep until the next
//     mandatory activity if that is more than T_be away (Algorithm 1 lines
//     10-15) and ignores optional work meanwhile.
//
// Time advances from event to event; every quantity is integer ticks, so
// runs are exactly reproducible.
#pragma once

#include <memory>
#include <stdexcept>

#include "core/task.hpp"
#include "sim/exec_model.hpp"
#include "sim/fault_plan.hpp"
#include "sim/scheme.hpp"
#include "sim/types.hpp"

namespace mkss::core {
struct ReleaseTimeline;
}  // namespace mkss::core

namespace mkss::sim {

/// How the engine discovers job releases (and, on implicit-deadline runs,
/// the folded deadline fires):
///   * kHeap   -- the classic release-calendar min-heap, re-derived per run;
///   * kCached -- a cursor walk over a shared core::ReleaseTimeline arena
///                (SimConfig::timeline_data when attached, otherwise built
///                locally for the run);
///   * kAuto   -- kCached exactly when a timeline is attached (the harness
///                layers attach one through analysis::AnalysisCache), kHeap
///                otherwise.
/// Both paths produce bit-identical traces: the arena is sorted by
/// (release, task), the calendar heap's strict-total pop order. Under
/// SimConfig::cross_check the heap runs in lock-step as an oracle and every
/// cursor step is checked against it. Env MKSS_TIMELINE={auto,cached,heap}
/// (or `off` == heap) overrides the per-run setting.
enum class TimelineMode : std::uint8_t { kAuto = 0, kCached = 1, kHeap = 2 };

struct SimConfig {
  /// Simulation horizon; jobs are released while r < horizon and audited
  /// when their deadline is within the horizon.
  core::Ticks horizon{0};
  /// Execution platform; defaults to the paper's dual primary/spare pair.
  /// Every per-processor engine structure is sized from this spec, and all
  /// tie-breaks are keyed on the processor index, so schedules are
  /// deterministic for any processor count.
  PlatformSpec platform{};
  /// When false, a sleeping processor ignores optional-band work until the
  /// next mandatory activity (the literal reading of Algorithm 1's wake-up
  /// timer); when true (default), any eligible work wakes it.
  bool wake_for_optional{true};
  /// Break-even time T_be used by the behavioural sleep decision.
  core::Ticks break_even{core::from_ms(std::int64_t{1})};
  /// Cost of a preemption, charged to the preempted copy's remaining
  /// execution (pipeline/cache refill on resume). 0 reproduces the paper's
  /// overhead-free model; bench/ablation_overhead sweeps it.
  core::Ticks preemption_overhead{0};
  /// Cross-check the indexed event core against the retained scan-based
  /// oracle at every event (next-event time, dispatch choice, prune
  /// completeness) via MKSS_CHECK. Defaults to on in Debug builds (assert
  /// semantics) and off otherwise; tests force it on to prove bit-identity
  /// of the indexed structures in any build type.
#ifdef NDEBUG
  bool cross_check{false};
#else
  bool cross_check{true};
#endif
  /// Release-discovery mode (see TimelineMode above). MKSS_TIMELINE wins.
  TimelineMode timeline{TimelineMode::kAuto};
  /// Shared release timeline consumed under kCached/kAuto; must describe
  /// exactly this run's (periods, deadlines, horizon) -- the engine checks
  /// the cheap invariants always and the full per-task agreement under
  /// cross_check. Borrowed for the duration of run(); the caller keeps it
  /// alive (harness::RunContext holds it in a content-keyed
  /// core::TimelineCache).
  const core::ReleaseTimeline* timeline_data{nullptr};
  /// Per-run wall-clock watchdog budget in milliseconds; 0 (the default)
  /// disables it. When positive, the event loop samples a steady clock every
  /// 512 events and throws RunTimeoutError once the budget is exceeded, so a
  /// hung or runaway run surfaces as a quarantinable error instead of
  /// stalling a fuzz campaign or CI. The check is cooperative and does not
  /// perturb the schedule: a run that finishes within its budget is
  /// bit-identical to the same run without a watchdog.
  double wall_clock_budget_ms{0};
};

/// The timeline mode a run with `config` actually uses, with the
/// MKSS_TIMELINE environment override folded in (parsed once per process;
/// tests that need both modes in one process use set_forced_timeline_mode).
/// Returns kAuto only when neither the env nor the config forces a mode.
TimelineMode resolved_timeline_mode(const SimConfig& config) noexcept;

/// Test hook: overrides the resolved mode until
/// clear_forced_timeline_mode().
void set_forced_timeline_mode(TimelineMode mode) noexcept;
void clear_forced_timeline_mode() noexcept;

/// Thrown by Simulator::run when SimConfig::wall_clock_budget_ms is
/// exhausted. Fuzz/campaign harnesses map it to a "timeout" verdict; the
/// run's partial trace is discarded.
class RunTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TraceSink;

/// Reusable simulation engine. All per-run storage (live jobs, execution
/// copies, ready queues, the deadline heap, and the pooled trace of a
/// FullTraceSink) lives in engine-owned arenas that are reset -- not
/// reallocated -- between run() calls, so the hot path of a sweep that runs
/// thousands of simulations performs no steady-state heap allocation.
///
/// Event discovery is fully indexed (see docs/architecture.md, "Indexed
/// event core"): a release calendar, per-processor eligibility min-heaps and
/// priority-ordered ready heaps with lazy invalidation replace the per-event
/// linear scans, so next_event_time() is a constant-size min over cached
/// candidates and dispatch() is O(log n). Tie-breaking reproduces the legacy
/// scan order exactly; traces are bit-identical (SimConfig::cross_check runs
/// the retained scan oracle against the indexes at every event).
/// Results stream into the caller-supplied TraceSink (see sim/trace_sink.hpp)
/// which picks between the full materialized trace and online statistics.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;

  /// Runs `scheme` over `ts` under `faults`, streaming segments and outcomes
  /// into `sink`. `exec_model` supplies actual per-job execution demands
  /// (default: WCET, the paper's model); feasibility pruning of optional
  /// copies then uses the actual remaining demand, while all offline
  /// analyses stay WCET-based.
  void run(const core::TaskSet& ts, Scheme& scheme, const FaultPlan& faults,
           const SimConfig& config, TraceSink& sink,
           const ExecTimeModel* exec_model = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience wrapper: runs a fresh Simulator with a FullTraceSink
/// and returns the materialized trace. Bit-identical to the pooled path.
SimulationTrace simulate(const core::TaskSet& ts, Scheme& scheme,
                         const FaultPlan& faults, const SimConfig& config,
                         const ExecTimeModel* exec_model = nullptr);

}  // namespace mkss::sim
