#include "fault/shrink.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audit/trace_auditor.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"

namespace mkss::fault {

using core::Ticks;

bool within_tolerance(const ExplicitFaultPlan& plan) {
  const auto& hits = plan.transients();
  if (plan.permanent() && !hits.empty()) return false;
  // Sorted by (job, slot): a job hit on both slots sits in adjacent entries.
  for (std::size_t i = 1; i < hits.size(); ++i) {
    if (hits[i].first == hits[i - 1].first) return false;
  }
  return true;
}

ReproVerdict audited_verdict(const core::TaskSet& ts, const std::string& scheme,
                             const sim::SimConfig& cfg,
                             const sim::FaultPlan& plan,
                             const audit::AuditOptions& options,
                             harness::RunContext* ctx) {
  const sched::SchemeInfo& info = sched::Registry::instance().resolve(scheme);
  if (!info.supports(cfg.platform.num_procs())) {
    throw std::invalid_argument(
        "repro case: scheme '" + scheme + "' does not support a " +
        std::to_string(cfg.platform.num_procs()) + "-processor platform");
  }
  ReproVerdict v;
  try {
    const auto instance = info.make();
    harness::BatchRunner runner(ts, ctx);
    runner.bind(*instance);
    const sim::SimulationTrace& trace = runner.run_full(*instance, plan, cfg);
    const audit::AuditReport report =
        audit::TraceAuditor(options).audit(trace, ts);
    if (!report.ok()) {
      v.violated = true;
      v.kind = "audit-violation";
      v.invariant = report.violations.front().invariant;
      v.detail = report.to_string();
    }
  } catch (const sim::RunTimeoutError& e) {
    v = {true, "timeout", "", e.what()};
  } catch (const std::exception& e) {
    v = {true, "exception", "", e.what()};
  }
  return v;
}

ReproVerdict check_repro(const ReproCase& c, harness::RunContext* ctx) {
  sim::SimConfig cfg;
  cfg.horizon = c.horizon;
  cfg.platform = c.platform;
  cfg.wall_clock_budget_ms = c.run_budget_ms;
  audit::AuditOptions options;
  // Beyond the tolerance hypothesis, Theorem 1's guarantees are off: an
  // (m,k) window may legitimately break, and a mandatory job can miss with
  // fewer than two direct fault events (e.g. a permanent fault degrades
  // the platform, then transients on *other* jobs promote extra jobs to
  // mandatory via the dynamic pattern, and the added interference pushes
  // an innocent job past its deadline). Structural invariants -- copy
  // lifecycles, band order, outcome counts, energy reconciliation -- stay
  // audited under arbitrarily hostile plans.
  const bool tolerable = within_tolerance(c.plan);
  options.check_mk = tolerable;
  options.check_mandatory = tolerable;
  return audited_verdict(c.ts, c.scheme, cfg, c.plan, options, ctx);
}

namespace {

/// The shrink oracle: a candidate is accepted iff it still violates with the
/// same verdict kind and the same first invariant as the original failure --
/// shrinking must simplify the *reproducer*, not wander to a different bug.
struct Oracle {
  ReproVerdict base;
  std::uint64_t runs{0};
  std::uint64_t cap{0};
  harness::RunContext* ctx{nullptr};

  bool accepts(const ReproCase& candidate, ReproVerdict& verdict_out) {
    if (runs >= cap) return false;
    ++runs;
    const ReproVerdict v = check_repro(candidate, ctx);
    if (v.violated && v.kind == base.kind && v.invariant == base.invariant) {
      verdict_out = v;
      return true;
    }
    return false;
  }
};

/// Fault plan with task `dropped` removed and higher task indices shifted
/// down -- the remap that keeps JobIds naming the same logical jobs after a
/// task-drop candidate.
ExplicitFaultPlan drop_task_from_plan(const ExplicitFaultPlan& plan,
                                      core::TaskIndex dropped) {
  ExplicitFaultPlan out;
  if (plan.permanent()) out.set_permanent(*plan.permanent());
  for (const auto& [job, slot] : plan.transients()) {
    if (job.task == dropped) continue;
    core::JobId id = job;
    if (id.task > dropped) --id.task;
    out.add_transient(id, slot);
  }
  return out;
}

core::TaskSet without_task(const core::TaskSet& ts, core::TaskIndex dropped) {
  std::vector<core::Task> tasks = ts.tasks();
  tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(dropped));
  return core::TaskSet(std::move(tasks));
}

Ticks round_to_ms(Ticks t) {
  return (t + core::kTicksPerMs / 2) / core::kTicksPerMs * core::kTicksPerMs;
}

/// Whole-millisecond version of a task, or the task itself when rounding
/// would produce an invalid (or identical) tuple.
core::Task rounded_task(const core::Task& t) {
  core::Task r = t;
  r.period = std::max(core::kTicksPerMs, round_to_ms(t.period));
  r.deadline = std::min(r.period,
                        std::max(core::kTicksPerMs, round_to_ms(t.deadline)));
  r.wcet = std::min(r.deadline, round_to_ms(t.wcet));
  if (r.wcet <= 0) r.wcet = std::min(r.deadline, t.wcet);
  return r.valid() ? r : t;
}

}  // namespace

ShrinkResult shrink(const ReproCase& c, std::uint64_t max_oracle_runs,
                    harness::RunContext* ctx) {
  ShrinkResult result;
  result.minimal = c;
  result.verdict = check_repro(c, ctx);
  result.oracle_runs = 1;
  // Nothing to shrink: clean runs stay untouched, and timeout verdicts are
  // wall-clock-dependent, so "still times out" is not a deterministic oracle.
  if (!result.verdict.violated || result.verdict.kind == "timeout") {
    return result;
  }

  Oracle oracle{result.verdict, result.oracle_runs, max_oracle_runs, ctx};
  ReproCase& cur = result.minimal;
  ReproVerdict& verdict = result.verdict;

  bool changed = true;
  while (changed && oracle.runs < oracle.cap) {
    changed = false;

    // Pass 1: drop tasks, highest index first (dropping tau_i never changes
    // the priorities of the tasks above it, so high-index drops are the
    // least disruptive and tend to stick).
    for (core::TaskIndex i = cur.ts.size(); i-- > 0 && cur.ts.size() > 1;) {
      ReproCase candidate = cur;
      candidate.ts = without_task(cur.ts, i);
      candidate.plan = drop_task_from_plan(cur.plan, i);
      if (oracle.accepts(candidate, verdict)) {
        cur = std::move(candidate);
        changed = true;
      }
    }

    // Pass 2: trim transient hits one at a time, last first.
    for (std::size_t i = cur.plan.transients().size(); i-- > 0;) {
      ReproCase candidate = cur;
      ExplicitFaultPlan plan;
      if (cur.plan.permanent()) plan.set_permanent(*cur.plan.permanent());
      const auto& hits = cur.plan.transients();
      for (std::size_t h = 0; h < hits.size(); ++h) {
        if (h != i) plan.add_transient(hits[h].first, hits[h].second);
      }
      candidate.plan = std::move(plan);
      if (oracle.accepts(candidate, verdict)) {
        cur = std::move(candidate);
        changed = true;
      }
    }

    // Pass 3: drop the permanent fault.
    if (cur.plan.permanent()) {
      ReproCase candidate = cur;
      ExplicitFaultPlan plan;
      for (const auto& [job, slot] : cur.plan.transients()) {
        plan.add_transient(job, slot);
      }
      candidate.plan = std::move(plan);
      if (oracle.accepts(candidate, verdict)) {
        cur = std::move(candidate);
        changed = true;
      }
    }

    // Pass 4: halve the horizon down to a 5 ms floor.
    while (cur.horizon / 2 >= core::from_ms(std::int64_t{5})) {
      ReproCase candidate = cur;
      candidate.horizon = cur.horizon / 2;
      if (!oracle.accepts(candidate, verdict)) break;
      cur = std::move(candidate);
      changed = true;
    }

    // Pass 5: round task parameters to whole milliseconds.
    for (core::TaskIndex i = 0; i < cur.ts.size(); ++i) {
      const core::Task rounded = rounded_task(cur.ts[i]);
      if (rounded == cur.ts[i]) continue;
      std::vector<core::Task> tasks = cur.ts.tasks();
      tasks[i] = rounded;
      ReproCase candidate = cur;
      candidate.ts = core::TaskSet(std::move(tasks));
      if (oracle.accepts(candidate, verdict)) {
        cur = std::move(candidate);
        changed = true;
      }
    }
  }

  result.oracle_runs = oracle.runs;
  return result;
}

}  // namespace mkss::fault
