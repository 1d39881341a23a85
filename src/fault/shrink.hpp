// Delta-debugging shrinker for quarantined fuzz cases.
//
// A violating fuzz case (random task set, random explicit fault plan, some
// scheme) is rarely minimal: most tasks and most fault hits are bystanders.
// The shrinker greedily simplifies the case while re-checking after every
// step that the run still fails with the *same* first violation (invariant
// key + verdict kind), in fixed pass order:
//   1. drop tasks (highest index first, remapping the fault plan's indices);
//   2. trim transient hits one by one;
//   3. drop the permanent fault;
//   4. halve the horizon (down to a small floor);
//   5. round task parameters to whole milliseconds.
// Passes repeat until a full cycle changes nothing or the oracle-run cap is
// hit. Everything is deterministic -- same input, same minimal case, byte
// for byte -- except that cases whose verdict is a wall-clock "timeout" are
// returned unshrunk (re-timing a hung run is inherently nondeterministic).
#pragma once

#include <cstdint>
#include <string>

#include "audit/trace_auditor.hpp"
#include "core/task.hpp"
#include "core/time.hpp"
#include "fault/campaign.hpp"
#include "harness/batch_runner.hpp"
#include "sim/engine.hpp"
#include "sim/fault_plan.hpp"
#include "sim/types.hpp"

namespace mkss::fault {

/// A fully specified fuzz case: everything check_repro needs to re-run it.
struct ReproCase {
  core::TaskSet ts;
  std::string scheme;  ///< registry name (sched::Registry)
  sim::PlatformSpec platform{};
  core::Ticks horizon{0};
  ExplicitFaultPlan plan;
  /// Per-run wall-clock watchdog (0 = off); see SimConfig.
  double run_budget_ms{0};
};

/// Outcome of re-running a case audited.
struct ReproVerdict {
  bool violated{false};
  /// "audit-violation", "exception" or "timeout" when violated.
  std::string kind;
  /// First violated invariant key (audit violations only), e.g.
  /// "mandatory-miss"; shrinking preserves it.
  std::string invariant;
  /// Full audit report / error message.
  std::string detail;
};

/// True when `plan` stays inside Theorem 1's single-fault-tolerance
/// hypothesis: no job is hit on both replica slots, and a permanent fault is
/// never combined with transients. Within tolerance the (m,k) windows and
/// the mandatory-miss rule are part of the audited contract; beyond it both
/// may legitimately fail (fault cascades re-promote jobs via the dynamic
/// pattern), so check_repro audits only the structural invariants there.
bool within_tolerance(const ExplicitFaultPlan& plan);

/// Runs `scheme` (registry name) on `ts` under `plan` and `cfg` with the
/// trace auditor attached under `options`, and reports the first violation
/// (or a clean verdict): an audit failure, a watchdog timeout, or any other
/// thrown error. The one audited-verdict path behind check_repro and
/// replay_bundle's scenario dialect. Throws sched::UnknownSchemeError when
/// the scheme is not registered and std::invalid_argument when it does not
/// support cfg.platform. `ctx` as for check_repro.
ReproVerdict audited_verdict(const core::TaskSet& ts, const std::string& scheme,
                             const sim::SimConfig& cfg,
                             const sim::FaultPlan& plan,
                             const audit::AuditOptions& options,
                             harness::RunContext* ctx = nullptr);

/// Re-runs the case with the auditor attached and reports the first
/// violation (or a clean verdict). Throws sched::UnknownSchemeError when the
/// scheme is not registered and std::invalid_argument when it does not
/// support the case's platform. `ctx` optionally reuses pooled engine
/// arenas (one per thread); nullptr runs on a private context.
ReproVerdict check_repro(const ReproCase& c, harness::RunContext* ctx = nullptr);

struct ShrinkResult {
  ReproCase minimal;
  ReproVerdict verdict;  ///< verdict of `minimal` (== input's for clean/timeout)
  std::uint64_t oracle_runs{0};
};

/// Greedily minimizes a violating case (see file comment). Returns the input
/// unchanged when it does not violate, or when its verdict is a timeout.
ShrinkResult shrink(const ReproCase& c, std::uint64_t max_oracle_runs = 2000,
                    harness::RunContext* ctx = nullptr);

}  // namespace mkss::fault
