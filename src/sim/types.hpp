// Shared vocabulary of the N-processor standby-sparing simulator.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/task.hpp"
#include "core/time.hpp"

namespace mkss::sim {

using ProcessorId = std::uint8_t;
/// Canonical indices of the paper's dual platform (Section II-A): processor 0
/// is the primary, processor 1 the spare. Larger platforms simply index
/// 0..num_procs-1; the roles vector says which is which.
inline constexpr ProcessorId kPrimary = 0;
inline constexpr ProcessorId kSpare = 1;

/// What a processor is provisioned for. Purely descriptive: the engine treats
/// every processor identically (dispatch, faults, energy); schemes consult
/// the roles to decide where mains and backups go.
enum class ProcRole : std::uint8_t {
  kWorker,   ///< runs main (and optional) copies by default
  kStandby,  ///< reserved for backup copies by default
};

std::string to_string(ProcRole role);

/// The execution platform: an ordered list of processor roles. The default
/// is the paper's dual platform (one primary, one spare); factories build the
/// common shapes. Processor identity is the index into `roles`, and every
/// simulator tie-break is keyed on that index, so schedules stay
/// deterministic for any processor count.
struct PlatformSpec {
  std::vector<ProcRole> roles{ProcRole::kWorker, ProcRole::kStandby};

  std::size_t num_procs() const noexcept { return roles.size(); }

  /// The next processor in index order, wrapping around -- the canonical
  /// "sibling" placement. On the dual platform this is the other processor.
  ProcessorId partner(ProcessorId p) const noexcept {
    return static_cast<ProcessorId>((p + 1) % roles.size());
  }

  /// The paper's platform: {primary, spare}.
  static PlatformSpec dual() { return {}; }

  /// Standby-sparing with `num_procs - 1` primaries sharing one spare (the
  /// spare is the last index). Requires at least two processors.
  static PlatformSpec standby(std::size_t num_procs) {
    check_size(num_procs);
    PlatformSpec p;
    p.roles.assign(num_procs, ProcRole::kWorker);
    p.roles.back() = ProcRole::kStandby;
    return p;
  }

  /// A symmetric platform of `num_procs` primaries (global/partitioned
  /// baselines without a dedicated spare).
  static PlatformSpec symmetric(std::size_t num_procs) {
    check_size(num_procs);
    PlatformSpec p;
    p.roles.assign(num_procs, ProcRole::kWorker);
    return p;
  }

 private:
  static void check_size(std::size_t num_procs) {
    if (num_procs < 2 || num_procs > 255) {
      throw std::invalid_argument(
          "PlatformSpec: processor count must be in [2, 255], got " +
          std::to_string(num_procs));
    }
  }
};

/// Role of an execution copy of a logical job.
enum class CopyKind : std::uint8_t {
  kMain,      ///< primary copy of a mandatory job
  kBackup,    ///< spare copy of a mandatory job (cancelable)
  kOptional,  ///< the single copy of a selected optional job
};

std::string to_string(CopyKind kind);

/// Dispatch bands: every mandatory-queue job outranks every optional-queue
/// job ("The jobs in MJQ always have higher priorities than those in OJQ").
enum class Band : std::uint8_t {
  kMandatory = 0,  ///< MJQ
  kOptional = 1,   ///< OJQ
};

/// Why an execution copy stopped existing. Recorded in the trace so the
/// post-hoc auditor (src/audit) can certify copy lifecycles independently of
/// the engine that produced them.
enum class CopyEnd : std::uint8_t {
  kCompleted,      ///< ran its full demand (the transient draw is separate)
  kCanceled,       ///< sibling copy completed successfully first
  kKilledResolved, ///< killed because its job resolved as missed
  kLostToDeath,    ///< lost with its processor's permanent fault
  kAbandoned,      ///< optional pruned: could no longer meet its deadline
  kUnfinished,     ///< still live when the horizon closed
};

std::string to_string(CopyEnd end);

/// Lifecycle record of one execution copy: who it belonged to, where it was
/// placed, when it could run (the postponed/promoted eligible time theta_i /
/// Y_i), how much work it carried, and how its life ended. One record per
/// admit_copy call, in admission order.
struct CopyRecord {
  core::JobId job;
  CopyKind kind{CopyKind::kMain};
  ProcessorId proc{kPrimary};
  Band band{Band::kMandatory};
  core::Ticks admitted{0};  ///< instant the scheme admitted the copy
  core::Ticks eligible{0};  ///< earliest dispatch time (r, r + Y_i, r + theta_i)
  /// Total demand at the copy's DVS frequency, including any preemption
  /// overhead accrued; a kCompleted copy executed exactly this long.
  core::Ticks work{0};
  core::Ticks ended{0};     ///< instant the copy stopped existing
  CopyEnd end{CopyEnd::kUnfinished};
  double frequency{1.0};
  bool transient_fault{false};  ///< completed and the fault draw hit it
};

/// A maximal span during which one copy ran uninterrupted on one processor.
struct ExecSegment {
  ProcessorId proc{kPrimary};
  core::JobId job;
  CopyKind kind{CopyKind::kMain};
  core::Interval span;
  /// Normalized DVS frequency the copy ran at (1.0 == full speed). Affects
  /// the power drawn during the span, see energy::PowerParams::power_at.
  double frequency{1.0};
};

/// Per-logical-job record kept in the trace.
struct JobRecord {
  core::Job job;
  bool mandatory{false};          ///< classified mandatory at release
  bool executed_optional{false};  ///< optional job selected for execution
  bool counted{true};             ///< deadline within the horizon (audited)
  bool resolved{false};
  core::JobOutcome outcome{core::JobOutcome::kMissed};
  core::Ticks resolved_at{0};
  bool main_transient_fault{false};
  bool backup_transient_fault{false};
};

/// Aggregate counters of one simulation run.
struct SimStats {
  std::uint64_t jobs_released{0};
  std::uint64_t mandatory_jobs{0};
  std::uint64_t optional_selected{0};
  std::uint64_t optional_skipped{0};
  std::uint64_t backups_created{0};
  std::uint64_t backups_canceled{0};  ///< canceled before finishing (sibling succeeded)
  std::uint64_t mains_canceled{0};    ///< main canceled because backup finished first
  std::uint64_t transient_faults{0};
  std::uint64_t jobs_met{0};
  std::uint64_t jobs_missed{0};
  std::uint64_t mandatory_misses{0};  ///< must stay 0 when Theorem 1 applies
  std::uint64_t preemptions{0};       ///< copies stopped with work remaining

  // Event-core counters: how much work the indexed event loop actually did.
  // Identical across sinks (Sinks tests) and release-discovery modes
  // (EngineFuzz); the scan oracle (SimConfig::cross_check) does not touch
  // them.
  std::uint64_t sim_events{0};           ///< main-loop iterations (events processed)
  std::uint64_t completions{0};          ///< execution copies that ran to completion
  std::uint64_t deadline_fires{0};       ///< deadline-queue pops
  std::uint64_t eligibility_wakeups{0};  ///< pending copies promoted to ready (θ/Y)
  std::uint64_t dispatch_pops{0};        ///< ready-queue entries lazily discarded

  friend bool operator==(const SimStats&, const SimStats&) = default;
};

/// Full result of a run: execution segments, job records, per-task outcome
/// sequences (in job order, for the (m,k) audit), and counters.
struct SimulationTrace {
  core::Ticks horizon{0};
  std::vector<ExecSegment> segments;
  std::vector<JobRecord> jobs;
  /// Lifecycle of every admitted execution copy, in admission order.
  std::vector<CopyRecord> copies;
  /// outcomes_per_task[i][j] is the outcome of the (j+1)-th *counted* job
  /// of tau_{i+1}.
  std::vector<std::vector<core::JobOutcome>> outcomes_per_task;
  /// Time at which a processor permanently failed, or kNever. One entry per
  /// platform processor; the vector length is the run's processor count.
  std::vector<core::Ticks> death_time{core::kNever, core::kNever};
  std::vector<core::Ticks> busy_time{0, 0};
  SimStats stats;

  /// Total execution time on both processors inside [0, upto) -- the
  /// "active energy" of the paper's motivating examples (P_act = 1).
  core::Ticks active_time(core::Ticks upto) const noexcept;
  core::Ticks active_time() const noexcept { return active_time(horizon); }
};

}  // namespace mkss::sim
