// Evaluation harness: runs one task set under one scheme/fault plan, and
// reproduces the Figure-6 style sweeps (energy vs. total (m,k)-utilization,
// averaged over many random schedulable task sets, normalized to MKSS_ST).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "audit/trace_auditor.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"
#include "energy/energy_model.hpp"
#include "fault/injection.hpp"
#include "harness/batch_runner.hpp"
#include "metrics/qos.hpp"
#include "metrics/summary.hpp"
#include "report/table.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "sim/trace_sink.hpp"
#include "workload/taskset_gen.hpp"

namespace mkss::harness {

/// Result of a single simulation run.
struct RunResult {
  sim::SimulationTrace trace;
  energy::EnergyBreakdown energy;
  metrics::QosReport qos;
};

/// Everything one simulation run needs, in one place. Designated
/// initializers keep call sites readable:
///
///   auto r = harness::run_one({.ts = ts,
///                              .kind = sched::SchemeKind::kSelective,
///                              .faults = &plan,
///                              .sim = {.horizon = horizon}});
struct RunSpec {
  const core::TaskSet& ts;
  /// Scheme selection: a fresh default-configured instance of `kind` is
  /// created unless `scheme` is non-null (ablation variants, reused or
  /// specially configured instances).
  sched::SchemeKind kind{sched::SchemeKind::kSelective};
  sim::Scheme* scheme{nullptr};
  /// Fault plan of the run; nullptr means fault-free.
  const sim::FaultPlan* faults{nullptr};
  sim::SimConfig sim{};
  energy::PowerParams power{};
  /// Actual execution times (default WCET, the paper's model).
  const sim::ExecTimeModel* exec_model{nullptr};
};

/// Runs one simulation as described by `spec` and returns the materialized
/// trace plus its energy accounting and QoS audit.
RunResult run_one(const RunSpec& spec);

/// Simulation horizon for a task set: the (m,k)-pattern hyperperiod when it
/// fits under `cap`, otherwise `cap` itself (identical across compared
/// schemes, so normalized results stay comparable).
core::Ticks choose_horizon(const core::TaskSet& ts, core::Ticks cap);

// --- Figure 6 sweeps -----------------------------------------------------

struct SweepConfig {
  workload::GenParams gen{};
  /// Bin lower edges; each bin is [lo, lo + bin_width).
  std::vector<double> bin_starts{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  double bin_width{0.1};
  std::size_t sets_per_bin{20};
  std::size_t max_attempts_per_bin{5000};

  fault::Scenario scenario{fault::Scenario::kNoFault};
  double lambda_per_ms{1e-6};

  std::uint64_t seed{20200309};  ///< DATE 2020 started March 9, 2020
  core::Ticks horizon_cap{core::from_ms(std::int64_t{10000})};
  energy::PowerParams power{};
  /// Schemes to compare; the first is the normalization reference.
  std::vector<sched::SchemeKind> schemes{sched::evaluation_schemes()};

  /// Worker threads for the sweep: 1 = run everything inline on the calling
  /// thread, 0 = std::thread::hardware_concurrency. Results are bit-identical
  /// for every value (see docs/architecture.md, "Harness threading model" and
  /// "Generation pipeline"): every random stream is named by indices via
  /// core::stream_seed -- fault plans by (seed, bin_index, set_index),
  /// generation attempts by (generation root, bin_index, attempt) -- and
  /// results are committed/aggregated in index order after a barrier, never
  /// in completion order.
  std::size_t num_threads{1};

  /// Attach the trace auditor (src/audit) to every run. An audit violation
  /// quarantines the run like any thrown error: it is recorded in
  /// SweepResult::errors and its task set is excluded from the statistics,
  /// instead of aborting the whole sweep. The (m,k) window check is skipped
  /// for the transient scenario, where double faults on one job may
  /// legitimately break a window (counted by qos_failures as before).
  /// Audited runs materialize full traces (the auditor needs them); with
  /// `audit` off the runs take the lean online-statistics sink instead. The
  /// aggregated SweepResult is bit-identical either way (see
  /// docs/architecture.md, "Run API, analysis cache & trace sinks").
  bool audit{true};
  /// When non-empty, every quarantined error also dumps a repro bundle
  /// (io/repro_bundle.hpp scenario dialect: task set + platform + scheme +
  /// fault-plan reproduction key) into this directory; `mkss_cli replay`
  /// re-runs them audited.
  std::string error_dir{};

  /// Per-run wall-clock watchdog forwarded to SimConfig::wall_clock_budget_ms
  /// (0 = off, the default): a hung run quarantines as a SweepError instead
  /// of stalling the whole sweep.
  double run_budget_ms{0};

  /// Release-discovery mode forwarded to sim::SimConfig::timeline. The
  /// default kAuto shares one cached release timeline across every scheme
  /// variant of a set (attached by BatchRunner); kHeap forces the classic
  /// calendar heap -- the cross-check leg the SweepTimelineModes tests and
  /// CI use to prove the cached path bit-identical. MKSS_TIMELINE still
  /// overrides per process.
  sim::TimelineMode timeline{sim::TimelineMode::kAuto};
};

struct BinSummary {
  double bin_lo{0};
  double bin_hi{0};
  std::size_t sets{0};
  std::uint64_t attempts{0};
  /// Where this bin's generation attempts went (draw failures / out-of-bin /
  /// staged-filter rejects / exact-RTA rejects / accepts); the five stages
  /// sum to `attempts`, so accept-rate regressions show up in the sweep
  /// output instead of hiding inside a bigger attempt count.
  workload::GenCounters gen_counters;
  /// Per scheme: normalized-energy statistics (vs. the reference scheme on
  /// the same task set) and absolute energy units.
  std::vector<metrics::RunningStat> normalized;
  std::vector<metrics::RunningStat> absolute;
};

/// Factory for a fresh scheme instance per run (schemes are stateful).
using SchemeFactory = std::function<std::unique_ptr<sim::Scheme>()>;

/// Named scheme variant for ablation sweeps.
struct SchemeVariant {
  std::string name;
  SchemeFactory make;
  /// sched::Registry name when the variant is a registered scheme (empty
  /// otherwise, e.g. ablation configurations). Repro bundles record it so
  /// `mkss_cli replay` can rebuild the scheme; bundles of unregistered
  /// variants fall back to `name` and replay refuses them loudly.
  std::string registry_name{};
};

/// One quarantined per-run failure: the run threw (engine MKSS_CHECK, scheme
/// error) or its trace failed the audit. The indices plus `seed` name the
/// exact random streams, so `mkss_cli sweep` and tests can replay the run.
struct SweepError {
  std::size_t bin{0};
  std::size_t set{0};
  std::string variant;
  std::uint64_t seed{0};  ///< core::stream_seed(config.seed, bin, set)
  std::string message;
  std::string taskset;    ///< io::serialize_taskset of the offending set
};

struct SweepResult {
  std::vector<std::string> scheme_names;
  std::vector<BinSummary> bins;
  /// Task-set runs whose trace violated (m,k) or missed a mandatory job --
  /// must stay zero (Theorem 1).
  std::uint64_t qos_failures{0};
  /// Quarantined runs, in (bin, set, variant) index order -- deterministic
  /// for every thread count. Task sets with any errored variant are excluded
  /// from the bin statistics.
  std::vector<SweepError> errors;

  /// Largest mean relative gain of scheme `a` over scheme `b` across bins
  /// (indices into scheme_names), e.g. 0.28 for "up to 28% lower energy".
  double max_gain(std::size_t a, std::size_t b) const;

  /// Sum of the per-bin generation counters.
  workload::GenCounters generation_totals() const;

  /// Paper-style table: one row per bin, one column per scheme (normalized
  /// mean), plus set counts.
  report::Table to_table() const;
};

/// Runs the full sweep (generation, filtering, simulation, aggregation).
SweepResult run_sweep(const SweepConfig& config);

/// Ablation form: same generation/aggregation, but with arbitrary scheme
/// variants (the first variant is the normalization reference) and an
/// optional per-run SimConfig tweak hook.
SweepResult run_variant_sweep(const SweepConfig& config,
                              const std::vector<SchemeVariant>& variants);

}  // namespace mkss::harness
