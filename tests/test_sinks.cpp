// Equivalence tests: the trace-free StatsSink must reproduce the full-trace
// path (account_energy + audit_qos over a materialized SimulationTrace)
// bit for bit -- on single runs across fault plans, DPD parameters and DVS,
// and through the sweep harness across sink kinds and thread counts.
#include <gtest/gtest.h>

#include <memory>

#include "energy/energy_model.hpp"
#include "fault/injection.hpp"
#include "harness/batch_runner.hpp"
#include "harness/evaluation.hpp"
#include "metrics/qos.hpp"
#include "sched/factory.hpp"
#include "sched/mkss_dp.hpp"
#include "workload/scenarios.hpp"
#include "workload/taskset_gen.hpp"

namespace mkss {
namespace {

using core::TaskSet;
using core::from_ms;

void expect_same_energy(const energy::EnergyBreakdown& full,
                        const energy::EnergyBreakdown& lean) {
  ASSERT_EQ(full.per_proc.size(), lean.per_proc.size());
  for (std::size_t p = 0; p < full.per_proc.size(); ++p) {
    SCOPED_TRACE("processor " + std::to_string(p));
    const auto& a = full.per_proc[p];
    const auto& b = lean.per_proc[p];
    EXPECT_EQ(a.active, b.active);  // exact: the claim is bit-identity
    EXPECT_EQ(a.idle, b.idle);
    EXPECT_EQ(a.transition, b.transition);
    EXPECT_EQ(a.sleep, b.sleep);
    EXPECT_EQ(a.busy_time, b.busy_time);
    EXPECT_EQ(a.idle_time, b.idle_time);
    EXPECT_EQ(a.slept_time, b.slept_time);
  }
}

void expect_same_qos(const metrics::QosReport& full,
                     const metrics::QosReport& lean) {
  EXPECT_EQ(full.mk_satisfied, lean.mk_satisfied);
  EXPECT_EQ(full.mandatory_misses, lean.mandatory_misses);
  ASSERT_EQ(full.per_task.size(), lean.per_task.size());
  for (std::size_t i = 0; i < full.per_task.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(full.per_task[i].jobs, lean.per_task[i].jobs);
    EXPECT_EQ(full.per_task[i].met, lean.per_task[i].met);
    EXPECT_EQ(full.per_task[i].missed, lean.per_task[i].missed);
    EXPECT_EQ(full.per_task[i].violation.has_value(),
              lean.per_task[i].violation.has_value());
  }
}

/// Runs the same (set, scheme kind, fault plan, power) once through each
/// sink -- a fresh scheme instance per run, schemes are stateful -- and
/// compares energy, QoS and every SimStats counter exactly: the sink must not
/// change which events the engine processes.
void expect_sinks_agree(const TaskSet& ts, sched::SchemeKind kind,
                        const sim::FaultPlan& faults, const sim::SimConfig& cfg,
                        const energy::PowerParams& power) {
  harness::RunContext ctx;
  harness::BatchRunner runner(ts, &ctx);

  const auto full_scheme = sched::make_scheme(kind);
  runner.bind(*full_scheme);
  const sim::SimulationTrace& trace = runner.run_full(*full_scheme, faults, cfg);
  const energy::EnergyBreakdown full_energy = energy::account_energy(trace, power);
  const metrics::QosReport full_qos = metrics::audit_qos(trace, ts);
  const sim::SimStats full_stats = trace.stats;

  const auto lean_scheme = sched::make_scheme(kind);
  runner.bind(*lean_scheme);
  const sim::StatsSink& stats = runner.run_stats(*lean_scheme, faults, cfg, power);

  expect_same_energy(full_energy, stats.energy());
  expect_same_qos(full_qos, stats.qos());
  EXPECT_EQ(full_stats, stats.stats());
}

sim::SimConfig config_ms(std::int64_t horizon_ms) {
  sim::SimConfig cfg;
  cfg.horizon = from_ms(horizon_ms);
  return cfg;
}

const std::array<sched::SchemeKind, 4> kAllSchemes = {
    sched::SchemeKind::kSt, sched::SchemeKind::kDp, sched::SchemeKind::kGreedy,
    sched::SchemeKind::kSelective};

TEST(Sinks, StatsMatchesFullTraceFaultFree) {
  const auto ts = workload::paper_fig1_taskset();
  const sim::NoFaultPlan nofault;
  for (const auto kind : kAllSchemes) {
    SCOPED_TRACE(sched::to_string(kind));
    expect_sinks_agree(ts, kind, nofault, config_ms(40), {});
  }
}

TEST(Sinks, StatsMatchesFullTraceUnderPermanentFault) {
  const auto ts = workload::paper_fig1_taskset();
  for (const auto proc : {sim::kPrimary, sim::kSpare}) {
    const fault::ScenarioFaultPlan plan(
        sim::PermanentFault{proc, from_ms(std::int64_t{7})},
        std::vector<double>{}, 1);
    for (const auto kind : kAllSchemes) {
      SCOPED_TRACE(sched::to_string(kind));
      expect_sinks_agree(ts, kind, plan, config_ms(40), {});
    }
  }
}

TEST(Sinks, StatsMatchesFullTraceUnderTransients) {
  const auto ts = workload::paper_fig1_taskset();
  const fault::ScenarioFaultPlan plan(
      std::nullopt, fault::transient_probabilities(ts, 1e-2), 42);
  for (const auto kind : kAllSchemes) {
    SCOPED_TRACE(sched::to_string(kind));
    expect_sinks_agree(ts, kind, plan, config_ms(100), {});
  }
}

TEST(Sinks, StatsMatchesFullTraceWithDpdAndLeakage) {
  const auto ts = workload::paper_fig1_taskset();
  const sim::NoFaultPlan nofault;
  energy::PowerParams power;
  power.p_idle = 0.2;
  power.p_sleep = 0.02;
  power.p_static = 0.3;
  power.break_even = from_ms(std::int64_t{2});
  sim::SimConfig cfg = config_ms(40);
  cfg.break_even = power.break_even;
  for (const auto kind : kAllSchemes) {
    SCOPED_TRACE(sched::to_string(kind));
    expect_sinks_agree(ts, kind, nofault, cfg, power);
  }
}

TEST(Sinks, StatsMatchesFullTraceWithDvsFrequencies) {
  // A DVS-enabled scheme emits segments at f < 1; the online accumulator
  // must charge power_at(f) exactly like account_energy.
  const TaskSet ts({core::Task::from_ms(20, 20, 2, 1, 2),
                    core::Task::from_ms(40, 40, 3, 1, 2)});
  const sim::NoFaultPlan nofault;
  energy::PowerParams power;
  power.p_static = 0.05;
  harness::RunContext ctx;
  harness::BatchRunner runner(ts, &ctx);
  const sim::SimConfig cfg = config_ms(80);

  sched::DpOptions opts;
  opts.dvs.enabled = true;
  sched::MkssDp full_scheme(opts);
  runner.bind(full_scheme);
  const sim::SimulationTrace& trace = runner.run_full(full_scheme, nofault, cfg);
  ASSERT_LT(full_scheme.main_frequency(), 1.0);
  const auto full_energy = energy::account_energy(trace, power);
  const auto full_qos = metrics::audit_qos(trace, ts);
  const sim::SimStats full_stats = trace.stats;

  sched::MkssDp lean_scheme(opts);
  runner.bind(lean_scheme);
  const sim::StatsSink& stats = runner.run_stats(lean_scheme, nofault, cfg, power);
  expect_same_energy(full_energy, stats.energy());
  expect_same_qos(full_qos, stats.qos());
  EXPECT_EQ(full_stats, stats.stats());
}

TEST(Sinks, StatsMatchesFullTraceOnRandomizedSets) {
  workload::GenParams params;
  const auto batch = workload::generate_bin(params, 0.3, 0.4, 4, 2000, 7, 0);
  ASSERT_FALSE(batch.sets.empty());
  const fault::ScenarioFaultPlan plan(
      sim::PermanentFault{sim::kPrimary, from_ms(std::int64_t{500})},
      std::vector<double>{}, 3);
  for (const auto& ts : batch.sets) {
    for (const auto kind : kAllSchemes) {
      SCOPED_TRACE(ts.describe() + " / " + sched::to_string(kind));
      expect_sinks_agree(ts, kind, plan, config_ms(1000), {});
    }
  }
}

// --- Sweep-level equivalence --------------------------------------------

void expect_same_sweep(const harness::SweepResult& a,
                       const harness::SweepResult& b) {
  EXPECT_EQ(a.qos_failures, b.qos_failures);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (std::size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].bin, b.errors[i].bin);
    EXPECT_EQ(a.errors[i].set, b.errors[i].set);
    EXPECT_EQ(a.errors[i].variant, b.errors[i].variant);
    EXPECT_EQ(a.errors[i].message, b.errors[i].message);
  }
  ASSERT_EQ(a.bins.size(), b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    SCOPED_TRACE("bin " + std::to_string(i));
    EXPECT_EQ(a.bins[i].sets, b.bins[i].sets);
    EXPECT_EQ(a.bins[i].attempts, b.bins[i].attempts);
    ASSERT_EQ(a.bins[i].normalized.size(), b.bins[i].normalized.size());
    for (std::size_t s = 0; s < a.bins[i].normalized.size(); ++s) {
      SCOPED_TRACE("scheme " + std::to_string(s));
      EXPECT_EQ(a.bins[i].normalized[s].mean(), b.bins[i].normalized[s].mean());
      EXPECT_EQ(a.bins[i].normalized[s].stddev(),
                b.bins[i].normalized[s].stddev());
      EXPECT_EQ(a.bins[i].absolute[s].mean(), b.bins[i].absolute[s].mean());
    }
  }
}

harness::SweepConfig small_sweep() {
  harness::SweepConfig cfg;
  cfg.bin_starts = {0.2, 0.4};
  cfg.sets_per_bin = 3;
  cfg.max_attempts_per_bin = 2000;
  cfg.horizon_cap = from_ms(std::int64_t{2000});
  return cfg;
}

TEST(Sinks, SweepStatsSinkBitIdenticalAcrossSinkAndThreadCounts) {
  // An audited sweep materializes full traces; with the audit off the runs
  // take the lean StatsSink path. Nothing gets quarantined here, so the two
  // must agree bit for bit, serial or pooled.
  auto ref_cfg = small_sweep();
  ref_cfg.audit = true;
  ref_cfg.num_threads = 1;
  const auto reference = harness::run_sweep(ref_cfg);
  ASSERT_TRUE(reference.errors.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto cfg = small_sweep();
    cfg.audit = false;
    cfg.num_threads = threads;
    expect_same_sweep(reference, harness::run_sweep(cfg));
  }
}

TEST(Sinks, AuditedFullTraceSweepMatchesLeanSweep) {
  // The same contract under a permanent fault per set, so the statistics of
  // both sinks also cover backup execution and degraded-mode runs.
  auto audited_cfg = small_sweep();
  audited_cfg.scenario = fault::Scenario::kPermanentOnly;
  audited_cfg.audit = true;
  const auto audited = harness::run_sweep(audited_cfg);
  ASSERT_TRUE(audited.errors.empty());

  auto lean_cfg = audited_cfg;
  lean_cfg.audit = false;
  expect_same_sweep(audited, harness::run_sweep(lean_cfg));
}

}  // namespace
}  // namespace mkss
