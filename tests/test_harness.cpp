// Unit + integration tests: the evaluation harness (run_one, horizon choice,
// small sweeps, error quarantine).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "harness/evaluation.hpp"
#include "io/taskset_io.hpp"
#include "workload/scenarios.hpp"

namespace mkss::harness {
namespace {

TEST(RunOne, ProducesConsistentEnergyAndQos) {
  const auto ts = workload::paper_fig1_taskset();
  sim::SimConfig cfg;
  cfg.horizon = core::from_ms(std::int64_t{20});
  const auto run = run_one({.ts = ts, .kind = sched::SchemeKind::kDp, .sim = cfg});
  EXPECT_DOUBLE_EQ(run.energy.active_total(), 15.0);
  EXPECT_TRUE(run.qos.theorem1_holds());
  EXPECT_EQ(run.trace.horizon, cfg.horizon);
}

TEST(RunOne, ActiveEnergyEqualsBusyTime) {
  const auto ts = workload::paper_fig1_taskset();
  sim::SimConfig cfg;
  cfg.horizon = core::from_ms(std::int64_t{20});
  for (const auto kind : {sched::SchemeKind::kSt, sched::SchemeKind::kDp,
                          sched::SchemeKind::kGreedy, sched::SchemeKind::kSelective}) {
    const auto run = run_one({.ts = ts, .kind = kind, .sim = cfg});
    const double busy_ms = core::to_ms(run.trace.busy_time[sim::kPrimary] +
                                       run.trace.busy_time[sim::kSpare]);
    EXPECT_DOUBLE_EQ(run.energy.active_total(), busy_ms) << sched::to_string(kind);
  }
}

TEST(ChooseHorizon, UsesPatternHyperperiodWhenSmall) {
  const auto ts = workload::paper_fig1_taskset();  // mk hyperperiod 20ms
  EXPECT_EQ(choose_horizon(ts, core::from_ms(std::int64_t{1000})),
            core::from_ms(std::int64_t{20}));
}

TEST(ChooseHorizon, FallsBackToCap) {
  const auto ts = workload::paper_fig1_taskset();
  EXPECT_EQ(choose_horizon(ts, core::from_ms(std::int64_t{15})),
            core::from_ms(std::int64_t{15}));
}

TEST(Sweep, SmallNoFaultSweepHasPaperShape) {
  SweepConfig cfg;
  cfg.bin_starts = {0.2, 0.4};
  cfg.sets_per_bin = 6;
  cfg.max_attempts_per_bin = 3000;
  cfg.horizon_cap = core::from_ms(std::int64_t{2000});
  const auto result = run_sweep(cfg);

  ASSERT_EQ(result.scheme_names.size(), 3u);
  EXPECT_EQ(result.scheme_names[0], "MKSS_ST");
  EXPECT_EQ(result.qos_failures, 0u);
  ASSERT_EQ(result.bins.size(), 2u);
  for (const auto& bin : result.bins) {
    if (bin.sets == 0) continue;
    const double st = bin.normalized[0].mean();
    const double dp = bin.normalized[1].mean();
    const double sel = bin.normalized[2].mean();
    EXPECT_DOUBLE_EQ(st, 1.0);
    EXPECT_LT(dp, st);
    EXPECT_LT(sel, dp);  // the headline ordering of Figure 6
  }
  EXPECT_GT(result.max_gain(2, 1), 0.0);
}

TEST(Sweep, TableHasOneRowPerBin) {
  SweepConfig cfg;
  cfg.bin_starts = {0.3};
  cfg.sets_per_bin = 3;
  cfg.max_attempts_per_bin = 2000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  const auto result = run_sweep(cfg);
  const auto table = result.to_table();
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_NE(table.to_string().find("MKSS_selective"), std::string::npos);
}

TEST(Sweep, DeterministicForFixedSeed) {
  SweepConfig cfg;
  cfg.bin_starts = {0.3};
  cfg.sets_per_bin = 4;
  cfg.max_attempts_per_bin = 2000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  const auto a = run_sweep(cfg);
  const auto b = run_sweep(cfg);
  ASSERT_EQ(a.bins.size(), b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(a.bins[i].sets, b.bins[i].sets);
    for (std::size_t s = 0; s < a.scheme_names.size(); ++s) {
      EXPECT_DOUBLE_EQ(a.bins[i].normalized[s].mean(), b.bins[i].normalized[s].mean());
    }
  }
}

TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  // The determinism contract of the parallel harness: every random stream
  // is named by (seed, bin_index, set_index), and aggregation happens in
  // set-index order after a barrier -- so any thread count must reproduce
  // the serial result bit-for-bit, attempts and all.
  SweepConfig cfg;
  cfg.bin_starts = {0.2, 0.4};
  cfg.sets_per_bin = 5;
  cfg.max_attempts_per_bin = 3000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  cfg.scenario = fault::Scenario::kPermanentAndTransient;
  cfg.lambda_per_ms = 1e-4;  // 100x the paper's rate: the transient stream
                             // matters, but backups stay effectively safe

  cfg.num_threads = 1;
  const auto serial = run_sweep(cfg);
  EXPECT_EQ(serial.qos_failures, 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    cfg.num_threads = threads;
    const auto parallel = run_sweep(cfg);
    EXPECT_EQ(parallel.qos_failures, 0u);
    ASSERT_EQ(parallel.bins.size(), serial.bins.size()) << threads;
    for (std::size_t b = 0; b < serial.bins.size(); ++b) {
      const auto& sb = serial.bins[b];
      const auto& pb = parallel.bins[b];
      EXPECT_EQ(pb.sets, sb.sets) << threads;
      EXPECT_EQ(pb.attempts, sb.attempts) << threads;
      EXPECT_EQ(pb.gen_counters, sb.gen_counters) << threads;
      ASSERT_EQ(pb.normalized.size(), sb.normalized.size());
      for (std::size_t s = 0; s < sb.normalized.size(); ++s) {
        // Bit-identical, not just close: same streams, same fp order.
        EXPECT_EQ(pb.normalized[s].mean(), sb.normalized[s].mean());
        EXPECT_EQ(pb.normalized[s].stddev(), sb.normalized[s].stddev());
        EXPECT_EQ(pb.normalized[s].min(), sb.normalized[s].min());
        EXPECT_EQ(pb.normalized[s].max(), sb.normalized[s].max());
        EXPECT_EQ(pb.absolute[s].mean(), sb.absolute[s].mean());
      }
    }
    EXPECT_EQ(parallel.to_table().to_csv(), serial.to_table().to_csv());
  }
}

TEST(Sweep, TableRecordsGenerationAttempts) {
  SweepConfig cfg;
  cfg.bin_starts = {0.3};
  cfg.sets_per_bin = 3;
  cfg.max_attempts_per_bin = 2000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  const auto result = run_sweep(cfg);
  ASSERT_EQ(result.bins.size(), 1u);
  EXPECT_GE(result.bins[0].attempts, result.bins[0].sets);
  const auto csv = result.to_table().to_csv();
  EXPECT_NE(csv.find("attempts"), std::string::npos);
  EXPECT_NE(csv.find(std::to_string(result.bins[0].attempts)),
            std::string::npos);
}

TEST(Sweep, SurfacesGenerationStageCounters) {
  SweepConfig cfg;
  cfg.bin_starts = {0.2, 0.4};
  cfg.sets_per_bin = 4;
  cfg.max_attempts_per_bin = 3000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  const auto result = run_sweep(cfg);
  ASSERT_EQ(result.bins.size(), 2u);
  for (const auto& bin : result.bins) {
    const workload::GenCounters& c = bin.gen_counters;
    // Every attempt exits through exactly one stage.
    EXPECT_EQ(c.draw_failures + c.out_of_bin + c.filter_rejects +
                  c.rta_rejects + c.accepted,
              bin.attempts);
    EXPECT_EQ(c.accepted, bin.sets);
  }
  const auto totals = result.generation_totals();
  EXPECT_EQ(totals.accepted, result.bins[0].sets + result.bins[1].sets);
  EXPECT_NE(result.to_table().to_csv().find("rejects draw/bin/filter/rta"),
            std::string::npos);
}

TEST(Sweep, PermanentFaultScenarioStillSatisfiesTheorem1) {
  SweepConfig cfg;
  cfg.bin_starts = {0.3};
  cfg.sets_per_bin = 5;
  cfg.max_attempts_per_bin = 3000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  cfg.scenario = fault::Scenario::kPermanentOnly;
  const auto result = run_sweep(cfg);
  EXPECT_EQ(result.qos_failures, 0u);
}

/// Variant that always throws during setup: the deterministic way to exercise
/// the sweep's error quarantine without depending on a real scheme bug.
class ThrowingScheme final : public sim::Scheme {
 public:
  std::string name() const override { return "boom"; }
  void setup(const core::TaskSet&) override {
    throw std::runtime_error("boom: scripted scheme failure");
  }
  sim::ReleaseDecision on_release(core::TaskIndex, std::uint64_t,
                                  core::Ticks) override {
    return sim::ReleaseDecision::skip();
  }
  void on_outcome(core::TaskIndex, std::uint64_t, core::JobOutcome) override {}
  void on_permanent_fault(sim::ProcessorId, core::Ticks) override {}
  std::optional<sim::CopySpec> reroute_on_death(const core::Job&, bool,
                                                sim::ProcessorId, core::Ticks,
                                                core::Ticks) override {
    return std::nullopt;
  }
};

/// MKSS_ST with every backup silently dropped and no re-routing: fine under
/// no faults, but any fault on a mandatory main becomes an unexplained miss
/// the attached auditor must quarantine.
class NoBackupScheme final : public sim::Scheme {
 public:
  std::string name() const override { return "st-no-backup"; }
  void setup(const core::TaskSet& ts) override { inner_->setup(ts); }
  sim::ReleaseDecision on_release(core::TaskIndex i, std::uint64_t j,
                                  core::Ticks release) override {
    sim::ReleaseDecision d = inner_->on_release(i, j, release);
    d.copies.erase_if([](const sim::CopySpec& c) {
      return c.kind == sim::CopyKind::kBackup;
    });
    return d;
  }
  void on_outcome(core::TaskIndex i, std::uint64_t j,
                  core::JobOutcome o) override {
    inner_->on_outcome(i, j, o);
  }
  void on_permanent_fault(sim::ProcessorId dead, core::Ticks now) override {
    inner_->on_permanent_fault(dead, now);
  }
  std::optional<sim::CopySpec> reroute_on_death(const core::Job&, bool,
                                                sim::ProcessorId, core::Ticks,
                                                core::Ticks) override {
    return std::nullopt;
  }

 private:
  std::unique_ptr<sim::Scheme> inner_ =
      sched::make_scheme(sched::SchemeKind::kSt);
};

std::vector<SchemeVariant> reference_plus_boom() {
  return {{"MKSS_ST", [] { return sched::make_scheme(sched::SchemeKind::kSt); }},
          {"boom", [] { return std::make_unique<ThrowingScheme>(); }}};
}

TEST(Sweep, QuarantinesThrowingVariantWithoutAborting) {
  SweepConfig cfg;
  cfg.bin_starts = {0.3};
  cfg.sets_per_bin = 3;
  cfg.max_attempts_per_bin = 2000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  const auto result = run_variant_sweep(cfg, reference_plus_boom());

  ASSERT_FALSE(result.errors.empty());
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    const SweepError& e = result.errors[i];
    EXPECT_EQ(e.variant, "boom");
    EXPECT_EQ(e.bin, 0u);
    EXPECT_EQ(e.set, i);  // quarantine order is (bin, set, variant) order
    EXPECT_EQ(e.seed, core::stream_seed(cfg.seed, 0, i));
    EXPECT_NE(e.message.find("boom"), std::string::npos);
    EXPECT_NO_THROW(io::parse_taskset_string(e.taskset));
  }
  // Every set has an errored variant, so the bin keeps no statistics.
  ASSERT_EQ(result.bins.size(), 1u);
  EXPECT_EQ(result.bins[0].sets, 0u);
}

TEST(Sweep, ErrorDirReceivesParseableReproBundles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mkss_sweep_errors_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  SweepConfig cfg;
  cfg.bin_starts = {0.3};
  cfg.sets_per_bin = 2;
  cfg.max_attempts_per_bin = 2000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  cfg.error_dir = dir.string();
  const auto result = run_variant_sweep(cfg, reference_plus_boom());

  ASSERT_FALSE(result.errors.empty());
  for (const SweepError& e : result.errors) {
    const fs::path bundle = dir / ("bin" + std::to_string(e.bin) + "_set" +
                                   std::to_string(e.set) + "_" + e.variant +
                                   ".repro.txt");
    ASSERT_TRUE(fs::exists(bundle)) << bundle;
    // The bundle parses as a task-set file and names the quarantined set.
    const core::TaskSet repro = io::parse_taskset_file(bundle.string());
    EXPECT_EQ(io::serialize_taskset(repro), e.taskset);
  }
  fs::remove_all(dir);
}

TEST(Sweep, QuarantineIsBitIdenticalAcrossThreadCounts) {
  // Errors live in the same disjoint per-(set, variant) slots as the
  // statistics and are collected in index order, so the quarantine report
  // must be byte-identical for every thread count.
  SweepConfig cfg;
  cfg.bin_starts = {0.2, 0.4};
  cfg.sets_per_bin = 4;
  cfg.max_attempts_per_bin = 3000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});

  cfg.num_threads = 1;
  const auto serial = run_variant_sweep(cfg, reference_plus_boom());
  ASSERT_FALSE(serial.errors.empty());

  cfg.num_threads = 4;
  const auto parallel = run_variant_sweep(cfg, reference_plus_boom());
  ASSERT_EQ(parallel.errors.size(), serial.errors.size());
  for (std::size_t i = 0; i < serial.errors.size(); ++i) {
    EXPECT_EQ(parallel.errors[i].bin, serial.errors[i].bin);
    EXPECT_EQ(parallel.errors[i].set, serial.errors[i].set);
    EXPECT_EQ(parallel.errors[i].variant, serial.errors[i].variant);
    EXPECT_EQ(parallel.errors[i].seed, serial.errors[i].seed);
    EXPECT_EQ(parallel.errors[i].message, serial.errors[i].message);
    EXPECT_EQ(parallel.errors[i].taskset, serial.errors[i].taskset);
  }
  EXPECT_EQ(parallel.to_table().to_csv(), serial.to_table().to_csv());
}

TEST(Sweep, AuditQuarantinesSchemeThatDropsBackups) {
  // End to end: the broken variant sails through generation and simulation,
  // and only the attached auditor catches it -- as an unexplained mandatory
  // miss once faults strike -- without disturbing the reference scheme.
  SweepConfig cfg;
  cfg.bin_starts = {0.3};
  cfg.sets_per_bin = 4;
  cfg.max_attempts_per_bin = 3000;
  cfg.horizon_cap = core::from_ms(std::int64_t{1000});
  cfg.scenario = fault::Scenario::kPermanentAndTransient;
  cfg.lambda_per_ms = 0.05;  // aggressive: mains do draw transients
  const std::vector<SchemeVariant> variants{
      {"MKSS_ST", [] { return sched::make_scheme(sched::SchemeKind::kSt); }},
      {"st-no-backup", [] { return std::make_unique<NoBackupScheme>(); }}};
  const auto result = run_variant_sweep(cfg, variants);

  ASSERT_FALSE(result.errors.empty());
  bool saw_mandatory_miss = false;
  for (const SweepError& e : result.errors) {
    EXPECT_EQ(e.variant, "st-no-backup");  // the real scheme stays clean
    saw_mandatory_miss |=
        e.message.find("mandatory-miss") != std::string::npos;
  }
  EXPECT_TRUE(saw_mandatory_miss);
}

}  // namespace
}  // namespace mkss::harness
