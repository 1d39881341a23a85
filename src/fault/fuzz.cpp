#include "fault/fuzz.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/schedulability.hpp"
#include "audit/trace_auditor.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fault/injection.hpp"
#include "harness/batch_runner.hpp"
#include "harness/evaluation.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"

namespace mkss::fault {

namespace {

using core::Ticks;

/// Stream tag naming the fuzzer's per-iteration substreams; far outside the
/// sweep harness's (bin, set) plane so the two can share one --seed.
constexpr std::uint64_t kFuzzStream = 0x46555A5A;  // "FUZZ"

FaultMode draw_mode(core::Rng& rng) {
  const std::uint64_t r = rng.below(10);
  if (r == 0) return FaultMode::kNone;
  if (r <= 3) return FaultMode::kTransient;
  if (r <= 5) return FaultMode::kPermanent;
  if (r <= 7) return FaultMode::kBurst;
  return FaultMode::kCombined;
}

/// Poisson transients at rate `lambda_per_ms`: every copy of every job
/// released inside the horizon is hit independently with
/// p_i = 1 - exp(-lambda * C_i[ms]), drawn in (task, job, slot) order.
void add_poisson_transients(ExplicitFaultPlan& plan, const core::TaskSet& ts,
                            Ticks horizon, double lambda_per_ms,
                            core::Rng& rng) {
  for (core::TaskIndex i = 0; i < ts.size(); ++i) {
    const double p =
        1.0 - std::exp(-lambda_per_ms * core::to_ms(ts[i].wcet));
    for (std::uint64_t j = 1;
         static_cast<Ticks>(j - 1) * ts[i].period < horizon; ++j) {
      for (int slot = 0; slot < 2; ++slot) {
        if (rng.chance(p)) plan.add_transient({i, j}, slot);
      }
    }
  }
}

void add_permanent(ExplicitFaultPlan& plan, std::size_t procs, Ticks horizon,
                   core::Rng& rng) {
  sim::PermanentFault pf;
  pf.proc = static_cast<sim::ProcessorId>(rng.below(procs));
  pf.time = static_cast<Ticks>(rng.below(static_cast<std::uint64_t>(horizon)));
  plan.set_permanent(pf);
}

/// A storm on one task: up to k_i consecutive jobs lose the same copy slot.
void add_burst(ExplicitFaultPlan& plan, const core::TaskSet& ts, Ticks horizon,
               core::Rng& rng) {
  const core::TaskIndex i =
      static_cast<core::TaskIndex>(rng.below(ts.size()));
  const int slot = static_cast<int>(rng.below(2));
  const std::uint64_t released = static_cast<std::uint64_t>(
      (horizon + ts[i].period - 1) / ts[i].period);
  std::uint64_t len = 1 + rng.below(ts[i].k);
  if (len > released) len = released;
  const std::uint64_t start = 1 + rng.below(released - len + 1);
  for (std::uint64_t j = start; j < start + len; ++j) {
    plan.add_transient({i, j}, slot);
  }
}

ExplicitFaultPlan draw_plan(FaultMode mode, const core::TaskSet& ts,
                            Ticks horizon, std::size_t procs, core::Rng& rng) {
  ExplicitFaultPlan plan;
  switch (mode) {
    case FaultMode::kNone:
      break;
    case FaultMode::kTransient: {
      const double lambda = std::pow(10.0, rng.uniform(-3.0, -0.5));
      add_poisson_transients(plan, ts, horizon, lambda, rng);
      break;
    }
    case FaultMode::kPermanent:
      add_permanent(plan, procs, horizon, rng);
      break;
    case FaultMode::kBurst:
      add_burst(plan, ts, horizon, rng);
      break;
    case FaultMode::kCombined: {
      const double lambda = std::pow(10.0, rng.uniform(-3.0, -0.5));
      add_poisson_transients(plan, ts, horizon, lambda, rng);
      add_permanent(plan, procs, horizon, rng);
      break;
    }
  }
  return plan;
}

/// Per-iteration result slot; mode -1 records a draw failure.
struct IterOutcome {
  int mode{-1};
  std::uint64_t audited{0};
  std::vector<FuzzViolation> violations;
};

IterOutcome run_iteration(const FuzzConfig& config,
                          const std::vector<const sched::SchemeInfo*>& schemes,
                          std::uint64_t iter, harness::RunContext* ctx) {
  // Every random choice of the iteration comes from this one stream, drawn
  // in a fixed order -- the whole iteration is a pure function of
  // (config, iter), independent of which worker thread runs it.
  core::Rng rng(core::stream_seed(config.seed, kFuzzStream, iter));
  IterOutcome out;

  const std::size_t procs = config.procs[rng.below(config.procs.size())];
  const double target = rng.uniform(config.min_mk_util, config.max_mk_util);
  std::optional<core::TaskSet> ts;
  for (std::size_t a = 0; a < config.max_draw_attempts && !ts; ++a) {
    auto cand = workload::generate_taskset(config.gen, target, rng);
    if (cand && analysis::analyze_schedulability(*cand).r_pattern_feasible) {
      ts = std::move(cand);
    }
  }
  if (!ts) return out;

  const Ticks horizon = harness::choose_horizon(*ts, config.horizon_cap);
  const FaultMode mode = draw_mode(rng);
  out.mode = static_cast<int>(mode);
  const ExplicitFaultPlan plan = draw_plan(mode, *ts, horizon, procs, rng);

  for (const sched::SchemeInfo* info : schemes) {
    if (!info->supports(procs)) continue;
    ReproCase c;
    c.ts = *ts;
    c.scheme = info->name;
    c.platform = sim::PlatformSpec::standby(procs);
    c.horizon = horizon;
    c.plan = plan;
    c.run_budget_ms = config.run_budget_ms;
    const ReproVerdict v = check_repro(c, ctx);
    ++out.audited;
    if (v.violated) {
      FuzzViolation fv;
      fv.iteration = iter;
      fv.scheme = info->name;
      fv.mode = mode;
      fv.verdict = v;
      fv.repro = c;
      fv.minimal = std::move(c);
      fv.minimal_verdict = v;
      out.violations.push_back(std::move(fv));
    }
  }
  return out;
}

std::vector<const sched::SchemeInfo*> resolve_schemes(
    const FuzzConfig& config) {
  const sched::Registry& registry = sched::Registry::instance();
  if (config.schemes.empty()) return registry.all();
  std::vector<const sched::SchemeInfo*> out;
  out.reserve(config.schemes.size());
  for (const std::string& name : config.schemes) {
    out.push_back(&registry.resolve(name));
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    throw std::runtime_error("fuzz: cannot write repro bundle '" + path + "'");
  }
}

/// Writes the as-drawn bundle, plus a .min sibling when shrinking changed
/// anything, and records the paths on the violation.
void write_bundles(const std::string& dir, FuzzViolation& v) {
  char name[192];
  std::snprintf(name, sizeof name, "fuzz_run%06llu_%s.repro.txt",
                static_cast<unsigned long long>(v.iteration),
                v.scheme.c_str());
  const std::string full = serialize_repro_bundle(to_bundle(v.repro, v.verdict));
  v.bundle_path = (std::filesystem::path(dir) / name).string();
  write_file(v.bundle_path, full);

  const std::string minimal =
      serialize_repro_bundle(to_bundle(v.minimal, v.minimal_verdict));
  if (minimal != full) {
    std::snprintf(name, sizeof name, "fuzz_run%06llu_%s.min.repro.txt",
                  static_cast<unsigned long long>(v.iteration),
                  v.scheme.c_str());
    v.minimal_bundle_path = (std::filesystem::path(dir) / name).string();
    write_file(v.minimal_bundle_path, minimal);
  }
}

}  // namespace

const char* to_string(FaultMode mode) {
  switch (mode) {
    case FaultMode::kNone: return "none";
    case FaultMode::kTransient: return "transient";
    case FaultMode::kPermanent: return "permanent";
    case FaultMode::kBurst: return "burst";
    case FaultMode::kCombined: return "combined";
  }
  return "?";
}

FuzzResult run_fuzz(const FuzzConfig& config) {
  if (config.procs.empty()) {
    throw std::invalid_argument("fuzz: the platform pool is empty");
  }
  for (const std::size_t p : config.procs) {
    if (p < 2 || p > 255) {
      throw std::invalid_argument("fuzz: platform size " + std::to_string(p) +
                                  " is outside [2, 255]");
    }
  }
  const std::vector<const sched::SchemeInfo*> schemes =
      resolve_schemes(config);
  bool any_supported = false;
  for (const sched::SchemeInfo* info : schemes) {
    for (const std::size_t p : config.procs) {
      any_supported = any_supported || info->supports(p);
    }
  }
  if (!any_supported) {
    throw std::invalid_argument(
        "fuzz: no selected scheme supports any platform in the pool");
  }

  FuzzResult result;
  result.iterations = config.runs;
  for (const sched::SchemeInfo* info : schemes) {
    result.schemes.push_back(info->name);
  }

  const std::size_t n_threads =
      core::ThreadPool::resolve_num_threads(config.num_threads);
  std::unique_ptr<core::ThreadPool> pool;
  if (n_threads > 1 && config.runs > 1) {
    pool = std::make_unique<core::ThreadPool>(n_threads);
  }
  std::vector<IterOutcome> slots(config.runs);
  core::parallel_for(pool.get(), config.runs, [&](std::size_t iter) {
    thread_local harness::RunContext ctx;
    slots[iter] = run_iteration(config, schemes, iter, &ctx);
  });

  // Serial aggregation in iteration order: counters, shrinking and bundle
  // files come out identical for every thread count.
  if (!config.error_dir.empty()) {
    std::filesystem::create_directories(config.error_dir);
  }
  harness::RunContext shrink_ctx;
  for (std::uint64_t iter = 0; iter < config.runs; ++iter) {
    IterOutcome& slot = slots[iter];
    if (slot.mode < 0) {
      ++result.draw_failures;
    } else {
      ++result.mode_counts[static_cast<std::size_t>(slot.mode)];
    }
    result.audited_runs += slot.audited;
    for (FuzzViolation& v : slot.violations) {
      if (v.verdict.kind == "timeout") ++result.timeouts;
      if (config.shrink && v.verdict.kind != "timeout") {
        ShrinkResult s =
            shrink(v.repro, config.max_shrink_oracle_runs, &shrink_ctx);
        v.minimal = std::move(s.minimal);
        v.minimal_verdict = std::move(s.verdict);
        v.shrink_oracle_runs = s.oracle_runs;
      }
      if (!config.error_dir.empty()) {
        write_bundles(config.error_dir, v);
      }
      result.violations.push_back(std::move(v));
    }
  }
  return result;
}

io::ReproBundle to_bundle(const ReproCase& c, const ReproVerdict& v) {
  io::ReproBundle b;
  b.verdict = v.violated ? v.kind : "clean";
  b.scheme = c.scheme;
  b.procs = c.platform.num_procs();
  b.roles.clear();
  for (const sim::ProcRole role : c.platform.roles) {
    b.roles += role == sim::ProcRole::kStandby ? 'S' : 'W';
  }
  b.horizon = c.horizon;
  b.scenario_plan = false;
  b.permanent = c.plan.permanent();
  for (const auto& [job, slot] : c.plan.transients()) {
    b.transients.push_back({job.task, job.job, slot});
  }
  b.error = v.detail;
  b.ts = c.ts;
  return b;
}

ReproVerdict replay_bundle(const io::ReproBundle& bundle,
                           double run_budget_ms) {
  const sim::PlatformSpec platform = io::repro_platform(bundle);
  if (!bundle.scenario_plan) {
    ReproCase c;
    c.ts = bundle.ts;
    c.scheme = bundle.scheme;
    c.platform = platform;
    c.horizon = bundle.horizon;
    for (const io::ReproTransient& t : bundle.transients) {
      c.plan.add_transient({t.task, t.job}, t.slot);
    }
    if (bundle.permanent) c.plan.set_permanent(*bundle.permanent);
    c.run_budget_ms = run_budget_ms;
    return check_repro(c);
  }

  const std::optional<Scenario> scenario =
      scenario_from_string(bundle.scenario);
  if (!scenario) {
    throw std::invalid_argument("repro bundle: unknown scenario '" +
                                bundle.scenario + "'");
  }
  // Re-derive the plan exactly like the sweep harness drew it: a fresh Rng
  // from the recorded fault seed feeding make_scenario_plan.
  core::Rng rng(bundle.fault_seed);
  const std::unique_ptr<sim::FaultPlan> plan = make_scenario_plan(
      *scenario, bundle.ts, bundle.horizon, bundle.lambda_per_ms, rng);
  sim::SimConfig cfg;
  cfg.horizon = bundle.horizon;
  cfg.platform = platform;
  cfg.wall_clock_budget_ms = run_budget_ms;
  audit::AuditOptions options;
  options.check_mk = *scenario != Scenario::kPermanentAndTransient;
  return audited_verdict(bundle.ts, bundle.scheme, cfg, *plan, options);
}

std::string FuzzResult::summary() const {
  std::ostringstream out;
  out << "fuzz: " << iterations << " iteration(s), " << audited_runs
      << " audited run(s) across " << schemes.size() << " scheme(s)";
  if (!schemes.empty()) {
    out << " [";
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      out << (i ? ", " : "") << schemes[i];
    }
    out << "]";
  }
  out << "\nmodes:";
  for (std::size_t i = 0; i < kNumFaultModes; ++i) {
    out << (i ? " | " : " ") << to_string(static_cast<FaultMode>(i)) << " "
        << mode_counts[i];
  }
  out << "; draw failures: " << draw_failures;
  out << "\nviolations: " << violations.size();
  if (timeouts > 0) out << " (" << timeouts << " timeout(s))";
  out << "\n";
  for (const FuzzViolation& v : violations) {
    char iter[32];
    std::snprintf(iter, sizeof iter, "%06llu",
                  static_cast<unsigned long long>(v.iteration));
    out << "  [iter " << iter << "] " << v.scheme << ", mode "
        << to_string(v.mode) << ": " << v.verdict.kind;
    if (!v.verdict.invariant.empty()) out << " (" << v.verdict.invariant << ")";
    out << "\n";
    if (!v.bundle_path.empty()) {
      out << "    bundle: " << v.bundle_path << "\n";
    }
    if (!v.minimal_bundle_path.empty()) {
      out << "    minimal: " << v.minimal.ts.size() << " task(s), "
          << v.minimal.plan.transients().size() << " transient hit(s)"
          << (v.minimal.plan.permanent() ? ", permanent" : "") << " ("
          << v.shrink_oracle_runs << " oracle runs) -> "
          << v.minimal_bundle_path << "\n";
    }
  }
  return out.str();
}

}  // namespace mkss::fault
