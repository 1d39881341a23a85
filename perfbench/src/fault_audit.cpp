// Workload fault_audit: the per-case path of fuzz, campaign, replay and
// shrink -- fault::check_repro (full trace + TraceAuditor) -- over seeded
// cases.
//
// Case i draws from core::Rng(core::stream_seed(--seed, kCaseStream, i)): a
// platform PlatformSpec::standby(2..4), an R-pattern-feasible generated set
// (3-6 tasks, periods <= 20 ms), a horizon capped at 300 ms, and one of the
// five fault processes (none, Poisson transients, permanent, burst,
// combined; case i uses process i mod 5) built with ExplicitFaultPlan. Every
// registered scheme that supports the platform runs the case, except DP on a
// plan with a permanent fault, where the program has a known defect
// (known_defects.hpp) and a workload must not fail operations. Drawing the
// cases is set-up, done kSetupRuns times and timed as the median draw; the
// timed phase cycles through the cases in order until --seconds have passed.
//
// Output checks: every check_repro verdict is clean; a violated one also
// counts as a failed operation and is shown with its case. A replay of the
// runs through the layer functions reaches the same verdict, kind and first
// invariant, as check_repro did on every replayed run.
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "known_defects.hpp"
#include "layers.hpp"
#include "mkss.hpp"

namespace perfbench {

namespace {

using namespace mkss;
using core::Ticks;

constexpr std::uint64_t kCaseStream = 0x46415544;  // "FAUD"
/// Cases drawn in set-up. The timed phase cycles through them; the pool is
/// four times the content caches' 4096 entries, so a case comes round again
/// only after its cached analyses and timelines were evicted.
constexpr std::size_t kCases = 16384;
/// Times the case pool is drawn in set-up; setup_s is the median draw.
constexpr std::size_t kSetupRuns = 5;
/// Cases per throughput sample.
constexpr std::size_t kBatchCases = 100;
/// Runs the untraced output check replays.
constexpr std::size_t kCheckRuns = 2000;
constexpr double kRunBudgetMs = 10000;

enum class Process { kNone, kTransient, kPermanent, kBurst, kCombined };

struct Case {
  fault::ReproCase repro;
  Process process{Process::kNone};
  std::vector<const sched::SchemeInfo*> schemes;
};

void add_poisson_transients(fault::ExplicitFaultPlan& plan,
                            const core::TaskSet& ts, Ticks horizon,
                            core::Rng& rng) {
  const double lambda_per_ms = std::pow(10.0, rng.uniform(-3.0, -0.5));
  for (core::TaskIndex i = 0; i < ts.size(); ++i) {
    const double p = 1.0 - std::exp(-lambda_per_ms * core::to_ms(ts[i].wcet));
    for (std::uint64_t j = 1; static_cast<Ticks>(j - 1) * ts[i].period < horizon;
         ++j) {
      for (int slot = 0; slot < 2; ++slot) {
        if (rng.chance(p)) plan.add_transient({i, j}, slot);
      }
    }
  }
}

void add_permanent(fault::ExplicitFaultPlan& plan, std::size_t procs,
                   Ticks horizon, core::Rng& rng) {
  sim::PermanentFault pf;
  pf.proc = static_cast<sim::ProcessorId>(rng.below(procs));
  pf.time = static_cast<Ticks>(rng.below(static_cast<std::uint64_t>(horizon)));
  plan.set_permanent(pf);
}

/// Up to k_i consecutive jobs of one task lose the same copy slot.
void add_burst(fault::ExplicitFaultPlan& plan, const core::TaskSet& ts,
               Ticks horizon, core::Rng& rng) {
  const auto i = static_cast<core::TaskIndex>(rng.below(ts.size()));
  const int slot = static_cast<int>(rng.below(2));
  const auto released =
      static_cast<std::uint64_t>((horizon + ts[i].period - 1) / ts[i].period);
  std::uint64_t len = 1 + rng.below(ts[i].k);
  if (len > released) len = released;
  const std::uint64_t start = 1 + rng.below(released - len + 1);
  for (std::uint64_t j = start; j < start + len; ++j) {
    plan.add_transient({i, j}, slot);
  }
}

std::optional<Case> draw_case(std::uint64_t seed, std::uint64_t index) {
  core::Rng rng(core::stream_seed(seed, kCaseStream, index));
  const std::size_t procs = 2 + rng.below(3);
  const double target = rng.uniform(0.15, 0.70);
  const workload::GenParams gen{.min_tasks = 3, .max_tasks = 6,
                                .max_period_ms = 20, .max_k = 6};
  std::optional<core::TaskSet> ts;
  for (int a = 0; a < 200 && !ts; ++a) {
    auto cand = workload::generate_taskset(gen, target, rng);
    if (cand && analysis::analyze_schedulability(*cand).r_pattern_feasible) {
      ts = std::move(cand);
    }
  }
  if (!ts) return std::nullopt;

  Case c;
  c.process = static_cast<Process>(index % 5);
  c.repro.ts = std::move(*ts);
  c.repro.platform = sim::PlatformSpec::standby(procs);
  c.repro.horizon =
      harness::choose_horizon(c.repro.ts, core::from_ms(std::int64_t{300}));
  c.repro.run_budget_ms = kRunBudgetMs;
  const Ticks horizon = c.repro.horizon;
  switch (c.process) {
    case Process::kNone:
      break;
    case Process::kTransient:
      add_poisson_transients(c.repro.plan, c.repro.ts, horizon, rng);
      break;
    case Process::kPermanent:
      add_permanent(c.repro.plan, procs, horizon, rng);
      break;
    case Process::kBurst:
      add_burst(c.repro.plan, c.repro.ts, horizon, rng);
      break;
    case Process::kCombined:
      add_poisson_transients(c.repro.plan, c.repro.ts, horizon, rng);
      add_permanent(c.repro.plan, procs, horizon, rng);
      break;
  }
  const bool permanent = c.repro.plan.permanent().has_value();
  for (const sched::SchemeInfo* info : sched::Registry::instance().all()) {
    if (permanent && info->name == "dp") continue;  // the known defect
    if (info->supports(procs)) c.schemes.push_back(info);
  }
  return c;
}

/// The case pool of kCases cases; `draw_failures` counts indices whose draw
/// found no feasible set.
std::vector<Case> draw_pool(std::uint64_t seed, std::uint64_t& draw_failures) {
  std::vector<Case> cases;
  cases.reserve(kCases);
  draw_failures = 0;
  for (std::uint64_t index = 0; cases.size() < kCases; ++index) {
    std::optional<Case> c = draw_case(seed, index);
    if (c) {
      cases.push_back(std::move(*c));
    } else {
      ++draw_failures;
    }
  }
  return cases;
}

struct Run {
  std::uint32_t case_index{0};
  std::uint32_t scheme_index{0};
  /// "kind invariant" of a violated verdict; empty when clean.
  std::string violation;
};

std::string violation_key(const fault::ReproVerdict& v) {
  return v.violated ? v.kind + " " + v.invariant : std::string{};
}

/// check_repro, re-done layer by layer with a span around every call into a
/// layer. Returns the verdict it reached.
fault::ReproVerdict replay_run(const Case& c, const sched::SchemeInfo& info,
                               harness::RunContext& ctx, Tracer& tr,
                               std::uint64_t op, LayerReport& rep) {
  Tracer::Scope root(tr, "fault.run", op);
  fault::ReproVerdict v;
  try {
    std::unique_ptr<sched::SchemeBase> scheme;
    std::optional<harness::BatchRunner> runner;
    {
      Tracer::Scope span(tr, "sched.setup", op);
      const sched::SchemeInfo& resolved =
          sched::Registry::instance().resolve(info.name);
      if (!resolved.supports(c.repro.platform.num_procs())) {
        throw std::invalid_argument("scheme does not support the platform");
      }
      scheme = resolved.make();
      runner.emplace(c.repro.ts, &ctx);
      runner->bind(*scheme);
    }
    // The analyses this scheme's setup asks its cache for, computed ahead so
    // the engine span holds only the event loop.
    if (info.name == "dp") {
      Tracer::Scope span(tr, "analysis.promotion", op);
      runner->cache().promotions();
    } else if (info.name == "selective" || info.name == "multi_spare") {
      Tracer::Scope span(tr, "analysis.theta", op);
      runner->cache().postponement({});
    }
    {
      Tracer::Scope span(tr, "core.timeline", op);
      runner->cache().timeline(c.repro.horizon, &ctx.timelines());
    }
    sim::SimConfig cfg;
    cfg.horizon = c.repro.horizon;
    cfg.platform = c.repro.platform;
    cfg.wall_clock_budget_ms = c.repro.run_budget_ms;
    const sim::SimulationTrace* trace = nullptr;
    {
      Tracer::Scope span(tr, "sim.run_full", op);
      span.set_tag(info.name.c_str());
      trace = &runner->run_full(*scheme, c.repro.plan, cfg);
      span.add_count(trace->stats.sim_events);
    }
    Tracer::Scope span(tr, "audit", op);
    span.add_count(trace->stats.sim_events);
    audit::AuditOptions options;
    const bool tolerable = fault::within_tolerance(c.repro.plan);
    options.check_mk = tolerable;
    options.check_mandatory = tolerable;
    const audit::AuditReport report =
        audit::TraceAuditor(options).audit(*trace, c.repro.ts);
    if (!report.ok()) {
      v.violated = true;
      v.kind = "audit-violation";
      v.invariant = report.violations.front().invariant;
      v.detail = report.to_string();
      ++rep.audit_violations;
    }
  } catch (const sim::RunTimeoutError& e) {
    v = {true, "timeout", "", e.what()};
  } catch (const std::exception& e) {
    v = {true, "exception", "", e.what()};
  }
  return v;
}

}  // namespace

Result run_fault_audit(const Options& opts) {
  Result result;
  // Set-up: the case draw, repeated; the pool of the last draw is used.
  std::vector<Case> cases;
  std::uint64_t draw_failures = 0;
  std::vector<double> draws;
  for (std::size_t k = 0; k < kSetupRuns; ++k) {
    cases = {};
    const auto t0 = Clock::now();
    cases = draw_pool(opts.seed, draw_failures);
    draws.push_back(seconds_since(t0));
  }
  harness::RunContext ctx;
  const double setup_s = median(draws);
  info("fault_audit: %zu cases drawn (%llu draw failures) in %.3f s (median "
       "of %zu draws)",
       cases.size(), static_cast<unsigned long long>(draw_failures), setup_s,
       kSetupRuns);
  report_dp_defect_probe("DP runs no case whose plan holds a permanent fault");

  std::vector<Run> runs;
  std::vector<double> latencies_ms;
  std::vector<double> batch_rates;
  std::uint64_t process_runs[5] = {};
  std::size_t next = 0;
  const auto timed_start = Clock::now();
  while (seconds_since(timed_start) < opts.seconds) {
    const auto batch_start = Clock::now();
    std::size_t batch_runs = 0;
    for (const std::size_t end = next + kBatchCases; next < end; ++next) {
      const std::size_t ci = next % cases.size();
      Case& c = cases[ci];
      for (std::size_t s = 0; s < c.schemes.size(); ++s) {
        c.repro.scheme = c.schemes[s]->name;
        const auto t0 = Clock::now();
        const fault::ReproVerdict v = fault::check_repro(c.repro, &ctx);
        latencies_ms.push_back(ms_between(t0, Clock::now()));
        runs.push_back({static_cast<std::uint32_t>(ci),
                        static_cast<std::uint32_t>(s), violation_key(v)});
        ++process_runs[static_cast<int>(c.process)];
        ++batch_runs;
        if (v.violated) {
          // The program broke an audited invariant on this case: a failed
          // operation, shown with its case, and a failed run.
          ++result.failed;
          info("VIOLATION case %zu (seed %llu, process %d) scheme %s: %s %s",
               ci, static_cast<unsigned long long>(opts.seed),
               static_cast<int>(c.process), c.repro.scheme.c_str(),
               v.kind.c_str(), v.detail.c_str());
          result.check(false, "fault_audit.verdict_clean",
                       "case " + std::to_string(ci) + " scheme " +
                           c.repro.scheme + ": " + v.kind + " " + v.invariant);
        }
      }
    }
    batch_rates.push_back(static_cast<double>(batch_runs) /
                          seconds_since(batch_start));
  }
  const double timed_s = seconds_since(timed_start);
  const double rss = peak_rss_mb();
  result.attempted = runs.size();
  info("fault_audit: %zu audited runs over %zu cases in %.3f s "
       "(none %llu, transient %llu, permanent %llu, burst %llu, combined %llu)",
       runs.size(), next, timed_s,
       static_cast<unsigned long long>(process_runs[0]),
       static_cast<unsigned long long>(process_runs[1]),
       static_cast<unsigned long long>(process_runs[2]),
       static_cast<unsigned long long>(process_runs[3]),
       static_cast<unsigned long long>(process_runs[4]));

  // Replay: the first kCheckRuns runs for the output check, every run when
  // tracing, on a fresh context like the timed phase had.
  const std::size_t replayed = opts.trace ? runs.size()
                                          : std::min(runs.size(), kCheckRuns);
  LayerReport rep;
  rep.untraced_what = "check_repro time of the replayed runs";
  Tracer tr;
  harness::RunContext replay_ctx;
  std::size_t last_case = cases.size();
  const auto replay_start = Clock::now();
  for (std::size_t r = 0; r < replayed; ++r) {
    const Case& c = cases[runs[r].case_index];
    if (runs[r].case_index != last_case) {
      last_case = runs[r].case_index;
      Tracer::Scope span(tr, "analysis.rta", r, /*probe=*/true);
      analysis::response_times(c.repro.ts, analysis::DemandModel::kAllJobs);
    }
    const sched::SchemeInfo& info = *c.schemes[runs[r].scheme_index];
    const fault::ReproVerdict v = replay_run(c, info, replay_ctx, tr, r, rep);
    rep.untraced_s += latencies_ms[r] * 1e-3;
    result.check(violation_key(v) == runs[r].violation,
                 "fault_audit.replay_verdict",
                 "run " + std::to_string(r) + " scheme " + info.name +
                     ": check_repro gave '" + runs[r].violation +
                     "', the replay '" + violation_key(v) + "'");
  }
  rep.traced_wall_s = seconds_since(replay_start);

  rep.spans = tr.spans();
  rep.timeline_hits = replay_ctx.timelines().hits();
  rep.timeline_misses = replay_ctx.timelines().misses();
  rep.theta_hits = replay_ctx.postponements().hits();
  rep.theta_misses = replay_ctx.postponements().misses();

  EndToEnd e2e;
  e2e.throughput_per_s = median(batch_rates);
  e2e.nominal = summarize(latencies_ms);
  e2e.setup_s = setup_s;
  e2e.peak_rss_mb = rss;
  result.name("fault_audit.runs_per_s", e2e.throughput_per_s, "1/s");
  report(result, opts, e2e, rep);
  return result;
}

}  // namespace perfbench
