// Workload fig6: Fig. 6a, 6b and 6c of the paper as audited
// harness::run_variant_sweep calls on one thread.
//
// One repetition runs the three figures on one generated corpus (the sweep
// seed is core::stream_seed(--seed, kFig6Stream, rep)), so repetitions never
// re-use sets and the sweep's content caches see fresh sets as a user's
// first run would. The timed phase repeats until --seconds have passed.
//
// Fig. 6a runs the 4 paper schemes. Fig. 6b and 6c, whose fault plans hold a
// permanent fault, leave DP out: the program has a known defect there
// (known_defects.hpp), and a workload must not fail operations. The defect's
// minimal repro is re-run and reported with every run.
//
// Output checks: no set is quarantined; a quarantined set also counts as a
// failed operation. Fig. 6a and 6b have no qos failure. A replay of the same
// calls through the layer functions (tracer.hpp) reproduces each call's
// per-bin table byte for byte, with the same quarantines and qos failures.
//
// Information only: Fig. 6c's qos failures (the scenario adds transients to
// the permanent fault, beyond the single-fault hypothesis, so the sweep
// skips the (m,k) audit there and counts broken windows instead), the
// Fig. 6 ordering and the maximum gains against the paper's 28/22/16 %.
#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "known_defects.hpp"
#include "layers.hpp"
#include "mkss.hpp"

namespace perfbench {

namespace {

using namespace mkss;

constexpr std::uint64_t kFig6Stream = 0x46494736;  // "FIG6"
/// Twice the paper's 20 sets / 5000 attempts per bin.
constexpr std::size_t kSetsPerBin = 40;
constexpr std::size_t kMaxAttemptsPerBin = 10000;
/// Warm-up corpora are fixed, so set-up does the same work on every seed.
constexpr std::uint64_t kWarmupSeed = 0x5741524D;  // "WARM"
constexpr std::uint64_t kSetupSlices = 3;
/// Repetitions peak RSS is read after. The content caches grow with every
/// fresh corpus, so RSS read at the end would grow with throughput; a fixed
/// amount of work keeps a faster program from reading as a bigger one.
constexpr std::size_t kRssReps = 8;
/// Generation stream of run_variant_sweep (evaluation.cpp).
constexpr std::uint64_t kGenerationStream = ~std::uint64_t{0};

struct Figure {
  const char* name;
  fault::Scenario scenario;
  double paper_gain_over_dp;
  /// Theorem 1 holds for every set (no transients on top of the permanent
  /// fault), so a qos failure fails the run.
  bool qos_gated;
  /// DP runs; false where the plans hold a permanent fault (known defect).
  bool with_dp;
};
constexpr Figure kFigures[] = {
    {"6a", fault::Scenario::kNoFault, 0.28, true, true},
    {"6b", fault::Scenario::kPermanentOnly, 0.22, true, false},
    {"6c", fault::Scenario::kPermanentAndTransient, 0.16, false, false},
};

harness::SweepConfig figure_config(const Figure& fig, std::uint64_t seed) {
  harness::SweepConfig cfg;
  cfg.scenario = fig.scenario;
  cfg.lambda_per_ms = 1e-6;
  cfg.bin_starts = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  cfg.sets_per_bin = kSetsPerBin;
  cfg.max_attempts_per_bin = kMaxAttemptsPerBin;
  cfg.horizon_cap = core::from_ms(std::int64_t{2000});
  cfg.num_threads = 1;
  cfg.audit = true;
  cfg.seed = seed;
  return cfg;
}

/// The paper schemes a figure runs, ST first (the normalization reference).
std::vector<harness::SchemeVariant> figure_variants(const Figure& fig) {
  std::vector<harness::SchemeVariant> out;
  for (const sched::SchemeKind kind :
       {sched::SchemeKind::kSt, sched::SchemeKind::kDp,
        sched::SchemeKind::kGreedy, sched::SchemeKind::kSelective}) {
    if (kind == sched::SchemeKind::kDp && !fig.with_dp) continue;
    out.push_back({sched::to_string(kind),
                   [kind] { return sched::make_scheme(kind); },
                   sched::registry_name(kind)});
  }
  return out;
}

/// Column of scheme `kind` in `r`; r.scheme_names.size() when the figure did
/// not run it.
std::size_t column(const harness::SweepResult& r, sched::SchemeKind kind) {
  const std::string name = sched::to_string(kind);
  std::size_t i = 0;
  while (i < r.scheme_names.size() && r.scheme_names[i] != name) ++i;
  return i;
}

struct Call {
  const Figure* fig{nullptr};
  const std::vector<harness::SchemeVariant>* variants{nullptr};
  std::uint64_t sweep_seed{0};
  double ms{0};
  std::size_t sets{0};
  std::uint64_t quarantined{0};
  std::uint64_t qos_failures{0};
  std::string table;
};

std::size_t total_sets(const harness::SweepResult& r) {
  std::size_t n = 0;
  for (const harness::BinSummary& b : r.bins) n += b.sets;
  return n;
}

/// Sets the sweep quarantined (excluded from the bins' statistics).
std::uint64_t quarantined_sets(const harness::SweepResult& r) {
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  for (const harness::SweepError& e : r.errors) {
    const std::pair<std::size_t, std::size_t> key{e.bin, e.set};
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      seen.push_back(key);
    }
  }
  return seen.size();
}

/// run_variant_sweep, re-done layer by layer with a span around every call
/// into a layer. Returns the per-bin table of the replayed sweep.
harness::SweepResult replay_sweep(const harness::SweepConfig& cfg,
                                  const std::vector<harness::SchemeVariant>& variants,
                                  harness::RunContext& ctx, Tracer& tr,
                                  std::uint64_t& op, LayerReport& rep) {
  Tracer::Scope root(tr, "harness.sweep", op);
  harness::SweepResult result;
  for (const auto& v : variants) result.scheme_names.push_back(v.name);

  const std::uint64_t gen_root = core::stream_seed(cfg.seed, kGenerationStream, 0);
  std::vector<workload::BinnedBatch> batches(cfg.bin_starts.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    Tracer::Scope span(tr, "workload.gen", op);
    const double lo = cfg.bin_starts[b];
    batches[b] = workload::generate_bin(cfg.gen, lo, lo + cfg.bin_width,
                                        cfg.sets_per_bin,
                                        cfg.max_attempts_per_bin, gen_root, b);
    rep.gen_attempts += batches[b].attempts;
    rep.gen_accepted += batches[b].sets.size();
  }

  struct SetRuns {
    core::Ticks horizon{0};
    std::unique_ptr<const sim::FaultPlan> plan;
    std::vector<double> totals;
    std::vector<char> qos_ok;
    std::vector<std::string> error;
  };
  std::vector<std::vector<SetRuns>> runs(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    runs[b].resize(batches[b].sets.size());
    for (std::size_t s = 0; s < batches[b].sets.size(); ++s) {
      Tracer::Scope span(tr, "fault.plan", op);
      SetRuns& sr = runs[b][s];
      const core::TaskSet& ts = batches[b].sets[s];
      sr.horizon = harness::choose_horizon(ts, cfg.horizon_cap);
      core::Rng fault_rng(core::stream_seed(cfg.seed, b, s));
      sr.plan = fault::make_scenario_plan(cfg.scenario, ts, sr.horizon,
                                          cfg.lambda_per_ms, fault_rng);
      sr.totals.assign(variants.size(), 0.0);
      sr.qos_ok.assign(variants.size(), 1);
      sr.error.assign(variants.size(), std::string{});
    }
  }

  audit::AuditOptions audit_options;
  audit_options.power = cfg.power;
  audit_options.check_mk =
      cfg.scenario != fault::Scenario::kPermanentAndTransient;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t s = 0; s < batches[b].sets.size(); ++s) {
      ++op;
      Tracer::Scope set_span(tr, "harness.sweep.set", op);
      SetRuns& sr = runs[b][s];
      const core::TaskSet& ts = batches[b].sets[s];
      std::optional<harness::BatchRunner> runner;
      {
        Tracer::Scope span(tr, "sched.setup", op);
        runner.emplace(ts, &ctx);
      }
      {
        Tracer::Scope span(tr, "analysis.rta", op, /*probe=*/true);
        analysis::response_times(ts, analysis::DemandModel::kAllJobs);
      }
      {
        Tracer::Scope span(tr, "analysis.promotion", op);
        runner->cache().promotions();
      }
      {
        Tracer::Scope span(tr, "analysis.theta", op);
        runner->cache().postponement({});
      }
      {
        Tracer::Scope span(tr, "core.timeline", op);
        runner->cache().timeline(sr.horizon, &ctx.timelines());
      }
      sim::SimConfig sim_config;
      sim_config.horizon = sr.horizon;
      sim_config.break_even = cfg.power.break_even;
      sim_config.wall_clock_budget_ms = cfg.run_budget_ms;
      sim_config.timeline = cfg.timeline;
      for (std::size_t v = 0; v < variants.size(); ++v) {
        try {
          std::unique_ptr<sim::Scheme> scheme;
          {
            Tracer::Scope span(tr, "sched.setup", op);
            scheme = variants[v].make();
            runner->bind(*scheme);
          }
          const sim::SimulationTrace* trace = nullptr;
          {
            Tracer::Scope span(tr, "sim.run_full", op);
            span.set_tag(variants[v].registry_name.c_str());
            trace = &runner->run_full(*scheme, *sr.plan, sim_config);
            span.add_count(trace->stats.sim_events);
          }
          {
            Tracer::Scope span(tr, "audit", op);
            span.add_count(trace->stats.sim_events);
            audit::audit_or_throw(*trace, ts, audit_options);
          }
          {
            Tracer::Scope span(tr, "energy.account", op);
            sr.totals[v] = energy::account_energy(*trace, cfg.power).total();
          }
          {
            Tracer::Scope span(tr, "metrics.qos", op);
            sr.qos_ok[v] =
                metrics::audit_qos(*trace, ts).theorem1_holds() ? 1 : 0;
          }
        } catch (const std::exception& e) {
          sr.error[v] = e.what();
          if (sr.error[v].empty()) sr.error[v] = "unknown error";
          ++rep.audit_violations;
        }
      }
    }
  }

  Tracer::Scope span(tr, "harness.sweep.aggregate", op);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    harness::BinSummary bin;
    bin.bin_lo = batches[b].bin_lo;
    bin.bin_hi = batches[b].bin_hi;
    bin.attempts = batches[b].attempts;
    bin.gen_counters = batches[b].counters;
    bin.normalized.resize(variants.size());
    bin.absolute.resize(variants.size());
    for (std::size_t s = 0; s < runs[b].size(); ++s) {
      const SetRuns& sr = runs[b][s];
      bool errored = false;
      for (std::size_t v = 0; v < variants.size(); ++v) {
        if (sr.error[v].empty()) continue;
        errored = true;
        result.errors.push_back({b, s, variants[v].name,
                                 core::stream_seed(cfg.seed, b, s), sr.error[v],
                                 io::serialize_taskset(batches[b].sets[s])});
      }
      if (errored) continue;
      if (std::find(sr.qos_ok.begin(), sr.qos_ok.end(), 0) != sr.qos_ok.end()) {
        ++result.qos_failures;
      }
      const double reference = sr.totals[0];
      if (reference <= 0.0) continue;
      for (std::size_t v = 0; v < variants.size(); ++v) {
        bin.normalized[v].add(sr.totals[v] / reference);
        bin.absolute[v].add(sr.totals[v]);
      }
      ++bin.sets;
    }
    result.bins.push_back(std::move(bin));
  }
  return result;
}

/// The Fig. 6 ordering per bin (selective <= DP <= ST) and the largest gain
/// of selective over DP and ST, against the paper. Information only: a
/// different seed may legitimately move these.
void print_paper_comparison(const Figure& fig, const harness::SweepResult& r) {
  const std::size_t st = column(r, sched::SchemeKind::kSt);
  const std::size_t sel = column(r, sched::SchemeKind::kSelective);
  const std::size_t dp = column(r, sched::SchemeKind::kDp);
  const bool has_dp = dp < r.scheme_names.size();
  std::size_t ordered = 0, bins = 0;
  for (const harness::BinSummary& b : r.bins) {
    if (b.sets == 0) continue;
    ++bins;
    const double e_st = b.normalized[st].mean();
    const double e_sel = b.normalized[sel].mean();
    const double e_dp = has_dp ? b.normalized[dp].mean() : e_st;
    if (e_sel <= e_dp && e_dp <= e_st) ++ordered;
  }
  if (has_dp) {
    info("fig %s: ordering selective<=DP<=ST in %zu/%zu bins; max gain of "
         "selective over DP %.1f%% (paper %.0f%%), over ST %.1f%%",
         fig.name, ordered, bins, 100.0 * r.max_gain(sel, dp),
         100.0 * fig.paper_gain_over_dp, 100.0 * r.max_gain(sel, st));
  } else {
    info("fig %s: ordering selective<=ST in %zu/%zu bins; max gain of "
         "selective over ST %.1f%%; DP not run (paper's gain over DP %.0f%%)",
         fig.name, ordered, bins, 100.0 * r.max_gain(sel, st),
         100.0 * fig.paper_gain_over_dp);
  }
}

}  // namespace

Result run_fig6(const Options& opts) {
  Result result;
  // One scheme list per figure, kept for the whole run: replay spans are
  // tagged with the variants' names.
  std::vector<std::vector<harness::SchemeVariant>> variant_lists;
  for (const Figure& fig : kFigures) {
    variant_lists.push_back(figure_variants(fig));
  }
  // Set-up: warm-up calls of Fig. 6a on fixed corpora the timed phase never
  // uses, one per set-up slice.
  std::vector<double> slices;
  for (std::uint64_t w = 0; w < kSetupSlices; ++w) {
    const auto t0 = Clock::now();
    harness::run_variant_sweep(
        figure_config(kFigures[0], core::stream_seed(kWarmupSeed, kFig6Stream, w)),
        variant_lists[0]);
    slices.push_back(seconds_since(t0));
  }
  // The calls do about equal work: three times the median call, so one call
  // slowed by the host does not set the figure.
  const double setup_s = static_cast<double>(kSetupSlices) * median(slices);

  report_dp_defect_probe("Fig. 6b and 6c run without DP");
  std::vector<Call> calls;
  std::vector<double> rep_rates;
  double rss = 0;
  std::uint64_t qos_failures_info = 0;
  const auto timed_start = Clock::now();
  for (std::uint64_t rep = 0;; ++rep) {
    const std::uint64_t sweep_seed = core::stream_seed(opts.seed, kFig6Stream, rep);
    std::size_t rep_sets = 0;
    double rep_ms = 0;
    for (std::size_t f = 0; f < std::size(kFigures); ++f) {
      const Figure& fig = kFigures[f];
      const harness::SweepConfig cfg = figure_config(fig, sweep_seed);
      const auto t0 = Clock::now();
      const harness::SweepResult r =
          harness::run_variant_sweep(cfg, variant_lists[f]);
      const double ms = ms_between(t0, Clock::now());
      Call call{&fig, &variant_lists[f], sweep_seed, ms, total_sets(r),
                quarantined_sets(r), r.qos_failures, r.to_table().to_string()};
      // A quarantined set is a failed operation; the replay must reproduce
      // it.
      result.attempted += call.sets + call.quarantined;
      result.failed += call.quarantined;
      for (const harness::SweepError& e : r.errors) {
        info("QUARANTINED fig %s rep %llu bin %zu set %zu %s: %s", fig.name,
             static_cast<unsigned long long>(rep), e.bin, e.set,
             e.variant.c_str(), e.message.c_str());
        result.check(false, "fig6.no_quarantine",
                     "fig " + std::string(fig.name) + " rep " +
                         std::to_string(rep) + " bin " + std::to_string(e.bin) +
                         " set " + std::to_string(e.set) + " " + e.variant);
      }
      if (r.qos_failures > 0) {
        info("THEOREM 1 fig %s rep %llu: %llu set(s) with (m,k) or mandatory "
             "failures%s",
             fig.name, static_cast<unsigned long long>(rep),
             static_cast<unsigned long long>(r.qos_failures),
             fig.qos_gated ? "" : " (transients on top of the permanent fault)");
        result.check(!fig.qos_gated, "fig6.no_qos_failure",
                     "fig " + std::string(fig.name) + " rep " +
                         std::to_string(rep));
        if (!fig.qos_gated) qos_failures_info += r.qos_failures;
      }
      if (rep == 0) print_paper_comparison(fig, r);
      rep_sets += call.sets;
      rep_ms += ms;
      calls.push_back(std::move(call));
    }
    rep_rates.push_back(static_cast<double>(rep_sets) / (rep_ms * 1e-3));
    if (rep_rates.size() <= kRssReps) rss = peak_rss_mb();
    if (seconds_since(timed_start) >= opts.seconds) break;
  }
  info("fig6: %zu sweep calls (%zu reps x 3 figures), %llu audited sets (4 "
       "schemes in 6a, 3 in 6b and 6c), sets per bin %zu, attempts per bin %zu",
       calls.size(), rep_rates.size(),
       static_cast<unsigned long long>(result.attempted), kSetsPerBin,
       kMaxAttemptsPerBin);

  // Replay: the first repetition for the output check, every call when
  // tracing. The same calls' untraced time is the attribution reference.
  const std::size_t replayed = opts.trace ? calls.size() : std::size(kFigures);
  LayerReport rep;
  rep.untraced_what = "time of the replayed sweep calls";
  Tracer tr;
  harness::RunContext ctx;
  std::uint64_t op = 0;
  const auto replay_start = Clock::now();
  for (std::size_t i = 0; i < replayed && i < calls.size(); ++i) {
    const Call& call = calls[i];
    const harness::SweepResult r =
        replay_sweep(figure_config(*call.fig, call.sweep_seed),
                     *call.variants, ctx, tr, op, rep);
    rep.untraced_s += call.ms * 1e-3;
    result.check(r.to_table().to_string() == call.table, "fig6.replay_table",
                 "fig " + std::string(call.fig->name) + " call " +
                     std::to_string(i) + " replay differs from the sweep");
    result.check(quarantined_sets(r) == call.quarantined &&
                     r.qos_failures == call.qos_failures,
                 "fig6.replay_failures",
                 "fig " + std::string(call.fig->name) + " call " +
                     std::to_string(i) + ": sweep " +
                     std::to_string(call.quarantined) + " quarantined, " +
                     std::to_string(call.qos_failures) +
                     " qos failure(s); replay " +
                     std::to_string(quarantined_sets(r)) + ", " +
                     std::to_string(r.qos_failures));
  }
  rep.traced_wall_s = seconds_since(replay_start);

  rep.spans = tr.spans();
  rep.timeline_hits = ctx.timelines().hits();
  rep.timeline_misses = ctx.timelines().misses();
  rep.theta_hits = ctx.postponements().hits();
  rep.theta_misses = ctx.postponements().misses();

  EndToEnd e2e;
  e2e.throughput_per_s = median(rep_rates);
  std::vector<double> call_ms;
  for (const Call& c : calls) call_ms.push_back(c.ms);
  e2e.nominal = summarize(call_ms);
  e2e.setup_s = setup_s;
  e2e.peak_rss_mb = rss;
  result.name("fig6.sets_per_s", e2e.throughput_per_s, "1/s");
  result.name("fig6.qos_failures.6c", static_cast<double>(qos_failures_info),
              "count");
  report(result, opts, e2e, rep);
  return result;
}

}  // namespace perfbench
