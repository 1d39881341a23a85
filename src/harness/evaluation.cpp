#include "harness/evaluation.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/thread_pool.hpp"
#include "io/repro_bundle.hpp"
#include "io/taskset_io.hpp"

namespace mkss::harness {

using core::Ticks;

RunResult run_one(const RunSpec& spec) {
  static const sim::NoFaultPlan no_faults;
  const sim::FaultPlan& faults =
      spec.faults != nullptr ? *spec.faults : no_faults;
  std::unique_ptr<sim::Scheme> owned;
  sim::Scheme* scheme = spec.scheme;
  if (scheme == nullptr) {
    owned = sched::make_scheme(spec.kind);
    scheme = owned.get();
  }

  RunResult r;
  sim::Simulator simulator;
  sim::FullTraceSink sink;
  simulator.run(spec.ts, *scheme, faults, spec.sim, sink, spec.exec_model);
  r.trace = sink.take();
  r.energy = energy::account_energy(r.trace, spec.power);
  r.qos = metrics::audit_qos(r.trace, spec.ts);
  return r;
}

Ticks choose_horizon(const core::TaskSet& ts, Ticks cap) {
  return ts.mk_hyperperiod(cap).value_or(cap);
}

double SweepResult::max_gain(std::size_t a, std::size_t b) const {
  double best = 0.0;
  for (const BinSummary& bin : bins) {
    if (bin.sets == 0) continue;
    best = std::max(best, metrics::relative_gain(bin.normalized[a].mean(),
                                                 bin.normalized[b].mean()));
  }
  return best;
}

workload::GenCounters SweepResult::generation_totals() const {
  workload::GenCounters total;
  for (const BinSummary& bin : bins) total += bin.gen_counters;
  return total;
}

report::Table SweepResult::to_table() const {
  std::vector<std::string> header{"mk-util bin", "sets", "attempts",
                                  "rejects draw/bin/filter/rta"};
  for (const std::string& name : scheme_names) header.push_back(name);
  report::Table table(std::move(header));
  for (const BinSummary& bin : bins) {
    std::vector<std::string> row;
    row.push_back(report::interval(bin.bin_lo, bin.bin_hi));
    row.push_back(std::to_string(bin.sets));
    row.push_back(std::to_string(bin.attempts));
    const workload::GenCounters& c = bin.gen_counters;
    row.push_back(std::to_string(c.draw_failures) + "/" +
                  std::to_string(c.out_of_bin) + "/" +
                  std::to_string(c.filter_rejects) + "/" +
                  std::to_string(c.rta_rejects));
    for (std::size_t s = 0; s < scheme_names.size(); ++s) {
      row.push_back(bin.sets ? report::fmt(bin.normalized[s].mean(), 3) : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

SweepResult run_sweep(const SweepConfig& config) {
  std::vector<SchemeVariant> variants;
  for (const sched::SchemeKind kind : config.schemes) {
    variants.push_back({sched::to_string(kind),
                        [kind] { return sched::make_scheme(kind); },
                        sched::registry_name(kind)});
  }
  return run_variant_sweep(config, variants);
}

namespace {

/// Stream index reserved for task-set generation. The generation root seed
/// is stream_seed(config.seed, kGenerationStream, 0); generate_bin then
/// names attempt streams (root, bin_index, attempt). Fault plans draw from
/// (config.seed, bin_index, set_index) directly, so the two stream families
/// live under different root seeds and cannot collide.
constexpr std::uint64_t kGenerationStream = ~std::uint64_t{0};

/// Everything one task-set job reads and the slots it writes (one slot per
/// variant). Jobs touch disjoint slots, so the fan-out needs no
/// synchronization beyond the barrier; aggregation then walks slots in
/// set-index order, which makes the result independent of completion order
/// and thread count.
struct SetRuns {
  Ticks horizon{0};
  std::unique_ptr<const sim::FaultPlan> plan;
  std::vector<double> totals;   ///< one per variant
  std::vector<char> qos_ok;     ///< one per variant
  std::vector<std::string> error;  ///< one per variant, empty == clean
};

/// Writes one repro bundle for a quarantined run, in the io::ReproBundle
/// scenario dialect: the full reproduction key (platform, registry scheme
/// name, stream version, scenario + lambda + fault-stream seed) rides in the
/// comment block, so `mkss_cli replay` can re-run the exact fault plan while
/// the file still parses as a plain task-set file. Called from the serial
/// aggregation phase only, so file creation is deterministic and race-free.
void dump_error_bundle(const std::string& dir, const SweepError& err,
                       const SweepConfig& config, Ticks horizon,
                       const std::string& registry_name) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create error dir %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    return;
  }
  const std::string path = dir + "/bin" + std::to_string(err.bin) + "_set" +
                           std::to_string(err.set) + "_" + err.variant +
                           ".repro.txt";
  io::ReproBundle bundle;
  bundle.verdict = "sweep-error";
  // Unregistered ablation variants fall back to the display name; replay
  // then fails loudly instead of rebuilding the wrong scheme.
  bundle.scheme = registry_name.empty() ? err.variant : registry_name;
  bundle.procs = 2;
  bundle.roles = "WS";
  bundle.horizon = horizon;
  bundle.scenario_plan = true;
  bundle.scenario = fault::to_string(config.scenario);
  bundle.lambda_per_ms = config.lambda_per_ms;
  bundle.fault_seed = err.seed;
  bundle.error = err.message;
  bundle.ts = io::parse_taskset_string(err.taskset);
  std::ofstream out(path);
  out << io::serialize_repro_bundle(bundle);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write repro bundle %s\n",
                 path.c_str());
  }
}

}  // namespace

SweepResult run_variant_sweep(const SweepConfig& config,
                              const std::vector<SchemeVariant>& variants) {
  SweepResult result;
  for (const SchemeVariant& v : variants) {
    result.scheme_names.push_back(v.name);
  }

  const std::size_t n_threads =
      core::ThreadPool::resolve_num_threads(config.num_threads);
  std::unique_ptr<core::ThreadPool> pool;
  if (n_threads > 1) pool = std::make_unique<core::ThreadPool>(n_threads);

  // Phase 1: task-set generation. Bins run one after another, and each bin
  // fans its speculative attempt chunks across the pool (every attempt owns
  // the stream (generation root, bin_index, attempt), so attempts are
  // independent). This balances far better than one job per bin: high-
  // utilization bins need orders of magnitude more attempts than low ones,
  // and per-bin jobs left every worker but one idle on the last stragglers.
  std::vector<workload::BinnedBatch> batches(config.bin_starts.size());
  const std::uint64_t gen_root =
      core::stream_seed(config.seed, kGenerationStream, 0);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const double lo = config.bin_starts[b];
    batches[b] = workload::generate_bin(
        config.gen, lo, lo + config.bin_width, config.sets_per_bin,
        config.max_attempts_per_bin, gen_root, b, pool.get());
  }

  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (batches[b].sets.size() < config.sets_per_bin) {
      std::fprintf(
          stderr,
          "warning: bin [%.2f,%.2f) exhausted max_attempts_per_bin=%zu with "
          "only %zu/%zu schedulable sets; its statistics are undersampled\n",
          batches[b].bin_lo, batches[b].bin_hi, config.max_attempts_per_bin,
          batches[b].sets.size(), config.sets_per_bin);
    }
  }

  // Phase 2: one job per task set, running every variant back to back. The
  // fault plan is derived from (seed, bin_index, set_index) — a name, not a
  // position in a shared stream — so every variant of a set shares one plan:
  // schemes differ in scheduling, not in luck. Grouping the variants in one
  // job lets them share a BatchRunner (one analysis cache per set) and a
  // per-worker-thread RunContext (pooled engine arenas + sinks).
  std::vector<std::vector<SetRuns>> runs(batches.size());
  struct SetRef {
    std::size_t bin, set;
  };
  std::vector<SetRef> jobs;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    runs[b].resize(batches[b].sets.size());
    for (std::size_t s = 0; s < batches[b].sets.size(); ++s) {
      SetRuns& sr = runs[b][s];
      const core::TaskSet& ts = batches[b].sets[s];
      sr.horizon = choose_horizon(ts, config.horizon_cap);
      core::Rng fault_rng(core::stream_seed(config.seed, b, s));
      sr.plan = fault::make_scenario_plan(config.scenario, ts, sr.horizon,
                                          config.lambda_per_ms, fault_rng);
      sr.totals.assign(variants.size(), 0.0);
      sr.qos_ok.assign(variants.size(), 1);
      sr.error.assign(variants.size(), std::string{});
      jobs.push_back({b, s});
    }
  }
  audit::AuditOptions audit_options;
  audit_options.power = config.power;
  // Under the transient scenario a job can draw faults on both of its copies,
  // which legitimately breaks an (m,k) window; qos_failures counts those.
  audit_options.check_mk =
      config.scenario != fault::Scenario::kPermanentAndTransient;
  core::parallel_for(pool.get(), jobs.size(), [&](std::size_t i) {
    // One pooled context per worker OS thread; its arenas persist across
    // jobs (and sweeps), so steady-state runs allocate nothing.
    thread_local RunContext ctx;
    const SetRef& j = jobs[i];
    SetRuns& sr = runs[j.bin][j.set];
    const core::TaskSet& ts = batches[j.bin].sets[j.set];
    BatchRunner runner(ts, &ctx);
    sim::SimConfig sim_config;
    sim_config.horizon = sr.horizon;
    sim_config.break_even = config.power.break_even;
    sim_config.wall_clock_budget_ms = config.run_budget_ms;
    sim_config.timeline = config.timeline;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      // Quarantine: a thrown engine/scheme error or an audit violation is
      // recorded in this variant's disjoint slot instead of tearing down
      // the sweep; aggregation later surfaces it deterministically.
      try {
        const auto scheme = variants[v].make();
        runner.bind(*scheme);
        if (config.audit) {
          const sim::SimulationTrace& trace =
              runner.run_full(*scheme, *sr.plan, sim_config);
          audit::audit_or_throw(trace, ts, audit_options);
          sr.totals[v] = energy::account_energy(trace, config.power).total();
          sr.qos_ok[v] =
              metrics::audit_qos(trace, ts).theorem1_holds() ? 1 : 0;
        } else {
          const sim::StatsSink& stats =
              runner.run_stats(*scheme, *sr.plan, sim_config, config.power);
          sr.totals[v] = stats.energy().total();
          sr.qos_ok[v] = stats.qos().theorem1_holds() ? 1 : 0;
        }
      } catch (const std::exception& e) {
        sr.error[v] = e.what();
        if (sr.error[v].empty()) sr.error[v] = "unknown error";
      }
    }
  });

  // Phase 3: aggregation, strictly in (bin, set) index order — same
  // floating-point accumulation order as a fully serial run.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    BinSummary bin;
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
        SweepError err{b, s, variants[v].name,
                       core::stream_seed(config.seed, b, s), sr.error[v],
                       io::serialize_taskset(batches[b].sets[s])};
        if (!config.error_dir.empty()) {
          dump_error_bundle(config.error_dir, err, config, sr.horizon,
                            variants[v].registry_name);
        }
        result.errors.push_back(std::move(err));
      }
      if (errored) continue;  // quarantined: excluded from the statistics
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

}  // namespace mkss::harness
