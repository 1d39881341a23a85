#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

Latency summarize(const std::vector<double>& ms) {
  return {median(ms), tail(ms), ms.size()};
}

namespace {

void print_latency(const char* what, const Latency& l) {
  info("%s: %zu ops: p50 %.4f ms, tail p%g %.4f ms (%zu beyond%s)",
       what, l.samples, l.p50_ms, l.tail.percentile, l.tail.value,
       l.tail.beyond, l.tail.undersampled ? ", undersampled" : "");
}

void emit_end_to_end(Result& result, const EndToEnd& e2e) {
  result.metric("throughput_per_s", e2e.throughput_per_s, "1/s");
  result.metric("p50_ms", e2e.nominal.p50_ms, "ms");
  result.metric("setup_s", e2e.setup_s, "s");
  result.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
}

/// Share of the attribution gap above which the gap is flagged and named.
constexpr double kGapLimit = 0.10;

void emit_layers(Result& result, const std::string& workload,
                 const LayerReport& report, const EndToEnd& e2e_run) {
  const std::map<std::string, LayerTime> layers = layer_times(report.spans);
  const auto get = [&](const std::string& name) -> LayerTime {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  const auto busy = [&](const std::string& name) { return get(name).self_s; };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto ns_per = [](double seconds, std::uint64_t events) {
    return events == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(events);
  };

  result.metric("workload.gen.busy_s", busy("workload.gen"), "s");
  result.metric("workload.gen.attempts", count(report.gen_attempts), "count");
  result.metric("workload.gen.accept_ratio",
                report.gen_attempts == 0
                    ? 0.0
                    : count(report.gen_accepted) / count(report.gen_attempts),
                "ratio");
  result.metric("analysis.theta.busy_s", busy("analysis.theta"), "s");
  result.metric("analysis.theta.calls", count(get("analysis.theta").calls),
                "count");
  result.metric("analysis.rta.busy_s", busy("analysis.rta"), "s");
  result.metric("analysis.promotion.busy_s", busy("analysis.promotion"), "s");
  result.metric("analysis.admit.busy_s", busy("analysis.admit"), "s");
  result.metric("analysis.admit.calls", count(get("analysis.admit").calls),
                "count");
  result.metric("core.timeline.busy_s", busy("core.timeline"), "s");
  result.metric("core.timeline_cache.hit_ratio",
                hit_ratio(report.timeline_hits, report.timeline_misses),
                "ratio");
  result.metric("analysis.postponement_cache.hit_ratio",
                hit_ratio(report.theta_hits, report.theta_misses), "ratio");
  result.metric("sched.setup.busy_s", busy("sched.setup"), "s");

  const LayerTime full = get("sim.run_full");
  const LayerTime lean = get("sim.run_stats");
  const std::uint64_t events = full.count + lean.count;
  result.metric("sim.run_full.busy_s", full.self_s, "s");
  result.metric("sim.run_stats.busy_s", lean.self_s, "s");
  result.metric("sim.events", count(events), "count");
  result.metric("sim.ns_per_event", ns_per(full.self_s + lean.self_s, events),
                "ns");
  for (const char* scheme : kSchemeNames) {
    const LayerTime f = get(std::string("sim.run_full/") + scheme);
    const LayerTime s = get(std::string("sim.run_stats/") + scheme);
    result.metric(std::string("sim.ns_per_event.") + scheme,
                  ns_per(f.self_s + s.self_s, f.count + s.count), "ns");
  }

  const LayerTime audit = get("audit");
  result.metric("audit.busy_s", audit.self_s, "s");
  result.metric("audit.runs", count(audit.calls), "count");
  result.metric("audit.violations", count(report.audit_violations), "count");
  result.metric("audit.ns_per_event", ns_per(audit.self_s, audit.count), "ns");
  result.metric("energy.account.busy_s", busy("energy.account"), "s");
  result.metric("metrics.qos.busy_s", busy("metrics.qos"), "s");
  result.metric("fault.plan.busy_s", busy("fault.plan"), "s");
  result.metric("io.parse.busy_s", busy("io.parse"), "s");
  result.metric("io.encode.busy_s", busy("io.encode"), "s");
  result.metric("io.bytes_in", count(report.bytes_in), "bytes");
  result.metric("io.bytes_out", count(report.bytes_out), "bytes");
  result.metric("harness.serve.service_ms.p50", median(report.service_ms), "ms");
  result.metric("harness.serve.service_ms.p99",
                percentile(report.service_ms, 99.0), "ms");
  result.metric("harness.serve.wait_ms.p50", median(report.wait_ms), "ms");
  result.metric("harness.serve.wait_ms.p99", percentile(report.wait_ms, 99.0),
                "ms");
  result.metric("harness.serve.max_queue_depth", report.max_queue_depth,
                "count");
  result.metric("harness.serve.backlog", report.backlog, "count");
  result.metric("harness.serve.gen_lateness_ms.p99", report.lateness_p99_ms,
                "ms");
  result.metric("harness.serve.low.p50_ms", report.open_loop.low_p50_ms, "ms");
  result.metric("harness.serve.low.p99_ms", report.open_loop.low_p99_ms, "ms");
  result.metric("harness.serve.high.p50_ms", report.open_loop.high_p50_ms, "ms");
  result.metric("harness.serve.high.p99_ms", report.open_loop.high_p99_ms, "ms");
  result.metric("harness.serve.max_rps", report.open_loop.max_rps, "1/s");
  result.metric("harness.sweep.aggregate.busy_s",
                busy("harness.sweep.aggregate"), "s");

  // Attribution: layer self times against the untraced end-to-end time of
  // the same inputs.
  const double attributed = attributed_seconds(report.spans);
  const double spanned = spanned_seconds(report.spans);
  double probe_s = 0;
  for (const auto& [name, lt] : layers) {
    if (lt.probe && name.find('/') == std::string::npos) probe_s += lt.self_s;
  }
  const double e2e = report.untraced_s;
  const double gap = e2e > 0 ? (e2e - attributed) / e2e : 0.0;
  const double overhead =
      e2e > 0 ? (report.traced_wall_s - probe_s - e2e) / e2e : 0.0;
  const double unattributed = report.traced_wall_s - spanned;

  info("attribution [%s]: untraced %s = %.4f s", workload.c_str(),
       report.untraced_what.c_str(), e2e);
  std::vector<std::pair<std::string, LayerTime>> rows;
  for (const auto& [name, lt] : layers) {
    if (name.find('/') == std::string::npos) rows.emplace_back(name, lt);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  for (const auto& [name, lt] : rows) {
    info("  %-28s self %10.4f s  %6.1f%%  calls %llu%s", name.c_str(),
         lt.self_s, e2e > 0 ? 100.0 * lt.self_s / e2e : 0.0,
         static_cast<unsigned long long>(lt.calls),
         lt.probe ? "  (probe, not summed)" : "");
  }
  info("  sum of layer self times %.4f s vs untraced %.4f s: gap %+.1f%%",
       attributed, e2e, 100.0 * gap);
  if (std::abs(gap) > kGapLimit) {
    info("  FLAG: attribution gap %+.1f%% exceeds %.0f%%: %s", 100.0 * gap,
         100.0 * kGapLimit,
         gap > 0 ? "the untraced path spent time outside the replayed layer "
                   "calls (state the replay rebuilds cold, or warm caches "
                   "the untraced run had)"
                 : "the traced replay ran slower than the untraced path "
                   "(span bookkeeping and caches the replay starts cold)");
  }
  info("  tracing overhead %+.1f%% (traced wall %.4f s, probes %.4f s), "
       "time outside spans %.4f s",
       100.0 * overhead, report.traced_wall_s, probe_s, unattributed);

  result.metric("e2e.tail_ms", e2e_run.nominal.tail.value, "ms");
  result.metric("trace.e2e_untraced_s", e2e, "s");
  result.metric("trace.attributed_s", attributed, "s");
  // Unsigned, so a smaller value is always better; the table above prints
  // the sign.
  result.metric("trace.attribution_gap_ratio", std::abs(gap), "ratio");
  result.metric("trace.unattributed_s", unattributed, "s");
  result.metric("trace.overhead_ratio", overhead, "ratio");
}

}  // namespace

void report(Result& result, const Options& opts, const EndToEnd& e2e,
            const LayerReport& layers) {
  print_latency("latency", e2e.nominal);
  if (opts.trace) {
    emit_layers(result, opts.workload, layers, e2e);
    if (!opts.spans_path.empty()) {
      result.check(write_spans_csv(opts.spans_path, layers.spans),
                   "spans-written", opts.spans_path);
    }
  } else {
    emit_end_to_end(result, e2e);
  }
}

}  // namespace perfbench
