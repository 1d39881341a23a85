// Per-layer metrics of the traced replay and the end-to-end metrics of the
// untraced run, in the names BENCHMARK.json lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

/// The registry names that get a sim.ns_per_event.<scheme> metric.
inline constexpr const char* kSchemeNames[] = {
    "dp",          "global_edf", "global_fp", "greedy",
    "multi_spare", "partitioned_fp", "selective", "st"};

/// Median and tail latency of a set of operations.
struct Latency {
  double p50_ms{0};
  Tail tail;
  std::size_t samples{0};
};

/// Latency over the whole sample.
Latency summarize(const std::vector<double>& ms);

/// End-to-end figures of one untraced run.
struct EndToEnd {
  double throughput_per_s{0};
  Latency nominal;  ///< per-operation latency
  double setup_s{0};
  double peak_rss_mb{0};
};

/// Everything the traced replay measured, beyond the spans themselves.
struct LayerReport {
  std::vector<Span> spans;
  double traced_wall_s{0};   ///< replay wall time, tracing on
  double untraced_s{0};      ///< the same inputs' untraced end-to-end time
  std::string untraced_what; ///< what untraced_s measured
  std::uint64_t gen_attempts{0};
  std::uint64_t gen_accepted{0};
  std::uint64_t timeline_hits{0};
  std::uint64_t timeline_misses{0};
  std::uint64_t theta_hits{0};
  std::uint64_t theta_misses{0};
  std::uint64_t audit_violations{0};
  std::uint64_t bytes_in{0};
  std::uint64_t bytes_out{0};
  // Serve only.
  struct OpenLoopFigures {
    double low_p50_ms{0};
    double low_p99_ms{0};
    double high_p50_ms{0};
    double high_p99_ms{0};
    double max_rps{0};
  } open_loop;
  std::vector<double> service_ms;
  std::vector<double> wait_ms;
  double max_queue_depth{0};
  double backlog{0};
  double lateness_p99_ms{0};
};

/// Prints the end-to-end summary and emits the run's metrics. Untraced runs
/// emit the end-to-end metrics. Traced runs emit every per-layer metric (0
/// for layers the workload does not touch) and the end-to-end tails, which
/// are reported but not gated, and print the attribution table: per-layer
/// self time, the sum against the untraced end-to-end time, the gap
/// (flagged and named above 10%) and the tracing overhead; they also write
/// the spans to opts.spans_path when one is given.
void report(Result& result, const Options& opts, const EndToEnd& e2e,
            const LayerReport& layers);

}  // namespace perfbench
