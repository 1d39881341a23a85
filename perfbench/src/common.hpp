// Shared vocabulary of the benchmark's workloads: run options, the result
// every workload returns, and small timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10};
  bool trace{false};
  /// Where a traced run writes its spans (CSV); empty = nowhere.
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

/// What one workload run reports. Output checks fail closed: check() records
/// the failed check by name and prints it, and one failed check makes the
/// whole run incorrect.
struct Result {
  bool correct{true};
  std::vector<std::string> failed_checks;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  /// The workload's figures under their workload-qualified names (e.g.
  /// serve.high.p99_ms), printed in every run whether gated or not.
  std::vector<Metric> named;

  /// Records a check; returns `ok`.
  bool check(bool ok, const std::string& name, const std::string& detail = "");
  void metric(std::string name, double value, std::string unit);
  void name(std::string name, double value, std::string unit);
};

/// Prints one human-readable report line (stdout, never the last line).
void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

Result run_fig6(const Options& opts);
Result run_fault_audit(const Options& opts);
Result run_serve(const Options& opts);

}  // namespace perfbench
