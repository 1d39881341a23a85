// Shared scaffolding for the Figure-6 reproduction benches and the ablation
// benches: a common sweep configuration (the paper's Section V parameters)
// and a printer that emits the paper-style table, the per-bin gains, and a
// CSV block for plotting.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "mkss.hpp"

namespace mkss::benchrun {

/// Paper parameters. Benches default to one worker per hardware thread
/// (num_threads = 0); results are bit-identical for every thread count.
inline harness::SweepConfig paper_sweep_config(fault::Scenario scenario) {
  harness::SweepConfig cfg;
  cfg.scenario = scenario;
  cfg.lambda_per_ms = 1e-6;  // the paper's average transient rate
  cfg.bin_starts = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  cfg.sets_per_bin = 20;    // "at least 20 task sets schedulable"
  cfg.max_attempts_per_bin = 5000;  // "or at least 5000 task sets generated"
  cfg.horizon_cap = core::from_ms(std::int64_t{2000});
  cfg.num_threads = 0;  // all hardware threads
  return cfg;
}

/// Strict non-negative integer: only decimal digits, in range. "abc",
/// "12x", "-1", " 7" and overflowing values are rejected (nullopt) rather
/// than read as 0 or wrapped to SIZE_MAX.
inline std::optional<std::size_t> parse_count(std::string_view value) {
  std::size_t v = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, v);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return v;
}

/// Shared CLI for every figure/ablation sweep bench:
///   --threads n       worker threads (0 = all hardware threads)
///   --sets n          schedulable sets per bin
///   --max-attempts n  generation cap per bin
/// Returns false (after printing usage) on an unknown argument, a missing
/// value or a value that is not a non-negative integer.
inline bool apply_bench_cli(harness::SweepConfig& cfg, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::size_t* target = nullptr;
    if (arg == "--threads") {
      target = &cfg.num_threads;
    } else if (arg == "--sets") {
      target = &cfg.sets_per_bin;
    } else if (arg == "--max-attempts") {
      target = &cfg.max_attempts_per_bin;
    }
    std::optional<std::size_t> value;
    if (target != nullptr && i + 1 < argc) value = parse_count(argv[++i]);
    if (!value) {
      std::fprintf(stderr,
                   "usage: %s [--threads n] [--sets n] [--max-attempts n]\n",
                   argv[0]);
      return false;
    }
    *target = *value;
  }
  return true;
}

/// paper_sweep_config with the shared CLI applied; exits 2 on bad usage.
inline harness::SweepConfig bench_config(fault::Scenario scenario, int argc,
                                         char** argv) {
  auto cfg = paper_sweep_config(scenario);
  if (!apply_bench_cli(cfg, argc, argv)) std::exit(2);
  return cfg;
}

/// Thread count for benches that drive run_one loops directly instead of
/// going through a SweepConfig: --threads n (0, the default, = all hardware
/// threads). Exits 2 with usage on any other argument or a bad value.
inline std::size_t bench_threads(int argc, char** argv) {
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::optional<std::size_t> value;
    if (std::string_view(argv[i]) == "--threads" && i + 1 < argc) {
      value = parse_count(argv[++i]);
    }
    if (!value) {
      std::fprintf(stderr, "usage: %s [--threads n]\n", argv[0]);
      std::exit(2);
    }
    threads = *value;
  }
  return threads;
}

/// Prints the sweep as (1) the aligned normalized-energy table, (2) per-bin
/// relative gains of the last scheme over each other one, (3) a CSV block.
inline void print_sweep(const char* title, const harness::SweepResult& result) {
  std::printf("%s\n", title);
  std::printf("(energy normalized to %s on the same task sets; lower is better)\n\n",
              result.scheme_names.empty() ? "?" : result.scheme_names[0].c_str());
  std::printf("%s\n", result.to_table().to_string().c_str());

  const std::size_t last = result.scheme_names.size() - 1;
  for (std::size_t other = 0; other < last; ++other) {
    std::printf("max gain of %s over %s across bins: %s\n",
                result.scheme_names[last].c_str(),
                result.scheme_names[other].c_str(),
                report::fmt_percent(result.max_gain(last, other)).c_str());
  }
  std::printf("(m,k)/mandatory audit failures: %llu\n\n",
              static_cast<unsigned long long>(result.qos_failures));

  if (!result.errors.empty()) {
    std::fprintf(stderr,
                 "warning: %zu run(s) quarantined by the trace auditor "
                 "(excluded from the statistics):\n",
                 result.errors.size());
    for (const harness::SweepError& e : result.errors) {
      std::fprintf(stderr, "  bin %zu set %zu %s (stream seed %llu): %s\n",
                   e.bin, e.set, e.variant.c_str(),
                   static_cast<unsigned long long>(e.seed), e.message.c_str());
    }
  }

  std::printf(
      "csv:\nbin_lo,bin_hi,sets,attempts,draw_failures,out_of_bin,"
      "filter_rejects,rta_rejects,quick_accepts");
  for (const auto& name : result.scheme_names) std::printf(",%s", name.c_str());
  std::printf("\n");
  for (const auto& bin : result.bins) {
    const workload::GenCounters& gc = bin.gen_counters;
    std::printf("%.1f,%.1f,%zu,%llu,%llu,%llu,%llu,%llu,%llu", bin.bin_lo,
                bin.bin_hi, bin.sets,
                static_cast<unsigned long long>(bin.attempts),
                static_cast<unsigned long long>(gc.draw_failures),
                static_cast<unsigned long long>(gc.out_of_bin),
                static_cast<unsigned long long>(gc.filter_rejects),
                static_cast<unsigned long long>(gc.rta_rejects),
                static_cast<unsigned long long>(gc.quick_accepts));
    for (std::size_t s = 0; s < result.scheme_names.size(); ++s) {
      std::printf(",%s",
                  bin.sets ? report::fmt(bin.normalized[s].mean(), 4).c_str() : "");
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace mkss::benchrun
