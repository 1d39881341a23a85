// mkss_perfbench: the repository benchmark's measuring program.
//
//   mkss_perfbench --workload fig6|fault_audit|serve --seed n --seconds s
//                  --trace 0|1 [--spans file.csv]
//
// Prints an environment header, human-readable report lines, and as its last
// stdout line one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end metrics of the untraced run;
// with --trace 1 the untraced run is followed by a traced replay of the same
// inputs and the metrics are the per-layer ones; --spans names the CSV file
// the traced replay's spans are written to at the end. Exit code 0 when every
// output check passed, 1 when one failed, 2 on bad usage.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {

bool Result::check(bool ok, const std::string& name, const std::string& detail) {
  if (ok) return true;
  if (failed_checks.size() < 16) {
    std::fprintf(stderr, "CHECK FAILED: %s%s%s\n", name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
    std::printf("CHECK FAILED: %s%s%s\n", name.c_str(),
                detail.empty() ? "" : ": ", detail.c_str());
  }
  correct = false;
  failed_checks.push_back(name);
  return false;
}

void Result::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::name(std::string name, double value, std::string unit) {
  named.push_back({std::move(name), value, std::move(unit)});
}

void info(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Seed kept out of tuning; later performance claims are re-checked on it.
constexpr std::uint64_t kHeldOutSeed = 20200309;

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// CPU brand string from CPUID (x86), read without touching the file system.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

void print_env(const Options& opts) {
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::printf(
      "env {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"git_describe\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"held_out_seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      optimized_build() ? "true" : "false",
      json_escape(describe != nullptr ? describe : "unknown").c_str(),
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      static_cast<unsigned long long>(kHeldOutSeed), opts.seconds,
      opts.trace ? 1 : 0);
  if (!optimized_build()) {
    std::printf("WARNING: non-optimized build; figures are not comparable\n");
    std::fprintf(stderr,
                 "WARNING: non-optimized build; figures are not comparable\n");
  }
}

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char value[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig6|fault_audit|serve --seed n "
               "--seconds s --trace 0|1 [--spans file.csv]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage(argv[0]);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opts.seconds > 0)) {
        return usage(argv[0]);
      }
    } else if (arg == "--spans") {
      opts.spans_path = value;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage(argv[0]);
      }
      opts.trace = value[0] == '1';
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_seed) return usage(argv[0]);

  Result (*run)(const Options&) = nullptr;
  if (opts.workload == "fig6") {
    run = run_fig6;
  } else if (opts.workload == "fault_audit") {
    run = run_fault_audit;
  } else if (opts.workload == "serve") {
    run = run_serve;
  } else {
    return usage(argv[0]);
  }

  print_env(opts);
  Result result;
  try {
    result = run(opts);
  } catch (const std::exception& e) {
    result.check(false, "uncaught-exception", e.what());
  }
  if (result.attempted == 0) result.check(false, "no-operations-attempted");
  result.name(opts.workload + ".failed_ratio",
              failed_ratio(result.failed, result.attempted), "ratio");
  info("attempted %llu, failed %llu",
       static_cast<unsigned long long>(result.attempted),
       static_cast<unsigned long long>(result.failed));
  for (const Metric& m : result.named) {
    info("named %s %.9g %s", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!result.correct) {
    std::string names;
    for (const std::string& n : result.failed_checks) {
      if (names.find(n) == std::string::npos) names += " " + n;
    }
    info("OUTPUT CHECKS FAILED:%s", names.c_str());
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
