#include "io/repro_bundle.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace mkss::io {

namespace {

constexpr const char* kHeader = "# mkss repro bundle v1";

/// Strict unsigned integer; throws ParseError naming the key.
std::uint64_t parse_key_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || end == value.c_str() ||
      *end != '\0' || errno == ERANGE) {
    throw ParseError("repro bundle: key '" + key +
                     "' wants a non-negative integer, got '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// Strict signed integer (tick values).
std::int64_t parse_key_i64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      errno == ERANGE) {
    throw ParseError("repro bundle: key '" + key + "' wants an integer, got '" +
                     value + "'");
  }
  return static_cast<std::int64_t>(v);
}

/// Strict double; %a-formatted hex floats round-trip exactly through here.
double parse_key_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == value.c_str() || *end != '\0') {
    throw ParseError("repro bundle: key '" + key + "' wants a number, got '" +
                     value + "'");
  }
  return v;
}

/// Embeds a possibly multi-line message in the comment block: every newline
/// continues as a fresh comment line, so the bundle stays a parseable
/// task-set file no matter what an audit report contains.
std::string comment_escape(std::string message) {
  for (std::size_t pos = 0;
       (pos = message.find('\n', pos)) != std::string::npos; pos += 3) {
    message.replace(pos, 1, "\n# ");
  }
  return message;
}

}  // namespace

std::string serialize_repro_bundle(const ReproBundle& bundle) {
  std::ostringstream out;
  out << kHeader << "\n";
  if (!bundle.verdict.empty()) out << "# verdict: " << bundle.verdict << "\n";
  out << "# scheme: " << bundle.scheme << "\n"
      << "# procs: " << bundle.procs << "\n"
      << "# roles: " << bundle.roles << "\n"
      << "# stream-version: " << kStreamVersion << "\n"
      << "# horizon-ticks: " << bundle.horizon << "\n"
      << "# plan: " << (bundle.scenario_plan ? "scenario" : "explicit") << "\n";
  if (bundle.scenario_plan) {
    char lambda[64];
    std::snprintf(lambda, sizeof lambda, "%a", bundle.lambda_per_ms);
    out << "# scenario: " << bundle.scenario << "\n"
        << "# lambda-per-ms: " << lambda << "\n"
        << "# fault-seed: " << bundle.fault_seed << "\n";
  } else {
    if (bundle.permanent) {
      out << "# permanent: " << static_cast<unsigned>(bundle.permanent->proc)
          << "@" << bundle.permanent->time << "\n";
    }
    for (const ReproTransient& t : bundle.transients) {
      out << "# transient: " << t.task << " " << t.job << " " << t.slot
          << "\n";
    }
  }
  if (!bundle.error.empty()) {
    out << "# error: " << comment_escape(bundle.error) << "\n";
  }
  out << serialize_taskset(bundle.ts);
  return out.str();
}

ReproBundle parse_repro_bundle_string(const std::string& text) {
  ReproBundle bundle;
  bundle.procs = 0;
  bundle.roles.clear();
  bool saw_header = false;
  bool saw_plan = false;
  std::optional<std::uint64_t> stream_version;

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '#') continue;
    std::string body = line.substr(1);
    if (!body.empty() && body[0] == ' ') body = body.substr(1);
    if (line == kHeader) {
      saw_header = true;
      continue;
    }
    const std::size_t colon = body.find(": ");
    if (colon == std::string::npos) continue;
    const std::string key = body.substr(0, colon);
    const std::string value = body.substr(colon + 2);
    if (key == "verdict" && bundle.verdict.empty()) {
      bundle.verdict = value;
    } else if (key == "scheme" && bundle.scheme.empty()) {
      bundle.scheme = value;
    } else if (key == "procs" && bundle.procs == 0) {
      bundle.procs = static_cast<std::size_t>(parse_key_u64(key, value));
    } else if (key == "roles" && bundle.roles.empty()) {
      bundle.roles = value;
    } else if (key == "stream-version" && !stream_version) {
      stream_version = parse_key_u64(key, value);
    } else if (key == "horizon-ticks" && bundle.horizon == 0) {
      bundle.horizon = parse_key_i64(key, value);
    } else if (key == "plan" && !saw_plan) {
      if (value == "explicit") {
        bundle.scenario_plan = false;
      } else if (value == "scenario") {
        bundle.scenario_plan = true;
      } else {
        throw ParseError("repro bundle: unknown plan dialect '" + value + "'");
      }
      saw_plan = true;
    } else if (key == "permanent" && !bundle.permanent) {
      const std::size_t at = value.find('@');
      if (at == std::string::npos) {
        throw ParseError("repro bundle: permanent wants proc@ticks, got '" +
                         value + "'");
      }
      const std::uint64_t proc = parse_key_u64(key, value.substr(0, at));
      const std::int64_t time = parse_key_i64(key, value.substr(at + 1));
      if (proc > 255 || time < 0) {
        throw ParseError("repro bundle: permanent fault '" + value +
                         "' is out of range");
      }
      bundle.permanent =
          sim::PermanentFault{static_cast<sim::ProcessorId>(proc), time};
    } else if (key == "transient") {
      unsigned long long task = 0, job = 0;
      int slot = -1;
      if (std::sscanf(value.c_str(), "%llu %llu %d", &task, &job, &slot) != 3) {
        throw ParseError("repro bundle: transient wants 'task job slot', got '" +
                         value + "'");
      }
      bundle.transients.push_back({static_cast<core::TaskIndex>(task),
                                   static_cast<std::uint64_t>(job), slot});
    } else if (key == "scenario" && bundle.scenario.empty()) {
      bundle.scenario = value;
    } else if (key == "lambda-per-ms") {
      bundle.lambda_per_ms = parse_key_double(key, value);
    } else if (key == "fault-seed") {
      bundle.fault_seed = parse_key_u64(key, value);
    } else if (key == "error" && bundle.error.empty()) {
      bundle.error = value;
    }
    // Unknown keys (and error-message continuation lines that happen to
    // contain a colon) are plain comments: ignored.
  }

  if (!saw_header) {
    throw ParseError(std::string("repro bundle: missing '") + kHeader +
                     "' header line");
  }
  if (bundle.scheme.empty()) {
    throw ParseError("repro bundle: missing 'scheme' (the registry name)");
  }
  if (bundle.procs < 2 || bundle.procs > 255) {
    throw ParseError("repro bundle: 'procs' must be in [2, 255]");
  }
  if (bundle.roles.size() != bundle.procs) {
    throw ParseError("repro bundle: roles '" + bundle.roles + "' names " +
                     std::to_string(bundle.roles.size()) +
                     " processor(s) but procs is " +
                     std::to_string(bundle.procs));
  }
  for (const char c : bundle.roles) {
    if (c != 'W' && c != 'S') {
      throw ParseError(std::string("repro bundle: unknown role character '") +
                       c + "' (want W or S)");
    }
  }
  if (stream_version != kStreamVersion) {
    throw ParseError(
        "repro bundle: unsupported stream-version " +
        std::to_string(stream_version.value_or(0)) +
        " (this build replays stream version " +
        std::to_string(kStreamVersion) + " only; regenerate the bundle)");
  }
  if (bundle.horizon <= 0) {
    throw ParseError("repro bundle: missing or non-positive 'horizon-ticks'");
  }
  if (!saw_plan) {
    throw ParseError("repro bundle: missing 'plan' (explicit or scenario)");
  }
  if (bundle.scenario_plan) {
    if (bundle.scenario.empty()) {
      throw ParseError("repro bundle: scenario plan without 'scenario' token");
    }
    if (bundle.lambda_per_ms < 0) {
      throw ParseError("repro bundle: negative 'lambda-per-ms'");
    }
    if (bundle.permanent || !bundle.transients.empty()) {
      throw ParseError(
          "repro bundle: scenario plan must not carry explicit fault lines");
    }
  } else if (!bundle.scenario.empty()) {
    throw ParseError(
        "repro bundle: explicit plan must not carry a 'scenario' token");
  }

  bundle.ts = parse_taskset_string(text);
  if (bundle.ts.empty()) {
    throw ParseError("repro bundle: no task set after the metadata block");
  }
  if (bundle.permanent && bundle.permanent->proc >= bundle.procs) {
    throw ParseError("repro bundle: permanent fault names processor " +
                     std::to_string(bundle.permanent->proc) +
                     " on a platform of " + std::to_string(bundle.procs));
  }
  for (const ReproTransient& t : bundle.transients) {
    if (t.task >= bundle.ts.size() || t.job < 1 ||
        (t.slot != 0 && t.slot != 1)) {
      throw ParseError("repro bundle: transient (task " +
                       std::to_string(t.task) + ", job " +
                       std::to_string(t.job) + ", slot " +
                       std::to_string(t.slot) +
                       ") is outside the task set / replica slots");
    }
  }
  return bundle;
}

ReproBundle parse_repro_bundle_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ParseError("cannot open repro bundle '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_repro_bundle_string(text.str());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

sim::PlatformSpec repro_platform(const ReproBundle& bundle) {
  sim::PlatformSpec platform;
  platform.roles.clear();
  for (const char c : bundle.roles) {
    platform.roles.push_back(c == 'S' ? sim::ProcRole::kStandby
                                      : sim::ProcRole::kWorker);
  }
  return platform;
}

}  // namespace mkss::io
