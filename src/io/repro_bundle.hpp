// Self-contained repro bundles for quarantined runs.
//
// A bundle is a plain-text file that records the *full reproduction key* of
// one failed simulation run -- the task set, the registry scheme name, the
// platform (processor count + roles), the RNG stream version, the horizon,
// and the fault plan -- so `mkss_cli replay <bundle>` can re-run it audited
// with zero extra context. All metadata lives in `#` comment lines above the
// serialized task set, so every bundle is *also* a valid task-set file:
// io::parse_taskset_file(bundle) round-trips the embedded set, which is what
// keeps bundles usable with `mkss_cli simulate/analyze` directly.
//
// Two fault-plan dialects share the format:
//   * `plan: explicit`  -- a spelled-out permanent fault and/or transient
//     hit list (fuzz cases, shrunk minimal repros, campaign placements);
//   * `plan: scenario`  -- a stochastic plan named by (scenario token,
//     lambda, fault seed); replay reconstructs it through
//     fault::make_scenario_plan exactly like the sweep harness did.
//
// parse_repro_bundle validates the key loudly (missing fields, role/count
// mismatches, out-of-range fault targets, unsupported stream versions all
// throw ParseError) -- a bundle that parses is a bundle that replays.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "core/time.hpp"
#include "io/taskset_io.hpp"
#include "sim/fault_plan.hpp"
#include "sim/types.hpp"

namespace mkss::io {

/// One explicit transient hit: the copy of job `job` (1-based) of task
/// `task` in replica slot `slot` (0 = main/optional, 1 = backup).
struct ReproTransient {
  core::TaskIndex task{0};
  std::uint64_t job{1};
  int slot{0};

  friend bool operator==(const ReproTransient&, const ReproTransient&) = default;
};

/// The generation stream layout every bundle is written under (each
/// workload::generate_bin attempt draws from its own named stream). Bundles
/// carry it as `# stream-version:`; parsing refuses any other value, since a
/// bundle from another layout would name different task sets.
inline constexpr std::uint32_t kStreamVersion = 2;

struct ReproBundle {
  /// Why the run was quarantined: "audit-violation", "exception", "timeout",
  /// or a harness-specific tag. Informational; replay derives its own.
  std::string verdict;
  /// Registry name of the scheme (sched::Registry), e.g. "st".
  std::string scheme;
  /// Platform: processor count plus one role character per processor
  /// ('W' = worker, 'S' = standby), e.g. "WS" for the paper's dual platform.
  std::size_t procs{2};
  std::string roles{"WS"};
  core::Ticks horizon{0};

  /// Dialect switch: false = explicit plan, true = scenario plan.
  bool scenario_plan{false};
  // -- explicit dialect --
  std::optional<sim::PermanentFault> permanent;
  std::vector<ReproTransient> transients;  ///< sorted (task, job, slot)
  // -- scenario dialect --
  std::string scenario;     ///< fault::to_string(Scenario) token
  double lambda_per_ms{0};  ///< transient rate of the scenario
  std::uint64_t fault_seed{0};  ///< seed of the plan's Rng (stream_seed(...))

  /// First line(s) of the original failure message.
  std::string error;
  core::TaskSet ts;
};

/// Renders the bundle. The result parses back bit-identically through
/// parse_repro_bundle_string, and its tail is exactly serialize_taskset(ts).
std::string serialize_repro_bundle(const ReproBundle& bundle);

/// Parses and validates a bundle; throws ParseError on any missing or
/// inconsistent reproduction-key field.
ReproBundle parse_repro_bundle_string(const std::string& text);
ReproBundle parse_repro_bundle_file(const std::string& path);

/// Platform spec encoded by the bundle's roles string.
sim::PlatformSpec repro_platform(const ReproBundle& bundle);

}  // namespace mkss::io
