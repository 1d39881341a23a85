// Failures the program is known to produce today. The workloads leave out
// the scheme and fault combination a known defect breaks, so no operation of
// theirs fails and every violation, quarantine or error fails the run closed.
// Every fig6 and fault_audit run re-runs the defect's minimal repro and says
// whether it still fails; once it no longer does, the left-out combination
// goes back into the workloads.
#pragma once

#include <string_view>

namespace perfbench {

/// MKSS_DP misses a mandatory deadline under a single permanent fault
/// (`mkss_cli fuzz --runs 20000 --seed 7 --scheme dp` finds it; its minimal
/// repro is two tasks and one permanent fault). The workloads run DP only on
/// fault plans without a permanent fault.
inline constexpr const char* kDpPermanentFaultSignature =
    "scheme dp; the fault plan holds a permanent fault; every audit "
    "violation is mandatory-miss 'with only 1 fault event(s) against it' or "
    "mk-violation, and at least one is mandatory-miss";

/// True when a failed audit matches kDpPermanentFaultSignature. `scheme` is
/// the registry name of the scheme that ran, `permanent_fault` whether the
/// fault plan held a permanent fault, and `audit_text` the audit report --
/// AuditReport::to_string(), optionally behind the "trace audit failed with
/// N violation(s):" line of AuditViolationError. A truncated report never
/// matches.
bool is_known_dp_defect(std::string_view scheme, bool permanent_fault,
                        std::string_view audit_text);

/// Re-runs the DP defect's minimal repro audited (fault::check_repro) and
/// prints whether it still fails with kDpPermanentFaultSignature, after
/// `context`, which names what the workload leaves out. Information only.
void report_dp_defect_probe(const char* context);

}  // namespace perfbench
