// Backup procrastination ladder shared by the schemes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pattern.hpp"
#include "core/task.hpp"

namespace mkss::analysis {
class AnalysisCache;
}

namespace mkss::sched {

/// How far a backup job's eligibility is delayed past its release.
enum class BackupDelayPolicy : std::uint8_t {
  kNone,       ///< unprocrastinated: eligible at release (MKSS_ST style)
  kPromotion,  ///< dual-priority Y_i = D_i - R_i (Haque/Begam, Equation 2)
  kPostponed,  ///< exact theta_i from Definitions 2-5 (the paper's choice)
};

const char* to_string(BackupDelayPolicy policy);

/// Computes the per-task delay for a policy, applying the safety ladder
/// (exact theta -> Y -> 0) where an analysis is unavailable. The promotion /
/// postponement analyses come from (and are memoized in) `cache`, on
/// cache.taskset(). `pattern` selects which static pattern's mandatory jobs
/// carry backups (used by the theta analysis only).
std::vector<core::Ticks> backup_delays(
    analysis::AnalysisCache& cache, BackupDelayPolicy policy,
    core::PatternKind pattern = core::PatternKind::kDeeplyRed);

}  // namespace mkss::sched
