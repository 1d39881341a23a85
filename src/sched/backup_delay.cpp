#include "sched/backup_delay.hpp"

#include <algorithm>

#include "analysis/cache.hpp"
#include "analysis/postponement.hpp"
#include "analysis/promotion.hpp"

namespace mkss::sched {

const char* to_string(BackupDelayPolicy policy) {
  switch (policy) {
    case BackupDelayPolicy::kNone: return "none";
    case BackupDelayPolicy::kPromotion: return "Y";
    case BackupDelayPolicy::kPostponed: return "theta";
  }
  return "?";
}

std::vector<core::Ticks> backup_delays(analysis::AnalysisCache& cache,
                                       BackupDelayPolicy policy,
                                       core::PatternKind pattern) {
  const core::TaskSet& ts = cache.taskset();
  std::vector<core::Ticks> delays(ts.size(), 0);
  switch (policy) {
    case BackupDelayPolicy::kNone:
      break;
    case BackupDelayPolicy::kPromotion: {
      const auto& promos = cache.promotions();
      for (core::TaskIndex i = 0; i < ts.size(); ++i) {
        delays[i] = promos[i] ? std::max<core::Ticks>(0, *promos[i]) : 0;
      }
      break;
    }
    case BackupDelayPolicy::kPostponed: {
      analysis::PostponementOptions opts;
      opts.pattern = pattern;
      const auto& result = cache.postponement(opts);
      for (core::TaskIndex i = 0; i < ts.size(); ++i) {
        delays[i] = result.theta(i);
      }
      break;
    }
  }
  return delays;
}

}  // namespace mkss::sched
