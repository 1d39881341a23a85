#include "sched/mkss_dp.hpp"

#include <algorithm>

#include "analysis/promotion.hpp"
#include "core/pattern.hpp"
#include "sched/registry.hpp"

namespace mkss::sched {

namespace {
const RegisterScheme reg{{
    .name = "dp",
    .title = "MKSS_DP",
    .policy = "static R-pattern; preference-oriented dual-priority backups "
              "promoted at r + Y_i (Haque/Begam comparison scheme)",
    .min_procs = 2,
    .max_procs = 2,
    .make = [] { return std::make_unique<MkssDp>(); },
}};
}  // namespace

void MkssDp::on_setup() {
  main_frequency_ = 1.0;
  if (opts_.dvs.enabled) {
    main_frequency_ =
        lowest_feasible_frequency(taskset(), analysis::DemandModel::kAllJobs,
                                  opts_.dvs);
  }
  // Without a full-set response-time bound there is no safe promotion; the
  // affected backup then runs unprocrastinated (delay 0). With DVS the
  // delays come from the scaled set, which upper-bounds both processors'
  // actual mixes of slowed mains and full-speed backups.
  if (main_frequency_ < 1.0) {
    const core::TaskSet scaled = scale_wcets(taskset(), main_frequency_);
    analysis::AnalysisCache scaled_cache(scaled);
    y_ = backup_delays(scaled_cache, opts_.delay, opts_.pattern);
  } else {
    y_ = backup_delays(cache(), opts_.delay, opts_.pattern);
  }
}

sim::ReleaseDecision MkssDp::on_release(core::TaskIndex i, std::uint64_t j,
                                        core::Ticks release) {
  const core::Task& task = taskset()[i];
  if (!core::pattern_mandatory(opts_.pattern, task.m, task.k, j)) {
    return sim::ReleaseDecision::skip();
  }
  return mandatory_release(main_proc(i), release, release + y_[i], main_frequency_);
}

}  // namespace mkss::sched
