#include "sched/mkss_selective.hpp"

#include <algorithm>

#include "analysis/promotion.hpp"
#include "sched/registry.hpp"

namespace mkss::sched {

namespace {
const RegisterScheme reg{{
    .name = "selective",
    .title = "MKSS_selective",
    .policy = "dynamic pattern; FD == 1 optionals selected, backups "
              "postponed to r + theta_i (the paper's contribution)",
    .min_procs = 2,
    .max_procs = 2,
    .make = [] { return std::make_unique<MkssSelective>(); },
}};
}  // namespace

void MkssSelective::on_setup() {
  const core::TaskSet& ts = taskset();
  main_frequency_ = 1.0;
  if (opts_.dvs.enabled) {
    main_frequency_ = lowest_feasible_frequency(
        ts, analysis::DemandModel::kRPatternMandatory, opts_.dvs);
  }
  // Free function, not the accessor. The theta analysis always runs on the
  // unscaled set (the spare only executes full-speed work), so the set's
  // analysis cache applies with or without DVS.
  theta_ = sched::backup_delays(cache(), opts_.delay);

  history_.clear();
  history_.reserve(ts.size());
  for (const core::Task& t : ts) {
    history_.emplace_back(t.m, t.k);
  }
  next_optional_proc_.assign(ts.size(), sim::kPrimary);
}

sim::ReleaseDecision MkssSelective::on_release(core::TaskIndex i, std::uint64_t /*j*/,
                                               core::Ticks release) {
  const std::uint32_t fd = history_[i].flexibility_degree();
  if (fd == 0) {
    return mandatory_release(sim::kPrimary, release, release + theta_[i],
                             main_frequency_);
  }
  if (fd > opts_.max_selected_fd) {
    return sim::ReleaseDecision::skip();  // flexible enough; save the energy
  }
  if (degraded() && opts_.degraded_mandatory_only) {
    return sim::ReleaseDecision::skip();  // survivor runs mandatory work only
  }
  sim::ReleaseDecision d;
  d.mandatory = false;
  sim::ProcessorId proc = sim::kPrimary;
  if (degraded()) {
    proc = survivor();
  } else if (opts_.alternate) {
    proc = next_optional_proc_[i];
    next_optional_proc_[i] = platform().partner(proc);
  }
  d.copies.push_back({proc, sim::CopyKind::kOptional, sim::Band::kOptional,
                      release, fd, degraded() ? 1.0 : main_frequency_});
  return d;
}

void MkssSelective::on_outcome(core::TaskIndex i, std::uint64_t /*j*/,
                               core::JobOutcome outcome) {
  history_[i].record(outcome);
}

}  // namespace mkss::sched
