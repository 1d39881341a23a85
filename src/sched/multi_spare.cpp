#include "sched/multi_spare.hpp"

#include "sched/registry.hpp"

namespace mkss::sched {

void MultiSpare::on_setup() {
  const core::TaskSet& ts = taskset();
  // Same safety ladder as MKSS_selective: exact theta where the analysis
  // succeeds, promotion Y as fallback, 0 otherwise.
  theta_ = sched::backup_delays(cache(), BackupDelayPolicy::kPostponed);
  // Partition mains over the primaries (everything but the last processor).
  const std::size_t primaries = num_procs() - 1;
  assign_.assign(ts.size(), 0);
  std::vector<double> load(primaries, 0.0);
  for (core::TaskIndex i = 0; i < ts.size(); ++i) {
    sim::ProcessorId proc = 0;
    for (sim::ProcessorId p = 1; p < load.size(); ++p) {
      if (load[p] < load[proc]) proc = p;
    }
    assign_[i] = proc;
    load[proc] += ts[i].mk_utilization();
  }
}

void MultiSpare::on_permanent_fault(sim::ProcessorId dead, core::Ticks now) {
  SchemeBase::on_permanent_fault(dead, now);
  dead_ = dead;
  spare_dead_ = dead == spare();
}

sim::ReleaseDecision MultiSpare::on_release(core::TaskIndex i, std::uint64_t j,
                                            core::Ticks release) {
  const core::Task& task = taskset()[i];
  if (!core::pattern_mandatory(core::PatternKind::kDeeplyRed, task.m, task.k,
                               j)) {
    return sim::ReleaseDecision::skip();
  }
  if (!degraded()) {
    return mandatory_release_on(assign_[i], spare(), release,
                                release + theta_[i]);
  }
  // Degraded: keep the postponement basis (see the header comment). A dead
  // spare leaves the partitioned mains untouched; a dead primary moves its
  // tasks to the spare as single theta-postponed copies, i.e. exactly their
  // analyzed backup slot.
  sim::ReleaseDecision d;
  d.mandatory = true;
  if (spare_dead_) {
    d.copies.push_back({assign_[i], sim::CopyKind::kMain, sim::Band::kMandatory,
                        release, 0, 1.0});
  } else if (assign_[i] == dead_) {
    d.copies.push_back({spare(), sim::CopyKind::kMain, sim::Band::kMandatory,
                        release + theta_[i], 0, 1.0});
  } else {
    d.copies.push_back({assign_[i], sim::CopyKind::kMain, sim::Band::kMandatory,
                        release, 0, 1.0});
    d.copies.push_back({spare(), sim::CopyKind::kBackup, sim::Band::kMandatory,
                        release + theta_[i], 0, 1.0});
  }
  return d;
}

namespace {
const RegisterScheme reg{{
    .name = "multi_spare",
    .title = "Multi-spare",
    .policy = "N-1 partitioned primaries share one dedicated spare; backups "
              "postponed to r + theta_i as on the dual platform",
    .min_procs = 2,
    .max_procs = 0,
    .make = [] { return std::make_unique<MultiSpare>(); },
}};
}  // namespace

}  // namespace mkss::sched
