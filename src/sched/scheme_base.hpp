// Shared plumbing of the standby-sparing schemes: task-set binding, survivor
// tracking after the permanent fault, and the default re-routing policy.
#pragma once

#include <optional>

#include "analysis/cache.hpp"
#include "sim/scheme.hpp"

namespace mkss::sched {

class SchemeBase : public sim::Scheme {
 public:
  void bind_platform(const sim::PlatformSpec& platform) final {
    platform_ = platform;
  }

  void setup(const core::TaskSet& ts) final {
    ts_ = &ts;
    if (bound_ != nullptr && &bound_->taskset() == &ts) {
      cache_ = bound_;
    } else {
      cache_ = &own_.emplace(ts);
    }
    degraded_ = false;
    survivor_ = sim::kPrimary;
    on_setup();
  }

  /// Binds a shared per-task-set analysis cache (harness::BatchRunner owns
  /// one per set). The cache must outlive the scheme's use of it; setup()
  /// uses it only when it belongs to the set being set up, so a stale binding
  /// is ignored rather than misapplied.
  void bind_cache(analysis::AnalysisCache* cache) { bound_ = cache; }

  void on_permanent_fault(sim::ProcessorId dead, core::Ticks /*now*/) override {
    degraded_ = true;
    // Lowest-indexed processor other than the dead one -- the engine's own
    // handover target; on the dual platform exactly the other processor.
    survivor_ = dead == 0 ? sim::ProcessorId{1} : sim::ProcessorId{0};
  }

  /// Default policy: a mandatory job that lost its last copy restarts from
  /// scratch on the survivor; an optional one restarts only if it can still
  /// make its deadline.
  std::optional<sim::CopySpec> reroute_on_death(const core::Job& job, bool mandatory,
                                                sim::ProcessorId survivor,
                                                core::Ticks now,
                                                core::Ticks /*remaining*/) override {
    if (mandatory) {
      return sim::CopySpec{survivor, sim::CopyKind::kMain, sim::Band::kMandatory, now, 0};
    }
    if (now + job.exec <= job.deadline) {
      return sim::CopySpec{survivor, sim::CopyKind::kOptional, sim::Band::kOptional, now, 0};
    }
    return std::nullopt;
  }

 protected:
  virtual void on_setup() = 0;

  const core::TaskSet& taskset() const { return *ts_; }

  /// The analyses of the current setup()'s task set: the bound cache when it
  /// belongs to that set, otherwise a private one made fresh by setup().
  analysis::AnalysisCache& cache() const { return *cache_; }
  bool degraded() const { return degraded_; }
  sim::ProcessorId survivor() const { return survivor_; }

  /// The platform bound by the engine before setup(); defaults to the
  /// paper's dual platform so schemes driven directly in tests still work.
  const sim::PlatformSpec& platform() const { return platform_; }
  std::size_t num_procs() const { return platform_.num_procs(); }

  /// Duplicated mandatory release: main on `main_proc` now (optionally DVS
  /// slowed), backup on the partner processor at full speed once
  /// `backup_eligible` passes. Degraded mode collapses to a single immediate
  /// full-speed copy on the survivor (no sibling can cancel it, so slowing
  /// it down would only gamble with the deadline).
  sim::ReleaseDecision mandatory_release(sim::ProcessorId main_proc,
                                         core::Ticks release,
                                         core::Ticks backup_eligible,
                                         double main_frequency = 1.0) const {
    return mandatory_release_on(main_proc, platform_.partner(main_proc),
                                release, backup_eligible, main_frequency);
  }

  /// Same, but with an explicit backup processor (multi-spare platforms
  /// funnel every backup onto the dedicated spare rather than the partner).
  sim::ReleaseDecision mandatory_release_on(sim::ProcessorId main_proc,
                                            sim::ProcessorId backup_proc,
                                            core::Ticks release,
                                            core::Ticks backup_eligible,
                                            double main_frequency = 1.0) const {
    sim::ReleaseDecision d;
    d.mandatory = true;
    if (degraded_) {
      d.copies.push_back({survivor_, sim::CopyKind::kMain, sim::Band::kMandatory,
                          release, 0, 1.0});
      return d;
    }
    d.copies.push_back({main_proc, sim::CopyKind::kMain, sim::Band::kMandatory,
                        release, 0, main_frequency});
    d.copies.push_back({backup_proc, sim::CopyKind::kBackup,
                        sim::Band::kMandatory, backup_eligible, 0, 1.0});
    return d;
  }

 private:
  sim::PlatformSpec platform_{};
  const core::TaskSet* ts_ = nullptr;
  analysis::AnalysisCache* bound_ = nullptr;
  std::optional<analysis::AnalysisCache> own_;
  analysis::AnalysisCache* cache_ = nullptr;  ///< bound_ or &*own_
  bool degraded_ = false;
  sim::ProcessorId survivor_ = sim::kPrimary;
};

}  // namespace mkss::sched
