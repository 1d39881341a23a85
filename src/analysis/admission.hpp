// Staged schedulability admission for the generation hot path.
//
// `analysis::schedulable` answers one exact question per task with a full
// fixed-point iteration whose interference terms re-derive pattern counts on
// every step. That is the right reference semantics, but the task-set
// generator asks the same question millions of times on short-lived random
// candidates, and almost all of them are rejected. AdmissionContext keeps the
// verdict bit-identical to `analysis::schedulable` (fuzz-enforced in
// tests/test_admission.cpp) while letting most candidates exit through one of
// three cheap stages before any exact fixed point runs:
//
//   1. demand lower-bound reject (exact necessary condition): every
//      higher-priority task releases at least one mandatory job in any busy
//      window [0, t), t >= 1 -- job 1 is mandatory under every pattern -- so
//      demand_i(t) >= S0_i := C_i + sum_{j<i} C_j for all t >= 1. If
//      S0_i > D_i the least fixed point exceeds D_i and the set is
//      unschedulable, no iteration needed.
//   2. hyperbolic sufficient accept (Bini & Buttazzo): when every deadline is
//      implicit (D_i == P_i) and periods are nondecreasing in priority order,
//      prod(U_i + 1) <= 2 proves full-jobs schedulability; mandatory-job
//      demand never exceeds full-jobs demand, so the same certificate covers
//      the pattern models. Checked with a floating-point safety margin so a
//      boundary rounding error can never flip a verdict the exact stage
//      would have decided differently.
//   3. post-fixed-point probe accept: demand_i is monotone, so any q with
//      demand_i(q) <= q and q <= D_i certifies task i (the least fixed point
//      is <= q). The context remembers the last converged/probed value per
//      priority level; consecutive candidates in the same utilization bin
//      are similar enough that the previous value usually still certifies.
//
// Candidates surviving all three run the exact iteration, seeded at S0_i
// (a lower bound on the least fixed point, so the ascent converges to the
// same value as the classic C_i start). Each demand evaluation is one plain
// 64-bit loop over the higher-priority tasks with the pattern counts in
// closed form (mandatory_jobs below): both patterns are periodic with period
// k and hold exactly m mandatory jobs per aligned k-group, so no per-(m,k)
// table is ever built and memory does not grow with k. Tasks are tested
// lowest priority first: the verdict is a conjunction, and the
// lowest-priority task is where random candidates fail first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/rta.hpp"
#include "core/task.hpp"

namespace mkss::analysis {

/// Which rung of the staged ladder decided the verdict.
enum class AdmissionStage : std::uint8_t {
  kLowerBoundReject,  ///< S0_i > D_i for some task; no fixed point ran
  kHyperbolicAccept,  ///< hyperbolic bound certified the whole set
  kProbeAccept,       ///< every task certified by a remembered probe value
  kExactAccept,       ///< at least one task needed the exact fixed point
  kExactReject,       ///< an exact fixed point exceeded its deadline
};

struct AdmissionVerdict {
  bool schedulable{false};
  AdmissionStage stage{AdmissionStage::kExactReject};
};

/// Jobs among the first `released` releases of an (m, k) task that demand
/// time under `model`, in closed form:
///   all jobs  released;
///   R-pattern (released / k) m + min(released % k, m)   -- jobs 1..m of
///             every aligned k-group;
///   E-pattern (released / k) m + ceil((released % k) m / k) -- the
///             mandatory jobs of a group sit at offsets floor(i k / m),
///             i = 0..m-1, and exactly ceil(r m / k) of them lie below r.
/// No intermediate overflows 64 bits: (released % k) * m < k * m < 2^64.
/// Pinned against core::r_pattern_mandatory / e_pattern_mandatory by an
/// exhaustive test.
inline std::uint64_t mandatory_jobs(DemandModel model, std::uint64_t m,
                                    std::uint64_t k,
                                    std::uint64_t released) noexcept {
  switch (model) {
    case DemandModel::kAllJobs:
      return released;
    case DemandModel::kRPatternMandatory:
      return (released / k) * m + std::min(released % k, m);
    case DemandModel::kEPatternMandatory:
      return (released / k) * m + ((released % k) * m + k - 1) / k;
  }
  return released;
}

/// One candidate of a structure-of-arrays generation batch, viewed through
/// its priority permutation: task field arrays indexed by raw draw position,
/// `order[0]` naming the highest-priority task. Every viewed task must
/// satisfy Task::valid().
struct SoACandidate {
  const core::Ticks* period{nullptr};
  const core::Ticks* deadline{nullptr};
  const core::Ticks* wcet{nullptr};
  const std::uint32_t* m{nullptr};
  const std::uint32_t* k{nullptr};
  const std::uint32_t* order{nullptr};
  std::size_t n{0};
};

/// Reusable staged-admission state. One instance per worker thread; admit()
/// may be called any number of times with unrelated task sets. The remembered
/// probe values only ever change which *stage* certifies a task -- every
/// probe is verified against the actual demand function before it is trusted,
/// so the verdict (and the fact that it matches `analysis::schedulable`)
/// never depends on call history.
class AdmissionContext {
 public:
  /// Staged verdict for `ts` under `model`; bit-identical to
  /// `analysis::schedulable(ts, model)`.
  AdmissionVerdict admit(const core::TaskSet& ts, DemandModel model);

  /// Same, over a raw task vector viewed through a priority permutation:
  /// `tasks[order[0]]` is the highest-priority task. Tasks must satisfy
  /// Task::valid(); this is the eager generator's entry point.
  AdmissionVerdict admit(const std::vector<core::Task>& tasks,
                         const std::vector<std::uint32_t>& order,
                         DemandModel model);

  /// Same, over one candidate of the generator's SoA batch pipeline.
  AdmissionVerdict admit(const SoACandidate& cand, DemandModel model);

 private:
  /// One task in priority order, with its demand lower bound.
  struct Row {
    core::Ticks period{0};
    core::Ticks deadline{0};
    core::Ticks wcet{0};
    core::Ticks s0{0};  ///< C_i + sum of higher-priority WCETs
    std::uint32_t m{0};
    std::uint32_t k{0};
  };

  /// Fused row building + ladder stages 1 and 2 over tasks delivered by
  /// `at(i)` in priority order, then stages 3 and 4 on the rows.
  template <class TaskAt>
  AdmissionVerdict admit_ordered(TaskAt&& at, std::size_t n, DemandModel model);

  core::Ticks demand_at(DemandModel model, std::size_t i, core::Ticks t) const;

  std::vector<Row> rows_;
  /// Last certified post-fixed-point value per priority level (speed hint
  /// only -- see class comment). Ticks::max marks "no hint yet".
  std::vector<core::Ticks> probe_;
};

}  // namespace mkss::analysis
