#include "analysis/admission.hpp"

#include <limits>

namespace mkss::analysis {

using core::Task;
using core::TaskSet;
using core::Ticks;

namespace {

/// Hyperbolic-bound threshold with a floating-point safety margin. The
/// product of n (1 + U_i) factors accumulates at most ~3n ulp of relative
/// rounding error (n is tiny here), far below 1e-12, so:
///   computed <= margin  =>  true product < 2  =>  truly schedulable.
/// A candidate whose true product is within 1e-12 of 2 simply falls through
/// to the exact stage instead -- the margin can delay the cheap accept but
/// never contradict the exact verdict.
constexpr double kHyperbolicMargin = 2.0 * (1.0 - 1e-12);

constexpr Ticks kNoProbe = std::numeric_limits<Ticks>::max();

/// The task fields the ladder reads, copied out of whichever layout the
/// caller holds.
struct Fields {
  Ticks period, deadline, wcet;
  std::uint32_t m, k;
};

Fields fields_of(const Task& t) {
  return {t.period, t.deadline, t.wcet, t.m, t.k};
}

}  // namespace

Ticks AdmissionContext::demand_at(DemandModel model, std::size_t i,
                                  Ticks t) const {
  // Demand of task i (priority order) in a window [0, t), t >= 1: its own
  // WCET plus every higher-priority task's demanding releases. released =
  // (t-1)/P + 1 equals the reference's ceil(t/P).
  Ticks demand = rows_[i].wcet;
  for (std::size_t j = 0; j < i; ++j) {
    const Row& hp = rows_[j];
    const auto released = static_cast<std::uint64_t>((t - 1) / hp.period) + 1;
    demand += static_cast<Ticks>(mandatory_jobs(model, hp.m, hp.k, released)) *
              hp.wcet;
  }
  return demand;
}

template <class TaskAt>
AdmissionVerdict AdmissionContext::admit_ordered(TaskAt&& at, std::size_t n,
                                                 DemandModel model) {
  if (n == 0) return {true, AdmissionStage::kProbeAccept};  // vacuously
  rows_.resize(n);
  // Stages 1 and 2, fused into the row-building pass: most candidates decide
  // here. Stage 1 is exact: demand_i(t) >= S0_i for every t >= 1 (job 1 is
  // mandatory under all patterns), so S0_i > D_i certifies
  // unschedulability. Stage 2 is valid for implicit deadlines under
  // rate-monotonic-consistent priorities; mandatory demand is dominated by
  // full-jobs demand (mandatory_jobs(released) <= released), so a full-jobs
  // certificate covers every demand model.
  Ticks hp_sum = 0;
  bool rm_implicit = true;
  double prod = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Fields t = at(i);
    Row& row = rows_[i];
    row = {t.period, t.deadline, t.wcet, hp_sum + t.wcet, t.m, t.k};
    if (row.s0 > row.deadline) return {false, AdmissionStage::kLowerBoundReject};
    hp_sum += t.wcet;
    rm_implicit = rm_implicit && t.deadline == t.period &&
                  (i == 0 || rows_[i - 1].period <= t.period);
    prod *= 1.0 + static_cast<double>(t.wcet) / static_cast<double>(t.period);
  }
  if (rm_implicit && prod <= kHyperbolicMargin) {
    return {true, AdmissionStage::kHyperbolicAccept};
  }

  // Stages 3+4 -- probe, then exact. Lowest priority first: the verdict is a
  // conjunction (order-independent), and random candidates overwhelmingly
  // fail at the lowest-priority task, so rejects exit after one task.
  if (probe_.size() < n) probe_.resize(n, kNoProbe);
  bool exact_used = false;
  for (std::size_t i = n; i-- > 0;) {
    const Row& row = rows_[i];
    if (probe_[i] != kNoProbe) {
      // Any q with demand(q) <= q is a post-fixed point of the monotone
      // demand function, so the least fixed point is <= q <= D_i: accepted.
      // demand(q) is itself a (tighter) post-fixed point; remember it.
      // q < S0_i cannot certify (demand >= S0_i everywhere) -- skip the eval.
      const Ticks q = std::min(probe_[i], row.deadline);
      if (q >= row.s0) {
        const Ticks d = demand_at(model, i, q);
        if (d <= q) {
          probe_[i] = d;
          continue;
        }
      }
    }
    // Exact fixed point, seeded at S0_i: demand(t) >= S0_i everywhere, so
    // S0_i lower-bounds the least fixed point and the ascent converges to
    // exactly the value the reference reaches from C_i.
    exact_used = true;
    Ticks r = row.s0;
    while (true) {
      const Ticks d = demand_at(model, i, r);
      if (d == r) break;
      if (d > row.deadline) return {false, AdmissionStage::kExactReject};
      r = d;
    }
    probe_[i] = r;
  }
  return {true,
          exact_used ? AdmissionStage::kExactAccept : AdmissionStage::kProbeAccept};
}

AdmissionVerdict AdmissionContext::admit(const TaskSet& ts, DemandModel model) {
  return admit_ordered([&](std::size_t i) { return fields_of(ts[i]); },
                       ts.size(), model);
}

AdmissionVerdict AdmissionContext::admit(const std::vector<Task>& tasks,
                                         const std::vector<std::uint32_t>& order,
                                         DemandModel model) {
  return admit_ordered(
      [&](std::size_t i) { return fields_of(tasks[order[i]]); }, order.size(),
      model);
}

AdmissionVerdict AdmissionContext::admit(const SoACandidate& cand,
                                         DemandModel model) {
  return admit_ordered(
      [&](std::size_t i) {
        const std::uint32_t raw = cand.order[i];
        return Fields{cand.period[raw], cand.deadline[raw], cand.wcet[raw],
                      cand.m[raw], cand.k[raw]};
      },
      cand.n, model);
}

}  // namespace mkss::analysis
