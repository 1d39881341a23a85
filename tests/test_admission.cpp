// Fuzz + unit tests: analysis::AdmissionContext is a staged (filtered,
// memoized, warm-started) front end for the exact schedulability test, so its
// verdict must be *bit-identical* to analysis::schedulable on every input,
// for every demand model, regardless of what the context admitted before.
// The randomized corpus deliberately mixes implicit and constrained
// deadlines, equal periods, non-rate-monotonic orders, m == k tasks, and
// totals straddling the schedulability boundary so every ladder rung fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "analysis/admission.hpp"
#include "analysis/rta.hpp"
#include "core/pattern.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"
#include "core/time.hpp"

namespace mkss {
namespace {

using analysis::AdmissionContext;
using analysis::AdmissionStage;
using analysis::DemandModel;
using core::Task;
using core::TaskSet;
using core::Ticks;

const std::array<DemandModel, 3> kAllModels = {DemandModel::kAllJobs,
                                               DemandModel::kRPatternMandatory,
                                               DemandModel::kEPatternMandatory};

Task make_task(Ticks period_ms, Ticks deadline_ms, Ticks wcet_ms,
               std::uint32_t m, std::uint32_t k) {
  Task t;
  t.period = core::from_ms(static_cast<std::int64_t>(period_ms));
  t.deadline = core::from_ms(static_cast<std::int64_t>(deadline_ms));
  t.wcet = core::from_ms(static_cast<std::int64_t>(wcet_ms));
  t.m = m;
  t.k = k;
  return t;
}

/// Random valid task set straddling the schedulability boundary. Half the
/// draws are rate-monotonic with implicit deadlines (the hyperbolic stage's
/// domain); the rest keep draw order and constrained deadlines.
TaskSet random_taskset(core::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.range(1, 10));
  const bool rm_implicit = rng.chance(0.5);
  std::vector<Task> tasks(n);
  for (auto& t : tasks) {
    // Small period range on purpose: equal periods must be common.
    t.period = core::from_ms(rng.range(1, 12));
    const double share =
        rng.uniform(0.02, 1.8 / static_cast<double>(n));  // mix of verdicts
    t.wcet = std::clamp<Ticks>(
        static_cast<Ticks>(std::llround(share * static_cast<double>(t.period))),
        1, t.period);
    t.deadline = rm_implicit ? t.period : rng.range(t.wcet, t.period);
    t.k = static_cast<std::uint32_t>(rng.range(1, 12));
    t.m = rng.chance(0.2) ? t.k
                          : static_cast<std::uint32_t>(
                                rng.range(1, static_cast<std::int64_t>(t.k)));
  }
  if (rm_implicit) {
    std::sort(tasks.begin(), tasks.end(),
              [](const Task& a, const Task& b) { return a.period < b.period; });
  }
  return TaskSet(std::move(tasks));
}

TEST(Admission, FuzzVerdictMatchesReferenceAcrossModels) {
  AdmissionContext persistent;  // carries probe hints across every set
  std::array<std::uint64_t, 5> stage_hits{};
  core::Rng rng(0x5EED0005);
  for (int iter = 0; iter < 4000; ++iter) {
    const TaskSet ts = random_taskset(rng);
    for (const auto model : kAllModels) {
      const bool ref = analysis::schedulable(ts, model);
      AdmissionContext fresh;
      ASSERT_EQ(fresh.admit(ts, model).schedulable, ref)
          << "fresh context diverged on " << ts.describe();
      const auto v = persistent.admit(ts, model);
      ASSERT_EQ(v.schedulable, ref)
          << "warm context diverged on " << ts.describe();
      ++stage_hits[static_cast<std::size_t>(v.stage)];
    }
  }
  // The corpus must actually exercise every ladder rung, or the equivalence
  // assertions above prove less than they claim.
  for (std::size_t s = 0; s < stage_hits.size(); ++s) {
    EXPECT_GT(stage_hits[s], 0u) << "stage " << s << " never fired";
  }
}

TEST(Admission, RawVectorOverloadMatchesTaskSetOverload) {
  core::Rng rng(0xD15C0);
  AdmissionContext by_set;
  AdmissionContext by_vector;
  for (int iter = 0; iter < 500; ++iter) {
    const TaskSet ts = random_taskset(rng);
    // Scatter the tasks into a random storage order and describe the
    // priority order through the permutation, as generate_bin does.
    std::vector<std::uint32_t> order(ts.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i)))]);
    }
    std::vector<Task> storage(ts.size());
    for (std::size_t pri = 0; pri < order.size(); ++pri) {
      storage[order[pri]] = ts[pri];
    }
    for (const auto model : kAllModels) {
      const auto a = by_set.admit(ts, model);
      const auto b = by_vector.admit(storage, order, model);
      EXPECT_EQ(a.schedulable, b.schedulable) << ts.describe();
      EXPECT_EQ(analysis::schedulable(ts, model), b.schedulable);
    }
  }
}

TEST(Admission, LowerBoundRejectNeedsNoIteration) {
  // Two tasks whose WCETs alone overflow the second deadline.
  const TaskSet ts({make_task(5, 5, 4, 1, 2), make_task(5, 5, 4, 1, 2)});
  AdmissionContext ctx;
  for (const auto model : kAllModels) {
    const auto v = ctx.admit(ts, model);
    EXPECT_FALSE(v.schedulable);
    EXPECT_EQ(v.stage, AdmissionStage::kLowerBoundReject);
    EXPECT_FALSE(analysis::schedulable(ts, model));
  }
}

TEST(Admission, HyperbolicAcceptCoversLowUtilizationImplicitDeadlines) {
  const TaskSet ts({make_task(10, 10, 1, 1, 2), make_task(20, 20, 2, 2, 3),
                    make_task(40, 40, 4, 3, 4)});  // prod(1+U) = 1.331
  AdmissionContext ctx;
  for (const auto model : kAllModels) {
    const auto v = ctx.admit(ts, model);
    EXPECT_TRUE(v.schedulable);
    EXPECT_EQ(v.stage, AdmissionStage::kHyperbolicAccept);
    EXPECT_TRUE(analysis::schedulable(ts, model));
  }
}

TEST(Admission, ProbeAcceptsRepeatAdmissionsWithoutExactIteration) {
  // Constrained deadlines disable the hyperbolic stage, so the first admit
  // must run the exact iteration; the remembered fixed points then certify
  // the identical set on every later admit.
  const TaskSet ts({make_task(8, 6, 2, 1, 2), make_task(12, 9, 3, 2, 3),
                    make_task(24, 20, 4, 1, 4)});
  AdmissionContext ctx;
  const auto first = ctx.admit(ts, DemandModel::kRPatternMandatory);
  EXPECT_TRUE(first.schedulable);
  EXPECT_EQ(first.stage, AdmissionStage::kExactAccept);
  const auto second = ctx.admit(ts, DemandModel::kRPatternMandatory);
  EXPECT_TRUE(second.schedulable);
  EXPECT_EQ(second.stage, AdmissionStage::kProbeAccept);
}

TEST(Admission, ExactRejectWhenIterationOverrunsDeadline) {
  // Survives the lower bound (2+5 <= 8) but the fixed point does not.
  const TaskSet ts({make_task(4, 4, 2, 1, 1), make_task(8, 8, 5, 1, 1)});
  AdmissionContext ctx;
  const auto v = ctx.admit(ts, DemandModel::kAllJobs);
  EXPECT_FALSE(v.schedulable);
  EXPECT_EQ(v.stage, AdmissionStage::kExactReject);
  EXPECT_FALSE(analysis::schedulable(ts, DemandModel::kAllJobs));
}

TEST(Admission, EmptySetIsVacuouslySchedulable) {
  AdmissionContext ctx;
  for (const auto model : kAllModels) {
    EXPECT_TRUE(ctx.admit(TaskSet(), model).schedulable);
  }
}

TEST(Admission, ClosedFormCountsMatchPatternDefinitionsExhaustively) {
  // mandatory_jobs() replaces every per-(m,k) count table: pin it against a
  // job-by-job count of the pattern predicates, and against the reference
  // analysis's own counting (a period-1 task releases exactly t jobs in
  // [0, t)), over every small (m, k) and three full groups plus a tail.
  for (std::uint32_t k = 1; k <= 64; ++k) {
    for (std::uint32_t m = 1; m <= k; ++m) {
      Task unit;
      unit.period = 1;
      unit.deadline = 1;
      unit.wcet = 1;
      unit.m = m;
      unit.k = k;
      std::uint64_t r_count = 0;
      std::uint64_t e_count = 0;
      for (std::uint64_t released = 0; released <= 3ULL * k; ++released) {
        if (released > 0) {
          r_count += core::r_pattern_mandatory(m, k, released) ? 1U : 0U;
          e_count += core::e_pattern_mandatory(m, k, released) ? 1U : 0U;
        }
        const auto t = static_cast<Ticks>(released);
        // Eq. 1 is stated for 0 < m < k; an (k, k) task is hard, every job
        // is mandatory, and that is what the reference analysis counts.
        const std::uint64_t r_want = m < k ? r_count : released;
        ASSERT_EQ(analysis::mandatory_jobs(DemandModel::kRPatternMandatory, m,
                                           k, released),
                  r_want)
            << "R m=" << m << " k=" << k << " released=" << released;
        ASSERT_EQ(r_want, core::r_pattern_mandatory_released_before(unit, t));
        ASSERT_EQ(analysis::mandatory_jobs(DemandModel::kEPatternMandatory, m,
                                           k, released),
                  e_count)
            << "E m=" << m << " k=" << k << " released=" << released;
        ASSERT_EQ(e_count,
                  core::pattern_mandatory_released_before(
                      core::PatternKind::kEvenlyDistributed, unit, t));
        ASSERT_EQ(analysis::mandatory_jobs(DemandModel::kAllJobs, m, k,
                                           released),
                  released);
      }
    }
  }
}

TEST(Admission, LargeKNeedsNoPerKStorage) {
  // k near the top of the u32 range on every task, including the
  // lowest-priority one, whose constrained deadline keeps stages 1 and 2
  // from deciding: the exact stage must run, and its counts must stay in
  // closed form (a per-k table would need gigabytes here).
  const TaskSet ts({make_task(10, 10, 3, 1, 3'999'999'999U),
                    make_task(15, 12, 4, 3'000'000'000U, 4'000'000'000U),
                    make_task(100, 60, 28, 2'000'000'000U, 4'000'000'000U)});
  AdmissionContext ctx;
  std::array<bool, 3> verdicts{};
  for (std::size_t i = 0; i < kAllModels.size(); ++i) {
    const auto v = ctx.admit(ts, kAllModels[i]);
    EXPECT_EQ(v.schedulable, analysis::schedulable(ts, kAllModels[i]))
        << "model " << i;
    EXPECT_NE(v.stage, AdmissionStage::kLowerBoundReject);
    EXPECT_NE(v.stage, AdmissionStage::kHyperbolicAccept);
    verdicts[i] = v.schedulable;
  }
  // All jobs overrun the lowest deadline; the mandatory jobs alone do not.
  EXPECT_FALSE(verdicts[0]);
  EXPECT_TRUE(verdicts[1]);
  EXPECT_TRUE(verdicts[2]);
}

/// One candidate's SoA storage: the tasks scattered into a random draw order
/// with the priority permutation pointing back at them, as generate_bin's
/// batch pipeline lays candidates out.
struct SoAStorage {
  std::vector<Ticks> period, deadline, wcet;
  std::vector<std::uint32_t> m, k, order;

  analysis::SoACandidate view() const {
    return analysis::SoACandidate{period.data(), deadline.data(), wcet.data(),
                                  m.data(),      k.data(),       order.data(),
                                  order.size()};
  }
};

SoAStorage scatter(const TaskSet& ts, core::Rng& rng) {
  SoAStorage s;
  const std::size_t n = ts.size();
  s.period.resize(n);
  s.deadline.resize(n);
  s.wcet.resize(n);
  s.m.resize(n);
  s.k.resize(n);
  s.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) s.order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(s.order[i - 1], s.order[static_cast<std::size_t>(rng.below(i))]);
  }
  for (std::size_t pri = 0; pri < n; ++pri) {
    const std::uint32_t slot = s.order[pri];
    s.period[slot] = ts[pri].period;
    s.deadline[slot] = ts[pri].deadline;
    s.wcet[slot] = ts[pri].wcet;
    s.m[slot] = ts[pri].m;
    s.k[slot] = ts[pri].k;
  }
  return s;
}

TEST(Admission, SoAFuzzMatchesReferenceColdAndWarm) {
  core::Rng rng(0xBA7C4);
  for (int round = 0; round < 60; ++round) {
    constexpr std::size_t kBatch = 24;
    std::vector<TaskSet> sets;
    std::vector<SoAStorage> storage;
    for (std::size_t c = 0; c < kBatch; ++c) {
      sets.push_back(random_taskset(rng));
      storage.push_back(scatter(sets.back(), rng));
    }
    for (const auto model : kAllModels) {
      AdmissionContext ctx;  // cold: no probe history
      for (int pass = 0; pass < 2; ++pass) {
        // The second pass runs on the probe hints the first one left: hints
        // are speed-only.
        for (std::size_t c = 0; c < kBatch; ++c) {
          ASSERT_EQ(ctx.admit(storage[c].view(), model).schedulable,
                    analysis::schedulable(sets[c], model))
              << (pass == 0 ? "cold" : "warm") << " candidate "
              << sets[c].describe();
        }
      }
    }
  }
}

}  // namespace
}  // namespace mkss
