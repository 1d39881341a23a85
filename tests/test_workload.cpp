// Unit tests: synthetic task-set generation (Section V parameters).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/admission.hpp"
#include "analysis/rta.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "workload/scenarios.hpp"
#include "workload/taskset_gen.hpp"

namespace mkss::workload {
namespace {

TEST(Scenarios, PaperTaskSetsMatchTheText) {
  const auto fig1 = paper_fig1_taskset();
  EXPECT_EQ(fig1[0].period, core::from_ms(std::int64_t{5}));
  EXPECT_EQ(fig1[1].k, 2u);
  const auto fig3 = paper_fig3_taskset();
  EXPECT_EQ(fig3[0].deadline, core::from_ms(2.5));
  const auto fig5 = paper_fig5_taskset();
  EXPECT_EQ(fig5[1].wcet, core::from_ms(std::int64_t{8}));
}

TEST(Generator, RespectsStructuralRanges) {
  core::Rng rng(101);
  GenParams params;
  int produced = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto ts = generate_taskset(params, 0.4, rng);
    if (!ts) continue;
    ++produced;
    EXPECT_GE(ts->size(), params.min_tasks);
    EXPECT_LE(ts->size(), params.max_tasks);
    for (const auto& t : *ts) {
      EXPECT_GE(t.period, core::from_ms(params.min_period_ms));
      EXPECT_LE(t.period, core::from_ms(params.max_period_ms));
      EXPECT_GE(t.k, params.min_k);
      EXPECT_LE(t.k, params.max_k);
      EXPECT_GE(t.m, 1u);
      EXPECT_LT(t.m, t.k);
      EXPECT_TRUE(t.valid());
      EXPECT_EQ(t.deadline, t.period);  // implicit deadlines
    }
  }
  EXPECT_GT(produced, 100);
}

TEST(Generator, PriorityOrderIsRateMonotonic) {
  core::Rng rng(102);
  for (int trial = 0; trial < 50; ++trial) {
    const auto ts = generate_taskset(GenParams{}, 0.5, rng);
    if (!ts) continue;
    for (std::size_t i = 1; i < ts->size(); ++i) {
      EXPECT_LE((*ts)[i - 1].period, (*ts)[i].period);
    }
  }
}

double mean_mk_util(double target, core::Rng& rng) {
  double sum = 0;
  int n = 0;
  for (int trial = 0; trial < 300 && n < 50; ++trial) {
    const auto ts = generate_taskset(GenParams{}, target, rng);
    if (!ts) continue;
    sum += ts->total_mk_utilization();
    ++n;
  }
  return n ? sum / n : 0.0;
}

TEST(Generator, UtilizationTracksTargetWhereReachable) {
  // With uniform WCETs the m >= 1 floor puts a lower bound of roughly
  // sum(v_i / k_i) on the total, so very low targets overshoot (that is why
  // low bins are rare -- the bin filter in generate_bin does the final
  // selection). Mid/high targets must be tracked, and the mean must be
  // monotone in the target.
  core::Rng rng(103);
  const double at_02 = mean_mk_util(0.2, rng);
  const double at_05 = mean_mk_util(0.5, rng);
  const double at_07 = mean_mk_util(0.7, rng);
  EXPECT_NEAR(at_05, 0.5, 0.2);
  EXPECT_NEAR(at_07, 0.7, 0.2);
  // Below the m >= 1 floor (~0.6 for these parameters) the mean saturates,
  // so only require near-monotonicity.
  EXPECT_LE(at_02, at_05 + 0.08);
  EXPECT_LE(at_05, at_07 + 0.08);
}

TEST(Generator, ShapedModelTracksTargetTightly) {
  core::Rng rng(104);
  GenParams params;
  params.wcet_model = WcetModel::kShapedWcet;
  for (int trial = 0; trial < 100; ++trial) {
    const auto ts = generate_taskset(params, 0.35, rng);
    if (!ts) continue;
    EXPECT_NEAR(ts->total_mk_utilization(), 0.35, 0.02);
  }
}

TEST(Generator, UniformModelKeepsSubstantialWcets) {
  // The paper-style model must produce heavyweight jobs even in low bins --
  // that is the regime that separates the schemes.
  core::Rng rng(105);
  double max_ratio = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto ts = generate_taskset(GenParams{}, 0.2, rng);
    if (!ts) continue;
    for (const auto& t : *ts) {
      max_ratio = std::max(max_ratio, t.utilization());
    }
  }
  EXPECT_GT(max_ratio, 0.5);
}

TEST(GenerateBin, ProducesSchedulableSetsInsideTheBin) {
  const auto batch = generate_bin(GenParams{}, 0.3, 0.4, 10, 4000, 106, 0);
  EXPECT_GT(batch.sets.size(), 0u);
  EXPECT_LE(batch.sets.size(), 10u);
  EXPECT_GT(batch.attempts, 0u);
  for (const auto& ts : batch.sets) {
    const double u = ts.total_mk_utilization();
    EXPECT_GE(u, 0.3);
    EXPECT_LT(u, 0.4);
    EXPECT_TRUE(analysis::schedulable(ts, analysis::DemandModel::kRPatternMandatory));
  }
}

TEST(GenerateBin, RespectsAttemptCap) {
  // An (almost) unfillable bin: cap must stop the search.
  const auto batch = generate_bin(GenParams{}, 0.95, 1.05, 5, 50, 107, 0);
  EXPECT_LE(batch.attempts, 50u);
}

TEST(GenerateBin, DeterministicForFixedSeed) {
  const auto batch_a = generate_bin(GenParams{}, 0.4, 0.5, 5, 2000, 108, 3);
  const auto batch_b = generate_bin(GenParams{}, 0.4, 0.5, 5, 2000, 108, 3);
  ASSERT_EQ(batch_a.sets.size(), batch_b.sets.size());
  for (std::size_t i = 0; i < batch_a.sets.size(); ++i) {
    EXPECT_EQ(batch_a.sets[i].describe(), batch_b.sets[i].describe());
  }
  EXPECT_EQ(batch_a.attempts, batch_b.attempts);
  EXPECT_EQ(batch_a.counters, batch_b.counters);
}

TEST(GenerateBin, BinIndexSelectsIndependentStreams) {
  const auto batch_a = generate_bin(GenParams{}, 0.4, 0.5, 5, 2000, 108, 3);
  const auto batch_c = generate_bin(GenParams{}, 0.4, 0.5, 5, 2000, 108, 4);
  ASSERT_FALSE(batch_a.sets.empty());
  ASSERT_FALSE(batch_c.sets.empty());
  EXPECT_NE(batch_a.sets.front().describe(), batch_c.sets.front().describe());
}

TEST(GenerateBin, CountersPartitionAttempts) {
  const auto batch = generate_bin(GenParams{}, 0.3, 0.4, 10, 4000, 106, 0);
  const GenCounters& c = batch.counters;
  EXPECT_EQ(c.draw_failures + c.out_of_bin + c.filter_rejects + c.rta_rejects +
                c.accepted,
            batch.attempts);
  EXPECT_EQ(c.accepted, batch.sets.size());
  EXPECT_LE(c.quick_accepts, c.accepted);
  EXPECT_GT(c.out_of_bin + c.filter_rejects + c.rta_rejects, 0u);
}

TEST(GenerateBin, BitIdenticalAcrossThreadCounts) {
  // The speculative parallel path must commit exactly the serial result:
  // same sets in the same order, same attempt count, same stage counters.
  const auto serial = generate_bin(GenParams{}, 0.4, 0.5, 6, 4000, 109, 1);
  ASSERT_FALSE(serial.sets.empty());
  for (const std::size_t n_threads : {std::size_t{2}, std::size_t{0}}) {
    core::ThreadPool pool(core::ThreadPool::resolve_num_threads(n_threads));
    const auto parallel =
        generate_bin(GenParams{}, 0.4, 0.5, 6, 4000, 109, 1, &pool);
    SCOPED_TRACE("threads=" + std::to_string(pool.size()));
    EXPECT_EQ(parallel.attempts, serial.attempts);
    EXPECT_EQ(parallel.counters, serial.counters);
    ASSERT_EQ(parallel.sets.size(), serial.sets.size());
    for (std::size_t i = 0; i < serial.sets.size(); ++i) {
      EXPECT_EQ(parallel.sets[i].describe(), serial.sets[i].describe());
    }
  }
}

/// What generate_bin must return, rebuilt attempt by attempt from the
/// public API alone: the attempt's own stream, the target draw,
/// generate_taskset, the S0 prefilter (sum of all WCETs against the
/// longest period's deadline), the bin check and the exact
/// analysis::schedulable verdict. A fresh AdmissionContext only sorts the
/// outcome into the counter the pipeline charges it to; its verdict must
/// agree with the exact one. `prefilter_ties` counts attempts whose WCET
/// sum equals that deadline, the prefilter's boundary.
struct Reference {
  BinnedBatch batch;
  std::uint64_t prefilter_ties{0};
};

Reference reference_bin(const GenParams& params, double lo, double hi,
                        std::size_t want, std::size_t max_attempts,
                        std::uint64_t seed, std::uint64_t bin) {
  Reference out;
  BinnedBatch& ref = out.batch;
  ref.bin_lo = lo;
  ref.bin_hi = hi;
  GenCounters& c = ref.counters;
  while (ref.sets.size() < want && ref.attempts < max_attempts) {
    core::Rng rng(core::stream_seed(seed, bin, ref.attempts++));
    const double target = rng.uniform(lo, hi);
    auto ts = generate_taskset(params, target, rng);
    if (!ts) {
      ++c.draw_failures;
      continue;
    }
    core::Ticks wcet_sum = 0;
    for (const auto& t : *ts) wcet_sum += t.wcet;
    const core::Ticks lp_deadline = ts->tasks().back().deadline;
    if (wcet_sum == lp_deadline) ++out.prefilter_ties;
    if (wcet_sum > lp_deadline) {
      ++c.filter_rejects;
      continue;
    }
    const double u = ts->total_mk_utilization();
    if (u < lo || u >= hi) {
      ++c.out_of_bin;
      continue;
    }
    const bool ok = analysis::schedulable(*ts, params.accept_model);
    const auto staged =
        analysis::AdmissionContext().admit(*ts, params.accept_model);
    EXPECT_EQ(staged.schedulable, ok) << ts->describe();
    if (!ok) {
      ++(staged.stage == analysis::AdmissionStage::kLowerBoundReject
             ? c.filter_rejects
             : c.rta_rejects);
      continue;
    }
    ++c.accepted;
    if (staged.stage == analysis::AdmissionStage::kHyperbolicAccept) {
      ++c.quick_accepts;
    }
    ref.sets.push_back(std::move(*ts));
  }
  return out;
}

TEST(GenerateBin, MatchesPublicApiReferenceForEveryThreadCount) {
  struct Case {
    const char* label;
    GenParams params;
    double lo;
    double hi;
    std::size_t want;
    std::size_t max_attempts;
    bool hits_prefilter_boundary;
  };
  GenParams constrained;
  constrained.deadline_factor = 0.8;
  GenParams e_pattern;
  e_pattern.accept_model = analysis::DemandModel::kEPatternMandatory;
  GenParams shaped;  // outside the batch envelope: the eager path
  shaped.wcet_model = WcetModel::kShapedWcet;
  // Two 1 ms tasks: WCET sums land on the 1000-tick deadline often enough
  // to pin the prefilter's strict comparison.
  GenParams tight;
  tight.min_tasks = 2;
  tight.max_tasks = 2;
  tight.min_period_ms = 1;
  tight.max_period_ms = 1;
  const Case cases[] = {{"paper", GenParams{}, 0.4, 0.5, 8, 4000, false},
                        {"low-bin", GenParams{}, 0.1, 0.2, 12, 4000, false},
                        {"constrained", constrained, 0.3, 0.4, 6, 4000, false},
                        {"e-pattern", e_pattern, 0.5, 0.6, 6, 4000, false},
                        {"shaped", shaped, 0.3, 0.4, 8, 4000, false},
                        {"tight", tight, 0.0, 1.0, 100000, 20000, true}};
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.label);
    const auto reference = reference_bin(tc.params, tc.lo, tc.hi, tc.want,
                                         tc.max_attempts, 777, 2);
    const BinnedBatch& ref = reference.batch;
    ASSERT_FALSE(ref.sets.empty());
    if (tc.hits_prefilter_boundary) {
      EXPECT_GT(reference.prefilter_ties, 0u);
    }
    for (const std::size_t n_threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "threads=" << n_threads);
      core::ThreadPool pool(n_threads);
      const auto got =
          generate_bin(tc.params, tc.lo, tc.hi, tc.want, tc.max_attempts, 777,
                       2, n_threads == 1 ? nullptr : &pool);
      EXPECT_EQ(got.attempts, ref.attempts);
      EXPECT_EQ(got.counters, ref.counters);
      ASSERT_EQ(got.sets.size(), ref.sets.size());
      for (std::size_t i = 0; i < ref.sets.size(); ++i) {
        EXPECT_EQ(got.sets[i].describe(), ref.sets[i].describe()) << "set " << i;
      }
    }
  }
}

TEST(LlroundNonneg, MatchesStdLlroundOnBoundariesAndFuzz) {
  const double half_cases[] = {0.0, 0.5, 1.0, 1.5, 2.5, 3.49999999999999,
                               3.5, 3.50000000000001, 1e15 + 0.5};
  for (const double x : half_cases) {
    EXPECT_EQ(llround_nonneg(x), std::llround(x)) << "x=" << x;
    const double up = std::nextafter(x, std::numeric_limits<double>::infinity());
    const double down = std::nextafter(x, 0.0);
    EXPECT_EQ(llround_nonneg(up), std::llround(up));
    if (down >= 0) {
      EXPECT_EQ(llround_nonneg(down), std::llround(down));
    }
  }
  // Top of the contract domain: integers up there are exact doubles.
  const double top = 4503599627370495.0;  // 2^52 - 1
  EXPECT_EQ(llround_nonneg(top), std::llround(top));

  core::Rng rng(0x11A07D);
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform magnitude so small values (the generator's actual domain:
    // WCET = v * period ~ 1e0..1e13) and huge ones both get coverage.
    const double mag = rng.uniform(0.0, 52.0);
    const double x = rng.uniform01() * std::exp2(mag);
    ASSERT_EQ(llround_nonneg(x), std::llround(x)) << "x=" << x;
  }
}

}  // namespace
}  // namespace mkss::workload
