// Self-test of the benchmark's own math: the tail-percentile rule, self time
// with nested spans, the failed-operation ratio, and the known-defect
// signature that decides whether a failed audit fails the run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "known_defects.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank(50, 10), 5u);
  EXPECT_EQ(nearest_rank(99, 100), 99u);
  EXPECT_EQ(nearest_rank(99, 1000), 990u);
  EXPECT_EQ(nearest_rank(99, 999), 990u);  // ceil(989.01)
  EXPECT_EQ(nearest_rank(1, 3), 1u);
  EXPECT_EQ(nearest_rank(100, 7), 7u);
  EXPECT_DOUBLE_EQ(percentile(iota(100), 99), 99.0);
  EXPECT_DOUBLE_EQ(median(iota(9)), 5.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, TailPicksHighestWithTenBeyond) {
  // 1000 samples: p99 has exactly 10 beyond it.
  Tail t = tail(iota(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_FALSE(t.undersampled);

  // 999 samples: p99 would have 9 beyond, so p90 (99 beyond) is picked.
  t = tail(iota(999));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 99u);

  // 40 samples: p90 has 4 beyond, p75 has 10.
  t = tail(iota(40));
  EXPECT_EQ(t.percentile, 75.0);
  EXPECT_DOUBLE_EQ(t.value, 30.0);

  // 15 samples: not even p50 has 10 beyond; p50 is reported, flagged.
  t = tail(iota(15));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_TRUE(t.undersampled);
  EXPECT_DOUBLE_EQ(t.value, 8.0);
}

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent, bool probe = false) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.probe = probe;
  return s;
}

TEST(SelfTime, NestedSpansSubtractDirectChildrenOnly) {
  // root [0,100): a [10,40) holding b [15,35), then c [50,60), and a probe
  // d [70,80). Self: root 100-30-10-10 = 50, a 30-20 = 10, b 20, c 10, d 10.
  const std::vector<Span> spans = {
      span("root", 0, 100, -1), span("a", 10, 40, 0), span("b", 15, 35, 1),
      span("c", 50, 60, 0),     span("d", 70, 80, 0, /*probe=*/true)};
  const auto layers = layer_times(spans);
  EXPECT_NEAR(layers.at("root").self_s, 50e-9, 1e-15);
  EXPECT_NEAR(layers.at("a").self_s, 10e-9, 1e-15);
  EXPECT_NEAR(layers.at("b").self_s, 20e-9, 1e-15);
  EXPECT_NEAR(layers.at("c").self_s, 10e-9, 1e-15);
  EXPECT_NEAR(layers.at("d").self_s, 10e-9, 1e-15);
  // Self times tile the root: with the probe 100 ns, without it 90 ns.
  EXPECT_NEAR(spanned_seconds(spans), 100e-9, 1e-15);
  EXPECT_NEAR(attributed_seconds(spans), 90e-9, 1e-15);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10,30) and [20,40) cover [10,40): 30 ns, not 40.
  const std::vector<Span> spans = {span("root", 0, 50, -1),
                                   span("x", 10, 30, 0), span("y", 20, 40, 0)};
  EXPECT_NEAR(layer_times(spans).at("root").self_s, 20e-9, 1e-15);
}

TEST(SelfTime, RecordedSpansNestAndTag) {
  Tracer tr;
  {
    Tracer::Scope root(tr, "root", 7);
    Tracer::Scope child(tr, "sim", 7);
    child.set_tag("st");
    child.add_count(42);
  }
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[1].op, 7u);
  const auto layers = layer_times(tr.spans());
  EXPECT_EQ(layers.at("sim/st").count, 42u);
  EXPECT_EQ(layers.at("sim").calls, 1u);
  EXPECT_EQ(root_durations_ms(tr.spans(), "root").size(), 1u);
}

TEST(FailedRatio, CountsFailedOverAttempted) {
  EXPECT_DOUBLE_EQ(failed_ratio(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(failed_ratio(3, 12), 0.25);
  EXPECT_DOUBLE_EQ(failed_ratio(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(failed_ratio(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(hit_ratio(3, 1), 0.75);
  EXPECT_DOUBLE_EQ(hit_ratio(0, 0), 0.0);
}

TEST(KnownDefect, MatchesOnlyTheDpPermanentFaultSignature) {
  const char* miss =
      "mandatory-miss: mandatory J3,13 missed its deadline 247ms with only 1 "
      "fault event(s) against it\n";
  const std::string quarantined =
      std::string("trace audit failed with 2 violation(s):\n") + miss +
      "mk-violation: tau3: window ending at job 13 has only 6/9 successes\n";
  EXPECT_TRUE(is_known_dp_defect("dp", true, miss));
  EXPECT_TRUE(is_known_dp_defect("dp", true, quarantined));
  // Another scheme, a plan without a permanent fault, or no report.
  EXPECT_FALSE(is_known_dp_defect("selective", true, miss));
  EXPECT_FALSE(is_known_dp_defect("dp", false, miss));
  EXPECT_FALSE(is_known_dp_defect("dp", true, ""));
  // An (m,k) violation alone, a miss without a fault, another invariant, or
  // a truncated report.
  EXPECT_FALSE(is_known_dp_defect(
      "dp", true, "mk-violation: tau1: window has only 1/3 successes\n"));
  EXPECT_FALSE(is_known_dp_defect(
      "dp", true,
      "mandatory-miss: mandatory J1,2 missed its deadline 9ms with only 0 "
      "fault event(s) against it\n"));
  EXPECT_FALSE(is_known_dp_defect(
      "dp", true, std::string(miss) + "overlap: J1,2 runs twice on proc 0\n"));
  EXPECT_FALSE(is_known_dp_defect(
      "dp", true, std::string(miss) + "(further violations truncated)\n"));
}

}  // namespace
}  // namespace perfbench
