// Unit tests: repro bundles (io/repro_bundle.hpp) and the delta-debugging
// shrinker (fault/shrink.hpp) -- round-trip byte-identity, strict parse
// validation, the tolerance gate, verdicts of clean/broken/hung runs, and
// deterministic minimization of a canary-scheme failure.
#include <gtest/gtest.h>

#include <string>

#include "fault/fuzz.hpp"  // to_bundle
#include "fault/shrink.hpp"
#include "io/repro_bundle.hpp"
#include "io/taskset_io.hpp"
#include "sched/canary.hpp"
#include "sched/registry.hpp"
#include "workload/scenarios.hpp"

namespace mkss::fault {
namespace {

io::ReproBundle explicit_bundle() {
  io::ReproBundle b;
  b.verdict = "audit-violation";
  b.scheme = "st";
  b.procs = 2;
  b.roles = "WS";
  b.horizon = core::from_ms(std::int64_t{20});
  b.scenario_plan = false;
  b.permanent = sim::PermanentFault{sim::kSpare, core::from_ms(std::int64_t{7})};
  b.transients = {{0, 2, 0}, {1, 1, 1}};
  b.error = "mandatory-miss: J1,2 missed\nsecond line of the report";
  b.ts = workload::paper_fig1_taskset();
  return b;
}

TEST(ReproBundle, ExplicitDialectRoundTripsByteIdentically) {
  const io::ReproBundle b = explicit_bundle();
  const std::string text = io::serialize_repro_bundle(b);
  const io::ReproBundle parsed = io::parse_repro_bundle_string(text);

  EXPECT_EQ(parsed.verdict, b.verdict);
  EXPECT_EQ(parsed.scheme, b.scheme);
  EXPECT_EQ(parsed.procs, b.procs);
  EXPECT_EQ(parsed.roles, b.roles);
  EXPECT_NE(text.find("# stream-version: 2\n"), std::string::npos);
  EXPECT_EQ(parsed.horizon, b.horizon);
  EXPECT_FALSE(parsed.scenario_plan);
  ASSERT_TRUE(parsed.permanent.has_value());
  EXPECT_EQ(parsed.permanent->proc, sim::kSpare);
  EXPECT_EQ(parsed.permanent->time, b.permanent->time);
  EXPECT_EQ(parsed.transients, b.transients);
  // The multi-line error collapses to its first line on parse (continuation
  // lines are plain comments); everything else survives byte-for-byte.
  EXPECT_EQ(parsed.error, "mandatory-miss: J1,2 missed");
  EXPECT_EQ(io::serialize_taskset(parsed.ts), io::serialize_taskset(b.ts));
  EXPECT_EQ(io::serialize_repro_bundle(parsed).substr(0, text.find("# error")),
            text.substr(0, text.find("# error")));
}

TEST(ReproBundle, ScenarioDialectRoundTripsExactly) {
  io::ReproBundle b;
  b.verdict = "sweep-error";
  b.scheme = "selective";
  b.procs = 2;
  b.roles = "WS";
  b.horizon = core::from_ms(std::int64_t{500});
  b.scenario_plan = true;
  b.scenario = "permanent+transient";
  b.lambda_per_ms = 1e-6;
  b.fault_seed = 0xDEADBEEF;
  b.ts = workload::paper_fig1_taskset();

  const std::string text = io::serialize_repro_bundle(b);
  const io::ReproBundle parsed = io::parse_repro_bundle_string(text);
  EXPECT_TRUE(parsed.scenario_plan);
  EXPECT_EQ(parsed.scenario, "permanent+transient");
  EXPECT_EQ(parsed.lambda_per_ms, 1e-6);  // %a hex float: exact round trip
  EXPECT_EQ(parsed.fault_seed, 0xDEADBEEFu);
  EXPECT_EQ(io::serialize_repro_bundle(parsed), text);
}

TEST(ReproBundle, StillParsesAsPlainTasksetFile) {
  const std::string text = io::serialize_repro_bundle(explicit_bundle());
  const core::TaskSet ts = io::parse_taskset_string(text);
  EXPECT_EQ(io::serialize_taskset(ts),
            io::serialize_taskset(workload::paper_fig1_taskset()));
}

TEST(ReproBundle, ParseRejectsMissingHeaderAndBadMetadata) {
  const io::ReproBundle good = explicit_bundle();
  const std::string text = io::serialize_repro_bundle(good);

  // No header line.
  EXPECT_THROW(io::parse_repro_bundle_string(text.substr(text.find('\n') + 1)),
               io::ParseError);

  // Unsupported stream version.
  std::string v1 = text;
  v1.replace(v1.find("stream-version: 2"), 17, "stream-version: 1");
  EXPECT_THROW(io::parse_repro_bundle_string(v1), io::ParseError);

  // Roles string not matching procs.
  std::string roles = text;
  roles.replace(roles.find("roles: WS"), 9, "roles: WSS");
  EXPECT_THROW(io::parse_repro_bundle_string(roles), io::ParseError);

  // Transient naming a task outside the set.
  std::string bad_task = text;
  bad_task.replace(bad_task.find("transient: 0 2 0"), 16, "transient: 9 2 0");
  EXPECT_THROW(io::parse_repro_bundle_string(bad_task), io::ParseError);

  // A scenario bundle must not carry explicit fault lines.
  std::string mixed = text;
  mixed.replace(mixed.find("plan: explicit"), 14, "plan: scenario");
  EXPECT_THROW(io::parse_repro_bundle_string(mixed), io::ParseError);
}

TEST(WithinTolerance, MatchesTheoremOneHypothesis) {
  ExplicitFaultPlan empty;
  EXPECT_TRUE(within_tolerance(empty));

  ExplicitFaultPlan one_each;
  one_each.add_transient({0, 1}, 0);
  one_each.add_transient({0, 2}, 1);
  one_each.add_transient({1, 1}, 0);
  EXPECT_TRUE(within_tolerance(one_each));

  ExplicitFaultPlan double_hit = one_each;
  double_hit.add_transient({0, 1}, 1);  // both copies of J1,1
  EXPECT_FALSE(within_tolerance(double_hit));

  ExplicitFaultPlan permanent_only;
  permanent_only.set_permanent({sim::kSpare, core::from_ms(std::int64_t{3})});
  EXPECT_TRUE(within_tolerance(permanent_only));

  ExplicitFaultPlan combined = one_each;
  combined.set_permanent({sim::kSpare, core::from_ms(std::int64_t{3})});
  EXPECT_FALSE(within_tolerance(combined));
}

ReproCase fig1_case(const std::string& scheme) {
  ReproCase c;
  c.ts = workload::paper_fig1_taskset();
  c.scheme = scheme;
  c.platform = sim::PlatformSpec::standby(2);
  c.horizon = core::from_ms(std::int64_t{20});
  return c;
}

TEST(CheckRepro, CleanSchemeUnderToleratedFaultIsClean) {
  ReproCase c = fig1_case("st");
  c.plan.add_transient({0, 1}, 0);  // main dies; the backup recovers
  const ReproVerdict v = check_repro(c);
  EXPECT_FALSE(v.violated) << v.detail;
}

TEST(CheckRepro, UnknownSchemeThrowsUnknownSchemeError) {
  EXPECT_THROW(check_repro(fig1_case("definitely_not_registered")),
               sched::UnknownSchemeError);
}

TEST(CheckRepro, UnsupportedPlatformThrowsInvalidArgument) {
  ReproCase c = fig1_case("dp");
  c.platform = sim::PlatformSpec::standby(4);
  EXPECT_THROW(check_repro(c), std::invalid_argument);
}

TEST(CheckRepro, TinyWallClockBudgetYieldsTimeoutVerdict) {
  ReproCase c = fig1_case("st");
  c.run_budget_ms = 1e-7;  // fires on the very first engine event
  const ReproVerdict v = check_repro(c);
  EXPECT_TRUE(v.violated);
  EXPECT_EQ(v.kind, "timeout");
}

TEST(Shrink, CleanCaseAndTimeoutsAreReturnedUnshrunk) {
  const ShrinkResult clean = shrink(fig1_case("st"));
  EXPECT_FALSE(clean.verdict.violated);
  EXPECT_EQ(clean.oracle_runs, 1u);

  ReproCase hung = fig1_case("st");
  hung.run_budget_ms = 1e-7;
  const ShrinkResult timeout = shrink(hung);
  EXPECT_EQ(timeout.verdict.kind, "timeout");
  EXPECT_EQ(timeout.oracle_runs, 1u);
  EXPECT_EQ(timeout.minimal.ts.size(), hung.ts.size());
}

TEST(Shrink, MinimizesCanaryFailureDeterministically) {
  sched::register_canary_schemes();
  ReproCase c = fig1_case("canary_no_backup");
  // Main copy of mandatory J1,1 dies; the stripped backup cannot recover.
  c.plan.add_transient({0, 1}, 0);
  c.plan.add_transient({1, 1}, 1);  // bystander hit on an optional's backup

  const ShrinkResult first = shrink(c);
  ASSERT_TRUE(first.verdict.violated) << first.verdict.detail;
  EXPECT_EQ(first.verdict.kind, "audit-violation");
  EXPECT_EQ(first.verdict.invariant, "mandatory-miss");
  EXPECT_LE(first.minimal.ts.size(), 2u);
  EXPECT_LE(first.minimal.plan.transients().size(), 1u);

  // Same input, same minimal case -- byte for byte through the serializer.
  const ShrinkResult second = shrink(c);
  EXPECT_EQ(io::serialize_repro_bundle(to_bundle(first.minimal, first.verdict)),
            io::serialize_repro_bundle(to_bundle(second.minimal, second.verdict)));
  EXPECT_EQ(first.oracle_runs, second.oracle_runs);

  // The minimal case still fails the same way when re-checked from scratch.
  const ReproVerdict replayed = check_repro(first.minimal);
  EXPECT_TRUE(replayed.violated);
  EXPECT_EQ(replayed.invariant, "mandatory-miss");
}

TEST(Canary, RegistrationIsIdempotentAndGated) {
  const std::size_t first = sched::register_canary_schemes();
  EXPECT_EQ(sched::register_canary_schemes(), 0u);  // second call adds nothing
  (void)first;  // may be 0 or 2 depending on which test ran first
  EXPECT_TRUE(sched::Registry::instance().contains("canary_no_backup"));
  EXPECT_TRUE(sched::Registry::instance().contains("canary_late_promotion"));
}

}  // namespace
}  // namespace mkss::fault
