// The flag parser every figure/ablation bench shares (bench/fig6_common.hpp).
// Only parsing is exercised: every rejected value is refused before a sweep,
// and so before any worker thread, could start.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fig6_common.hpp"

namespace {

using mkss::benchrun::apply_bench_cli;
using mkss::benchrun::bench_config;
using mkss::benchrun::bench_threads;
using mkss::benchrun::paper_sweep_config;
using mkss::fault::Scenario;

/// argv for a bench invocation: "bench" followed by `args`.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "bench");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

TEST(BenchCli, FlagsOverrideThePaperDefaults) {
  auto cfg = paper_sweep_config(Scenario::kNoFault);
  Argv none({});
  ASSERT_TRUE(apply_bench_cli(cfg, none.argc(), none.argv()));
  EXPECT_EQ(cfg.num_threads, 0u);
  EXPECT_EQ(cfg.sets_per_bin, 20u);
  EXPECT_EQ(cfg.max_attempts_per_bin, 5000u);

  Argv a({"--threads", "3", "--sets", "5", "--max-attempts", "2000"});
  ASSERT_TRUE(apply_bench_cli(cfg, a.argc(), a.argv()));
  EXPECT_EQ(cfg.num_threads, 3u);
  EXPECT_EQ(cfg.sets_per_bin, 5u);
  EXPECT_EQ(cfg.max_attempts_per_bin, 2000u);

  Argv threads({"--threads", "2"});
  EXPECT_EQ(bench_threads(threads.argc(), threads.argv()), 2u);
  EXPECT_EQ(bench_threads(none.argc(), none.argv()), 0u);
}

TEST(BenchCli, RejectsNonNumericNegativeAndOutOfRangeValues) {
  for (const char* flag : {"--threads", "--sets", "--max-attempts"}) {
    for (const char* value :
         {"abc", "-1", " -1", "+3", "12x", "", " 7",
          "99999999999999999999999"}) {
      auto cfg = paper_sweep_config(Scenario::kNoFault);
      Argv a({flag, value});
      EXPECT_FALSE(apply_bench_cli(cfg, a.argc(), a.argv()))
          << flag << " '" << value << "'";
    }
  }
}

TEST(BenchCli, RejectsUnknownFlagsAndMissingValues) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--out-dir", "d"}, {"--sets"}, {"--threads", "2", "--bogus"}}) {
    auto cfg = paper_sweep_config(Scenario::kNoFault);
    Argv a(args);
    EXPECT_FALSE(apply_bench_cli(cfg, a.argc(), a.argv())) << args[0];
  }
}

TEST(BenchCliDeathTest, BenchConfigExitsTwoWithUsage) {
  Argv a({"--sets", "abc"});
  EXPECT_EXIT(bench_config(Scenario::kNoFault, a.argc(), a.argv()),
              testing::ExitedWithCode(2), "usage:");
}

TEST(BenchCliDeathTest, BenchThreadsExitsTwoOnBadValues) {
  for (const char* value : {"-1", "abc"}) {
    Argv a({"--threads", value});
    EXPECT_EXIT(bench_threads(a.argc(), a.argv()), testing::ExitedWithCode(2),
                "usage:")
        << value;
  }
}

}  // namespace
