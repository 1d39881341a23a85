// Golden-trace regression gate: the committed JSON traces under tests/golden/
// pin the exact observable behavior of the paper's four schemes on the dual
// platform (fault-free, permanent-fault, and the Figure-5 set). Every engine
// or scheme refactor must reproduce them byte for byte; regenerate the files
// deliberately (and say why in the commit) when behavior changes on purpose.
//
// The traces are produced through the real CLI binary so the whole pipeline
// is pinned: registry resolution, platform construction, simulation, and the
// JSON serializer.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string golden_path(const std::string& file) {
  return std::string(MKSS_GOLDEN_DIR) + "/" + file;
}

/// Runs the CLI and captures stdout only (the traces go to stdout; any
/// diagnostics on stderr must not pollute the comparison).
std::string run_cli_stdout(const std::string& args, int& exit_code) {
  const std::string cmd = std::string(MKSS_CLI_PATH) + " " + args;
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct GoldenCase {
  std::string scheme;
  std::string taskset;   ///< file under tests/golden/
  std::string flags;     ///< simulate flags after the scheme
  std::string expected;  ///< committed trace JSON under tests/golden/
};

/// Without this, gtest prints the param as a raw byte dump that holds the
/// strings' heap pointers, so the listed test names (and the ctest names
/// gtest_discover_tests derives from them) changed with every run under ASLR.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << "simulate " << c.taskset << " --scheme " << c.scheme << " "
      << c.flags;
}

class GoldenTrace : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTrace, ByteIdentical) {
  const GoldenCase& c = GetParam();
  int exit_code = -1;
  const std::string got = run_cli_stdout(
      "simulate " + golden_path(c.taskset) + " --scheme " + c.scheme + " " +
          c.flags + " --json",
      exit_code);
  EXPECT_EQ(exit_code, 0) << "simulate failed for " << c.expected;
  const std::string want = read_file(golden_path(c.expected));
  ASSERT_FALSE(want.empty());
  // EQ on the full strings would dump both traces on mismatch; compare the
  // bytes and report just the first divergence.
  if (got != want) {
    std::size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
    FAIL() << c.expected << " diverges from the live trace at byte " << at
           << " (got " << got.size() << " bytes, want " << want.size() << ")";
  }
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const std::string s : {"st", "dp", "greedy", "selective"}) {
    cases.push_back({s, "golden_fig1.txt", "--horizon 100",
                     "trace_" + s + "_fig1.json"});
    cases.push_back({s, "golden_fig1.txt", "--horizon 100 --permanent 0@7",
                     "trace_" + s + "_fig1_pf.json"});
    cases.push_back({s, "golden_fig5.txt", "--horizon 120",
                     "trace_" + s + "_fig5.json"});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, GoldenTrace,
                         ::testing::ValuesIn(golden_cases()),
                         [](const auto& param_info) {
                           std::string name = param_info.param.expected;
                           for (char& ch : name) {
                             if (ch == '.' || ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
