// Integration tests: the mkss_cli binary itself -- exit-code contract
// (0 ok, 1 failure, 2 usage, 3 bad input, 4 audit violation) and the
// audit/campaign subcommands, exercised through real process invocations.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct CliResult {
  int exit_code{-1};
  std::string output;  ///< stdout and stderr combined
};

/// `env_prefix` (e.g. "MKSS_ENABLE_CANARY_SCHEMES=1 ") is prepended to the
/// command, so it only applies to the spawned CLI process.
CliResult run_cli(const std::string& args, const std::string& env_prefix = "") {
  const std::string cmd =
      env_prefix + std::string(MKSS_CLI_PATH) + " " + args + " 2>&1";
  CliResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

/// Writes `content` to a unique file under the test temp dir.
std::string write_temp(const std::string& stem, const std::string& content) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("mkss_cli_test_" + stem + "_" + std::to_string(::getpid()) + ".txt");
  std::ofstream(path) << content;
  return path.string();
}

constexpr const char* kFig1 =
    "control 5 4 3 2 4\n"
    "video   10 10 3 1 2\n";

TEST(Cli, NoArgumentsPrintsUsage) {
  const CliResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownOptionIsUsageError) {
  const std::string ts = write_temp("usage", kFig1);
  const CliResult r = run_cli("simulate " + ts + " --bogus");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--bogus"), std::string::npos);
  std::filesystem::remove(ts);
}

TEST(Cli, MalformedTasksetIsInputError) {
  const std::string ts = write_temp("nan", "bad nan 1 1 1 2\n");
  const CliResult r = run_cli("analyze " + ts);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("line 1"), std::string::npos);
  std::filesystem::remove(ts);
}

TEST(Cli, MissingFileIsInputError) {
  const CliResult r = run_cli("analyze /nonexistent/taskset.txt");
  EXPECT_EQ(r.exit_code, 3);
}

TEST(Cli, SimulateReportsSchedule) {
  const std::string ts = write_temp("sim", kFig1);
  const CliResult r = run_cli("simulate " + ts + " --scheme st");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("(m,k) satisfied: yes"), std::string::npos);
  std::filesystem::remove(ts);
}

TEST(Cli, AuditCleanSchemeExitsZero) {
  const std::string ts = write_temp("audit", kFig1);
  const CliResult r =
      run_cli("audit " + ts + " --scheme selective --permanent 1@7");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("audit clean"), std::string::npos);
  std::filesystem::remove(ts);
}

TEST(Cli, CampaignOnTasksetExitsZero) {
  const std::string ts = write_temp("campaign", kFig1);
  const CliResult r = run_cli("campaign --taskset " + ts + " --scheme st");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos);
  std::filesystem::remove(ts);
}

// --- Scheduler registry surface: `schemes`, --scheme resolution and the
// --procs platform flag. ---------------------------------------------------

TEST(Cli, UnknownSchemeIsUsageErrorListingAvailableSchemes) {
  const std::string ts = write_temp("unknownscheme", kFig1);
  const CliResult r = run_cli("simulate " + ts + " --scheme no_such_scheme");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown scheme 'no_such_scheme'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("available:"), std::string::npos) << r.output;
  for (const char* name : {"st", "dp", "greedy", "selective", "global_fp",
                           "partitioned_fp", "global_edf", "multi_spare"}) {
    EXPECT_NE(r.output.find(name), std::string::npos)
        << "error does not list " << name << ":\n" << r.output;
  }
  std::filesystem::remove(ts);
}

TEST(Cli, SchemesSubcommandListsEveryRegisteredScheme) {
  const CliResult r = run_cli("schemes");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* title : {"MKSS_ST", "MKSS_DP", "MKSS_greedy",
                            "MKSS_selective", "Global-FP", "Partitioned-FP",
                            "Global-EDF", "Multi-spare"}) {
    EXPECT_NE(r.output.find(title), std::string::npos)
        << "table is missing " << title << ":\n" << r.output;
  }
}

TEST(Cli, SchemesNamesPrintsBareSortedNames) {
  const CliResult r = run_cli("schemes --names");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // One bare name per line, sorted -- the CI matrix consumes this verbatim.
  std::vector<std::string> names;
  std::string line;
  for (std::istringstream in(r.output); std::getline(in, line);) {
    names.push_back(line);
  }
  EXPECT_GE(names.size(), 8u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end())) << r.output;
  EXPECT_NE(std::find(names.begin(), names.end(), "selective"), names.end());
  EXPECT_EQ(r.output.find(' '), std::string::npos) << r.output;
}

TEST(Cli, SchemesNamesProcsFiltersToSupportingSchemes) {
  const CliResult r = run_cli("schemes --names --procs 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* nproc : {"global_fp", "partitioned_fp", "global_edf",
                            "multi_spare"}) {
    EXPECT_NE(r.output.find(nproc), std::string::npos) << r.output;
  }
  for (const std::string dual_only : {"st", "dp", "greedy", "selective"}) {
    EXPECT_EQ(r.output.find(dual_only + "\n"), std::string::npos)
        << dual_only << " claims 4-processor support:\n" << r.output;
  }
}

TEST(Cli, SimulateNewSchemeOnFourProcessors) {
  const std::string ts = write_temp("fourproc", kFig1);
  const CliResult r =
      run_cli("simulate " + ts + " --scheme multi_spare --procs 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("scheme Multi-spare"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("(m,k) satisfied: yes"), std::string::npos)
      << r.output;
  std::filesystem::remove(ts);
}

TEST(Cli, DualOnlySchemeRejectsFourProcessors) {
  const std::string ts = write_temp("dualonly", kFig1);
  const CliResult r = run_cli("simulate " + ts + " --scheme st --procs 4");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("does not support --procs 4"), std::string::npos)
      << r.output;
  std::filesystem::remove(ts);
}

TEST(Cli, ProcsOutsidePlatformEnvelopeIsUsageError) {
  const std::string ts = write_temp("procsrange", kFig1);
  for (const char* bad : {"0", "1", "256", "two"}) {
    const CliResult r =
        run_cli("simulate " + ts + " --scheme global_fp --procs " +
                std::string(bad));
    EXPECT_EQ(r.exit_code, 2) << bad << ":\n" << r.output;
  }
  std::filesystem::remove(ts);
}

TEST(Cli, PermanentFaultOutsidePlatformIsUsageError) {
  const std::string ts = write_temp("pfoutside", kFig1);
  const CliResult r = run_cli("simulate " + ts + " --scheme st --permanent 2@7");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  std::filesystem::remove(ts);
}

TEST(Cli, AuditNewSchemesOnFourProcessorsWithPermanentFault) {
  const std::string ts = write_temp("auditnproc", kFig1);
  for (const char* scheme : {"global_fp", "partitioned_fp", "global_edf",
                             "multi_spare"}) {
    const CliResult r = run_cli("audit " + ts + " --scheme " +
                                std::string(scheme) +
                                " --procs 4 --permanent 0@7");
    EXPECT_EQ(r.exit_code, 0) << scheme << ":\n" << r.output;
    EXPECT_NE(r.output.find("audit clean"), std::string::npos) << r.output;
  }
  std::filesystem::remove(ts);
}

TEST(Cli, CampaignSkipsDualOnlySchemesOnLargerPlatforms) {
  const std::string ts = write_temp("campskip", kFig1);
  const CliResult r = run_cli("campaign --taskset " + ts +
                              " --scheme all --procs 3 --horizon 40");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("skipping st"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
  std::filesystem::remove(ts);
}

// --- Shared option parser: --threads/--seed/--horizon/--error-dir must be
// spelled and validated identically across sweep, audit and campaign. -----

TEST(Cli, SharedSeedValidationIsIdenticalAcrossCommands) {
  const std::string ts = write_temp("seedval", kFig1);
  const char* expect = "--seed wants a non-negative integer, got '12x'";
  for (const std::string& cmd :
       {std::string("sweep --seed 12x"), "audit " + ts + " --seed 12x",
        std::string("campaign --seed 12x")}) {
    const CliResult r = run_cli(cmd);
    EXPECT_EQ(r.exit_code, 2) << cmd;
    EXPECT_NE(r.output.find(expect), std::string::npos) << cmd << "\n" << r.output;
  }
  std::filesystem::remove(ts);
}

TEST(Cli, SharedHorizonValidationIsIdenticalAcrossCommands) {
  const std::string ts = write_temp("horval", kFig1);
  const char* expect = "wants a positive duration in ms, got '-5'";
  for (const std::string& cmd :
       {std::string("sweep --horizon -5"), "audit " + ts + " --horizon -5",
        std::string("campaign --horizon -5")}) {
    const CliResult r = run_cli(cmd);
    EXPECT_EQ(r.exit_code, 2) << cmd;
    EXPECT_NE(r.output.find(expect), std::string::npos) << cmd << "\n" << r.output;
  }
  std::filesystem::remove(ts);
}

TEST(Cli, SharedFlagMissingValueIsUsageError) {
  const CliResult r = run_cli("sweep --threads");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("missing value for --threads"), std::string::npos);
}

TEST(Cli, SweepThreadsRejectsGarbage) {
  const CliResult r = run_cli("sweep --threads two");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--threads wants a non-negative integer"),
            std::string::npos);
}

TEST(Cli, SweepAcceptsSeedAndHorizon) {
  const CliResult r =
      run_cli("sweep --sets 1 --seed 7 --horizon 2000 --threads 2 --no-audit");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("bin"), std::string::npos);
}

TEST(Cli, CampaignHorizonCapAliasMatchesHorizon) {
  const std::string ts = write_temp("alias", kFig1);
  const CliResult canonical =
      run_cli("campaign --taskset " + ts + " --scheme st --horizon 40");
  const CliResult alias =
      run_cli("campaign --taskset " + ts + " --scheme st --horizon-cap 40");
  EXPECT_EQ(canonical.exit_code, 0) << canonical.output;
  EXPECT_EQ(alias.exit_code, 0) << alias.output;
  EXPECT_EQ(canonical.output, alias.output);
  std::filesystem::remove(ts);
}

TEST(Cli, AuditAcceptsSharedSeedAndHorizon) {
  const std::string ts = write_temp("auditshared", kFig1);
  const CliResult r =
      run_cli("audit " + ts + " --scheme selective --seed 3 --horizon 40");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("audit clean"), std::string::npos);
  std::filesystem::remove(ts);
}

// --- Chaos fuzz campaigns and repro-bundle replay. ------------------------

/// A minimal explicit-dialect bundle with one tolerated transient: the
/// backup recovers, so replay is clean.
constexpr const char* kCleanBundle =
    "# mkss repro bundle v1\n"
    "# scheme: st\n"
    "# procs: 2\n"
    "# roles: WS\n"
    "# stream-version: 2\n"
    "# horizon-ticks: 20000\n"
    "# plan: explicit\n"
    "# transient: 0 1 0\n"
    "control 5 4 3 2 4\n"
    "video   10 10 3 1 2\n";

TEST(Cli, FuzzCleanSchemesExitZero) {
  const CliResult r = run_cli("fuzz --runs 10 --seed 7 --threads 0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("fuzz: 10 iteration(s)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("violations: 0"), std::string::npos) << r.output;
}

TEST(Cli, FuzzOutputIsBitIdenticalAcrossThreadCounts) {
  const CliResult serial = run_cli("fuzz --runs 100 --seed 42 --threads 1");
  const CliResult parallel = run_cli("fuzz --runs 100 --seed 42 --threads 4");
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_EQ(serial.output, parallel.output);
}

TEST(Cli, FuzzRejectsBadProcsRangeAndUnknownScheme) {
  for (const char* args :
       {"fuzz --procs-range 4", "fuzz --procs-range 4..2",
        "fuzz --procs-range 2..x", "fuzz --scheme no_such_scheme",
        "fuzz --runs -3", "fuzz --bogus"}) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << ":\n" << r.output;
  }
}

TEST(Cli, FuzzCatchesCanariesWritesBundlesAndReplayReproduces) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mkss_cli_fuzz_canary_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  // The deliberately broken canary scheme (env-gated, test-only) must be
  // caught, shrunk, and written out as repro bundles...
  const CliResult fuzz = run_cli(
      "fuzz --runs 40 --seed 11 --scheme canary_no_backup --threads 0 "
      "--error-dir " + dir.string(),
      "MKSS_ENABLE_CANARY_SCHEMES=1 ");
  EXPECT_EQ(fuzz.exit_code, 4) << fuzz.output;
  EXPECT_NE(fuzz.output.find("mandatory-miss"), std::string::npos)
      << fuzz.output;
  std::size_t bundles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) ++bundles;
  }
  EXPECT_GT(bundles, 0u) << fuzz.output;

  // ...replaying the directory reproduces the violations (exit 4)...
  const CliResult replay =
      run_cli("replay " + dir.string(), "MKSS_ENABLE_CANARY_SCHEMES=1 ");
  EXPECT_EQ(replay.exit_code, 4) << replay.output;
  EXPECT_NE(replay.output.find("VIOLATED"), std::string::npos) << replay.output;

  // ...and without the gate the canary is an unknown scheme: bad input, 3.
  const CliResult ungated = run_cli("replay " + dir.string());
  EXPECT_EQ(ungated.exit_code, 3) << ungated.output;
  EXPECT_NE(ungated.output.find("unknown scheme 'canary_no_backup'"),
            std::string::npos)
      << ungated.output;

  std::filesystem::remove_all(dir);
}

TEST(Cli, ReplayCleanBundleExitsZero) {
  const std::string bundle = write_temp("cleanbundle", kCleanBundle);
  const CliResult r = run_cli("replay " + bundle);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean (scheme st"), std::string::npos) << r.output;
  std::filesystem::remove(bundle);
}

TEST(Cli, ReplayMissingOrMalformedBundleIsInputError) {
  EXPECT_EQ(run_cli("replay /nonexistent/x.repro.txt").exit_code, 3);
  const std::string ts = write_temp("notabundle", kFig1);
  const CliResult r = run_cli("replay " + ts);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("missing"), std::string::npos) << r.output;
  std::filesystem::remove(ts);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("mkss_cli_replay_empty_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const CliResult empty = run_cli("replay " + dir.string());
  EXPECT_EQ(empty.exit_code, 3) << empty.output;
  std::filesystem::remove_all(dir);
}

TEST(Cli, UnknownCommandListsAvailableOnes) {
  const CliResult r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"), std::string::npos)
      << r.output;
  // The listing comes from the command table, so every subcommand is there.
  for (const char* name : {"analyze", "serve", "fuzz", "example"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << r.output;
  }
}

// One request per line; the JSON "\n" escapes inside the raw string are the
// wire form of the inline task-set text.
constexpr const char* kServeSession =
    R"({"v": 1, "id": "s1", "taskset": "control 5 4 3 2 4\nvideo 10 10 3 1 2\n", "scheme": "st", "horizon_ms": 100})"
    "\n"
    R"({"v": 1, "id": "s2", "taskset": "control 5 4 3 2 4\nvideo 10 10 3 1 2\n", "scheme": "st", "permanent": {"proc": 0, "at_ms": 7}, "horizon_ms": 100})"
    "\n"
    "definitely not json\n"
    R"({"v": 1, "id": "s4", "taskset": "control 5 4 3 2 4\n", "scheme": "no_such_scheme"})"
    "\n"
    R"({"v": 1, "id": "s5", "taskset": "control 5 4 3 2 4\n", "scheme": "st", "procs": 4})"
    "\n"
    R"({"v": 1, "id": "s6", "taskset": "broken nan 1 1 1 2\n", "scheme": "st"})"
    "\n"
    R"({"v": 2, "id": "s7", "taskset": "control 5 4 3 2 4\n"})"
    "\n";

TEST(Cli, ServeAnswersWholeSessionIncludingErrors) {
  const std::string in = write_temp("serve_session", kServeSession);
  const CliResult r = run_cli("serve --input " + in);
  EXPECT_EQ(r.exit_code, 0) << r.output;  // errors are responses, not deaths
  EXPECT_NE(r.output.find("\"id\": \"s1\", \"ok\": true"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"id\": \"s2\", \"ok\": true"), std::string::npos)
      << r.output;
  for (const char* code : {"parse-error", "unknown-scheme",
                           "envelope-violation", "bad-input", "bad-request"}) {
    EXPECT_NE(r.output.find("\"code\": \"" + std::string(code) + "\""),
              std::string::npos)
        << code << "\n" << r.output;
  }
  EXPECT_NE(r.output.find("served 7 request(s): 2 ok, 5 error(s)"),
            std::string::npos)
      << r.output;
  std::filesystem::remove(in);
}

TEST(Cli, ServeReadsStdinWhenNoInputFlag) {
  const std::string in = write_temp("serve_stdin", kServeSession);
  const CliResult r = run_cli("serve < " + in);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"id\": \"s1\", \"ok\": true"), std::string::npos)
      << r.output;
  std::filesystem::remove(in);
}

TEST(Cli, ServeResponseStreamIsByteIdenticalAcrossWorkerCounts) {
  const std::string in = write_temp("serve_workers", kServeSession);
  const auto read_back = [](const std::string& path) {
    std::ifstream f(path);
    std::stringstream buf;
    buf << f.rdbuf();
    return buf.str();
  };
  std::string reference;
  for (const char* workers : {"1", "3", "0"}) {
    const std::string out = in + ".w" + workers;
    // The subshell keeps the telemetry (stderr, includes wall time and the
    // worker-dependent queue high-water mark) out of the compared stream;
    // run_cli's own 2>&1 would otherwise fold it into `out`.
    const CliResult r =
        run_cli("serve --workers " + std::string(workers) + " --input " + in +
                    " > " + out + " 2>/dev/null )",
                "( ");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    const std::string stream = read_back(out);
    EXPECT_FALSE(stream.empty());
    if (reference.empty()) {
      reference = stream;
    } else {
      EXPECT_EQ(stream, reference) << "workers=" << workers;
    }
    std::filesystem::remove(out);
  }
  std::filesystem::remove(in);
}

TEST(Cli, ServeAuditViolationIsResponseNotDeath) {
  // The deliberately broken canary scheme (env-gated, test-only) drops
  // backups, so a permanent fault makes the auditor fire -- as a structured
  // audit-violation response, with the next request still answered.
  const std::string in = write_temp(
      "serve_audit",
      R"({"v": 1, "id": "boom", "taskset": "control 5 4 3 2 4\nvideo 10 10 3 1 2\n", "scheme": "canary_no_backup", "permanent": {"proc": 0, "at_ms": 2}, "horizon_ms": 100})"
      "\n"
      R"({"v": 1, "id": "after", "taskset": "control 5 4 3 2 4\n", "scheme": "st", "horizon_ms": 100})"
      "\n");
  const CliResult r =
      run_cli("serve --input " + in, "MKSS_ENABLE_CANARY_SCHEMES=1 ");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("audit-violation"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"id\": \"after\", \"ok\": true"),
            std::string::npos)
      << r.output;
  std::filesystem::remove(in);
}

TEST(Cli, ServeFlagErrorsAreUsageErrors) {
  EXPECT_EQ(run_cli("serve --queue-depth 0").exit_code, 2);
  EXPECT_EQ(run_cli("serve --bogus").exit_code, 2);
  EXPECT_EQ(run_cli("serve --input /nonexistent/requests.jsonl").exit_code, 3);
}

TEST(Cli, ExampleOutputRoundTripsThroughAnalyze) {
  const CliResult example = run_cli("example");
  ASSERT_EQ(example.exit_code, 0);
  const std::string ts = write_temp("example", example.output);
  const CliResult r = run_cli("analyze " + ts);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::filesystem::remove(ts);
}

}  // namespace
