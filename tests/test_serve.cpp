// The admission service and its wire protocol: JSON parser strictness,
// request codec round-trips, the stable error-code contract (a malformed
// request is a response, never a dead server), strict request-order
// emission with byte-identical streams across worker counts, backpressure
// telemetry, and the shared JsonWriter's layout/number policies.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "mkss.hpp"

namespace {

using namespace mkss;

constexpr const char* kFig1 =
    "control 5 4 3 2 4\n"
    "video   10 10 3 1 2\n";

/// One request line over the Figure-1 set; tweak fields via the callback.
template <typename Fn>
std::string request_line(Fn&& tweak) {
  io::ServeRequest req;
  req.id = "r";
  req.taskset = kFig1;
  tweak(req);
  return io::serialize_serve_request(req);
}

std::string ok_request(const std::string& id, const std::string& scheme) {
  return request_line([&](io::ServeRequest& r) {
    r.id = id;
    r.scheme = scheme;
    r.horizon = core::from_ms(std::int64_t{100});
  });
}

/// Runs `lines` through a service at the given worker count and returns the
/// concatenated response stream plus telemetry.
std::pair<std::string, harness::ServeTelemetry> run_service(
    const std::vector<std::string>& lines, std::size_t workers,
    std::size_t queue_depth = 64) {
  harness::ServeConfig cfg;
  cfg.workers = workers;
  cfg.queue_depth = queue_depth;
  std::string stream;
  std::uint64_t expect_seq = 0;
  harness::AdmissionService service(
      cfg, [&](std::uint64_t seq, const std::string& line) {
        EXPECT_EQ(seq, expect_seq++);  // strict submit-order emission
        stream += line;
        stream += '\n';
      });
  for (const std::string& line : lines) service.submit(line);
  return {stream, service.finish()};
}

// --- JSON value parser ----------------------------------------------------

TEST(ParseJson, ParsesScalarsContainersAndEscapes) {
  std::string error;
  const auto v = io::parse_json(
      R"({"s": "a\"\\\n\u0041", "n": -2.5e1, "b": true, "z": null,)"
      R"( "arr": [1, 2], "obj": {"k": false}})",
      &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->find("s")->string, "a\"\\\nA");
  EXPECT_EQ(v->find("n")->number, -25.0);
  EXPECT_TRUE(v->find("b")->boolean);
  EXPECT_EQ(v->find("z")->kind, io::JsonValue::Kind::kNull);
  ASSERT_EQ(v->find("arr")->items.size(), 2u);
  EXPECT_EQ(v->find("arr")->items[1].number, 2.0);
  EXPECT_FALSE(v->find("obj")->find("k")->boolean);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(ParseJson, RejectsTrailingGarbageWithPosition) {
  std::string error;
  EXPECT_FALSE(io::parse_json("{} x", &error).has_value());
  EXPECT_NE(error.find("at byte"), std::string::npos) << error;
}

TEST(ParseJson, RejectsMalformedDocuments) {
  std::string error;
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "nul", "\"\\q\"",
                          "01", "1e", "+1", "\"unterminated"}) {
    EXPECT_FALSE(io::parse_json(bad, &error).has_value())
        << "accepted: " << bad;
  }
}

TEST(ParseJson, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  std::string error;
  EXPECT_FALSE(io::parse_json(deep, &error).has_value());
  EXPECT_NE(error.find("nest"), std::string::npos) << error;
}

// --- Error-code / exit-code contract --------------------------------------

TEST(ServeProtocol, ErrorCodesMirrorCliExitCodes) {
  EXPECT_EQ(io::serve_code_exit(""), 0);
  EXPECT_EQ(io::serve_code_exit(io::kServeCodeParse), 2);
  EXPECT_EQ(io::serve_code_exit(io::kServeCodeBadRequest), 2);
  EXPECT_EQ(io::serve_code_exit(io::kServeCodeUnknownScheme), 2);
  EXPECT_EQ(io::serve_code_exit(io::kServeCodeEnvelope), 2);
  EXPECT_EQ(io::serve_code_exit(io::kServeCodeBadInput), 3);
  EXPECT_EQ(io::serve_code_exit(io::kServeCodeAuditViolation), 4);
  EXPECT_EQ(io::serve_code_exit(io::kServeCodeInternal), 1);
}

// --- Request codec --------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsFieldIdentically) {
  io::ServeRequest req;
  req.id = "round \"trip\"\n";
  req.taskset = kFig1;
  req.scheme = "global_fp";
  req.procs = 4;
  req.horizon = core::from_ms(std::int64_t{250});
  req.permanent = sim::PermanentFault{2, core::from_ms(std::int64_t{7})};
  req.lambda_per_ms = 1e-6;
  req.seed = 987654321;
  req.audit = false;
  req.timing = true;

  const auto parsed = io::parse_serve_request(io::serialize_serve_request(req));
  ASSERT_TRUE(parsed.error_code.empty()) << parsed.error_message;
  const io::ServeRequest& r = parsed.req;
  EXPECT_EQ(r.id, req.id);
  EXPECT_EQ(r.taskset, req.taskset);
  EXPECT_TRUE(r.taskset_path.empty());
  EXPECT_EQ(r.scheme, req.scheme);
  EXPECT_EQ(r.procs, req.procs);
  EXPECT_EQ(r.horizon, req.horizon);
  ASSERT_TRUE(r.permanent.has_value());
  EXPECT_EQ(r.permanent->proc, req.permanent->proc);
  EXPECT_EQ(r.permanent->time, req.permanent->time);
  EXPECT_EQ(r.lambda_per_ms, req.lambda_per_ms);  // %a hex: bit-exact
  EXPECT_EQ(r.seed, req.seed);
  EXPECT_EQ(r.audit, req.audit);
  EXPECT_EQ(r.timing, req.timing);
}

TEST(ServeProtocol, MinimalRequestGetsDocumentedDefaults) {
  const auto parsed = io::parse_serve_request(
      R"({"v": 1, "id": "d", "taskset": "control 5 4 3 2 4\n"})");
  ASSERT_TRUE(parsed.error_code.empty()) << parsed.error_message;
  EXPECT_EQ(parsed.req.scheme, "selective");
  EXPECT_EQ(parsed.req.procs, 2u);
  EXPECT_EQ(parsed.req.horizon, core::Ticks{0});
  EXPECT_FALSE(parsed.req.permanent.has_value());
  EXPECT_EQ(parsed.req.lambda_per_ms, 0.0);
  EXPECT_EQ(parsed.req.seed, 1u);
  EXPECT_TRUE(parsed.req.audit);
  EXPECT_FALSE(parsed.req.timing);
}

TEST(ServeProtocol, RejectsBadRequestsWithStableCodes) {
  const struct {
    const char* line;
    const char* code;
  } cases[] = {
      {"not json", io::kServeCodeParse},
      {R"({"v": 2, "id": "x", "taskset": "t"})", io::kServeCodeBadRequest},
      {R"({"v": 1, "taskset": "t"})", io::kServeCodeBadRequest},  // no id
      {R"({"v": 1, "id": "x", "taskset": "t", "typo": 1})",
       io::kServeCodeBadRequest},
      {R"({"v": 1, "id": "x"})", io::kServeCodeBadRequest},  // no task set
      {R"({"v": 1, "id": "x", "taskset": "t", "taskset_path": "p"})",
       io::kServeCodeBadRequest},  // both
      {R"({"v": 1, "id": "x", "taskset": "t", "procs": 1})",
       io::kServeCodeBadRequest},
      {R"({"v": 1, "id": "x", "taskset": "t", "horizon_ms": -5})",
       io::kServeCodeBadRequest},
      {R"({"v": 1, "id": "x", "taskset": "t", "seed": 1.5})",
       io::kServeCodeBadRequest},
  };
  for (const auto& c : cases) {
    const auto parsed = io::parse_serve_request(c.line);
    EXPECT_EQ(parsed.error_code, c.code) << c.line;
  }
}

TEST(ServeProtocol, IdIsEchoedEvenFromRejectedRequests) {
  const auto parsed =
      io::parse_serve_request(R"({"v": 7, "id": "keep-me", "taskset": "t"})");
  EXPECT_EQ(parsed.error_code, io::kServeCodeBadRequest);
  EXPECT_EQ(parsed.req.id, "keep-me");
}

// --- Single-request semantics (process) -----------------------------------

TEST(AdmissionService, AnswersScheduableSetWithVerdictAndStats) {
  harness::RunContext ctx;
  const auto response = harness::AdmissionService::process(
      ok_request("ok1", "selective"), ctx, harness::ServeConfig{});
  EXPECT_TRUE(response.ok) << response.error_message;
  EXPECT_EQ(response.id, "ok1");
  ASSERT_TRUE(response.has_admission);
  EXPECT_TRUE(response.admission.schedulable);
  ASSERT_TRUE(response.has_simulation);
  EXPECT_EQ(response.scheme, "selective");
  EXPECT_TRUE(response.audited);
  EXPECT_TRUE(response.mk_satisfied);
  EXPECT_GT(response.jobs_released, 0u);
  EXPECT_GT(response.energy_total, 0.0);
  EXPECT_FALSE(response.wall_us.has_value());  // timing is opt-in
}

TEST(AdmissionService, TimingIsOptInPerRequest) {
  harness::RunContext ctx;
  const auto response = harness::AdmissionService::process(
      request_line([](io::ServeRequest& r) {
        r.timing = true;
        r.horizon = core::from_ms(std::int64_t{100});
      }),
      ctx, harness::ServeConfig{});
  ASSERT_TRUE(response.ok) << response.error_message;
  ASSERT_TRUE(response.wall_us.has_value());
  EXPECT_GT(*response.wall_us, 0.0);
}

TEST(AdmissionService, MapsFailuresToStableCodes) {
  harness::RunContext ctx;
  const harness::ServeConfig cfg;

  auto code = [&](const std::string& line) {
    return harness::AdmissionService::process(line, ctx, cfg).error_code;
  };
  EXPECT_EQ(code("{broken"), io::kServeCodeParse);
  EXPECT_EQ(code(request_line([](io::ServeRequest& r) {
              r.scheme = "no_such_scheme";
            })),
            io::kServeCodeUnknownScheme);
  EXPECT_EQ(code(request_line([](io::ServeRequest& r) {
              r.taskset = "bad nan 1 1 1 2\n";
            })),
            io::kServeCodeBadInput);
  EXPECT_EQ(code(request_line([](io::ServeRequest& r) {
              r.taskset.clear();
              r.taskset_path = "/nonexistent/corpus.txt";
            })),
            io::kServeCodeBadInput);
  // st is a dual-processor scheme; procs=4 violates its envelope, as does a
  // permanent fault on a processor the platform does not have.
  EXPECT_EQ(code(request_line([](io::ServeRequest& r) {
              r.scheme = "st";
              r.procs = 4;
            })),
            io::kServeCodeEnvelope);
  EXPECT_EQ(code(request_line([](io::ServeRequest& r) {
              r.permanent = sim::PermanentFault{5, core::from_ms(std::int64_t{7})};
            })),
            io::kServeCodeEnvelope);
}

TEST(AdmissionService, ErrorResponsesSerializeWithNullIdWhenUnknown) {
  harness::RunContext ctx;
  const auto response = harness::AdmissionService::process(
      "{broken", ctx, harness::ServeConfig{});
  const std::string line = io::serialize_serve_response(response);
  EXPECT_NE(line.find("\"id\": null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\": false"), std::string::npos) << line;
  EXPECT_NE(line.find("parse-error"), std::string::npos) << line;
}

// --- The service: ordering, resilience, identity, backpressure ------------

TEST(AdmissionService, ServerSurvivesErrorsAndAnswersInOrder) {
  const std::vector<std::string> lines = {
      ok_request("a", "st"),
      "garbage",
      ok_request("b", "dp"),
      request_line([](io::ServeRequest& r) { r.scheme = "no_such_scheme"; }),
      ok_request("c", "selective"),
  };
  const auto [stream, telemetry] = run_service(lines, 2);

  std::istringstream in(stream);
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(in, line)) {
    const auto at = line.find("\"id\": ");
    ASSERT_NE(at, std::string::npos) << line;
    ids.push_back(line.substr(at + 6, line.find(',', at) - at - 6));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"\"a\"", "null", "\"b\"", "\"r\"",
                                           "\"c\""}));
  EXPECT_EQ(telemetry.requests, 5u);
  EXPECT_EQ(telemetry.ok, 3u);
  EXPECT_EQ(telemetry.errors, 2u);
}

TEST(AdmissionService, StreamIsByteIdenticalForEveryWorkerCount) {
  std::vector<std::string> lines;
  for (int i = 0; i < 12; ++i) {
    for (const char* scheme : {"st", "dp", "greedy", "selective"}) {
      lines.push_back(ok_request(scheme + std::to_string(i), scheme));
    }
    lines.push_back("malformed #" + std::to_string(i));
  }
  const auto [reference, telemetry] = run_service(lines, 1);
  EXPECT_EQ(telemetry.requests, lines.size());
  for (const std::size_t workers : {std::size_t{2}, std::size_t{0}}) {
    const auto [stream, t2] = run_service(lines, workers);
    EXPECT_EQ(stream, reference) << "workers=" << workers;
    EXPECT_EQ(t2.ok, telemetry.ok);
    EXPECT_EQ(t2.errors, telemetry.errors);
  }
}

TEST(AdmissionService, RepeatedCorpusWarmsTheTimelineCache) {
  // Release timelines are keyed on (periods, deadlines, horizon) content, so
  // a corpus served twice builds each distinct timeline once and hits warm
  // on every repeat. Forced to the default cached mode, so the contract is
  // checked under an MKSS_TIMELINE=heap environment too.
  const std::vector<std::string> tasksets = {kFig1,
                                             "a 4 4 1 1 2\nb 8 8 2 1 3\n"};
  std::vector<std::string> corpus;
  for (const std::string& ts : tasksets) {
    for (const std::int64_t horizon_ms : {100, 200}) {
      for (const char* scheme : {"st", "selective"}) {
        corpus.push_back(request_line([&](io::ServeRequest& r) {
          r.taskset = ts;
          r.scheme = scheme;
          r.horizon = core::from_ms(horizon_ms);
        }));
      }
    }
  }
  const std::uint64_t distinct_contents = 4;  // 2 task sets x 2 horizons
  std::vector<std::string> lines = corpus;
  lines.insert(lines.end(), corpus.begin(), corpus.end());

  sim::set_forced_timeline_mode(sim::TimelineMode::kAuto);
  const auto [stream, telemetry] = run_service(lines, 1);
  sim::clear_forced_timeline_mode();

  EXPECT_EQ(telemetry.ok, lines.size()) << stream;
  EXPECT_GT(telemetry.timeline_hits, 0u);
  EXPECT_EQ(telemetry.timeline_misses, distinct_contents);
}

TEST(AdmissionService, BackpressureBoundsTheQueue) {
  std::vector<std::string> lines;
  for (int i = 0; i < 16; ++i) lines.push_back(ok_request("q" + std::to_string(i), "st"));
  const auto [stream, telemetry] = run_service(lines, 2, /*queue_depth=*/1);
  EXPECT_EQ(telemetry.requests, 16u);
  EXPECT_EQ(telemetry.ok, 16u);
  EXPECT_LE(telemetry.max_queue_depth, 1u);  // submit() blocked instead
  EXPECT_EQ(std::count(stream.begin(), stream.end(), '\n'), 16);
}

TEST(AdmissionService, ServeStreamAnswersEachLineAndSkipsBlanks) {
  std::istringstream in(ok_request("s1", "st") + "\n\n   \n" +
                        ok_request("s2", "dp") + "\n");
  std::ostringstream out;
  harness::ServeConfig cfg;
  const auto telemetry = harness::serve_stream(in, out, cfg);
  EXPECT_EQ(telemetry.requests, 2u);
  EXPECT_EQ(telemetry.ok, 2u);
  const std::string stream = out.str();
  EXPECT_EQ(std::count(stream.begin(), stream.end(), '\n'), 2);
  EXPECT_NE(stream.find("\"id\": \"s1\""), std::string::npos);
  EXPECT_NE(stream.find("\"id\": \"s2\""), std::string::npos);
}

// --- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, InlineAndBlockScopesMatchTheDocumentedLayout) {
  io::JsonWriter w;
  w.begin_object(io::JsonWriter::Scope::kBlock);
  w.key("name");
  w.string("x");
  w.key("runs");
  w.begin_array(io::JsonWriter::Scope::kBlock);
  w.begin_object();
  w.key("n");
  w.u64(1);
  w.end_object();
  w.end_array();
  w.key("empty");
  w.begin_array(io::JsonWriter::Scope::kBlock);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"runs\": [\n"
            "    {\"n\": 1}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}");
}

TEST(JsonWriter, NumberPoliciesAreExact) {
  io::JsonWriter w;
  w.begin_array();
  w.fixed(1.25, 2);
  w.ticks_ms(core::from_ms(std::int64_t{7}));
  w.i64(-3);
  w.null();
  w.boolean(true);
  w.end_array();
  EXPECT_EQ(w.take(), "[1.25, 7.000, -3, null, true]");

  io::JsonWriter h;
  h.begin_array();
  h.hex(1e-6);
  h.end_array();
  std::string error;
  const auto parsed = io::parse_json(std::string("{\"l\": \"x\"}"), &error);
  ASSERT_TRUE(parsed.has_value());
  // %a output round-trips bit-exactly through strtod.
  const std::string hex_doc = h.take();
  const double back = std::strtod(hex_doc.c_str() + 1, nullptr);
  EXPECT_EQ(back, 1e-6);
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(io::json_escape("a\"b\\c\nd\te\r\x01"),
            "a\\\"b\\\\c\\nd\\te\\r\\u0001");
}

}  // namespace
