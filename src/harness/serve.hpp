// Admission service: the long-lived engine behind `mkss_cli serve`.
//
// The CLI's one-shot subcommands pay process start-up, task-set parsing and
// offline-analysis cost per invocation, which makes them a poor backend for
// anything interactive (an admission-control loop, a parameter-space
// explorer, a load generator). AdmissionService keeps the expensive state
// alive instead: a fixed pool of worker threads, each owning a
// harness::RunContext (engine + trace/stats sinks whose arenas survive
// across requests), fed from one bounded request queue.
//
// Contract (the docs/architecture.md "Admission service" section is the
// long-form version):
//
//   * Backpressure, not buffering: submit() blocks once `queue_depth`
//     requests are in flight, so a fast producer cannot balloon memory.
//   * Strict request-order responses: every response is emitted in submit()
//     sequence regardless of which worker finished first (a cooperative
//     reorder buffer under the emit lock -- the worker holding the oldest
//     outstanding sequence drains everything contiguous). With `timing`
//     off, a response is a pure function of its request line, so the
//     response *stream* is byte-identical for every worker count.
//   * Errors are responses: malformed JSON, unknown schemes, envelope
//     violations, unreadable corpus files and audit violations each produce
//     a structured error response (io/serve_protocol.hpp codes) -- the
//     service never dies on a request.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/time.hpp"
#include "energy/energy_model.hpp"
#include "harness/batch_runner.hpp"
#include "io/serve_protocol.hpp"

namespace mkss::harness {

struct ServeConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency. The response
  /// stream is byte-identical for every value (timing-free requests).
  std::size_t workers{1};
  /// Bounded queue depth; submit() blocks while this many requests are
  /// queued and unclaimed (claimed requests ride in their worker).
  std::size_t queue_depth{64};
  /// Horizon cap for requests that do not pin `horizon_ms`; such requests
  /// simulate over harness::choose_horizon(ts, horizon_cap).
  core::Ticks horizon_cap{core::from_ms(std::int64_t{10000})};
  /// Power model of the energy figures in responses.
  energy::PowerParams power{};
  /// Per-request wall-clock watchdog (sim::SimConfig::wall_clock_budget_ms);
  /// 0 = off. A timed-out run answers internal-error instead of hanging a
  /// worker forever.
  double run_budget_ms{0};
};

struct ServeTelemetry {
  std::uint64_t requests{0};
  std::uint64_t ok{0};
  std::uint64_t errors{0};  ///< responses with a structured error
  /// High-water mark of the request queue (saturation diagnostic: a loaded
  /// server sits at queue_depth).
  std::size_t max_queue_depth{0};
  /// Release-timeline cache traffic summed over the worker RunContexts
  /// (core::TimelineCache, content-keyed): repeated corpus sets should hit
  /// warm -- a hit count stuck at zero means the serve integration regressed
  /// to cold per-request timeline builds (a serve test asserts on it).
  std::uint64_t timeline_hits{0};
  std::uint64_t timeline_misses{0};
  double wall_seconds{0};  ///< start() to finish()
};

class AdmissionService {
 public:
  /// Called under the emit lock, in strict submit order: `seq` is the value
  /// the matching submit() returned, `line` one response without newline.
  using Emit = std::function<void(std::uint64_t seq, const std::string& line)>;

  explicit AdmissionService(ServeConfig config, Emit emit);
  /// Joins the pool; pending requests are still answered (finish semantics).
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Enqueues one raw request line, blocking while the queue is full
  /// (backpressure). Returns the request's sequence number. Not
  /// thread-safe against other submit()/finish() calls -- one producer.
  std::uint64_t submit(std::string line);

  /// Drains the queue, joins the workers, and returns the run's telemetry.
  /// The service cannot be reused afterwards.
  ServeTelemetry finish();

  /// Decodes and executes one request line on the given pooled context;
  /// never throws. This is the whole per-request semantics -- the service
  /// adds only queuing and ordering around it -- and it is what unit tests
  /// and the load generator's reference pass call directly. The timing-free
  /// response is a pure function of `line` (the admission verdict uses a
  /// fresh analysis::AdmissionContext per request, because a pooled one's
  /// probe memo could flip the certifying *stage* by call history).
  static io::ServeResponse process(const std::string& line, RunContext& ctx,
                                   const ServeConfig& config);

 private:
  struct Item {
    std::uint64_t seq{0};
    std::string line;
  };
  struct Finished {
    std::string line;
    bool ok{false};
  };

  void worker_main();
  void emit_ordered(std::uint64_t seq, Finished finished);

  ServeConfig config_;
  Emit emit_;

  std::mutex queue_mutex_;
  std::condition_variable queue_space_;   ///< producer waits for room
  std::condition_variable queue_filled_;  ///< workers wait for work
  std::deque<Item> queue_;
  bool closed_{false};
  std::uint64_t next_seq_{0};
  std::size_t max_queue_depth_{0};

  std::mutex emit_mutex_;
  std::map<std::uint64_t, Finished> reorder_;  ///< finished, not yet due
  std::uint64_t next_emit_{0};
  std::uint64_t emitted_ok_{0};
  std::uint64_t emitted_errors_{0};
  /// Timeline-cache traffic, accumulated (under emit_mutex_) by each worker
  /// from its RunContext as it exits; read after the join in finish().
  std::uint64_t timeline_hits_{0};
  std::uint64_t timeline_misses_{0};

  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point started_;
  bool finished_{false};
  ServeTelemetry telemetry_;
};

/// Runs a whole JSONL session: one request per line from `in` (blank lines
/// ignored), one response line to `out` -- flushed per response, so a client
/// may await each answer before sending the next request.
ServeTelemetry serve_stream(std::istream& in, std::ostream& out,
                            const ServeConfig& config);

}  // namespace mkss::harness
