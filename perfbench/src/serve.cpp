// Workload serve: the admission service behind `mkss_cli serve`, in process.
//
// The gated load has bench/perf_serve's request shape: schedulable sets
// drawn at utilization 0.2, 0.4, 0.6 and 0.8 under the four paper schemes on
// the dual platform, lean path (no audit), 1000 ms horizon, no faults. Its
// corpus holds kCorpus lines (kCorpus / 4 sets x 4 schemes) drawn from
// --seed; requests pick lines at random, so the corpus repeats and the
// content caches stay warm. The traffic mix of real users is not recorded
// anywhere, so the other request kinds are not mixed in at guessed ratios:
// audited, unschedulable and faulted requests each get a corpus of
// kCellCorpus lines and a serial phase of their own, reported as separate
// figures.
//
// Set-up draws every corpus, computes every line's reference response
// serially on a fresh context, plans the arrivals and warms a 2-worker
// AdmissionService with kWarmupPasses bursts of the lean corpus. It runs
// kSetupRuns times; setup_s is the median and the last one is used. Then,
// as shares of --seconds:
//   serial kSerialShare: process() + encode on one thread over a seeded
//          stream of lean lines -> throughput_per_s, p50_ms (gated).
//   cells  kCellShare each: the same over the audited, the unschedulable
//          and the faulted corpus (serve.<cell>.rps, serve.<cell>.p50_ms).
//   low    kLowRps Poisson open loop of lean lines for kLowShare.
//   high   kHighRps, for kHighShare.
//   ladder kLadderRps, kLadderShare split evenly. A rung passes when no
//          response failed, its p99 is within kP99LimitMs and its backlog
//          does not grow (kBacklogShare); serve.max_rps is the completion
//          rate of the highest passing rung. Every rung runs, so one rung
//          failed by a host stall does not end the ladder.
// Open-loop latency runs from a request's scheduled arrival to its emitted
// response, so a stalled service or a late generator is charged to every
// request behind it; generator lateness is reported too. The open-loop
// figures are printed in every run and are per-layer metrics of traced runs;
// they are not gated, because on a shared 4-vCPU VM host stalls of 1-10 ms
// set their tails (perfbench/README.md has the measured spreads).
//
// Output checks: no line's reference is an error response; every response,
// serial or open loop, equals byte for byte the serial reference response of
// its line; the layer-by-layer replay reproduces the reference of every line.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "mkss.hpp"

namespace perfbench {

namespace {

using namespace mkss;

constexpr std::uint64_t kSetStream = 0x53455256;          // "SERV"
constexpr std::uint64_t kRejectedSetStream = 0x52454A53;  // "REJS"
constexpr std::uint64_t kFaultStream = 0x46415554;        // "FAUT"
constexpr std::uint64_t kArrivalStream = 0x41525256;  // "ARRV"
/// bench/perf_serve's request shape.
constexpr double kBins[] = {0.2, 0.4, 0.6, 0.8};
constexpr const char* kPaperSchemes[] = {"st", "dp", "greedy", "selective"};
constexpr std::int64_t kHorizonMs = 1000;
/// Lines of the lean corpus, and of each other cell's corpus.
constexpr std::size_t kCorpus = 1024;
constexpr std::size_t kCellCorpus = 128;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueueDepth = 64;
// Frozen load points (BENCHMARK.json's serve workload states them too).
constexpr double kLowRps = 1000;
constexpr double kHighRps = 4000;
constexpr double kLadderRps[] = {6000,  8000,  10000, 12000, 14000, 16000,
                                 18000, 20000, 22000, 24000, 27000, 30000};
constexpr double kP99LimitMs = 25;
/// A rung's backlog grows when, at the end of its arrival window, more than
/// this share of its arrivals is still unanswered. A host stall of a few
/// milliseconds leaves far less; an offered rate above capacity, far more.
constexpr double kBacklogShare = 0.02;
/// Shares of --seconds: serial phase, each other cell, low, high, and the
/// whole ladder. The serial phase sets the gated figures and gets half the
/// run, since on a shared VM the speed of one thread shifts by up to 30 %
/// from one stretch of seconds to the next.
constexpr double kSerialShare = 0.5;
constexpr double kCellShare = 0.03;
constexpr double kLowShare = 0.1;
constexpr double kHighShare = 0.1;
constexpr double kLadderShare = 0.21;
/// Requests per throughput sample of the serial phase, and of a cell's.
constexpr std::size_t kSerialBatch = 500;
constexpr std::size_t kCellBatch = 50;
/// Arrival-stream index of the serial phases' corpus picks.
constexpr std::uint64_t kSerialStream = 1000;
/// Set-up runs (setup_s is their median) and warm-up passes per set-up.
/// The warm-up is the only multi-threaded part of set-up, and on a shared
/// VM its time is the least steady, so it makes one pass.
constexpr std::size_t kSetupRuns = 5;
constexpr std::size_t kWarmupPasses = 1;
/// The generator spins, instead of sleeping, for the last this-many ns
/// before an arrival is due.
constexpr std::int64_t kSpinNs = 100'000;
/// Latency recorded for an error or wrong response: over any limit.
constexpr double kFailedLatencyMs = 1e6;

/// A request kind with a corpus of its own.
enum class Cell : std::uint8_t { kLean, kAudited, kUnschedulable, kFaulted };
struct CellSpec {
  Cell cell;
  const char* name;
  std::size_t lines;
};
constexpr CellSpec kCells[] = {
    {Cell::kLean, "lean", kCorpus},
    {Cell::kAudited, "audited", kCellCorpus},
    {Cell::kUnschedulable, "unschedulable", kCellCorpus},
    {Cell::kFaulted, "faulted", kCellCorpus},
};

/// Task set `set` of the corpora, drawn from its own stream: a schedulable
/// set at utilization kBins[set mod 4] (perf_serve's recipe), or a set the
/// R-pattern analysis rejects, at utilization 0.8-1.2.
core::TaskSet draw_set(std::uint64_t seed, bool schedulable, std::size_t set) {
  core::Rng rng(core::stream_seed(
      seed, schedulable ? kSetStream : kRejectedSetStream, set));
  while (true) {
    const double target =
        schedulable ? kBins[set % std::size(kBins)] : rng.uniform(0.8, 1.2);
    auto ts = workload::generate_taskset({}, target, rng);
    if (ts && analysis::schedulable(
                  *ts, analysis::DemandModel::kRPatternMandatory) ==
                  schedulable) {
      return std::move(*ts);
    }
  }
}

/// Line j of a cell's corpus: scheme j mod 4 on `ts`, the corpus's set j / 4.
///   lean:          a schedulable set.
///   audited:       the same, audited (full trace + auditor).
///   unschedulable: a set the R-pattern analysis rejects, lean.
///   faulted:       a schedulable set, lean, with a permanent fault at a
///                  random time and Poisson transients (10^-4..10^-2 /ms),
///                  drawn from the line's own stream.
std::string make_request(std::uint64_t seed, Cell cell, std::size_t j,
                         const core::TaskSet& ts) {
  io::ServeRequest req;
  req.id = kCells[static_cast<std::size_t>(cell)].name[0];
  req.id += std::to_string(j);
  req.taskset = io::serialize_taskset(ts);
  req.scheme = kPaperSchemes[j % std::size(kPaperSchemes)];
  req.horizon = core::from_ms(kHorizonMs);
  req.seed = j;
  req.audit = cell == Cell::kAudited;
  if (cell == Cell::kFaulted) {
    core::Rng rng(core::stream_seed(seed, kFaultStream, j));
    req.permanent = sim::PermanentFault{
        static_cast<sim::ProcessorId>(rng.below(req.procs)),
        static_cast<core::Ticks>(
            rng.below(static_cast<std::uint64_t>(req.horizon)))};
    req.lambda_per_ms = std::pow(10.0, rng.uniform(-4.0, -2.0));
  }
  return io::serialize_serve_request(req);
}

io::ServeResponse error_response(const io::ServeRequest& req, const char* code,
                                 std::string message) {
  io::ServeResponse r;
  r.id = req.id;
  r.error_code = code;
  r.error_message = std::move(message);
  return r;
}

/// AdmissionService::process, re-done layer by layer with a span around
/// every call into a layer. The corpus never takes the request-validation
/// error paths (bad JSON, unknown scheme, unsupported platform); the replay
/// answers those with a marker that cannot equal a real response.
std::string replay_request(const std::string& line, harness::RunContext& ctx,
                           const harness::ServeConfig& config, Tracer& tr,
                           std::uint64_t op, LayerReport& rep) {
  Tracer::Scope root(tr, "harness.serve.request", op);
  rep.bytes_in += line.size() + 1;
  io::ServeRequestParse parsed;
  {
    Tracer::Scope span(tr, "io.parse", op);
    parsed = io::parse_serve_request(line);
  }
  const io::ServeRequest& req = parsed.req;
  if (!parsed.error_code.empty()) return "replay-error: " + parsed.error_code;
  io::ServeResponse r;
  try {
    core::TaskSet ts;
    {
      Tracer::Scope span(tr, "io.parse", op);
      ts = io::parse_taskset_string(req.taskset);
    }
    const sched::SchemeInfo* info = nullptr;
    {
      Tracer::Scope span(tr, "sched.setup", op);
      info = &sched::Registry::instance().resolve(req.scheme);
    }
    if (!info->supports(req.procs)) return "replay-error: envelope";
    r.id = req.id;
    {
      Tracer::Scope span(tr, "analysis.admit", op);
      analysis::AdmissionContext admission;
      r.has_admission = true;
      r.admission =
          admission.admit(ts, analysis::DemandModel::kRPatternMandatory);
    }
    std::optional<harness::BatchRunner> runner;
    std::unique_ptr<sched::SchemeBase> scheme;
    core::Ticks horizon = req.horizon;
    {
      Tracer::Scope span(tr, "sched.setup", op);
      runner.emplace(ts, &ctx);
      if (horizon <= 0) horizon = runner->horizon(config.horizon_cap);
    }
    std::optional<fault::ScenarioFaultPlan> plan;
    {
      Tracer::Scope span(tr, "fault.plan", op);
      plan.emplace(req.permanent,
                   fault::transient_probabilities(ts, req.lambda_per_ms),
                   req.seed);
    }
    sim::SimConfig sim_cfg;
    sim_cfg.horizon = horizon;
    sim_cfg.platform = sim::PlatformSpec::standby(req.procs);
    sim_cfg.wall_clock_budget_ms = config.run_budget_ms;
    {
      Tracer::Scope span(tr, "sched.setup", op);
      scheme = info->make();
      runner->bind(*scheme);
    }
    if (info->name == "dp") {
      Tracer::Scope span(tr, "analysis.promotion", op);
      runner->cache().promotions();
    } else if (info->name == "selective" || info->name == "multi_spare") {
      Tracer::Scope span(tr, "analysis.theta", op);
      runner->cache().postponement({});
    }
    {
      Tracer::Scope span(tr, "core.timeline", op);
      runner->cache().timeline(horizon, &ctx.timelines());
    }
    r.has_simulation = true;
    r.scheme = info->name;
    r.procs = req.procs;
    r.horizon = horizon;
    r.audited = req.audit;
    if (req.audit) {
      const sim::SimulationTrace* trace = nullptr;
      {
        Tracer::Scope span(tr, "sim.run_full", op);
        span.set_tag(info->name.c_str());
        trace = &runner->run_full(*scheme, *plan, sim_cfg);
        span.add_count(trace->stats.sim_events);
      }
      audit::AuditReport report;
      {
        Tracer::Scope span(tr, "audit", op);
        span.add_count(trace->stats.sim_events);
        audit::AuditOptions audit_opts;
        audit_opts.power = config.power;
        audit_opts.check_mk = req.lambda_per_ms <= 0;
        report = audit::TraceAuditor(audit_opts).audit(*trace, ts);
      }
      metrics::QosReport qos;
      {
        Tracer::Scope span(tr, "metrics.qos", op);
        qos = metrics::audit_qos(*trace, ts);
      }
      energy::EnergyBreakdown energy;
      {
        Tracer::Scope span(tr, "energy.account", op);
        energy = energy::account_energy(*trace, config.power);
      }
      r.mk_satisfied = qos.mk_satisfied;
      r.mandatory_misses = qos.mandatory_misses;
      r.jobs_released = trace->stats.jobs_released;
      r.jobs_met = trace->stats.jobs_met;
      r.jobs_missed = trace->stats.jobs_missed;
      r.backups_canceled = trace->stats.backups_canceled;
      r.energy_total = energy.total();
      r.energy_active = energy.active_total();
      if (!report.ok()) {
        ++rep.audit_violations;
        r.ok = false;
        r.error_code = io::kServeCodeAuditViolation;
        r.error_message = report.to_string();
      } else {
        r.ok = true;
      }
    } else {
      Tracer::Scope span(tr, "sim.run_stats", op);
      span.set_tag(info->name.c_str());
      const sim::StatsSink& sink =
          runner->run_stats(*scheme, *plan, sim_cfg, config.power);
      span.add_count(sink.stats().sim_events);
      r.mk_satisfied = sink.qos().mk_satisfied;
      r.mandatory_misses = sink.qos().mandatory_misses;
      r.jobs_released = sink.stats().jobs_released;
      r.jobs_met = sink.stats().jobs_met;
      r.jobs_missed = sink.stats().jobs_missed;
      r.backups_canceled = sink.stats().backups_canceled;
      r.energy_total = sink.energy().total();
      r.energy_active = sink.energy().active_total();
      r.ok = true;
    }
  } catch (const std::exception& e) {
    r = error_response(req, io::kServeCodeInternal, e.what());
  }
  Tracer::Scope span(tr, "io.encode", op);
  std::string out = io::serialize_serve_response(r);
  rep.bytes_out += out.size() + 1;
  return out;
}

/// The request lines of one cell, with the serial reference response of
/// each and whether that reference is an error response.
struct Corpus {
  std::vector<std::string> lines;
  std::vector<std::string> reference;
  std::vector<char> failed;
};

/// One planned arrival; `emit_ns` is written by the emit callback.
struct Slot {
  std::uint32_t corpus{0};
  std::int64_t sched_ns{0};
  std::int64_t lateness_ns{0};
  std::int64_t emit_ns{0};
};

struct Phase {
  const char* name{""};
  double rps{0};
  double seconds{0};
  std::size_t first{0};  ///< first slot index (= service sequence number)
  std::size_t count{0};
  std::vector<std::int64_t> offsets_ns;  ///< arrival offsets from the start
};

struct PhaseStats {
  std::vector<double> latency_ms;
  Latency latency;
  double lateness_p99_ms{0};
  std::size_t backlog{0};
  double achieved_rps{0};
  std::uint64_t failed{0};  ///< error and wrong responses
  std::uint64_t wrong{0};
  std::uint64_t max_in_flight{0};
  bool passes{false};
};

/// Seeded Poisson arrivals at `rps` over `seconds`, with corpus picks.
Phase plan_phase(const char* name, double rps, double seconds,
                 std::uint64_t seed, std::uint64_t stream,
                 std::vector<Slot>& slots) {
  Phase p;
  p.name = name;
  p.rps = rps;
  p.seconds = seconds;
  p.first = slots.size();
  core::Rng rng(core::stream_seed(seed, kArrivalStream, stream));
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.uniform01()) / rps * 1e9;
    if (t >= horizon_ns) break;
    p.offsets_ns.push_back(static_cast<std::int64_t>(t));
    Slot s;
    s.corpus = static_cast<std::uint32_t>(rng.below(kCorpus));
    slots.push_back(s);
  }
  p.count = p.offsets_ns.size();
  return p;
}

/// How an emitted response compares with its reference.
enum class Status : std::uint8_t {
  kOk,
  kError,  ///< equals its reference, which is an error response
  kWrong,  ///< differs from its reference
};

class OpenLoop {
 public:
  OpenLoop(std::vector<Slot>& slots, const Corpus& corpus)
      : slots_(slots),
        corpus_(corpus),
        epoch_(Clock::now()),
        service_(config(), [this](std::uint64_t seq, const std::string& line) {
          on_emit(seq, line);
        }) {}
  // The service's workers hold `this`.
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  static harness::ServeConfig config() {
    harness::ServeConfig cfg;
    cfg.workers = kWorkers;
    cfg.queue_depth = kQueueDepth;
    return cfg;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Submits slots [first, first + count) back to back (warm-up).
  void burst(std::size_t first, std::size_t count) {
    for (std::size_t i = first; i < first + count; ++i) {
      slots_[i].sched_ns = now_ns();
      submit(i);
    }
  }

  /// Submits the phase's arrivals at their scheduled times; returns the
  /// most requests in flight (submitted, not yet answered) at a submit.
  std::uint64_t run(const Phase& p) {
    std::uint64_t max_in_flight = 0;
    const std::int64_t base = now_ns() + 2'000'000;
    for (std::size_t k = 0; k < p.count; ++k) {
      const std::size_t i = p.first + k;
      const std::int64_t due = base + p.offsets_ns[k];
      // Sleep through most of the gap, spin the rest: a spinning generator
      // would take a core from the workers it is measuring.
      std::int64_t now = now_ns();
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
        now = now_ns();
      }
      while (now < due) now = now_ns();
      slots_[i].sched_ns = due;
      slots_[i].lateness_ns = now - due;
      max_in_flight = std::max(
          max_in_flight,
          submitted_ - emitted_.load(std::memory_order_relaxed));
      submit(i);
    }
    return max_in_flight;
  }

  /// Waits until every submitted request was answered; false on timeout.
  bool drain(double timeout_s) {
    const auto start = Clock::now();
    while (emitted_.load(std::memory_order_acquire) < submitted_) {
      if (seconds_since(start) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  harness::ServeTelemetry finish() { return service_.finish(); }
  Status status(std::size_t i) const { return status_[i]; }
  std::string first_wrong() const { return first_wrong_; }

 private:
  void submit(std::size_t i) {
    const std::uint64_t seq = service_.submit(corpus_.lines[slots_[i].corpus]);
    ++submitted_;
    if (seq != i) throw std::logic_error("serve: sequence out of step");
  }

  /// Runs under the service's emit lock, in sequence order.
  void on_emit(std::uint64_t seq, const std::string& line) {
    Slot& s = slots_[seq];
    s.emit_ns = now_ns();
    if (line != corpus_.reference[s.corpus]) {
      status_[seq] = Status::kWrong;
      if (first_wrong_.empty()) first_wrong_ = line;
    } else if (corpus_.failed[s.corpus]) {
      status_[seq] = Status::kError;
    }
    emitted_.fetch_add(1, std::memory_order_release);
  }

  std::vector<Slot>& slots_;
  const Corpus& corpus_;
  Clock::time_point epoch_;
  std::vector<Status> status_ = std::vector<Status>(slots_.size(), Status::kOk);
  std::string first_wrong_;
  std::atomic<std::uint64_t> emitted_{0};
  std::uint64_t submitted_{0};
  // Last member: its workers call on_emit, which uses everything above.
  harness::AdmissionService service_;
};

PhaseStats phase_stats(const Phase& p, const std::vector<Slot>& slots,
                       const OpenLoop& loop) {
  PhaseStats st;
  std::vector<double> lateness_ms;
  if (p.count == 0) return st;
  const std::int64_t base = slots[p.first].sched_ns - p.offsets_ns[0];
  const std::int64_t window_end = base + static_cast<std::int64_t>(p.seconds * 1e9);
  std::int64_t last_emit = base;
  for (std::size_t i = p.first; i < p.first + p.count; ++i) {
    const Slot& s = slots[i];
    const Status status = loop.status(i);
    st.failed += status != Status::kOk ? 1 : 0;
    st.wrong += status == Status::kWrong ? 1 : 0;
    // Failed responses count as over any limit.
    st.latency_ms.push_back(
        status != Status::kOk
            ? kFailedLatencyMs
            : static_cast<double>(s.emit_ns - s.sched_ns) * 1e-6);
    lateness_ms.push_back(static_cast<double>(s.lateness_ns) * 1e-6);
    if (s.sched_ns < window_end && s.emit_ns > window_end) ++st.backlog;
    last_emit = std::max(last_emit, s.emit_ns);
  }
  st.latency = summarize(st.latency_ms);
  st.lateness_p99_ms = percentile(lateness_ms, 99.0);
  st.achieved_rps = static_cast<double>(p.count) /
                    (static_cast<double>(last_emit - base) * 1e-9);
  st.passes = st.failed == 0 && st.latency.tail.value <= kP99LimitMs &&
              static_cast<double>(st.backlog) <=
                  kBacklogShare * static_cast<double>(p.count);
  return st;
}

/// One serial phase: process() + encode on this thread over a seeded stream
/// of lines of one corpus.
struct SerialRun {
  std::vector<std::uint32_t> lines;  ///< corpus line of each request
  std::vector<double> service_ms;
  std::vector<double> batch_rates;  ///< requests per second of each batch
  std::uint64_t wrong{0};   ///< responses that differ from the reference
  std::uint64_t failed{0};  ///< error responses equal to the reference
};

SerialRun run_serial(const Corpus& corpus, harness::RunContext& ctx,
                     const harness::ServeConfig& cfg, core::Rng& pick,
                     double seconds, std::size_t batch) {
  SerialRun run;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const auto batch_start = Clock::now();
    for (std::size_t k = 0; k < batch; ++k) {
      const auto c = static_cast<std::uint32_t>(pick.below(corpus.lines.size()));
      const auto t0 = Clock::now();
      const std::string out = io::serialize_serve_response(
          harness::AdmissionService::process(corpus.lines[c], ctx, cfg));
      run.service_ms.push_back(ms_between(t0, Clock::now()));
      run.lines.push_back(c);
      if (out != corpus.reference[c]) {
        ++run.wrong;
      } else if (corpus.failed[c]) {
        ++run.failed;
      }
    }
    run.batch_rates.push_back(static_cast<double>(batch) /
                              seconds_since(batch_start));
  }
  return run;
}

/// Everything one set-up builds. Heap-held: the service's workers and the
/// open loop refer to the members.
struct SetUp {
  std::vector<Corpus> corpora;  ///< one per kCells entry, in that order
  /// The context of the reference pass; the serial phases run on it warm.
  harness::RunContext ctx;
  std::vector<Slot> slots;
  std::vector<Phase> phases;
  std::unique_ptr<OpenLoop> loop;
};

std::unique_ptr<SetUp> set_up(const Options& opts,
                              const harness::ServeConfig& cfg,
                              Result& result) {
  auto s = std::make_unique<SetUp>();
  // The audited and faulted cells use the first of the lean corpus's sets.
  const std::size_t per_set = std::size(kPaperSchemes);
  std::vector<core::TaskSet> sets, rejected;
  for (std::size_t set = 0; set < kCorpus / per_set; ++set) {
    sets.push_back(draw_set(opts.seed, true, set));
  }
  for (std::size_t set = 0; set < kCellCorpus / per_set; ++set) {
    rejected.push_back(draw_set(opts.seed, false, set));
  }
  for (const CellSpec& spec : kCells) {
    Corpus& corpus = s->corpora.emplace_back();
    const std::vector<core::TaskSet>& from =
        spec.cell == Cell::kUnschedulable ? rejected : sets;
    for (std::size_t j = 0; j < spec.lines; ++j) {
      corpus.lines.push_back(
          make_request(opts.seed, spec.cell, j, from[j / per_set]));
      const io::ServeResponse r =
          harness::AdmissionService::process(corpus.lines.back(), s->ctx, cfg);
      corpus.reference.push_back(io::serialize_serve_response(r));
      corpus.failed.push_back(r.ok ? 0 : 1);
    }
  }
  for (std::size_t i = 0; i < kCorpus * kWarmupPasses; ++i) {
    s->slots.push_back({static_cast<std::uint32_t>(i % kCorpus), 0, 0, 0});
  }
  s->phases.push_back(plan_phase("low", kLowRps, kLowShare * opts.seconds,
                                 opts.seed, 0, s->slots));
  s->phases.push_back(plan_phase("high", kHighRps, kHighShare * opts.seconds,
                                 opts.seed, 1, s->slots));
  const double rung_s = kLadderShare * opts.seconds /
                        static_cast<double>(std::size(kLadderRps));
  for (std::size_t r = 0; r < std::size(kLadderRps); ++r) {
    s->phases.push_back(
        plan_phase("rung", kLadderRps[r], rung_s, opts.seed, 2 + r, s->slots));
  }
  s->loop = std::make_unique<OpenLoop>(s->slots, s->corpora[0]);
  for (std::size_t pass = 0; pass < kWarmupPasses; ++pass) {
    s->loop->burst(pass * kCorpus, kCorpus);
    result.check(s->loop->drain(60), "serve.warmup_drain");
  }
  return s;
}

}  // namespace

Result run_serve(const Options& opts) {
  Result result;
  const harness::ServeConfig cfg = OpenLoop::config();

  // Set-up, kSetupRuns times; the previous one is torn down untimed.
  std::unique_ptr<SetUp> setup;
  std::vector<double> setup_runs;
  for (std::size_t k = 0; k < kSetupRuns; ++k) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = set_up(opts, cfg, result);
    setup_runs.push_back(seconds_since(t0));
  }
  const double setup_s = median(setup_runs);
  const std::vector<Corpus>& corpora = setup->corpora;
  const Corpus& lean = corpora[0];
  std::vector<Slot>& slots = setup->slots;
  const std::vector<Phase>& phases = setup->phases;
  OpenLoop& loop = *setup->loop;
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    for (std::size_t j = 0; j < corpora[c].lines.size(); ++j) {
      result.check(!corpora[c].failed[j], "serve.no_error_response",
                   std::string(kCells[c].name) + " line " + std::to_string(j) +
                       ": " + corpora[c].reference[j]);
    }
  }
  info("serve: corpora of %zu lean, %zu audited, %zu unschedulable and %zu "
       "faulted lines, %zu workers, queue %zu, set-up %.3f s (median of %zu)",
       corpora[0].lines.size(), corpora[1].lines.size(),
       corpora[2].lines.size(), corpora[3].lines.size(), kWorkers, kQueueDepth,
       setup_s, kSetupRuns);

  // Serial phases: the whole per-request path -- process() and encode -- on
  // this thread, over seeded streams of corpus lines.
  core::Rng pick(core::stream_seed(opts.seed, kArrivalStream, kSerialStream));
  const SerialRun serial = run_serial(lean, setup->ctx, cfg, pick,
                                      kSerialShare * opts.seconds, kSerialBatch);
  std::uint64_t wrong = serial.wrong;
  result.failed += serial.failed;
  const Latency service = summarize(serial.service_ms);
  info("serve serial: %zu requests, %.1f req/s (median of %zu batches), "
       "service p50 %.4f ms, p%g %.4f ms",
       serial.service_ms.size(), median(serial.batch_rates),
       serial.batch_rates.size(), service.p50_ms, service.tail.percentile,
       service.tail.value);
  result.name("serve.serial_rps", median(serial.batch_rates), "1/s");
  result.name("serve.service.p50_ms", service.p50_ms, "ms");
  std::uint64_t cell_requests = 0;
  for (std::size_t c = 1; c < corpora.size(); ++c) {
    const SerialRun cell = run_serial(corpora[c], setup->ctx, cfg, pick,
                                      kCellShare * opts.seconds, kCellBatch);
    wrong += cell.wrong;
    result.failed += cell.failed;
    cell_requests += cell.service_ms.size();
    const Latency l = summarize(cell.service_ms);
    info("serve %s: %zu requests, %.1f req/s, service p50 %.4f ms",
         kCells[c].name, cell.service_ms.size(), median(cell.batch_rates),
         l.p50_ms);
    result.name(std::string("serve.") + kCells[c].name + ".rps",
                median(cell.batch_rates), "1/s");
    result.name(std::string("serve.") + kCells[c].name + ".p50_ms", l.p50_ms,
                "ms");
  }

  // Open loop.
  std::vector<PhaseStats> stats(phases.size());
  double max_rps = 0;
  double max_rps_rung = 0;
  std::uint64_t open_requests = 0;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const std::uint64_t in_flight = loop.run(phases[k]);
    result.check(loop.drain(60), "serve.drain",
                 std::string(phases[k].name) + " did not drain in 60 s");
    stats[k] = phase_stats(phases[k], slots, loop);
    stats[k].max_in_flight = in_flight;
    open_requests += phases[k].count;
    result.failed += stats[k].failed;
    wrong += stats[k].wrong;
    const PhaseStats& st = stats[k];
    info("serve %-4s %6.0f req/s offered, %7.1f achieved, n %zu: p50 %.3f ms, "
         "p%g %.3f ms, backlog %zu, generator lateness p99 %.3f ms%s",
         phases[k].name, phases[k].rps, st.achieved_rps, phases[k].count,
         st.latency.p50_ms, st.latency.tail.percentile, st.latency.tail.value,
         st.backlog, st.lateness_p99_ms,
         k < 2 ? "" : (st.passes ? "  PASS" : "  FAIL"));
    if (k >= 2 && st.passes && phases[k].rps > max_rps_rung) {
      max_rps = st.achieved_rps;
      max_rps_rung = phases[k].rps;
    }
  }
  loop.finish();
  const double rss = peak_rss_mb();
  result.attempted = serial.service_ms.size() + cell_requests + open_requests;
  result.check(wrong == 0, "serve.byte_identical",
               std::to_string(wrong) +
                   " response(s) differ from the serial reference, first open "
                   "loop one: " +
                   loop.first_wrong());
  info("serve: highest passing rung %.0f req/s (p99 limit %.0f ms, backlog "
       "limit %.0f%% of a rung)",
       max_rps_rung, kP99LimitMs, 100 * kBacklogShare);
  result.name("serve.low.p50_ms", stats[0].latency.p50_ms, "ms");
  result.name("serve.low.p99_ms", stats[0].latency.tail.value, "ms");
  result.name("serve.high.p50_ms", stats[1].latency.p50_ms, "ms");
  result.name("serve.high.p99_ms", stats[1].latency.tail.value, "ms");
  result.name("serve.max_rps", max_rps, "1/s");

  LayerReport rep;
  rep.open_loop = {stats[0].latency.p50_ms, stats[0].latency.tail.value,
                   stats[1].latency.p50_ms, stats[1].latency.tail.value,
                   max_rps};
  rep.max_queue_depth = static_cast<double>(stats[1].max_in_flight);
  rep.backlog = static_cast<double>(stats[1].backlog);
  rep.lateness_p99_ms = stats[1].lateness_p99_ms;

  // The replay must reproduce the reference on every line of every corpus;
  // traced, it also replays the lean serial phase on a context warmed the
  // same way, and that phase's own time is the attribution reference.
  harness::RunContext replay_ctx;
  Tracer tr;
  LayerReport corpus_rep;
  std::uint64_t op = 0;
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    for (std::size_t j = 0; j < corpora[c].lines.size(); ++j) {
      result.check(replay_request(corpora[c].lines[j], replay_ctx, cfg, tr,
                                  op++, corpus_rep) == corpora[c].reference[j],
                   "serve.replay_matches",
                   std::string(kCells[c].name) + " line " + std::to_string(j));
    }
  }
  if (opts.trace) {
    Tracer serial_tr;
    const auto replay_start = Clock::now();
    for (std::size_t i = 0; i < serial.lines.size(); ++i) {
      const std::uint32_t c = serial.lines[i];
      result.check(replay_request(lean.lines[c], replay_ctx, cfg, serial_tr, i,
                                  rep) == lean.reference[c],
                   "serve.replay_matches", "serial request " + std::to_string(i));
    }
    rep.traced_wall_s = seconds_since(replay_start);
    rep.spans = serial_tr.spans();
    for (const double ms : serial.service_ms) rep.untraced_s += ms * 1e-3;
    rep.untraced_what = "process() + encode time of the lean serial phase";
    rep.service_ms = root_durations_ms(rep.spans, "harness.serve.request");
    // Wait in the open loop: a high-phase request's sojourn minus the mean
    // serial service time of its corpus line.
    std::vector<double> line_ms(kCorpus, 0.0);
    std::vector<std::uint32_t> line_n(kCorpus, 0);
    for (std::size_t i = 0; i < serial.lines.size(); ++i) {
      line_ms[serial.lines[i]] += serial.service_ms[i];
      ++line_n[serial.lines[i]];
    }
    const Phase& high = phases[1];
    for (std::size_t k = 0; k < high.count; ++k) {
      const std::uint32_t c = slots[high.first + k].corpus;
      if (line_n[c] == 0) continue;
      rep.wait_ms.push_back(stats[1].latency_ms[k] - line_ms[c] / line_n[c]);
    }
    rep.timeline_hits = replay_ctx.timelines().hits();
    rep.timeline_misses = replay_ctx.timelines().misses();
    rep.theta_hits = replay_ctx.postponements().hits();
    rep.theta_misses = replay_ctx.postponements().misses();
  }

  EndToEnd e2e;
  e2e.throughput_per_s = median(serial.batch_rates);
  e2e.nominal = service;
  e2e.setup_s = setup_s;
  e2e.peak_rss_mb = rss;
  report(result, opts, e2e, rep);
  return result;
}

}  // namespace perfbench
