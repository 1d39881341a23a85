// perf_gen: throughput of the task-set generator in isolation.
//
// perf_sweep times generation as one phase of the full harness; this bench
// pins the generator itself so a regression in the staged-admission ladder
// or the speculative parallel path is visible without simulator noise. It
// runs the Figure-6 bins serially (attempts/sec is the headline number,
// emitted to bench/BENCH_gen.json with the per-stage exit counts), then
// re-runs them against a thread pool and fails unless sets, attempt counts
// and stage counters are bit-identical to the serial pass.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "io/json_writer.hpp"
#include "workload/taskset_gen.hpp"

int main() {
  using namespace mkss;
  using clock = std::chrono::steady_clock;

  // The perf_sweep workload: Figure-6 bins, scaled up so the serial pass is
  // long enough to time (the high bins are rejection-dominated and exhaust
  // the cap).
  const workload::GenParams params;
  const std::vector<double> bin_starts = {0.1, 0.2, 0.3, 0.4,
                                          0.5, 0.6, 0.7, 0.8};
  std::size_t want = 400;
  std::size_t cap = 80000;
  if (const char* env = std::getenv("MKSS_SETS_PER_BIN")) {
    want = static_cast<std::size_t>(std::atoll(env));
  }
  if (const char* env = std::getenv("MKSS_MAX_ATTEMPTS")) {
    cap = static_cast<std::size_t>(std::atoll(env));
  }
  const std::uint64_t seed = 20260806;

  const auto run_all = [&](core::ThreadPool* pool) {
    std::vector<workload::BinnedBatch> batches;
    batches.reserve(bin_starts.size());
    for (std::size_t b = 0; b < bin_starts.size(); ++b) {
      batches.push_back(workload::generate_bin(params, bin_starts[b],
                                               bin_starts[b] + 0.1, want, cap,
                                               seed, b, pool));
    }
    return batches;
  };

  const auto start = clock::now();
  const auto serial = run_all(nullptr);
  const double secs = std::chrono::duration<double>(clock::now() - start).count();

  std::uint64_t attempts = 0;
  std::size_t sets = 0;
  workload::GenCounters totals;
  workload::GenStageSeconds stage_secs;
  for (const auto& batch : serial) {
    attempts += batch.attempts;
    sets += batch.sets.size();
    totals += batch.counters;
    stage_secs += batch.stage_seconds;
  }
  const double attempts_per_sec =
      secs > 0 ? static_cast<double>(attempts) / secs : 0;

  std::printf("=== perf_gen: task-set generator throughput ===\n");
  std::printf("serial  %.3fs  %llu attempts  %zu sets  %.0f attempts/sec\n",
              secs, static_cast<unsigned long long>(attempts), sets,
              attempts_per_sec);
  std::printf(
      "stage seconds: draw %.4f, prefilter %.4f, finalize %.4f, admit %.4f\n",
      stage_secs.draw, stage_secs.prefilter, stage_secs.finalize,
      stage_secs.admit);
  std::printf(
      "stages: draw-fail %llu, out-of-bin %llu, filter-reject %llu, "
      "rta-reject %llu, accepted %llu (quick %llu)\n",
      static_cast<unsigned long long>(totals.draw_failures),
      static_cast<unsigned long long>(totals.out_of_bin),
      static_cast<unsigned long long>(totals.filter_rejects),
      static_cast<unsigned long long>(totals.rta_rejects),
      static_cast<unsigned long long>(totals.accepted),
      static_cast<unsigned long long>(totals.quick_accepts));

  // Determinism contract: the speculative parallel path must reproduce the
  // serial batches exactly, for a small pool and for the hardware size.
  bool identical = true;
  for (const std::size_t n_threads : {std::size_t{2}, std::size_t{0}}) {
    core::ThreadPool pool(core::ThreadPool::resolve_num_threads(n_threads));
    const auto parallel = run_all(&pool);
    for (std::size_t b = 0; b < serial.size(); ++b) {
      if (parallel[b].attempts != serial[b].attempts ||
          !(parallel[b].counters == serial[b].counters) ||
          parallel[b].sets.size() != serial[b].sets.size()) {
        identical = false;
        continue;
      }
      for (std::size_t i = 0; i < serial[b].sets.size(); ++i) {
        if (parallel[b].sets[i].describe() != serial[b].sets[i].describe()) {
          identical = false;
        }
      }
    }
    std::printf("threads=%zu  %s\n", pool.size(),
                identical ? "bit-identical" : "MISMATCH vs serial");
  }

  io::JsonWriter w;
  w.begin_object(io::JsonWriter::Scope::kBlock);
  w.key("bench");
  w.string("taskset_gen");
  w.key("seconds");
  w.fixed(secs, 4);
  w.key("attempts");
  w.u64(attempts);
  w.key("sets");
  w.u64(sets);
  w.key("attempts_per_sec");
  w.fixed(attempts_per_sec, 1);
  w.key("stages");
  w.begin_object();
  w.key("draw_failures");
  w.u64(totals.draw_failures);
  w.key("out_of_bin");
  w.u64(totals.out_of_bin);
  w.key("filter_rejects");
  w.u64(totals.filter_rejects);
  w.key("rta_rejects");
  w.u64(totals.rta_rejects);
  w.key("accepted");
  w.u64(totals.accepted);
  w.key("quick_accepts");
  w.u64(totals.quick_accepts);
  w.end_object();
  w.key("stage_seconds");
  w.begin_object();
  w.key("draw");
  w.fixed(stage_secs.draw, 4);
  w.key("prefilter");
  w.fixed(stage_secs.prefilter, 4);
  w.key("finalize");
  w.fixed(stage_secs.finalize, 4);
  w.key("admit");
  w.fixed(stage_secs.admit, 4);
  w.end_object();
  w.key("bit_identical");
  w.boolean(identical);
  w.end_object();
  const std::string json = w.take() + "\n";

  const char* out_path = "bench/BENCH_gen.json";
  std::error_code ec;
  std::filesystem::create_directories("bench", ec);
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path);
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: parallel generation diverged from serial\n");
    return 1;
  }
  return 0;
}
