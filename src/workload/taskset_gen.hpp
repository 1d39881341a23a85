// Synthetic task-set generation following Section V of the paper:
// 5..10 tasks per set, periods uniform in [5, 50] ms, k_i uniform in [2, 20],
// 0 < m_i < k_i, WCETs shaped to hit a target total (m,k)-utilization, and
// the total (m,k)-utilization axis divided into bins of width 0.1, each bin
// requiring at least `want_schedulable` R-pattern-schedulable sets (or a
// generation-attempt cap, mirroring the paper's "at least 20 task sets
// schedulable or at least 5000 task sets generated").
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/rta.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"
#include "core/thread_pool.hpp"

namespace mkss::workload {

/// How per-task WCETs are drawn.
enum class WcetModel {
  /// C_i / P_i uniform in (0, 1) as in the paper ("the WCET of a task was
  /// assumed to be uniformly distributed"); the target (m,k)-utilization is
  /// reached through the m_i/k_i ratios. Low-utilization bins then still
  /// contain tasks with substantial per-job demand, which is the regime
  /// where backup procrastination matters.
  kUniformWcet,
  /// C_i derived from a UUniFast (m,k)-utilization share with random
  /// (m_i, k_i): C_i = u_i k_i P_i / m_i. Produces featherweight tasks in
  /// low bins; kept as an ablation of workload shaping.
  kShapedWcet,
};

struct GenParams {
  std::size_t min_tasks{5};
  std::size_t max_tasks{10};
  std::int64_t min_period_ms{5};
  std::int64_t max_period_ms{50};
  std::uint32_t min_k{2};
  std::uint32_t max_k{20};
  /// Deadline factor: D_i = deadline_factor * P_i (the paper's evaluation
  /// uses implicit deadlines).
  double deadline_factor{1.0};
  WcetModel wcet_model{WcetModel::kUniformWcet};
  /// Schedulability test a generated set must pass to be accepted
  /// ("schedulable under R-pattern" in the paper; the E-pattern model is
  /// used by the pattern ablation).
  analysis::DemandModel accept_model{analysis::DemandModel::kRPatternMandatory};
};

/// Draws one random task set whose total (m,k)-utilization is close to
/// `target_mk_util`. Returns std::nullopt when the draw produced an invalid
/// task (e.g. C_i > D_i); callers simply retry.
std::optional<core::TaskSet> generate_taskset(const GenParams& params,
                                              double target_mk_util,
                                              core::Rng& rng);

/// Per-stage generation telemetry. Every attempt lands in exactly one of
/// draw_failures / out_of_bin / filter_rejects / rta_rejects / accepted, so
/// the five sum to the attempt count; quick_accepts is the subset of
/// `accepted` certified by the closed-form hyperbolic bound without any
/// demand evaluation. (Probe accepts are deliberately NOT counted
/// separately: whether a remembered probe or an exact fixed point certifies
/// a task depends on which candidates an admission context saw before, i.e.
/// on worker scheduling -- only history-independent stages may feed a
/// counter that must be bit-identical across thread counts.)
struct GenCounters {
  std::uint64_t draw_failures{0};   ///< a share was too big for its (m,k,P)
  std::uint64_t out_of_bin{0};      ///< integer rounding drifted the total
  std::uint64_t filter_rejects{0};  ///< staged demand lower bound fired
  std::uint64_t rta_rejects{0};     ///< exact fixed point overran a deadline
  std::uint64_t accepted{0};
  std::uint64_t quick_accepts{0};

  GenCounters& operator+=(const GenCounters& o) noexcept;
  friend bool operator==(const GenCounters&, const GenCounters&) = default;
};

/// A batch of schedulable task sets inside one (m,k)-utilization bin.
struct BinnedBatch {
  double bin_lo{0};
  double bin_hi{0};
  std::vector<core::TaskSet> sets;   ///< R-pattern schedulable, util in bin
  std::uint64_t attempts{0};         ///< total generation attempts
  GenCounters counters;              ///< where the attempts went
};

/// Generates until `want_schedulable` schedulable sets landed in
/// [bin_lo, bin_hi) or `max_attempts` draws were made.
///
/// Attempt a draws from core::Rng(core::stream_seed(seed, bin_index, a)) and
/// accepted sets commit in ascending attempt order, so the result is a pure
/// function of (params, bin bounds, want, max_attempts, seed, bin_index):
/// with a thread pool the attempts run as speculative chunks across the
/// workers, bit-identical to the serial path (pool == nullptr) for every
/// thread count. Callers that derive `seed` from a wider context should
/// reserve a stream index for it (the sweep harness uses its generation
/// stream tag) so attempt streams cannot collide with other named streams.
///
/// Attempts are processed through a structure-of-arrays batch pipeline
/// (deferred UUniFast shares, sigma-C prefilter, staged admission -- see
/// docs/architecture.md) whenever the parameters fit its envelope
/// (kUniformWcet, min_k >= 2, max_tasks <= 16), and one at a time through
/// the eager draw otherwise; both give the same result attempt by attempt.
BinnedBatch generate_bin(const GenParams& params, double bin_lo, double bin_hi,
                         std::size_t want_schedulable, std::size_t max_attempts,
                         std::uint64_t seed, std::uint64_t bin_index,
                         core::ThreadPool* pool = nullptr);

/// llround for non-negative doubles below 2^52, bit-identical to
/// std::llround but inlineable (glibc's llround is an out-of-line call that
/// the batch draw loop pays millions of times per sweep).
///
/// For x >= 0, llround rounds half away from zero: r + [frac >= 0.5] where
/// r = floor(x) (the truncating cast) and frac = x - r. The subtraction is
/// EXACT: for floor(x) >= 1, floor(x) <= x < 2 * floor(x) so Sterbenz's
/// lemma applies; for floor(x) == 0 it subtracts zero. So the >= 0.5
/// comparison sees the true fraction and no rounded intermediate can flip a
/// verdict -- unlike the tempting (int64)(x + 0.5) form, where x + 0.5 can
/// round UP across an integer in a round-to-even tie (x = 0.5 - 2^-54) and
/// no floating-point correction test can detect it exactly. Pinned against
/// std::llround by a fuzz + boundary test.
std::int64_t llround_nonneg(double x) noexcept;

}  // namespace mkss::workload
