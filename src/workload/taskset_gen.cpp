#include "workload/taskset_gen.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/admission.hpp"

namespace mkss::workload {

std::int64_t llround_nonneg(double x) noexcept {
  const auto r = static_cast<std::int64_t>(x);
  return r + (x - static_cast<double>(r) >= 0.5 ? 1 : 0);
}

using core::Task;
using core::TaskSet;
using core::Ticks;

namespace {

/// u^(1/e) for integer e >= 1. The small exponents that dominate UUniFast's
/// tail get hardware square roots (correctly rounded per IEEE-754, so *more*
/// reproducible than libm pow) instead of a libm pow call.
double inv_int_root(double u, std::size_t e) {
  switch (e) {
    case 1: return u;
    case 2: return std::sqrt(u);
    case 4: return std::sqrt(std::sqrt(u));
    default: return std::pow(u, 1.0 / static_cast<double>(e));
  }
}

/// UUniFast (Bini & Buttazzo): splits `total` into n unbiased shares,
/// written into `shares` (resized; reused across attempts by generate_bin).
void uunifast(std::size_t n, double total, core::Rng& rng,
              std::vector<double>& shares) {
  shares.resize(n);
  double sum = total;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double next = sum * inv_int_root(rng.uniform01(), n - 1 - i);
    shares[i] = sum - next;
    sum = next;
  }
  shares[n - 1] = sum;
}

/// Greedily steps individual m_i values (each step changes the total by
/// (C_i/P_i)/k_i) towards `target` total (m,k)-utilization. `current` must be
/// sum step[i]*m[i] accumulated in index order (the running total is then
/// maintained incrementally, current +/- the applied step, instead of being
/// re-summed every iteration). The greedy m choices therefore follow this
/// accumulation's rounding -- a deterministic IEEE evaluation order, just not
/// the re-summed one -- which is fine: repair only picks integer m values,
/// and the bin filter re-checks the exact total afterwards.
void repair_mk_steps(std::size_t n, double target, double current,
                     const double* step, std::uint32_t* m,
                     const std::uint32_t* k) {
  for (int iter = 0; iter < 256; ++iter) {
    const double gap = target - current;
    const bool up = gap > 0;
    // Stepping m by one changes |gap| by |gap| - |gap -+ step|, which for a
    // step in the right direction equals min(step, 2|gap| - step): the full
    // step if it fits inside the gap, the post-overshoot remainder if not.
    const double twice_gap = up ? gap + gap : -(gap + gap);
    // Find the m step that best reduces |gap| without leaving [1, k-1].
    std::size_t best = n;
    double best_improve = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (up ? m[i] + 1 < k[i] : m[i] > 1) {
        const double improve = std::min(step[i], twice_gap - step[i]);
        if (improve > best_improve) {
          best_improve = improve;
          best = i;
        }
      }
    }
    if (best == n) break;  // no step improves the total
    if (up) {
      ++m[best];
      current += step[best];
    } else {
      --m[best];
      current -= step[best];
    }
  }
}

/// Task-vector front end of repair_mk_steps, used by the one-candidate paths.
/// The greedy scan runs over tight scalar arrays instead of the 64-byte Task
/// structs (whose name strings would drag dead bytes through the cache);
/// m values are written back once at the end.
void repair_mk_total(std::vector<Task>& tasks, double target,
                     std::vector<double>& step, std::vector<std::uint32_t>& m,
                     std::vector<std::uint32_t>& k) {
  const std::size_t n = tasks.size();
  step.resize(n);
  m.resize(n);
  k.resize(n);
  double current = 0;
  for (std::size_t i = 0; i < n; ++i) {
    step[i] = tasks[i].utilization() / static_cast<double>(tasks[i].k);
    m[i] = tasks[i].m;
    k[i] = tasks[i].k;
    current += step[i] * static_cast<double>(m[i]);
  }
  repair_mk_steps(n, target, current, step.data(), m.data(), k.data());
  for (std::size_t i = 0; i < n; ++i) tasks[i].m = m[i];
}

/// Scratch buffers reused across generation attempts, so the 95%+ of draws
/// that get rejected never touch the heap.
struct GenScratch {
  std::vector<double> shares;
  std::vector<Task> tasks;          ///< draw order; never physically sorted
  std::vector<std::uint32_t> order; ///< priority permutation into `tasks`
  std::vector<double> repair_step;
  std::vector<std::uint32_t> repair_m;
  std::vector<std::uint32_t> repair_k;
  core::Ticks wcet_sum{0};     ///< sum of all drawn WCETs
  core::Ticks lp_deadline{0};  ///< deadline of the longest-period task
};

/// Draws one raw candidate into `s.tasks` -- draw-for-draw identical to
/// generate_taskset (the accepted-set values depend on the RNG sequence).
/// Returns false when a share is too big for its (m,k,P) draw. Also records
/// `s.wcet_sum` and `s.lp_deadline`, the ingredients of the pre-repair
/// lower-bound filter in run_attempt. finalize_candidate() finishes the job
/// (m repair + priority order) for candidates that survive it.
bool draw_raw(const GenParams& params, double target_mk_util, core::Rng& rng,
              GenScratch& s) {
  const auto n = static_cast<std::size_t>(
      rng.range(static_cast<std::int64_t>(params.min_tasks),
                static_cast<std::int64_t>(params.max_tasks)));
  uunifast(n, target_mk_util, rng, s.shares);

  // Scratch tasks are written field-by-field in place (names stay empty --
  // only accepted candidates are ever materialized into named TaskSets).
  s.tasks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task& t = s.tasks[i];
    t.period = core::from_ms(rng.range(params.min_period_ms, params.max_period_ms));
    // deadline_factor == 1.0 round-trips exactly (periods this size are exact
    // in double), so skip the ms conversions on the common implicit path.
    t.deadline = params.deadline_factor == 1.0
                     ? t.period
                     : std::max<Ticks>(1, core::from_ms(params.deadline_factor *
                                                        core::to_ms(t.period)));
    t.k = static_cast<std::uint32_t>(
        rng.range(params.min_k, static_cast<std::int64_t>(params.max_k)));

    switch (params.wcet_model) {
      case WcetModel::kUniformWcet: {
        // C/P uniform; the (m,k) ratio carries the utilization share:
        // share = (m/k) * (C/P)  =>  m = k * share * P / C.
        const double v = rng.uniform(0.05, 1.0);  // C_i / P_i
        t.wcet = std::max<Ticks>(
            1, static_cast<Ticks>(std::llround(v * static_cast<double>(t.period))));
        const double m_real =
            static_cast<double>(t.k) * s.shares[i] / v;
        const auto m = static_cast<std::int64_t>(std::llround(m_real));
        t.m = static_cast<std::uint32_t>(
            std::clamp<std::int64_t>(m, 1, static_cast<std::int64_t>(t.k) - 1));
        break;
      }
      case WcetModel::kShapedWcet: {
        t.m = static_cast<std::uint32_t>(
            rng.range(1, static_cast<std::int64_t>(t.k) - 1));
        // share = m*C / (k*P)  =>  C = share * k * P / m.
        const double c_ticks = s.shares[i] * static_cast<double>(t.k) *
                               static_cast<double>(t.period) /
                               static_cast<double>(t.m);
        t.wcet = static_cast<Ticks>(std::llround(c_ticks));
        if (t.wcet < 1) t.wcet = 1;
        break;
      }
    }
    if (!t.valid()) return false;  // share too big for this (m,k,P) draw
  }

  s.wcet_sum = 0;
  s.lp_deadline = 0;
  Ticks max_period = 0;
  for (std::size_t i = 0; i < n; ++i) {
    s.wcet_sum += s.tasks[i].wcet;
    // Equal periods share a deadline (it is a pure function of the period),
    // so any longest-period task gives the lowest-priority deadline.
    if (s.tasks[i].period >= max_period) {
      max_period = s.tasks[i].period;
      s.lp_deadline = s.tasks[i].deadline;
    }
  }
  return true;
}

/// Second half of a candidate draw: m repair towards the target total and
/// the rate-monotonic priority permutation. Consumes no RNG, so callers may
/// discard a raw draw before this without perturbing the stream.
void finalize_candidate(const GenParams& params, double target_mk_util,
                        GenScratch& s) {
  const std::size_t n = s.tasks.size();

  // Integer m_i rounding can drift the total away from the target; repair by
  // nudging m values until the total is as close to the target as unit steps
  // allow.
  if (params.wcet_model == WcetModel::kUniformWcet) {
    repair_mk_total(s.tasks, target_mk_util, s.repair_step, s.repair_m,
                    s.repair_k);
  }

  // Rate-monotonic priority order (shorter period == higher priority), the
  // natural fixed-priority assignment for implicit deadlines. Insertion sort
  // of the identity permutation: stable, so equal periods keep draw order --
  // std::sort over the Task structs left that tie implementation-defined.
  s.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) s.order[i] = i;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t key = s.order[i];
    const Ticks key_period = s.tasks[key].period;
    std::size_t j = i;
    for (; j > 0 && s.tasks[s.order[j - 1]].period > key_period; --j) {
      s.order[j] = s.order[j - 1];
    }
    s.order[j] = key;
  }
}

/// Sum of m C / (k P) over the scratch tasks in priority order -- the same
/// accumulation order as TaskSet::total_mk_utilization, so the bin
/// accept/reject decision is bit-identical to the materialized path.
double raw_mk_utilization(const GenScratch& s) {
  double u = 0;
  for (const auto idx : s.order) u += s.tasks[idx].mk_utilization();
  return u;
}

/// Per-thread generation state: scratch buffers plus the staged-admission
/// context whose probe hints warm-start consecutive attempts.
struct AttemptWorker {
  GenScratch scratch;
  analysis::AdmissionContext admission;
};

enum class AttemptKind : std::uint8_t {
  kDrawFail,
  kOutOfBin,
  kFilterReject,
  kRtaReject,
  kAccepted,
};

struct AttemptResult {
  AttemptKind kind{AttemptKind::kDrawFail};
  bool quick{false};  ///< accepted by the hyperbolic bound alone
};

/// Per-attempt result slot of a speculative chunk: the commit loop in
/// generate_bin examines slots in ascending attempt order, so the batch is a
/// pure function of its inputs no matter how the slots were filled.
struct Slot {
  AttemptResult result;
  std::vector<Task> tasks;  ///< accepted tasks, priority order (else stale)
};

/// Runs one fully self-contained attempt: its private RNG stream, a draw,
/// the bin filter, and staged admission. On accept, writes the tasks (in
/// priority order, unnamed -- the TaskSet constructor names them) into
/// `accepted_out`. Attempts touch no shared state, which is what makes the
/// speculative parallel path below trivially race-free.
AttemptResult run_attempt(const GenParams& params, double bin_lo, double bin_hi,
                          std::uint64_t seed, std::uint64_t bin_index,
                          std::uint64_t attempt, AttemptWorker& w,
                          std::vector<Task>& accepted_out) {
  core::Rng rng(core::stream_seed(seed, bin_index, attempt));
  const double target = rng.uniform(bin_lo, bin_hi);
  if (!draw_raw(params, target, rng, w.scratch)) {
    return {AttemptKind::kDrawFail, false};
  }
  // Pre-repair lower-bound filter: the lowest-priority task under any
  // priority order is a longest-period one, and its demand lower bound S0
  // (see AdmissionContext) is the order-independent sum of ALL WCETs. m
  // repair never touches WCETs, periods, or deadlines, so when that exact
  // Ticks comparison fails here, staged admission would reject the finished
  // candidate with kLowerBoundReject regardless of its bin -- skip the
  // repair, the sort, and the admission call outright.
  if (w.scratch.wcet_sum > w.scratch.lp_deadline) {
    return {AttemptKind::kFilterReject, false};
  }
  finalize_candidate(params, target, w.scratch);
  // Cheap rejections next: most surviving candidates drift out of the bin
  // after integer rounding, and the raw-vector total is bit-identical to the
  // TaskSet one, so names/TaskSet are only materialized for survivors.
  const double u = raw_mk_utilization(w.scratch);
  if (u < bin_lo || u >= bin_hi) return {AttemptKind::kOutOfBin, false};
  const auto verdict = w.admission.admit(w.scratch.tasks, w.scratch.order,
                                         params.accept_model);
  if (!verdict.schedulable) {
    return {verdict.stage == analysis::AdmissionStage::kLowerBoundReject
                ? AttemptKind::kFilterReject
                : AttemptKind::kRtaReject,
            false};
  }
  accepted_out.clear();
  accepted_out.reserve(w.scratch.order.size());
  for (const auto idx : w.scratch.order) {
    accepted_out.push_back(w.scratch.tasks[idx]);
  }
  // Only the hyperbolic stage counts as "quick": it is a pure function of
  // the candidate. The probe-vs-exact distinction depends on the admission
  // context's history (which attempts this worker ran before), and counters
  // must be bit-identical across thread counts.
  return {AttemptKind::kAccepted,
          verdict.stage == analysis::AdmissionStage::kHyperbolicAccept};
}

void tally(GenCounters& c, const AttemptResult& r) {
  switch (r.kind) {
    case AttemptKind::kDrawFail: ++c.draw_failures; break;
    case AttemptKind::kOutOfBin: ++c.out_of_bin; break;
    case AttemptKind::kFilterReject: ++c.filter_rejects; break;
    case AttemptKind::kRtaReject: ++c.rta_rejects; break;
    case AttemptKind::kAccepted:
      ++c.accepted;
      if (r.quick) ++c.quick_accepts;
      break;
  }
}

// ---------------------------------------------------------------------------
// Structure-of-arrays batch pipeline.
//
// run_batch processes a chunk of consecutive attempts through phase-major
// stages instead of attempt-major ones: draw every candidate's RNG stream
// into flat stride-kRowStride arrays, screen the whole chunk with the
// sigma-C/max-D prefilter, finish only the survivors (UUniFast pow chain,
// m derivation, repair, priority sort -- all deferred), and admit the
// remaining candidates one by one.
//
// Two properties make the result bit-identical to run_attempt:
//   * the RNG draw sequence per attempt is unchanged -- the deferred work
//     (inv_int_root, m rounding, repair, sort) consumes no RNG, and v2
//     per-attempt substreams mean drawing *more* values than run_attempt's
//     early-outs (a draw-fail candidate still draws its remaining tasks
//     here) is unobservable: nothing else ever reads that stream;
//   * every deferred computation evaluates the same IEEE expressions in the
//     same order as run_attempt, llround_nonneg is std::llround on its
//     domain, and the prefilter and admission are exact integer code.
// tests/test_workload.cpp pins the equivalence attempt by attempt against a
// reference built from the public API alone.
// ---------------------------------------------------------------------------

/// Lanes per candidate in the batch arrays: candidate c owns lanes
/// [c*kRowStride, c*kRowStride + n_tasks[c]) of every per-task array.
constexpr std::size_t kRowStride = 16;

/// Where the generation pipeline's batch eligibility ends: candidate counts
/// above this stay exact in the deferred llround_nonneg domain (v * P and
/// k * share / v both < 2^52 needs P < ~4.5e12 ticks; one decade of margin).
constexpr std::int64_t kMaxBatchPeriodMs = 1'000'000'000;

/// True when `params` fit the batch pipeline's envelope: the uniform WCET
/// model (the shaped model draws m *before* its WCET, so nothing can be
/// deferred), k >= 2 (run_attempt's m clamp needs it too), task counts
/// within the fixed lane stride, and periods inside the exact-rounding
/// domain of the deferred llround.
bool batch_eligible(const GenParams& p, double bin_lo) {
  return p.wcet_model == WcetModel::kUniformWcet && p.min_k >= 2 &&
         p.min_tasks >= 1 && p.max_tasks <= kRowStride &&
         p.min_period_ms >= 1 && p.max_period_ms <= kMaxBatchPeriodMs &&
         bin_lo >= 0;
}

/// SoA buffers of one batch chunk, reused across chunks per worker thread.
struct BatchScratch {
  // Per-task arrays, stride kRowStride per candidate.
  std::vector<Ticks> period, deadline, wcet;
  std::vector<std::uint32_t> k, m, order;
  std::vector<double> u01;  ///< raw UUniFast uniforms; pow chain deferred
  std::vector<double> v;    ///< C/P draws

  // Per-candidate arrays.
  std::vector<double> target;
  std::vector<std::uint32_t> n_tasks;
  std::vector<std::uint8_t> alive;

  // Finalize scratch (one survivor at a time).
  std::vector<double> shares, step;

  // Admission views into the arrays above, one per surviving candidate.
  std::vector<analysis::SoACandidate> cands;
  std::vector<std::uint32_t> cand_slot;
  analysis::AdmissionContext admission;

  void prepare(std::size_t count) {
    const std::size_t lanes = count * kRowStride;
    if (period.size() < lanes) {
      period.resize(lanes);
      deadline.resize(lanes);
      wcet.resize(lanes);
      k.resize(lanes);
      m.resize(lanes);
      order.resize(lanes);
      u01.resize(lanes);
      v.resize(lanes);
    }
    if (target.size() < count) {
      target.resize(count);
      n_tasks.resize(count);
      alive.resize(count);
    }
    shares.resize(kRowStride);
    step.resize(kRowStride);
  }
};

/// Runs attempts [first_attempt, first_attempt + count) of a bin through the
/// batch pipeline, writing each attempt's result (and accepted tasks) into
/// slots[0..count).
void run_batch(const GenParams& params, double bin_lo, double bin_hi,
               std::uint64_t seed, std::uint64_t bin_index,
               std::uint64_t first_attempt, std::size_t count, BatchScratch& b,
               Slot* slots) {
  constexpr std::size_t stride = kRowStride;
  b.prepare(count);

  // ---- draw: per-attempt substreams into the SoA arrays ----
  // Parameter fields are hoisted into locals: the SoA stores below are
  // through pointer types that could legally alias the int64/double members
  // of `params`, and without the copies the compiler reloads every bound on
  // every task draw.
  const auto min_tasks = static_cast<std::int64_t>(params.min_tasks);
  const auto max_tasks = static_cast<std::int64_t>(params.max_tasks);
  const std::int64_t min_period_ms = params.min_period_ms;
  const std::int64_t max_period_ms = params.max_period_ms;
  const std::int64_t min_k = params.min_k;
  const auto max_k = static_cast<std::int64_t>(params.max_k);
  const double deadline_factor = params.deadline_factor;
  const bool implicit_deadlines = deadline_factor == 1.0;
  for (std::size_t c = 0; c < count; ++c) {
    core::Rng rng(core::stream_seed(seed, bin_index, first_attempt + c));
    b.target[c] = rng.uniform(bin_lo, bin_hi);
    const auto n =
        static_cast<std::size_t>(rng.range(min_tasks, max_tasks));
    b.n_tasks[c] = static_cast<std::uint32_t>(n);
    const std::size_t base = c * stride;
    for (std::size_t i = 0; i + 1 < n; ++i) b.u01[base + i] = rng.uniform01();
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      const Ticks p = core::from_ms(rng.range(min_period_ms, max_period_ms));
      const Ticks d =
          implicit_deadlines
              ? p
              : std::max<Ticks>(
                    1, core::from_ms(deadline_factor * core::to_ms(p)));
      b.k[base + i] =
          static_cast<std::uint32_t>(rng.range(min_k, max_k));
      const double vv = rng.uniform(0.05, 1.0);  // C_i / P_i
      const Ticks w = std::max<Ticks>(
          1, static_cast<Ticks>(
                 llround_nonneg(vv * static_cast<double>(p))));
      b.period[base + i] = p;
      b.deadline[base + i] = d;
      b.v[base + i] = vv;
      b.wcet[base + i] = w;
      // The only Task::valid() conditions not structurally guaranteed here
      // (k >= 2 and the m clamp make the (m,k) leg vacuous).
      ok = ok && d <= p && w <= d;
    }
    b.alive[c] = ok ? 1 : 0;
    if (!ok) slots[c].result = {AttemptKind::kDrawFail, false};
  }

  // ---- prefilter: sigma-C against max-D per live candidate ----
  // The deadline of a longest-period task equals the max deadline (the
  // deadline is a weakly increasing pure function of the period), so
  // run_attempt's wcet_sum > lp_deadline is exactly sum_c > max_d.
  for (std::size_t c = 0; c < count; ++c) {
    if (b.alive[c] == 0) continue;
    const std::size_t base = c * stride;
    Ticks sum_c = 0;
    Ticks max_d = 0;
    for (std::size_t i = 0; i < b.n_tasks[c]; ++i) {
      sum_c += b.wcet[base + i];
      max_d = std::max(max_d, b.deadline[base + i]);
    }
    if (sum_c > max_d) {
      b.alive[c] = 0;
      slots[c].result = {AttemptKind::kFilterReject, false};
    }
  }

  // ---- finalize survivors: the work the prefilter let everyone else skip --
  b.cands.clear();
  b.cand_slot.clear();
  for (std::size_t c = 0; c < count; ++c) {
    if (b.alive[c] == 0) continue;
    const std::size_t base = c * stride;
    const std::size_t n = b.n_tasks[c];
    // Deferred UUniFast: the same share recurrence as uunifast(), replaying
    // the recorded uniforms -- only ~1% of attempts ever pay the pow chain.
    double sum = b.target[c];
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double next = sum * inv_int_root(b.u01[base + i], n - 1 - i);
      b.shares[i] = sum - next;
      sum = next;
    }
    b.shares[n - 1] = sum;
    // Deferred m derivation: m = k * share / v, same expression order as
    // draw_raw's uniform-model branch.
    for (std::size_t i = 0; i < n; ++i) {
      const double m_real =
          static_cast<double>(b.k[base + i]) * b.shares[i] / b.v[base + i];
      const auto mm = llround_nonneg(m_real);
      b.m[base + i] = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
          mm, 1, static_cast<std::int64_t>(b.k[base + i]) - 1));
    }
    // m repair towards the target total, draw order, then the stable
    // rate-monotonic priority permutation -- both identical to
    // finalize_candidate over the same values.
    double current = 0;
    for (std::size_t i = 0; i < n; ++i) {
      b.step[i] = (static_cast<double>(b.wcet[base + i]) /
                   static_cast<double>(b.period[base + i])) /
                  static_cast<double>(b.k[base + i]);
      current += b.step[i] * static_cast<double>(b.m[base + i]);
    }
    repair_mk_steps(n, b.target[c], current, b.step.data(), b.m.data() + base,
                    b.k.data() + base);
    std::uint32_t* order = b.order.data() + base;
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint32_t key = order[i];
      const Ticks key_period = b.period[base + key];
      std::size_t j = i;
      for (; j > 0 && b.period[base + order[j - 1]] > key_period; --j) {
        order[j] = order[j - 1];
      }
      order[j] = key;
    }
    // Bin check, in priority order -- the accumulation order of
    // raw_mk_utilization and TaskSet::total_mk_utilization.
    double u = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t idx = order[i];
      const double util = static_cast<double>(b.wcet[base + idx]) /
                          static_cast<double>(b.period[base + idx]);
      u += util * static_cast<double>(b.m[base + idx]) /
           static_cast<double>(b.k[base + idx]);
    }
    if (u < bin_lo || u >= bin_hi) {
      b.alive[c] = 0;
      slots[c].result = {AttemptKind::kOutOfBin, false};
      continue;
    }
    b.cands.push_back({b.period.data() + base, b.deadline.data() + base,
                       b.wcet.data() + base, b.m.data() + base,
                       b.k.data() + base, order, n});
    b.cand_slot.push_back(static_cast<std::uint32_t>(c));
  }

  // ---- staged admission of everything still undecided ----
  for (std::size_t e = 0; e < b.cands.size(); ++e) {
    const std::size_t c = b.cand_slot[e];
    const auto verdict = b.admission.admit(b.cands[e], params.accept_model);
    if (!verdict.schedulable) {
      slots[c].result = {
          verdict.stage == analysis::AdmissionStage::kLowerBoundReject
              ? AttemptKind::kFilterReject
              : AttemptKind::kRtaReject,
          false};
      continue;
    }
    const std::size_t base = c * stride;
    const std::size_t n = b.n_tasks[c];
    auto& out = slots[c].tasks;
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t idx = b.order[base + i];
      Task t;
      t.period = b.period[base + idx];
      t.deadline = b.deadline[base + idx];
      t.wcet = b.wcet[base + idx];
      t.m = b.m[base + idx];
      t.k = b.k[base + idx];
      out.push_back(std::move(t));
    }
    slots[c].result = {AttemptKind::kAccepted,
                       verdict.stage ==
                           analysis::AdmissionStage::kHyperbolicAccept};
  }
}

}  // namespace

GenCounters& GenCounters::operator+=(const GenCounters& o) noexcept {
  draw_failures += o.draw_failures;
  out_of_bin += o.out_of_bin;
  filter_rejects += o.filter_rejects;
  rta_rejects += o.rta_rejects;
  accepted += o.accepted;
  quick_accepts += o.quick_accepts;
  return *this;
}

std::optional<TaskSet> generate_taskset(const GenParams& params,
                                        double target_mk_util, core::Rng& rng) {
  // Always the eager path: the caller's Rng is a *shared* sequential
  // stream, so the batch pipeline's over-drawing on invalid tasks (harmless
  // under per-attempt substreams) would shift every later draw here.
  GenScratch s;
  if (!draw_raw(params, target_mk_util, rng, s)) return std::nullopt;
  finalize_candidate(params, target_mk_util, s);
  std::vector<Task> tasks;
  tasks.reserve(s.order.size());
  for (const auto idx : s.order) tasks.push_back(s.tasks[idx]);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].name = "tau" + std::to_string(i + 1);
  }
  return TaskSet(std::move(tasks));
}

BinnedBatch generate_bin(const GenParams& params, double bin_lo, double bin_hi,
                         std::size_t want_schedulable, std::size_t max_attempts,
                         std::uint64_t seed, std::uint64_t bin_index,
                         core::ThreadPool* pool) {
  BinnedBatch batch;
  batch.bin_lo = bin_lo;
  batch.bin_hi = bin_hi;

  // Parameters outside the batch envelope (the shaped WCET model above all)
  // run the eager one-attempt-at-a-time pipeline; both fill the same slots.
  const bool use_batch = batch_eligible(params, bin_lo);
  const std::size_t workers = pool != nullptr ? pool->size() : 1;

  // Speculative attempts: fill a chunk of per-attempt result slots (across
  // the pool when there is one -- attempts are independent under the v2
  // substreams -- inline in attempt order otherwise), then commit them in
  // ascending attempt order until `want_schedulable` is reached. Attempts
  // past the deciding one are discarded unexamined, so the batch (sets,
  // attempt count, counters) is the same for every thread count. Chunks grow
  // geometrically: bins that fill from a handful of attempts waste little
  // speculative work, reject-heavy bins amortize dispatch overhead.
  std::vector<Slot> slots;
  std::uint64_t next = 0;  // first attempt index not yet examined
  std::size_t per_job = 32;
  while (batch.sets.size() < want_schedulable && next < max_attempts) {
    const auto chunk = std::min<std::uint64_t>(max_attempts - next,
                                               workers * per_job);
    if (slots.size() < chunk) slots.resize(chunk);
    const auto jobs = static_cast<std::size_t>((chunk + per_job - 1) / per_job);
    core::parallel_for(pool, jobs, [&](std::size_t job) {
      const std::uint64_t begin = job * per_job;
      const auto end = std::min<std::uint64_t>(begin + per_job, chunk);
      if (use_batch) {
        static thread_local BatchScratch scratch;
        run_batch(params, bin_lo, bin_hi, seed, bin_index, next + begin,
                  static_cast<std::size_t>(end - begin), scratch,
                  slots.data() + begin);
      } else {
        static thread_local AttemptWorker worker;
        for (std::uint64_t i = begin; i < end; ++i) {
          slots[i].result = run_attempt(params, bin_lo, bin_hi, seed, bin_index,
                                        next + i, worker, slots[i].tasks);
        }
      }
    });
    for (std::uint64_t i = 0;
         i < chunk && batch.sets.size() < want_schedulable; ++i) {
      ++batch.attempts;
      tally(batch.counters, slots[i].result);
      if (slots[i].result.kind == AttemptKind::kAccepted) {
        batch.sets.emplace_back(std::move(slots[i].tasks));
      }
    }
    next += chunk;
    per_job = std::min<std::size_t>(per_job * 2, 2048);
  }
  return batch;
}

}  // namespace mkss::workload
