// Summary statistics of the benchmark: order statistics, the tail-percentile
// rule, and the failed-operation ratio. Kept free of the library so the
// self-test can check them in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentiles the tail rule may pick, highest first.
inline constexpr double kTailLadder[] = {99.0, 90.0, 75.0, 50.0};
/// A tail percentile is reported only with at least this many samples
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// ceil(p/100 * n), clamped to [1, n].
std::size_t nearest_rank(double p, std::size_t n);

/// Samples strictly beyond the nearest rank of `p`.
std::size_t samples_beyond(double p, std::size_t n);

/// Nearest-rank percentile of `samples` (copied and sorted); 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Median (nearest rank of p50); 0 when empty.
double median(std::vector<double> samples);

struct Tail {
  double percentile{0};  ///< the percentile picked from kTailLadder
  double value{0};
  std::size_t beyond{0};  ///< samples beyond it
  bool undersampled{false};  ///< no ladder entry had kMinBeyond samples beyond
};

/// The highest ladder percentile with at least kMinBeyond samples beyond
/// it. With fewer than that even for p50, p50 is returned and marked
/// undersampled.
Tail tail(std::vector<double> samples);

/// failed / attempted; 0 when nothing was attempted.
double failed_ratio(std::uint64_t failed, std::uint64_t attempted);

/// Ratio of hits to lookups; 0 with no lookups.
double hit_ratio(std::uint64_t hits, std::uint64_t misses);

}  // namespace perfbench
