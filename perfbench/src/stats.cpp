#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

std::size_t nearest_rank(double p, std::size_t n) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  if (rank < 1) return 1;
  if (rank > static_cast<double>(n)) return n;
  return static_cast<std::size_t>(rank);
}

std::size_t samples_beyond(double p, std::size_t n) {
  return n - nearest_rank(p, n);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t k = nearest_rank(p, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k - 1),
                   samples.end());
  return samples[k - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

Tail tail(std::vector<double> samples) {
  Tail t;
  for (const double p : kTailLadder) {
    const std::size_t beyond = samples_beyond(p, samples.size());
    if (beyond >= kMinBeyond || p == 50.0) {
      t.percentile = p;
      t.beyond = beyond;
      t.undersampled = beyond < kMinBeyond;
      t.value = percentile(std::move(samples), p);
      return t;
    }
  }
  return t;
}

double failed_ratio(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace perfbench
