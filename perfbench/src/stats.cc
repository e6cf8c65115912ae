#include "src/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace perfbench {

int64_t SamplesBeyond(int64_t n, double q) {
  return n - static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
}

std::optional<double> Percentile(std::vector<double> samples, double q,
                                 int64_t min_beyond) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0 || q < 0.0 || q > 1.0 || SamplesBeyond(n, q) < min_beyond) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return *Percentile(std::move(samples), 0.5, 0);
}

double Mean(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::optional<double> HistogramPercentile(
    const resuformer::metrics::MetricsSnapshot::HistogramValue& histogram,
    double q, int64_t min_beyond) {
  int64_t total = 0;
  for (const auto& bucket : histogram.buckets) total += bucket.count;
  if (total == 0 || SamplesBeyond(total, q) < min_beyond) return std::nullopt;
  // Rank of the wanted sample (1-based), then the bucket holding it. Bucket
  // b covers [2^(b-1), 2^b - 1]; its lower edge is half the next power.
  const double rank = std::max(1.0, q * static_cast<double>(total));
  int64_t seen = 0;
  for (const auto& bucket : histogram.buckets) {
    if (static_cast<double>(seen + bucket.count) >= rank) {
      const double upper = static_cast<double>(bucket.upper_bound);
      const double lower = upper <= 0 ? 0.0 : (upper + 1.0) / 2.0;
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(bucket.count);
      return lower + within * (upper - lower);
    }
    seen += bucket.count;
  }
  return static_cast<double>(histogram.buckets.back().upper_bound);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
