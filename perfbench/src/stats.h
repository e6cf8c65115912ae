#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

/// Tail percentiles are reported only when at least this many samples lie
/// beyond them; below that, one sample decides the value.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// Samples strictly beyond the q-quantile of n samples: n - ceil(q * n).
int64_t SamplesBeyond(int64_t n, double q);

/// The q-quantile (0 <= q <= 1) of `samples`, interpolated between order
/// statistics, or nullopt when fewer than `min_beyond` samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double q,
                                 int64_t min_beyond = kMinSamplesBeyond);

/// Median and mean of a non-empty sample.
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// The q-quantile of a registry histogram snapshot (log2 buckets), linearly
/// interpolated inside the bucket that holds it, or nullopt when the
/// histogram has fewer than `min_beyond` samples beyond it.
std::optional<double> HistogramPercentile(
    const resuformer::metrics::MetricsSnapshot::HistogramValue& histogram,
    double q, int64_t min_beyond = kMinSamplesBeyond);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
