#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "resumegen/renderer.h"

namespace perfbench {

/// One generated resume: the rendered document with its gold labels, and the
/// plain text a client sends over the wire (serve::DocumentToText). The
/// program only ever receives `text`; the gold stays with the benchmark.
struct ResumeInput {
  resuformer::resumegen::GeneratedResume gold;
  std::string text;
};

/// Input streams. Each workload draws from its own stream, and each resume
/// from its own generator seeded by (seed, stream, index), so resume i is
/// the same however many resumes a run ends up drawing.
enum class Stream : uint64_t {
  kServe = 1,
  kBatch = 2,
  kPaper = 3,
  kWarmup = 4,
};

/// Resume `index` of `stream` under `seed` (default resumegen template mix).
ResumeInput MakeResume(uint64_t seed, Stream stream, int64_t index);

/// Resumes [first, first + count) of `stream`.
std::vector<ResumeInput> MakeResumes(uint64_t seed, Stream stream,
                                     int64_t first, int count);

/// Warm-up inputs for set-up. They do not depend on the workload seed, so
/// set-up does the same work on every run.
std::vector<ResumeInput> WarmupResumes(int count);

/// Open-loop arrival offsets (ns from the start of the schedule) for `count`
/// Poisson arrivals at `rate_per_s`. The gaps are the `count` exponential
/// quantiles (i + 0.5) / count in a seed-shuffled order: every seed sends the
/// same number of requests over the same span with the same gap
/// distribution, and only the order of the gaps, so the bursts, changes.
std::vector<int64_t> PoissonDueOffsetsNs(uint64_t seed, double rate_per_s,
                                         int count);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
