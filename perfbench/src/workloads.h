#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/runtime_options.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string model_dir;  // checkpoint written by `resuformer_cli train`
  std::string spans_out;  // traced runs write their spans here
  resuformer::RuntimeOptions runtime;  // resolved once, env included
  int64_t process_start_ns = 0;
  // Set-up is timed once per process, from process start to ready, so the
  // measured process is set up exactly as a real one. `setup_only` stops
  // there; `other_setups_s` are the times of earlier set-up-only processes,
  // folded into the reported median.
  bool setup_only = false;
  std::vector<double> other_setups_s;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run found. A run with any failure reports no numbers.
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  double setup_s = 0.0;               // this process's set-up time
  std::vector<std::string> failures;  // output checks that did not hold
  std::vector<Metric> metrics;        // end-to-end, or per-layer when traced
  std::vector<std::string> lines;     // the human-readable report

  void Fail(std::string why) { failures.push_back(std::move(why)); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// printf-style report line.
  void Line(const char* format, ...) __attribute__((format(printf, 2, 3)));
};

/// The workloads (see perfbench/README.md). Traced batch_archive runs also
/// time the paper-dims model.
void RunServeOpen(const RunOptions& options, RunReport* report);
void RunBatchArchive(const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
