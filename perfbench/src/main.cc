// perfbench_main: runs one workload of the end-to-end benchmark and prints
// a human-readable report followed by one JSON result line. perfbench/run.py
// builds it, trains the model it loads, and calls it as
//
//   perfbench_main --workload serve_open|batch_archive
//                    --seed N --seconds S --trace 0|1 --model DIR
//                    [--spans-out FILE] [--setup-samples S1,S2,...]
//   perfbench_main ... --setup-only 1
//
// The result line is {"correct", "attempted", "failed", "metrics"}; a run
// whose output checks fail reports its failures and no metrics, and exits 1.
// --setup-only 1 sets the workload up, prints "setup_s <seconds>" and exits;
// the set-up times of such processes, passed back with --setup-samples, join
// the median the measuring process reports.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/runtime_options.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "src/stats.h"
#include "src/workloads.h"

extern char** environ;

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_main --workload serve_open|batch_archive "
               "--seed N --seconds S --trace 0|1 --model DIR "
               "[--spans-out FILE] [--setup-samples S1,S2,...] "
               "[--setup-only 0|1]\n");
  return 2;
}

/// Every resolved RuntimeOptions field and the ServerOptions derived from
/// them, plus the build: the knobs the numbers were measured under.
void PrintHeader(const RunOptions& options) {
  const resuformer::RuntimeOptions& rt = options.runtime;
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# host: nproc=%ld hardware_concurrency=%u pool_threads=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(),
              resuformer::ThreadPool::Global().NumThreads());
  std::printf("# build: %s %s, flags [%s], RESUFORMER_NATIVE=%d\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
              PERFBENCH_NATIVE);
  std::printf(
      "# runtime: threads=%d use_fused_attention=%d use_tensor_arena=%d "
      "use_inference_plan=%d use_int8=%d save_rfp3=%d enable_metrics=%d "
      "enable_tracing=%d trace_buffer_capacity=%d serve_max_batch=%d "
      "serve_max_queue_delay_ms=%d serve_queue_capacity=%d serve_workers=%d "
      "serve_stats_window_ms=%d serve_slow_trace_us=%d "
      "serve_slow_trace_dir=%s\n",
      rt.threads, rt.use_fused_attention, rt.use_tensor_arena,
      rt.use_inference_plan, rt.use_int8, rt.save_rfp3, rt.enable_metrics,
      rt.enable_tracing, rt.trace_buffer_capacity, rt.serve_max_batch,
      rt.serve_max_queue_delay_ms, rt.serve_queue_capacity, rt.serve_workers,
      rt.serve_stats_window_ms, rt.serve_slow_trace_us,
      rt.serve_slow_trace_dir.c_str());
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RESUFORMER_", 11) == 0) {
      env += env.empty() ? "" : " ";
      env += *e;
    }
  }
  std::printf("# env overrides: %s\n", env.empty() ? "(none)" : env.c_str());
}

void PrintResult(const RunReport& report) {
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  for (const std::string& why : report.failures) {
    std::printf("FAILED CHECK: %s\n", why.c_str());
  }
  const bool correct = report.failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : correct ? report.metrics : std::vector<Metric>{}) {
    json += first ? "" : ", ";
    first = false;
    resuformer::AppendJsonQuoted(&json, m.name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", m.value);
    json += ": {\"value\": ";
    json += value;
    json += ", \"unit\": ";
    resuformer::AppendJsonQuoted(&json, m.unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.process_start_ns = NowNs();
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) return Usage();
    } else if (flag == "--model") {
      options.model_dir = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--setup-only") {
      options.setup_only = std::strcmp(value, "1") == 0;
    } else if (flag == "--setup-samples") {
      for (const std::string& s : resuformer::SplitString(value, ",")) {
        options.other_setups_s.push_back(std::strtod(s.c_str(), nullptr));
      }
    } else {
      return Usage();
    }
  }
  if (!have_seed || options.model_dir.empty()) return Usage();

  // The shipped defaults with the caller's RESUFORMER_* overrides; the
  // benchmark changes no knob itself.
  resuformer::Status env_error = resuformer::Status::OK();
  options.runtime = resuformer::RuntimeOptions::FromEnv(&env_error);
  if (!env_error.ok()) {
    std::fprintf(stderr, "error: %s\n", env_error.ToString().c_str());
    return 2;
  }
  resuformer::core::ApplyRuntimeOptions(options.runtime);
  PrintHeader(options);

  RunReport report;
  if (options.workload == "serve_open") {
    RunServeOpen(options, &report);
  } else if (options.workload == "batch_archive") {
    RunBatchArchive(options, &report);
  } else {
    return Usage();
  }
  if (options.setup_only) {
    for (const std::string& why : report.failures) {
      std::fprintf(stderr, "FAILED CHECK: %s\n", why.c_str());
    }
    std::printf("setup_s %.9g\n", report.setup_s);
    return report.failures.empty() ? 0 : 1;
  }
  PrintResult(report);
  return report.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
