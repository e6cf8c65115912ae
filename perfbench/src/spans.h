#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One timed call the benchmark made into a module.
struct Span {
  const char* name = nullptr;  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 at the root
  int64_t doc_id = 0;
};

/// \brief In-memory span recorder for the traced decomposition pass.
///
/// Single-threaded: the benchmark times one call chain at a time. Spans nest
/// by call order (a span begun while another is open is its child); they are
/// kept in memory and written out once, at the end of the run.
class SpanRecorder {
 public:
  /// Opens a span and returns its index.
  int Begin(const char* name, int64_t doc_id);
  /// Closes the innermost open span, which must be `index`.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in ns, summed over every span: each span's
  /// duration minus the time its direct children cover.
  std::map<std::string, int64_t> SelfTimeNs() const;

  /// Chrome trace-event JSON (one "X" event per span, args: doc, parent).
  [[nodiscard]] resuformer::Status WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t doc_id)
      : recorder_(recorder), index_(recorder->Begin(name, doc_id)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
