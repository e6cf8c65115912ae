#include "src/spans.h"

#include <fstream>

#include "common/logging.h"
#include "src/stats.h"

namespace perfbench {

int SpanRecorder::Begin(const char* name, int64_t doc_id) {
  Span span;
  span.name = name;
  span.doc_id = doc_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  const int64_t now = NowNs();
  RF_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  spans_[index].end_ns = now;
  open_.pop_back();
}

std::map<std::string, int64_t> SpanRecorder::SelfTimeNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

resuformer::Status SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return resuformer::Status::IoError("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns - origin) / 1000.0
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ", \"args\": {\"doc\": " << s.doc_id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) return resuformer::Status::IoError("failed writing " + path);
  return resuformer::Status::OK();
}

}  // namespace perfbench
