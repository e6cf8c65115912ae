// rf_lint rule driver: loads files, runs the token-level project rules and
// the cross-file graph families (callgraph.h), and collects violations.
//
// Rule ids (the suppression syntax names these):
//   nodiscard-status        Header declarations returning Status/Result<T>
//                           must carry [[nodiscard]].
//   discarded-status        A statement that is solely a call to a Status/
//                           Result-returning function drops the error.
//   atomic-order-comment    Weakened std::memory_order needs a justification
//                           comment on the same line or within three above.
//   naked-new               No naked `new` (static leaked singletons exempt).
//   naked-malloc            No malloc/calloc/realloc/free.
//   std-rand                No std::rand/srand; use common/rng.h.
//   volatile-qualifier      No volatile; use std::atomic with an order.
//   include-guard           RESUFORMER_<PATH>_<FILE>_H_ ("src/" stripped).
//   trace-span-in-parallel-for  No TRACE_SPAN inside a ParallelFor body.
//   json-string-concat      No hand-rolled JSON via string concatenation.
//   mmap-payload-cast       reinterpret_cast to non-byte pointer types only
//                           in nn/serialize.cc and tensor/quant.cc.
//   metric-name-literal     Metric lookups pass one lowercase dotted literal.
//   fixed-tmp-path          No string literal starting with "/tmp/" under
//                           src/: a fixed scratch path is shared by every
//                           process and thread that runs the code.
//   lock-order-cycle        (graph) cycle in the mutex acquisition order.
//   blocking-reachable-under-lock  (graph) call chain from a critical
//                           section to a blocking syscall, chain printed.
//   alloc-in-parallel-for   (graph) allocation reachable from a ParallelFor
//                           body.
//
// Suppressions (in comments):
//   rf-lint-allow(rule[,rule...])        this line or the next line
//   rf-lint-allow-file(rule[,rule...])   the whole file
// Self-test fixtures declare exact counts with
//   rf-lint-selftest-expect(rule=N)

#ifndef RESUFORMER_TOOLS_RF_LINT_RULES_H_
#define RESUFORMER_TOOLS_RF_LINT_RULES_H_

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "rf_lint/lexer.h"
#include "rf_lint/scopes.h"

namespace rflint {

/// Canonical include-guard macro for a path relative to the repo root:
/// RESUFORMER_<PATH>_<FILE>_H_ with a leading "src/" stripped.
std::string ExpectedGuardMacro(std::string rel);

struct Violation {
  std::string file;  // path as reported (relative to the scan root)
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

struct LintedFile {
  std::filesystem::path path;  // absolute path (for --fix rewrites)
  std::string rel;             // path relative to the scan root
  std::string source;          // raw bytes
  LexedFile lex;
  // Suppression state parsed out of comments.
  std::set<std::string> file_allow;                 // rf-lint-allow-file
  std::map<int, std::set<std::string>> line_allow;  // rf-lint-allow by line
};

class Linter {
 public:
  void AddFile(const std::filesystem::path& path, const std::string& rel);
  void Run();

  const std::vector<Violation>& violations() const { return violations_; }
  const std::vector<LintedFile>& files() const { return files_; }

  // Exact per-rule expectations declared in fixture comments via
  // rf-lint-selftest-expect(rule=N).
  std::map<std::string, int> Expectations() const;

  static const std::vector<std::string>& AllRules();

 private:
  bool Suppressed(const LintedFile& f, int line, const std::string& rule) const;
  void Report(const LintedFile& f, int line, const std::string& rule,
              std::string message);

  void CollectStatusFunctions();
  void LintNodiscardDeclarations(const LintedFile& f);
  void LintDiscardedStatus(const LintedFile& f);
  void LintAtomicOrderComments(const LintedFile& f);
  void LintBannedConstructs(const LintedFile& f);
  void LintIncludeGuard(const LintedFile& f);
  void LintTraceSpanInParallelFor(const LintedFile& f);
  void LintJsonStringConcat(const LintedFile& f);
  void LintMmapPayloadCast(const LintedFile& f);
  void LintMetricNameLiteral(const LintedFile& f);
  void LintFixedTmpPath(const LintedFile& f);
  void RunGraphFamilies();

  std::vector<LintedFile> files_;
  std::set<std::string> status_functions_;
  std::vector<Violation> violations_;
};

}  // namespace rflint

#endif  // RESUFORMER_TOOLS_RF_LINT_RULES_H_
