#include "rf_lint/rules.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "rf_lint/callgraph.h"

namespace rflint {

namespace {

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeader(const std::string& rel) {
  return HasSuffix(rel, ".h") || HasSuffix(rel, ".hpp");
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// Index of the token matching an opener at `i`, or -1. Skips kPp tokens.
int MatchForward(const std::vector<Token>& toks, int i, const char* open,
                 const char* close) {
  int depth = 0;
  const int n = static_cast<int>(toks.size());
  for (int steps = 0; i < n && steps < 20000; ++i, ++steps) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == open) {
      ++depth;
    } else if (toks[i].text == close) {
      if (--depth == 0) return i;
    }
  }
  return -1;
}

bool LineHasComment(const LexedFile& lex, int line) {
  return line >= 1 && line < static_cast<int>(lex.line_has_comment.size()) &&
         lex.line_has_comment[line];
}

// Parses "rule[,rule...]" between parens starting at `open` in `text`.
std::set<std::string> ParseRuleList(const std::string& text, size_t open) {
  std::set<std::string> rules;
  const size_t close = text.find(')', open);
  if (close == std::string::npos) return rules;
  std::stringstream ss(text.substr(open + 1, close - open - 1));
  std::string item;
  while (std::getline(ss, item, ',')) {
    item.erase(std::remove_if(item.begin(), item.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               item.end());
    if (!item.empty()) rules.insert(item);
  }
  return rules;
}

// Matches `Status Foo(` or `Result<...> Foo(` starting at token i. On match
// returns the index of the function-name token, else -1.
int MatchStatusReturningDecl(const std::vector<Token>& toks, int i) {
  const int n = static_cast<int>(toks.size());
  int name = -1;
  if (IsIdent(toks[i], "Status")) {
    name = i + 1;
  } else if (IsIdent(toks[i], "Result") && i + 1 < n &&
             IsPunct(toks[i + 1], "<")) {
    const int close = MatchForward(toks, i + 1, "<", ">");
    if (close < 0 || close - i > 40) return -1;
    name = close + 1;
  } else {
    return -1;
  }
  if (name + 1 >= n) return -1;
  if (toks[name].kind != TokKind::kIdent) return -1;
  if (!IsPunct(toks[name + 1], "(")) return -1;
  // `Status::Foo(` is a scoped call, not a declaration.
  if (i >= 1 && (IsPunct(toks[i - 1], "::") || IsPunct(toks[i - 1], ".") ||
                 IsPunct(toks[i - 1], "->"))) {
    return -1;
  }
  return name;
}

const char* kMemoryOrders[] = {"memory_order_relaxed", "memory_order_acquire",
                               "memory_order_release", "memory_order_acq_rel",
                               "memory_order_consume"};

}  // namespace

std::string ExpectedGuardMacro(std::string rel) {
  if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
  std::string expected = "RESUFORMER_";
  for (char c : rel) {
    expected += std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(
                          std::toupper(static_cast<unsigned char>(c)))
                    : '_';
  }
  expected += "_";
  return expected;
}

const std::vector<std::string>& Linter::AllRules() {
  static const std::vector<std::string> kRules = {
      "nodiscard-status",       "discarded-status",
      "atomic-order-comment",   "naked-new",
      "naked-malloc",           "std-rand",
      "volatile-qualifier",     "include-guard",
      "trace-span-in-parallel-for", "json-string-concat",
      "mmap-payload-cast",      "metric-name-literal",
      "fixed-tmp-path",         "lock-order-cycle",
      "blocking-reachable-under-lock", "alloc-in-parallel-for"};
  return kRules;
}

void Linter::AddFile(const std::filesystem::path& path,
                     const std::string& rel) {
  LintedFile file;
  file.path = path;
  file.rel = rel;
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  file.source = buf.str();
  file.lex = Lex(file.source);
  // Suppressions live in comments only.
  for (const Comment& c : file.lex.comments) {
    size_t pos = 0;
    while ((pos = c.text.find("rf-lint-allow", pos)) != std::string::npos) {
      size_t open = pos + 13;  // strlen("rf-lint-allow")
      bool file_scope = false;
      if (c.text.compare(open, 5, "-file") == 0) {
        open += 5;
        file_scope = true;
      }
      if (open < c.text.size() && c.text[open] == '(') {
        for (const std::string& r : ParseRuleList(c.text, open)) {
          if (file_scope) {
            file.file_allow.insert(r);
          } else {
            for (int l = c.line; l <= c.end_line; ++l) {
              file.line_allow[l].insert(r);
            }
          }
        }
      }
      pos = open;
    }
  }
  files_.push_back(std::move(file));
}

void Linter::Run() {
  CollectStatusFunctions();
  for (const LintedFile& f : files_) {
    LintNodiscardDeclarations(f);
    LintDiscardedStatus(f);
    LintAtomicOrderComments(f);
    LintBannedConstructs(f);
    LintIncludeGuard(f);
    LintTraceSpanInParallelFor(f);
    LintJsonStringConcat(f);
    LintMmapPayloadCast(f);
    LintMetricNameLiteral(f);
    LintFixedTmpPath(f);
  }
  RunGraphFamilies();
}

std::map<std::string, int> Linter::Expectations() const {
  std::map<std::string, int> expect;
  for (const LintedFile& f : files_) {
    for (const Comment& c : f.lex.comments) {
      size_t pos = 0;
      while ((pos = c.text.find("rf-lint-selftest-expect(", pos)) !=
             std::string::npos) {
        const size_t open = pos + 24;
        const size_t eq = c.text.find('=', open);
        const size_t close = c.text.find(')', open);
        pos = open;
        if (eq == std::string::npos || close == std::string::npos ||
            eq > close) {
          continue;
        }
        const std::string rule = c.text.substr(open, eq - open);
        const std::string count = c.text.substr(eq + 1, close - eq - 1);
        if (rule.empty() || count.empty()) continue;
        bool numeric = true;
        for (char ch : count) {
          if (!std::isdigit(static_cast<unsigned char>(ch))) numeric = false;
        }
        if (numeric) expect[rule] += std::stoi(count);
      }
    }
  }
  return expect;
}

bool Linter::Suppressed(const LintedFile& f, int line,
                        const std::string& rule) const {
  if (f.file_allow.count(rule)) return true;
  auto hit = [&](int l) {
    auto it = f.line_allow.find(l);
    return it != f.line_allow.end() && it->second.count(rule) > 0;
  };
  return hit(line) || hit(line - 1);
}

void Linter::Report(const LintedFile& f, int line, const std::string& rule,
                    std::string message) {
  if (Suppressed(f, line, rule)) return;
  violations_.push_back({f.rel, line, rule, std::move(message)});
}

void Linter::CollectStatusFunctions() {
  for (const LintedFile& f : files_) {
    const auto& toks = f.lex.tokens;
    for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
      const int name = MatchStatusReturningDecl(toks, i);
      if (name >= 0) status_functions_.insert(toks[name].text);
    }
  }
}

void Linter::LintNodiscardDeclarations(const LintedFile& f) {
  if (!IsHeader(f.rel)) return;
  const auto& toks = f.lex.tokens;
  for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
    const int name = MatchStatusReturningDecl(toks, i);
    if (name < 0) continue;
    // [[nodiscard]] appears shortly before the return type.
    bool annotated = false;
    for (int j = i - 1; j >= 0 && j >= i - 8; --j) {
      if (IsIdent(toks[j], "nodiscard")) annotated = true;
      if (IsPunct(toks[j], ";") || IsPunct(toks[j], "{") ||
          IsPunct(toks[j], "}")) {
        break;
      }
    }
    if (!annotated) {
      Report(f, toks[name].line, "nodiscard-status",
             "declaration of '" + toks[name].text + "' returns " +
                 toks[i].text +
                 " but is not [[nodiscard]]; a dropped error must not "
                 "compile warning-clean");
    }
  }
}

void Linter::LintDiscardedStatus(const LintedFile& f) {
  const auto& toks = f.lex.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    if (toks[i].kind != TokKind::kIdent || i + 1 >= n ||
        !IsPunct(toks[i + 1], "(")) {
      continue;
    }
    if (status_functions_.count(toks[i].text) == 0) continue;
    // Walk back over the receiver/qualifier chain to the statement start.
    int start = i;
    while (start >= 2 &&
           (IsPunct(toks[start - 1], "::") || IsPunct(toks[start - 1], ".") ||
            IsPunct(toks[start - 1], "->")) &&
           toks[start - 2].kind == TokKind::kIdent) {
      start -= 2;
    }
    const bool at_statement_start =
        start == 0 || IsPunct(toks[start - 1], ";") ||
        IsPunct(toks[start - 1], "{") || IsPunct(toks[start - 1], "}") ||
        IsIdent(toks[start - 1], "else") || IsIdent(toks[start - 1], "do") ||
        toks[start - 1].kind == TokKind::kPp;
    if (!at_statement_start) continue;
    const int close = MatchForward(toks, i + 1, "(", ")");
    if (close < 0 || close + 1 >= n || !IsPunct(toks[close + 1], ";")) {
      continue;
    }
    Report(f, toks[i].line, "discarded-status",
           "return value of '" + toks[i].text +
               "' (Status/Result) is discarded; assign it, wrap it in "
               "RF_RETURN_NOT_OK/WarnIfError, or test .ok()");
  }
}

void Linter::LintAtomicOrderComments(const LintedFile& f) {
  for (const Token& t : f.lex.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    bool is_order = false;
    for (const char* order : kMemoryOrders) {
      if (t.text == order) is_order = true;
    }
    if (!is_order) continue;
    bool commented = false;
    for (int l = t.line - 3; l <= t.line; ++l) {
      if (LineHasComment(f.lex, l)) commented = true;
    }
    if (!commented) {
      Report(f, t.line, "atomic-order-comment",
             "weakened std::memory_order without an adjacent justification "
             "comment (same line or the three lines above)");
    }
  }
}

void Linter::LintBannedConstructs(const LintedFile& f) {
  const auto& toks = f.lex.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool member_recv =
        i >= 1 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
    if (t.text == "new") {
      if (i >= 1 && IsIdent(toks[i - 1], "operator")) continue;
      // Leaked-singleton exemption: `static T* x = new T...`.
      bool leaked_singleton = false;
      if (i >= 1 && IsPunct(toks[i - 1], "=")) {
        for (int j = i - 2; j >= 0 && j >= i - 14; --j) {
          if (IsIdent(toks[j], "static")) leaked_singleton = true;
          if (IsPunct(toks[j], ";") || IsPunct(toks[j], "{") ||
              IsPunct(toks[j], "}")) {
            break;
          }
        }
      }
      if (!leaked_singleton) {
        Report(f, t.line, "naked-new",
               "naked 'new'; use std::make_unique/make_shared or a "
               "container (static leaked singletons are exempt)");
      }
      continue;
    }
    const bool call = i + 1 < n && IsPunct(toks[i + 1], "(");
    if (call && !member_recv &&
        (t.text == "malloc" || t.text == "calloc" || t.text == "realloc" ||
         t.text == "free")) {
      // `Foo::free(` is someone else's API; bare or std:: is the libc one.
      const bool scoped = i >= 2 && IsPunct(toks[i - 1], "::") &&
                          !IsIdent(toks[i - 2], "std");
      if (!scoped) {
        Report(f, t.line, "naked-malloc",
               "'" + t.text +
                   "' bypasses the tensor arena and RAII ownership");
      }
      continue;
    }
    if (call && !member_recv && (t.text == "rand" || t.text == "srand")) {
      const bool scoped = i >= 2 && IsPunct(toks[i - 1], "::") &&
                          !IsIdent(toks[i - 2], "std");
      if (!scoped) {
        Report(f, t.line, "std-rand",
               "'" + t.text +
                   "' breaks reproducibility; draw from common/rng.h");
      }
      continue;
    }
    if (t.text == "volatile") {
      Report(f, t.line, "volatile-qualifier",
             "'volatile' is not a threading primitive; use std::atomic "
             "with a documented memory order");
    }
  }
}

void Linter::LintIncludeGuard(const LintedFile& f) {
  if (!IsHeader(f.rel)) return;
  const std::string expected = ExpectedGuardMacro(f.rel);
  auto directive_word = [](const std::string& text, const std::string& kw) {
    // "#  ifndef FOO" -> "FOO" when kw matches, else "".
    size_t i = text.find('#');
    if (i == std::string::npos) return std::string();
    ++i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (text.compare(i, kw.size(), kw) != 0) return std::string();
    i += kw.size();
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::string word;
    while (i < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[i])) ||
            text[i] == '_')) {
      word += text[i++];
    }
    return word;
  };
  std::string ifndef_macro, define_macro;
  int ifndef_line = 1;
  for (const Token& t : f.lex.tokens) {
    if (t.kind != TokKind::kPp) continue;
    if (ifndef_macro.empty()) {
      const std::string word = directive_word(t.text, "ifndef");
      if (!word.empty()) {
        ifndef_macro = word;
        ifndef_line = t.line;
      }
    } else {
      const std::string word = directive_word(t.text, "define");
      if (!word.empty()) {
        define_macro = word;
        break;
      }
    }
  }
  if (ifndef_macro.empty() || define_macro.empty()) {
    Report(f, 1, "include-guard",
           "missing include guard; expected #ifndef " + expected);
    return;
  }
  if (ifndef_macro != expected || define_macro != expected) {
    Report(f, ifndef_line, "include-guard",
           "include guard '" + ifndef_macro + "' should be '" + expected +
               "' (RESUFORMER_ + path relative to the repo root, src/ "
               "stripped)");
  }
}

void Linter::LintTraceSpanInParallelFor(const LintedFile& f) {
  const auto& toks = f.lex.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    if (!IsIdent(toks[i], "ParallelFor") || i + 1 >= n ||
        !IsPunct(toks[i + 1], "(")) {
      continue;
    }
    const int close = MatchForward(toks, i + 1, "(", ")");
    if (close < 0) continue;
    for (int j = i + 2; j < close; ++j) {
      if (IsIdent(toks[j], "TRACE_SPAN")) {
        Report(f, toks[j].line, "trace-span-in-parallel-for",
               "TRACE_SPAN inside a ParallelFor body records a span per "
               "chunk per dispatch and floods the per-thread ring buffers; "
               "trace around the dispatch instead");
      }
    }
  }
}

void Linter::LintJsonStringConcat(const LintedFile& f) {
  // common/string_util implements the escape helper itself.
  if (f.rel.find("common/string_util") != std::string::npos) return;
  const auto& toks = f.lex.tokens;
  const int n = static_cast<int>(toks.size());
  auto ends_with_escaped_quote = [](const std::string& inner) {
    return inner.size() >= 2 && inner[inner.size() - 2] == '\\' &&
           inner.back() == '"';
  };
  auto starts_with_escaped_quote = [](const std::string& inner) {
    return inner.size() >= 2 && inner[0] == '\\' && inner[1] == '"';
  };
  for (int i = 0; i < n; ++i) {
    if (!IsPunct(toks[i], "+")) continue;
    const bool close_then_plus =
        i >= 1 && toks[i - 1].kind == TokKind::kString &&
        ends_with_escaped_quote(StringInner(toks[i - 1]));
    const bool plus_then_open =
        i + 1 < n && toks[i + 1].kind == TokKind::kString &&
        starts_with_escaped_quote(StringInner(toks[i + 1]));
    if (close_then_plus || plus_then_open) {
      Report(f, toks[i].line, "json-string-concat",
             "raw concatenation into a JSON string literal leaves the "
             "payload unescaped; quote values with JsonEscape/"
             "AppendJsonQuoted from common/string_util");
    }
  }
}

void Linter::LintMmapPayloadCast(const LintedFile& f) {
  if (HasSuffix(f.rel, "nn/serialize.cc") ||
      HasSuffix(f.rel, "tensor/quant.cc")) {
    return;
  }
  const auto& toks = f.lex.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    if (!IsIdent(toks[i], "reinterpret_cast") || i + 1 >= n ||
        !IsPunct(toks[i + 1], "<")) {
      continue;
    }
    const int close = MatchForward(toks, i + 1, "<", ">");
    if (close < 0) continue;
    bool byte_target = false;
    std::string target;
    for (int j = i + 2; j < close; ++j) {
      if (!target.empty() && toks[j].kind == TokKind::kIdent &&
          toks[j - 1].kind == TokKind::kIdent) {
        target += ' ';
      }
      target += toks[j].text;
      if (IsIdent(toks[j], "char") || IsIdent(toks[j], "byte") ||
          IsIdent(toks[j], "uintptr_t") || IsIdent(toks[j], "intptr_t") ||
          IsIdent(toks[j], "void")) {
        byte_target = true;
      }
    }
    if (byte_target) continue;
    Report(f, toks[i].line, "mmap-payload-cast",
           "reinterpret_cast to '" + target +
               "' outside nn/serialize.cc / tensor/quant.cc; typed views "
               "of raw payload bytes live only in those TUs (byte-pointer "
               "casts are exempt)");
  }
}

void Linter::LintMetricNameLiteral(const LintedFile& f) {
  // The registry implements these functions (string parameters), and tests
  // exercise snapshot plumbing with synthetic names.
  if (f.rel.find("common/metrics.") != std::string::npos) return;
  if (f.rel.rfind("tests/", 0) == 0) return;
  const auto& toks = f.lex.tokens;
  const int n = static_cast<int>(toks.size());
  auto valid_name = [](const std::string& name) {
    if (name.empty() || name[0] < 'a' || name[0] > 'z') return false;
    for (char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_' || c == '.';
      if (!ok) return false;
    }
    return true;
  };
  for (int i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent ||
        (t.text != "GetCounter" && t.text != "GetGauge" &&
         t.text != "GetHistogram")) {
      continue;
    }
    if (i + 1 >= n || !IsPunct(toks[i + 1], "(")) continue;
    const int close = MatchForward(toks, i + 1, "(", ")");
    if (close < 0) continue;
    // The argument list must be exactly one string literal token.
    if (close == i + 3 && toks[i + 2].kind == TokKind::kString) {
      const std::string name = StringInner(toks[i + 2]);
      if (!valid_name(name)) {
        Report(f, t.line, "metric-name-literal",
               "metric name '" + name +
                   "' must be lowercase dotted ([a-z][a-z0-9_.]*) so the "
                   "dotted -> Prometheus-underscore mapping stays stable");
      }
    } else {
      Report(f, t.line, "metric-name-literal",
             t.text +
                 " argument is not a single string literal; a runtime-built "
                 "metric name allocates and re-hashes on every call — look "
                 "the instrument up once from a literal and cache the "
                 "stable pointer");
    }
  }
}

void Linter::LintFixedTmpPath(const LintedFile& f) {
  if (f.rel.rfind("src/", 0) != 0) return;
  for (const Token& t : f.lex.tokens) {
    if (t.kind != TokKind::kString) continue;
    const std::string inner = StringInner(t);
    if (inner.rfind("/tmp/", 0) != 0) continue;
    Report(f, t.line, "fixed-tmp-path",
           "string literal '" + inner +
               "' is a fixed /tmp path: every process and thread running "
               "this code shares it, so concurrent runs overwrite each "
               "other's files; keep scratch state in memory or take the "
               "path from the caller");
  }
}

void Linter::RunGraphFamilies() {
  std::vector<FunctionInfo> functions;
  for (const LintedFile& f : files_) {
    ScopeAnalysis analysis = AnalyzeScopes(f.rel, f.lex);
    for (FunctionInfo& fn : analysis.functions) {
      functions.push_back(std::move(fn));
    }
  }
  std::map<std::string, const LintedFile*> by_rel;
  for (const LintedFile& f : files_) by_rel[f.rel] = &f;
  for (const GraphFinding& g : RunGraphRules(functions)) {
    auto it = by_rel.find(g.file);
    if (it != by_rel.end()) {
      Report(*it->second, g.line, g.rule, g.message);
    } else {
      violations_.push_back({g.file, g.line, g.rule, g.message});
    }
  }
}

}  // namespace rflint
