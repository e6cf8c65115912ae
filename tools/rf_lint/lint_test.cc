// Unit tests for the rf_lint analysis engine: lexer edge cases, scope facts,
// the cross-file graph rules, SARIF validity, and --fix idempotency. The
// end-to-end fixture counts live in `rf_lint --selftest` (the
// rf_lint_selftest ctest); these tests pin down the engine behaviors the
// fixtures rely on.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rf_lint/callgraph.h"
#include "rf_lint/fixit.h"
#include "rf_lint/lexer.h"
#include "rf_lint/rules.h"
#include "rf_lint/sarif.h"
#include "rf_lint/scopes.h"

namespace rflint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers

bool HasIdent(const LexedFile& lex, const std::string& text) {
  for (const Token& t : lex.tokens) {
    if (t.kind == TokKind::kIdent && t.text == text) return true;
  }
  return false;
}

std::vector<FunctionInfo> Funcs(const std::string& file,
                                const std::string& src) {
  return AnalyzeScopes(file, Lex(src)).functions;
}

const FunctionInfo* Find(const std::vector<FunctionInfo>& fns,
                         const std::string& qualified) {
  for (const FunctionInfo& f : fns) {
    if (f.qualified_name == qualified) return &f;
  }
  return nullptr;
}

int CountRule(const std::vector<GraphFinding>& findings,
              const std::string& rule) {
  int n = 0;
  for (const GraphFinding& g : findings) {
    if (g.rule == rule) ++n;
  }
  return n;
}

// Scratch directory on disk for the Linter/fix tests (AddFile reads files).
class TempTree {
 public:
  TempTree() {
    static int counter = 0;
    root_ = fs::temp_directory_path() /
            ("rf_lint_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(root_);
  }
  ~TempTree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  fs::path Write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
    return p;
  }

  std::string Read(const std::string& rel) const {
    std::ifstream in(root_ / rel, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  const fs::path& root() const { return root_; }

 private:
  fs::path root_;
};

// Minimal strict JSON validator (objects, arrays, strings with escapes,
// numbers, literals) so the SARIF test proves well-formedness rather than
// grepping for substrings.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  bool Value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++i_;  // {
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') return false;
    ++i_;
    return true;
  }

  bool Array() {
    ++i_;  // [
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') return false;
    ++i_;
    return true;
  }

  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') {
        ++i_;
        return true;
      }
      if (c < 0x20) return false;  // raw control characters are invalid
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        const char e = s_[i_];
        if (e == 'u') {
          for (int k = 1; k <= 4; ++k) {
            if (i_ + k >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[i_ + k]))) {
              return false;
            }
          }
          i_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++i_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    size_t digits = 0;
    while (i_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
      ++digits;
    }
    if (digits == 0) return false;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
      }
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      while (i_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
      }
    }
    return i_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(i_, len, word) != 0) return false;
    i_ += len;
    return true;
  }

  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  const std::string& s_;
  size_t i_ = 0;
};

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, CommentsNeverReachTheTokenStream) {
  const LexedFile lex = Lex(
      "int a; // trailing note with code-looking text: new int[3]\n"
      "/* block with volatile and malloc( inside */ int b;\n");
  EXPECT_FALSE(HasIdent(lex, "new"));
  EXPECT_FALSE(HasIdent(lex, "volatile"));
  EXPECT_FALSE(HasIdent(lex, "malloc"));
  EXPECT_TRUE(HasIdent(lex, "a"));
  EXPECT_TRUE(HasIdent(lex, "b"));
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_TRUE(lex.line_has_comment[1]);
  EXPECT_TRUE(lex.line_has_comment[2]);
}

TEST(LexerTest, StringContentsAreOpaque) {
  const LexedFile lex = Lex("const char* s = \"// not a comment; new X\";\n");
  EXPECT_TRUE(lex.comments.empty());
  EXPECT_FALSE(HasIdent(lex, "new"));
  bool found = false;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokKind::kString) {
      found = true;
      EXPECT_EQ(StringInner(t), "// not a comment; new X");
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, RawStringSpansLinesAndHidesQuotes) {
  const LexedFile lex = Lex(
      "auto s = R\"js({\"k\": \"v\", // not a comment\n"
      "\"volatile\": )js\";\n"
      "int after = 1;\n");
  EXPECT_TRUE(lex.comments.empty());
  EXPECT_FALSE(HasIdent(lex, "volatile"));
  EXPECT_TRUE(HasIdent(lex, "after"));
  int strings = 0;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokKind::kString) {
      ++strings;
      EXPECT_EQ(t.line, 1);
      EXPECT_NE(StringInner(t).find("not a comment"), std::string::npos);
    }
  }
  EXPECT_EQ(strings, 1);
  // A ) inside the body that does not complete the delimiter must not close.
  const LexedFile tricky = Lex("auto t = R\"x(a)y\" b)x\"; int z;\n");
  EXPECT_TRUE(HasIdent(tricky, "z"));
  for (const Token& t : tricky.tokens) {
    if (t.kind == TokKind::kString) {
      EXPECT_EQ(StringInner(t), "a)y\" b");
    }
  }
}

TEST(LexerTest, DigitSeparatorsStayOneNumberToken) {
  const LexedFile lex = Lex("long n = 1'000'000; double d = 1.5e-3;\n");
  std::vector<std::string> numbers;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokKind::kNumber) numbers.push_back(t.text);
  }
  ASSERT_EQ(numbers.size(), 2u);
  EXPECT_EQ(numbers[0], "1'000'000");
  EXPECT_EQ(numbers[1], "1.5e-3");
}

TEST(LexerTest, IfZeroRegionProducesNoTokens) {
  const LexedFile lex = Lex(
      "int live1;\n"
      "#if 0\n"
      "int dead1 = new int;\n"
      "#ifdef NESTED\n"
      "int dead2;\n"
      "#endif\n"
      "int dead3;\n"
      "#endif\n"
      "int live2;\n");
  EXPECT_TRUE(HasIdent(lex, "live1"));
  EXPECT_TRUE(HasIdent(lex, "live2"));
  EXPECT_FALSE(HasIdent(lex, "dead1"));
  EXPECT_FALSE(HasIdent(lex, "dead2"));
  EXPECT_FALSE(HasIdent(lex, "dead3"));
  EXPECT_FALSE(HasIdent(lex, "new"));
}

TEST(LexerTest, ElseBranchOfIfZeroIsLive) {
  const LexedFile lex = Lex(
      "#if 0\n"
      "int dead;\n"
      "#else\n"
      "int live;\n"
      "#endif\n");
  EXPECT_FALSE(HasIdent(lex, "dead"));
  EXPECT_TRUE(HasIdent(lex, "live"));
}

TEST(LexerTest, DirectiveContinuationsJoinIntoOneToken) {
  const LexedFile lex = Lex(
      "#define RF_CHECK(x) \\\n"
      "  do { if (!(x)) ::abort(); } \\\n"
      "  while (0)\n"
      "int after;\n");
  int pp = 0;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokKind::kPp) {
      ++pp;
      EXPECT_EQ(t.line, 1);
      EXPECT_NE(t.text.find("abort"), std::string::npos);
      EXPECT_NE(t.text.find("while"), std::string::npos);
    }
  }
  EXPECT_EQ(pp, 1);
  // Macro body tokens never leak into the stream as code.
  EXPECT_FALSE(HasIdent(lex, "abort"));
  EXPECT_TRUE(HasIdent(lex, "after"));
}

TEST(LexerTest, ScopeAndArrowFoldAsUnits) {
  const LexedFile lex = Lex("a::b(); p->q(); x - y; u : v;\n");
  std::vector<std::string> puncts;
  for (const Token& t : lex.tokens) {
    if (t.kind == TokKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "::"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), "-"), puncts.end());
  EXPECT_NE(std::find(puncts.begin(), puncts.end(), ":"), puncts.end());
}

TEST(LexerTest, HostileInputDoesNotCrash) {
  // Trigraph-era punctuation soup, an unterminated string, an unterminated
  // block comment, and a stray raw-string prefix: all must degrade to
  // tokens, never crash or loop.
  const LexedFile soup = Lex("?\?= ?\?( ?\?) int ok;\n");
  EXPECT_TRUE(HasIdent(soup, "ok"));
  const LexedFile unterminated = Lex("const char* s = \"oops\nint next;\n");
  EXPECT_TRUE(HasIdent(unterminated, "next"));
  const LexedFile comment = Lex("int before; /* never closed\nint hidden;");
  EXPECT_TRUE(HasIdent(comment, "before"));
  EXPECT_FALSE(HasIdent(comment, "hidden"));
  const LexedFile raw = Lex("auto r = R\"never(closed\n");
  EXPECT_FALSE(raw.tokens.empty());
}

// ---------------------------------------------------------------------------
// Scope tracker

TEST(ScopesTest, FindsFreeInlineAndOutOfLineFunctions) {
  const auto fns = Funcs("src/serve/server.cc",
                         "namespace rf {\n"
                         "int Helper(int x) { return x; }\n"
                         "class Server {\n"
                         " public:\n"
                         "  void Start() { running_ = true; }\n"
                         " private:\n"
                         "  bool running_ = false;\n"
                         "};\n"
                         "void Server::Stop() { Helper(1); }\n"
                         "}  // namespace rf\n");
  ASSERT_NE(Find(fns, "Helper"), nullptr);
  ASSERT_NE(Find(fns, "Server::Start"), nullptr);
  const FunctionInfo* stop = Find(fns, "Server::Stop");
  ASSERT_NE(stop, nullptr);
  EXPECT_EQ(stop->owner_class, "Server");
  ASSERT_EQ(stop->calls.size(), 1u);
  EXPECT_EQ(stop->calls[0].name, "Helper");
}

TEST(ScopesTest, LockNestingFollowsBraceScopes) {
  const auto fns = Funcs("src/serve/s.cc",
                         "#include <mutex>\n"
                         "struct S {\n"
                         "  void A() {\n"
                         "    std::lock_guard<std::mutex> g1(mu1_);\n"
                         "    {\n"
                         "      std::lock_guard<std::mutex> g2(mu2_);\n"
                         "    }\n"
                         "    std::lock_guard<std::mutex> g3(mu3_);\n"
                         "  }\n"
                         "  std::mutex mu1_, mu2_, mu3_;\n"
                         "};\n");
  const FunctionInfo* a = Find(fns, "S::A");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->locks.size(), 3u);
  EXPECT_EQ(a->locks[0].mutex, "S::mu1_");
  EXPECT_TRUE(a->locks[0].held_at_acquire.empty());
  EXPECT_EQ(a->locks[1].mutex, "S::mu2_");
  EXPECT_EQ(a->locks[1].held_at_acquire, std::vector<int>{0});
  // g2's block closed before g3: only g1 is still held.
  EXPECT_EQ(a->locks[2].mutex, "S::mu3_");
  EXPECT_EQ(a->locks[2].held_at_acquire, std::vector<int>{0});
}

TEST(ScopesTest, ExplicitUnlockReleasesEarly) {
  const auto fns = Funcs("src/serve/s.cc",
                         "#include <mutex>\n"
                         "void F(std::mutex& mu, int fd) {\n"
                         "  std::unique_lock<std::mutex> lk(mu);\n"
                         "  lk.unlock();\n"
                         "  char b;\n"
                         "  ::read(fd, &b, 1);\n"
                         "}\n");
  const FunctionInfo* f = Find(fns, "F");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(f->blocking.size(), 1u);
  EXPECT_EQ(f->blocking[0].what, "::read");
  EXPECT_TRUE(f->blocking[0].locks_held.empty());
}

TEST(ScopesTest, DeferLockOnlyArmsOnLockCall) {
  const auto fns = Funcs("src/serve/s.cc",
                         "#include <mutex>\n"
                         "#include <thread>\n"
                         "void G(std::mutex& mu, int fd) {\n"
                         "  std::unique_lock<std::mutex> lk(mu, "
                         "std::defer_lock);\n"
                         "  char b;\n"
                         "  ::read(fd, &b, 1);\n"
                         "  lk.lock();\n"
                         "  std::this_thread::sleep_for(t);\n"
                         "}\n");
  const FunctionInfo* g = Find(fns, "G");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->blocking.size(), 2u);
  EXPECT_TRUE(g->blocking[0].locks_held.empty());
  EXPECT_EQ(g->blocking[1].what, "sleep_for");
  EXPECT_EQ(g->blocking[1].locks_held.size(), 1u);
}

TEST(ScopesTest, OnlyGloballyQualifiedIoIsBlocking) {
  const auto fns = Funcs("src/serve/s.cc",
                         "void H(Codec& c, int fd) {\n"
                         "  c.read(fd);\n"
                         "  Codec::read(fd);\n"
                         "  ::read(fd, nullptr, 0);\n"
                         "}\n");
  const FunctionInfo* h = Find(fns, "H");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->blocking.size(), 1u);
  EXPECT_EQ(h->blocking[0].what, "::read");
}

TEST(ScopesTest, CvWaitIsRecordedSeparatelyNotAsBlocking) {
  const auto fns = Funcs("src/serve/s.cc",
                         "#include <mutex>\n"
                         "void W(std::mutex& mu, std::condition_variable& cv,"
                         " bool& ready) {\n"
                         "  std::unique_lock<std::mutex> lk(mu);\n"
                         "  cv.wait(lk, [&ready] { return ready; });\n"
                         "}\n");
  const FunctionInfo* w = Find(fns, "W");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->blocking.empty());
  EXPECT_EQ(w->cv_wait_lines.size(), 1u);
}

TEST(ScopesTest, AllocFactsCoverNewMakeUniqueAndGrowth) {
  const auto fns = Funcs("src/tensor/t.cc",
                         "void A(std::vector<int>& v) {\n"
                         "  int* p = new int[4];\n"
                         "  auto u = std::make_unique<int>(1);\n"
                         "  v.push_back(1);\n"
                         "  v.assign(4, 0);\n"
                         "  v.clear();\n"
                         "}\n");
  const FunctionInfo* a = Find(fns, "A");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->allocs.size(), 3u);
  EXPECT_EQ(a->allocs[0].what, "new");
  EXPECT_EQ(a->allocs[1].what, "make_unique");
  EXPECT_EQ(a->allocs[2].what, "v.push_back");
}

TEST(ScopesTest, ParallelForLambdaIsFlaggedAsParallelBody) {
  const auto fns = Funcs("src/tensor/k.cc",
                         "void Host(ThreadPool& pool, std::vector<int>& v) {\n"
                         "  pool.ParallelFor(0, 8, [&](int t, long b, long e)"
                         " {\n"
                         "    v.push_back(1);\n"
                         "  });\n"
                         "  auto plain = [&] { v.push_back(2); };\n"
                         "  plain();\n"
                         "}\n");
  ASSERT_EQ(fns.size(), 3u);
  const FunctionInfo* body = Find(fns, "Host::<lambda@2>");
  ASSERT_NE(body, nullptr);
  EXPECT_TRUE(body->is_parallel_body);
  ASSERT_EQ(body->allocs.size(), 1u);
  const FunctionInfo* plain = Find(fns, "Host::<lambda@5>");
  ASSERT_NE(plain, nullptr);
  EXPECT_FALSE(plain->is_parallel_body);
}

TEST(ScopesTest, NestedLambdasChainTheirQualifiedNames) {
  const auto fns = Funcs("src/serve/s.cc",
                         "void Outer() {\n"
                         "  auto a = [] {\n"
                         "    auto b = [] { return 1; };\n"
                         "    return b();\n"
                         "  };\n"
                         "  a();\n"
                         "}\n");
  EXPECT_NE(Find(fns, "Outer"), nullptr);
  EXPECT_NE(Find(fns, "Outer::<lambda@2>"), nullptr);
  EXPECT_NE(Find(fns, "Outer::<lambda@2>::<lambda@3>"), nullptr);
}

TEST(ScopesTest, NonblockingAttributeComesFromSignatureComment) {
  const auto fns = Funcs("src/serve/s.cc",
                         "void Plain(int fd) { ::write(fd, \"x\", 1); }\n"
                         "// rf-lint-attr(nonblocking) fd is O_NONBLOCK\n"
                         "void Pump(int fd) { ::write(fd, \"x\", 1); }\n");
  const FunctionInfo* pump = Find(fns, "Pump");
  ASSERT_NE(pump, nullptr);
  EXPECT_TRUE(pump->attr_nonblocking);
  const FunctionInfo* plain = Find(fns, "Plain");
  ASSERT_NE(plain, nullptr);
  EXPECT_FALSE(plain->attr_nonblocking);
}

TEST(ScopesTest, CallSitesCarryTheLocksHeld) {
  const auto fns = Funcs("src/serve/s.cc",
                         "#include <mutex>\n"
                         "struct S {\n"
                         "  void Run() {\n"
                         "    Prepare();\n"
                         "    std::lock_guard<std::mutex> g(mu_);\n"
                         "    Commit();\n"
                         "  }\n"
                         "  void Prepare();\n"
                         "  void Commit();\n"
                         "  std::mutex mu_;\n"
                         "};\n");
  const FunctionInfo* run = Find(fns, "S::Run");
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->calls.size(), 2u);
  EXPECT_EQ(run->calls[0].name, "Prepare");
  EXPECT_TRUE(run->calls[0].locks_held.empty());
  EXPECT_EQ(run->calls[1].name, "Commit");
  EXPECT_EQ(run->calls[1].locks_held.size(), 1u);
}

TEST(ScopesTest, CallsInsideLocalStaticInitializersAreMarked) {
  // The Meyers-singleton cache idiom: the initializer runs once per process.
  const auto fns = Funcs(
      "src/common/s.cc",
      "Counter* Cached() {\n"
      "  static Counter* c = Registry::Global().GetCounter(\"x\");\n"
      "  c->Touch();\n"
      "  return c;\n"
      "}\n");
  const FunctionInfo* cached = Find(fns, "Cached");
  ASSERT_NE(cached, nullptr);
  ASSERT_EQ(cached->calls.size(), 3u);
  EXPECT_EQ(cached->calls[0].name, "Global");
  EXPECT_TRUE(cached->calls[0].static_init);
  EXPECT_EQ(cached->calls[1].name, "GetCounter");
  EXPECT_TRUE(cached->calls[1].static_init);
  EXPECT_EQ(cached->calls[2].name, "Touch");
  EXPECT_FALSE(cached->calls[2].static_init);
}

TEST(ScopesTest, ThreadLocalNullCheckBlockIsOneTimeInit) {
  // Once-per-thread registration: the null-check body runs on a thread's
  // first call only.
  const auto fns = Funcs("src/common/s.cc",
                         "int* Buf() {\n"
                         "  thread_local int* b = nullptr;\n"
                         "  if (b == nullptr) { b = Register(); }\n"
                         "  Use(b);\n"
                         "  return b;\n"
                         "}\n");
  const FunctionInfo* buf = Find(fns, "Buf");
  ASSERT_NE(buf, nullptr);
  ASSERT_EQ(buf->calls.size(), 2u);
  EXPECT_EQ(buf->calls[0].name, "Register");
  EXPECT_TRUE(buf->calls[0].static_init);
  EXPECT_EQ(buf->calls[1].name, "Use");
  EXPECT_FALSE(buf->calls[1].static_init);
}

// ---------------------------------------------------------------------------
// Graph rules

TEST(GraphTest, LockOrderCycleAcrossFunctionsIsOneFinding) {
  const auto fns = Funcs(
      "src/serve/paired.cc",
      "#include <mutex>\n"
      "class P {\n"
      " public:\n"
      "  void AB() {\n"
      "    std::lock_guard<std::mutex> a(ma_);\n"
      "    std::lock_guard<std::mutex> b(mb_);\n"
      "  }\n"
      "  void BA() {\n"
      "    std::lock_guard<std::mutex> b(mb_);\n"
      "    GrabA();\n"
      "  }\n"
      " private:\n"
      "  void GrabA() { std::lock_guard<std::mutex> a(ma_); }\n"
      "  std::mutex ma_, mb_;\n"
      "};\n");
  const auto findings = RunGraphRules(fns);
  ASSERT_EQ(CountRule(findings, "lock-order-cycle"), 1);
  for (const GraphFinding& g : findings) {
    if (g.rule != "lock-order-cycle") continue;
    EXPECT_NE(g.message.find("P::ma_"), std::string::npos);
    EXPECT_NE(g.message.find("P::mb_"), std::string::npos);
    // Both directions appear as witnesses.
    EXPECT_NE(g.message.find("P::AB"), std::string::npos);
    EXPECT_NE(g.message.find("P::BA"), std::string::npos);
  }
}

TEST(GraphTest, ConsistentLockOrderIsClean) {
  const auto fns = Funcs(
      "src/serve/ordered.cc",
      "#include <mutex>\n"
      "class O {\n"
      " public:\n"
      "  void X() {\n"
      "    std::lock_guard<std::mutex> a(ma_);\n"
      "    std::lock_guard<std::mutex> b(mb_);\n"
      "  }\n"
      "  void Y() {\n"
      "    std::lock_guard<std::mutex> a(ma_);\n"
      "    std::lock_guard<std::mutex> b(mb_);\n"
      "  }\n"
      " private:\n"
      "  std::mutex ma_, mb_;\n"
      "};\n");
  EXPECT_EQ(CountRule(RunGraphRules(fns), "lock-order-cycle"), 0);
}

TEST(GraphTest, BlockingReachabilityCrossesFiles) {
  auto fns = Funcs("src/serve/server.cc",
                   "#include <mutex>\n"
                   "class Server {\n"
                   " public:\n"
                   "  void Flush() {\n"
                   "    std::lock_guard<std::mutex> lock(mu_);\n"
                   "    WriteAll(fd_);\n"
                   "  }\n"
                   " private:\n"
                   "  std::mutex mu_;\n"
                   "  int fd_ = 0;\n"
                   "};\n");
  const auto helpers = Funcs("src/common/io.cc",
                             "void WriteAll(int fd) {\n"
                             "  ::write(fd, nullptr, 0);\n"
                             "}\n");
  fns.insert(fns.end(), helpers.begin(), helpers.end());
  const auto findings = RunGraphRules(fns);
  ASSERT_EQ(CountRule(findings, "blocking-reachable-under-lock"), 1);
  for (const GraphFinding& g : findings) {
    if (g.rule != "blocking-reachable-under-lock") continue;
    EXPECT_EQ(g.file, "src/serve/server.cc");
    EXPECT_NE(g.message.find("Server::Flush"), std::string::npos);
    EXPECT_NE(g.message.find("::write"), std::string::npos);
    EXPECT_NE(g.message.find("->"), std::string::npos);  // chain printed
  }
}

TEST(GraphTest, NonblockingAttributeExemptsTheChain) {
  auto fns = Funcs("src/serve/server.cc",
                   "#include <mutex>\n"
                   "class Server {\n"
                   " public:\n"
                   "  void Flush() {\n"
                   "    std::lock_guard<std::mutex> lock(mu_);\n"
                   "    WriteAll(fd_);\n"
                   "  }\n"
                   " private:\n"
                   "  std::mutex mu_;\n"
                   "  int fd_ = 0;\n"
                   "};\n");
  const auto helpers = Funcs("src/common/io.cc",
                             "// rf-lint-attr(nonblocking) fd is O_NONBLOCK\n"
                             "void WriteAll(int fd) {\n"
                             "  ::write(fd, nullptr, 0);\n"
                             "}\n");
  fns.insert(fns.end(), helpers.begin(), helpers.end());
  EXPECT_EQ(CountRule(RunGraphRules(fns), "blocking-reachable-under-lock"), 0);
}

TEST(GraphTest, OnlyConcurrencySurfaceFilesAreRoots) {
  // Identical shape, but the lock holder lives outside serve//thread_pool/
  // metrics/trace: the rule must not root there.
  const auto fns = Funcs("src/nn/encoder.cc",
                         "#include <mutex>\n"
                         "void F(std::mutex& mu, int fd) {\n"
                         "  std::lock_guard<std::mutex> lock(mu);\n"
                         "  ::read(fd, nullptr, 0);\n"
                         "}\n");
  EXPECT_EQ(CountRule(RunGraphRules(fns), "blocking-reachable-under-lock"), 0);
}

TEST(GraphTest, AllocReachableFromParallelBody) {
  const auto fns = Funcs(
      "src/tensor/kernels.cc",
      "void Grow(std::vector<int>& v) { v.reserve(64); }\n"
      "void Collect(ThreadPool& pool, std::vector<int>& out) {\n"
      "  pool.ParallelFor(0, 8, [&](int t, long b, long e) {\n"
      "    out.push_back(1);\n"
      "    Grow(out);\n"
      "  });\n"
      "}\n"
      "void Fill(ThreadPool& pool, std::vector<int>& out) {\n"
      "  pool.ParallelFor(0, 8, [&](int t, long b, long e) {\n"
      "    out[0] = 1;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(RunGraphRules(fns), "alloc-in-parallel-for"), 2);
}

TEST(GraphTest, OneTimeStaticInitIsNotSteadyStateAllocation) {
  // A function-local static's initializer allocates exactly once, so an edge
  // through it must not make a parallel body look allocating.
  const auto fns = Funcs(
      "src/tensor/k.cc",
      "int* Make() { return new int[4]; }\n"
      "int* Cached() {\n"
      "  static int* c = Make();\n"
      "  return c;\n"
      "}\n"
      "void Host(ThreadPool& pool) {\n"
      "  pool.ParallelFor(0, 8, [&](int t, long b, long e) {\n"
      "    Cached();\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(RunGraphRules(fns), "alloc-in-parallel-for"), 0);
}

TEST(GraphTest, ThreadLocalRegistrationIsNotSteadyStateAllocation) {
  // Per-thread buffer registration allocates on a thread's first call only;
  // the steady state reuses the registered buffer.
  const auto fns = Funcs(
      "src/tensor/k.cc",
      "struct R {\n"
      "  int* Buf() {\n"
      "    thread_local int* buf = nullptr;\n"
      "    if (buf == nullptr) {\n"
      "      bufs_.push_back(new int[4]);\n"
      "      buf = bufs_.back();\n"
      "    }\n"
      "    return buf;\n"
      "  }\n"
      "  std::vector<int*> bufs_;\n"
      "};\n"
      "void Host(ThreadPool& pool, R& r) {\n"
      "  pool.ParallelFor(0, 8, [&](int t, long b, long e) {\n"
      "    r.Buf();\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(RunGraphRules(fns), "alloc-in-parallel-for"), 0);
}

// ---------------------------------------------------------------------------
// Linter plumbing: suppressions and expectations

TEST(LinterTest, SuppressionsApplyToLineNextLineAndFile) {
  TempTree tree;
  const fs::path direct = tree.Write(
      "src/a.cc",
      "void F() {\n"
      "  int* a = new int;  // rf-lint-allow(naked-new) pool bootstrap\n"
      "  // rf-lint-allow(naked-new) arena bootstrap\n"
      "  int* b = new int;\n"
      "  int* c = new int;\n"
      "}\n");
  const fs::path file_wide = tree.Write(
      "src/b.cc",
      "// rf-lint-allow-file(naked-new) generated shim\n"
      "void G() { int* a = new int; int* b = new int; }\n");
  Linter linter;
  linter.AddFile(direct, "src/a.cc");
  linter.AddFile(file_wide, "src/b.cc");
  linter.Run();
  int naked = 0;
  for (const Violation& v : linter.violations()) {
    if (v.rule == "naked-new") {
      ++naked;
      EXPECT_EQ(v.file, "src/a.cc");
      EXPECT_EQ(v.line, 5);  // only the unsuppressed one
    }
  }
  EXPECT_EQ(naked, 1);
}

TEST(LinterTest, FixedTmpPathFiresOnlyUnderSrc) {
  TempTree tree;
  const std::string body =
      "// A comment naming /tmp/x.bin never fires.\n"
      "const char* kSnapshot = \"/tmp/rf_best.bin\";\n"
      "const char* kRaw = R\"(/tmp/raw.bin)\";\n"
      "const char* kDefault = \"/tmp\";\n"
      "const char* kOther = \"/var/tmp/x.bin\";\n";
  const fs::path src = tree.Write("src/core/a.cc", body);
  const fs::path test = tree.Write("tests/a_test.cc", body);
  Linter linter;
  linter.AddFile(src, "src/core/a.cc");
  linter.AddFile(test, "tests/a_test.cc");
  linter.Run();
  std::vector<int> lines;
  for (const Violation& v : linter.violations()) {
    if (v.rule != "fixed-tmp-path") continue;
    EXPECT_EQ(v.file, "src/core/a.cc");
    lines.push_back(v.line);
  }
  EXPECT_EQ(lines, (std::vector<int>{2, 3}));
}

TEST(LinterTest, ExpectationsSumAcrossFixtureFiles) {
  TempTree tree;
  const fs::path a = tree.Write(
      "fx/a.cc", "// rf-lint-selftest-expect(naked-new=2)\nint x;\n");
  const fs::path b = tree.Write(
      "fx/b.cc",
      "// rf-lint-selftest-expect(naked-new=1)\n"
      "// rf-lint-selftest-expect(std-rand=3)\nint y;\n");
  Linter linter;
  linter.AddFile(a, "fx/a.cc");
  linter.AddFile(b, "fx/b.cc");
  const auto expect = linter.Expectations();
  EXPECT_EQ(expect.at("naked-new"), 3);
  EXPECT_EQ(expect.at("std-rand"), 3);
}

TEST(LinterTest, ExpectedGuardMacroStripsSrcPrefix) {
  EXPECT_EQ(ExpectedGuardMacro("src/common/config.h"),
            "RESUFORMER_COMMON_CONFIG_H_");
  EXPECT_EQ(ExpectedGuardMacro("tests/util.h"), "RESUFORMER_TESTS_UTIL_H_");
}

// ---------------------------------------------------------------------------
// SARIF

TEST(SarifTest, DocumentIsValidJsonEvenWithHostileMessages) {
  std::vector<Violation> violations;
  violations.push_back({"src/a.cc", 3, "naked-new",
                        "message with \"quotes\", back\\slash,\nnewline, "
                        "\ttab and control\x01 byte"});
  violations.push_back({"src/b \"quoted\".cc", 0, "std-rand", "plain"});
  const std::string doc = SarifDocument(violations);
  EXPECT_TRUE(JsonValidator(doc).Valid()) << doc;
  EXPECT_NE(doc.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\":\"naked-new\""), std::string::npos);
  // Every rule is declared in the driver's rules array.
  for (const std::string& rule : Linter::AllRules()) {
    EXPECT_NE(doc.find("{\"id\":\"" + rule + "\"}"), std::string::npos);
  }
  // A zero line degrades to 1 (SARIF requires startLine >= 1).
  EXPECT_NE(doc.find("\"startLine\":1"), std::string::npos);
}

TEST(SarifTest, EmptyRunIsValidToo) {
  const std::string doc = SarifDocument({});
  EXPECT_TRUE(JsonValidator(doc).Valid()) << doc;
  EXPECT_NE(doc.find("\"results\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// --fix

TEST(FixTest, GuardAndAtomicFixesConvergeAndAreIdempotent) {
  TempTree tree;
  tree.Write("src/common/cfg.h",
             "#ifndef WRONG_MACRO_H_\n"
             "#define WRONG_MACRO_H_\n"
             "int Get();\n"
             "#endif  // WRONG_MACRO_H_\n");
  tree.Write("src/common/raw.h", "int Raw();\n");
  tree.Write("src/common/flag.cc",
             "#include <atomic>\n"
             "void Bump(std::atomic<int>& a) {\n"
             "  a.store(1, std::memory_order_relaxed);\n"
             "}\n");
  auto lint_all = [&](Linter* linter) {
    linter->AddFile(tree.root() / "src/common/cfg.h", "src/common/cfg.h");
    linter->AddFile(tree.root() / "src/common/raw.h", "src/common/raw.h");
    linter->AddFile(tree.root() / "src/common/flag.cc", "src/common/flag.cc");
    linter->Run();
  };
  Linter before;
  lint_all(&before);
  int guard = 0, atomic = 0;
  for (const Violation& v : before.violations()) {
    if (v.rule == "include-guard") ++guard;
    if (v.rule == "atomic-order-comment") ++atomic;
  }
  EXPECT_EQ(guard, 2);
  EXPECT_EQ(atomic, 1);

  EXPECT_EQ(ApplyFixes(before.files(), before.violations()), 3);
  const std::string fixed_cfg = tree.Read("src/common/cfg.h");
  EXPECT_NE(fixed_cfg.find("#ifndef RESUFORMER_COMMON_CFG_H_"),
            std::string::npos);
  EXPECT_NE(fixed_cfg.find("#endif  // RESUFORMER_COMMON_CFG_H_"),
            std::string::npos);
  EXPECT_EQ(fixed_cfg.find("WRONG_MACRO_H_"), std::string::npos);
  const std::string fixed_raw = tree.Read("src/common/raw.h");
  EXPECT_NE(fixed_raw.find("#ifndef RESUFORMER_COMMON_RAW_H_"),
            std::string::npos);
  EXPECT_NE(tree.Read("src/common/flag.cc").find("TODO(memory-order)"),
            std::string::npos);

  // Re-linting the fixed tree finds nothing, so a second --fix pass applies
  // zero edits: the rewrites are idempotent.
  Linter after;
  lint_all(&after);
  for (const Violation& v : after.violations()) {
    EXPECT_NE(v.rule, "include-guard") << v.file << ":" << v.line;
    EXPECT_NE(v.rule, "atomic-order-comment") << v.file << ":" << v.line;
  }
  EXPECT_EQ(ApplyFixes(after.files(), after.violations()), 0);
}

// ---------------------------------------------------------------------------
// End-to-end sanity against the real fixture tree (exact counts are owned by
// the rf_lint_selftest ctest; here we only require that every rule has an
// expectation declared, which keeps fixtures and rules from drifting apart).

TEST(FixtureTest, EveryRuleHasASeededExpectation) {
  const fs::path fixture =
      fs::path(RESUFORMER_REPO_ROOT) / "tools" / "lint_fixture";
  ASSERT_TRUE(fs::exists(fixture));
  Linter linter;
  for (const auto& entry : fs::recursive_directory_iterator(fixture)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    linter.AddFile(entry.path(),
                   fs::relative(entry.path(), fixture).generic_string());
  }
  const auto expect = linter.Expectations();
  for (const std::string& rule : Linter::AllRules()) {
    EXPECT_TRUE(expect.count(rule) && expect.at(rule) > 0)
        << "no rf-lint-selftest-expect(" << rule << "=N) in any fixture";
  }
}

}  // namespace
}  // namespace rflint
