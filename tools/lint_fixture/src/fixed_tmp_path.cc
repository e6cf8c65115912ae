// rf_lint self-test fixture for fixed-tmp-path (never compiled). The rule
// only covers files under src/, which is why this file lives in a src/
// subdirectory of the fixture tree.
#include <string>

namespace lint_fixture {

// A fixed snapshot path, a raw-string one and a prefixed literal each fire
// once: concurrent trainings would share these files.
// rf-lint-selftest-expect(fixed-tmp-path=3)
inline std::string SnapshotPath() { return "/tmp/rf_best.bin"; }
inline std::string RawSnapshotPath() { return R"(/tmp/rf_raw.bin)"; }
inline std::string WideSnapshotPath() { return u8"/tmp/rf_u8.bin"; }

// Must NOT fire: other directories, a bare "/tmp" default, a relative
// "tmp/" path, and /tmp/ inside a comment like this one.
inline std::string NotFixedTmp(const std::string& dir) {
  std::string a = "/var/tmp/x.bin";
  std::string b = "/tmp";
  std::string c = "tmp/x.bin";
  std::string d = "/tmpfs/x.bin";
  return a + b + c + d + dir;
}

}  // namespace lint_fixture
