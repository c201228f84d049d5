// Helpers shared by the golden-file tests (policy_golden_test,
// sim_digest_test): formatted appends, reading a golden file, a diff that
// names the first diverging line, and the URSA_REGEN_GOLDEN=1 rewrite.
#ifndef TESTS_GOLDEN_UTIL_H_
#define TESTS_GOLDEN_UTIL_H_

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace ursa {

inline void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

inline std::string ReadFileOrEmpty(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return "";
  }
  std::string text;
  char chunk[4096];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  return text;
}

// Pinpoints the first diverging line so a golden diff reads like a review
// comment instead of a 500-line blob.
inline void ExpectGoldenEq(const std::string& expected, const std::string& actual) {
  if (expected == actual) {
    SUCCEED();
    return;
  }
  size_t line = 1;
  size_t i = 0;
  const size_t n = std::min(expected.size(), actual.size());
  while (i < n && expected[i] == actual[i]) {
    if (expected[i] == '\n') {
      ++line;
    }
    ++i;
  }
  const auto line_at = [](const std::string& s, size_t pos) {
    const size_t begin = s.rfind('\n', pos == 0 ? 0 : pos - 1) + 1;
    const size_t end = s.find('\n', pos);
    return s.substr(begin, (end == std::string::npos ? s.size() : end) - begin);
  };
  FAIL() << "golden mismatch at line " << line << ":\n  golden: '"
         << line_at(expected, i) << "'\n  actual: '" << line_at(actual, i)
         << "'\nIf the change is intentional, regenerate with "
            "URSA_REGEN_GOLDEN=1 and commit the diff.";
}

// With URSA_REGEN_GOLDEN set, rewrites `path` with `actual`; otherwise
// compares `actual` against the committed file.
inline void CheckGolden(const char* path, const std::string& actual) {
  if (std::getenv("URSA_REGEN_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(path, "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fwrite(actual.data(), 1, actual.size(), f);
    std::fclose(f);
    std::printf("regenerated %s (%zu bytes)\n", path, actual.size());
    return;
  }
  const std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " — generate it with URSA_REGEN_GOLDEN=1";
  ExpectGoldenEq(expected, actual);
}

}  // namespace ursa

#endif  // TESTS_GOLDEN_UTIL_H_
