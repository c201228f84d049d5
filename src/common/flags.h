// Command-line flags for the tools and benches: one strict table per binary.
//
// Each flag is registered once with its name, its target, a range for
// numeric flags and a one-line help text, and the usage text is generated
// from the table. Values come as --name=value; boolean flags are bare
// (--name). An unknown flag, a malformed value or one outside its range is
// named on stderr above the usage, and Parse returns 2, the usage exit code,
// so a typo never falls back to a default.
//
//   FlagSet flags;
//   flags.Num("jobs", &jobs, 1, 1000, "jobs to submit");
//   flags.Bool("spec", &spec, "speculative execution");
//   if (const int rc = flags.Parse(argc, argv)) return rc;
//
// Header-only: the simulator library does not depend on it.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ursa {

class FlagSet {
 public:
  // --name=value, kept verbatim (empty allowed).
  void Str(const char* name, std::string* target, const char* help) {
    Add(name, "=S", help, " (default \"" + *target + "\")", [target](const char* v) {
      *target = v;
      return true;
    });
  }

  // Bare --name sets the target to true.
  void Bool(const char* name, bool* target, const char* help) {
    Add(name, "", help, "", [target](const char*) {
      *target = true;
      return true;
    });
  }

  // --name=number: the whole value must parse as a T in [lo, hi].
  template <typename T>
  void Num(const char* name, T* target, T lo, T hi, const char* help) {
    static_assert(std::is_arithmetic_v<T>);
    std::string range = " [";
    range += ToString(lo) + ", " + ToString(hi) + "] (default " + ToString(*target) + ")";
    Add(name, std::is_floating_point_v<T> ? "=X" : "=N", help, range,
        [target, lo, hi](const char* v) { return ParseNum(v, lo, hi, target); });
  }

  // --name=number over T's whole range (seeds).
  template <typename T>
  void Num(const char* name, T* target, const char* help) {
    Num(name, target, std::numeric_limits<T>::lowest(), std::numeric_limits<T>::max(), help);
  }

  // Parses argv[1..] into the registered targets. Returns 0, or names the
  // offending argument, prints the usage and returns 2.
  int Parse(int argc, char** argv) {
    if (argc > 0) {
      const char* slash = std::strrchr(argv[0], '/');
      prog_ = slash != nullptr ? slash + 1 : argv[0];
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      const std::string name = arg.rfind("--", 0) == 0 ? arg.substr(2, eq - 2) : "";
      const Flag* flag = nullptr;
      for (const Flag& f : flags_) {
        if (f.name == name) {
          flag = &f;
        }
      }
      if (flag == nullptr) {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", prog_.c_str(), argv[i]);
        return Usage();
      }
      const bool bare = eq == std::string::npos;
      const std::string value = bare ? "" : arg.substr(eq + 1);
      if (bare != flag->meta.empty() || !flag->set(value.c_str())) {
        return Reject(flag->name.c_str(), value);
      }
    }
    return 0;
  }

  // Rejects a value that a later check found invalid, in Parse's words.
  int Reject(const char* name, const std::string& value) const {
    std::fprintf(stderr, "%s: flag --%s rejects '%s'\n", prog_.c_str(), name, value.c_str());
    return Usage();
  }

 private:
  static constexpr int kUsageError = 2;  // The usage exit code.

  struct Flag {
    std::string name;
    std::string meta;  // "=S", "=N", "=X"; "" for a bare boolean.
    std::string help;
    std::function<bool(const char*)> set;
  };

  void Add(const char* name, const char* meta, const char* help, const std::string& suffix,
           std::function<bool(const char*)> set) {
    std::string text = help;
    text += suffix;
    flags_.push_back(Flag{name, meta, std::move(text), std::move(set)});
  }

  int Usage() const {
    std::fprintf(stderr, "usage: %s%s\n", prog_.c_str(), flags_.empty() ? "" : " [flags]");
    for (const Flag& f : flags_) {
      const std::string spec = "--" + f.name + f.meta;
      std::fprintf(stderr, "  %-24s %s\n", spec.c_str(), f.help.c_str());
    }
    return kUsageError;
  }

  template <typename T>
  static std::string ToString(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v);
      return buf;
    } else {
      return std::to_string(v);
    }
  }

  // Strict number parse: the whole of `s` in [lo, hi] and no overflow. The
  // value is read at the widest type of T's kind, so one outside T fails the
  // range check instead of wrapping.
  template <typename T>
  static bool ParseNum(const char* s, T lo, T hi, T* out) {
    using Wide = std::conditional_t<
        std::is_floating_point_v<T>, double,
        std::conditional_t<std::is_signed_v<T>, long long, unsigned long long>>;
    if (std::is_unsigned_v<T> && std::strchr(s, '-') != nullptr) {
      return false;  // strtoull would wrap "-3".
    }
    char* end = nullptr;
    errno = 0;
    Wide v{};
    if constexpr (std::is_floating_point_v<T>) {
      v = std::strtod(s, &end);
    } else if constexpr (std::is_signed_v<T>) {
      v = std::strtoll(s, &end, 10);
    } else {
      v = std::strtoull(s, &end, 10);
    }
    if (end == s || *end != '\0' || errno == ERANGE || !(v >= static_cast<Wide>(lo)) ||
        !(v <= static_cast<Wide>(hi))) {
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  }

  std::string prog_ = "prog";
  std::vector<Flag> flags_;
};

}  // namespace ursa

#endif  // SRC_COMMON_FLAGS_H_
