// Determinism lint for the simulator sources (DESIGN.md section 10).
//
// The simulator's headline guarantee is that a fixed seed reproduces the
// exact event sequence. That guarantee dies quietly: one wall-clock read in
// placement logic, one iteration over an unordered container in a
// tie-breaking path, one pointer-keyed ordered map, and two same-seed runs
// diverge on another machine (or another libstdc++) with no failing assert.
// detlint scans the sources for those banned patterns at the token level —
// no libclang dependency — so the gate runs anywhere the tests run.
//
// Rules (see RuleNames() for the canonical list):
//   wallclock          host-clock reads (std::chrono::*_clock, time(),
//                      gettimeofday, clock_gettime) anywhere under src/.
//                      The only sanctioned access point is
//                      src/common/wallclock.h (allowlisted).
//   raw-random         rand()/srand()/std::random_device/std::mt19937 etc.
//                      outside src/common/rng.h. All simulation randomness
//                      must flow from the seeded Rng.
//   no-unordered-in-core  unordered_{map,set,multimap,multiset} mentioned in
//                      the order-sensitive core (src/scheduler, src/exec,
//                      src/net, src/sim). Hash containers are fine for pure
//                      lookups (allowlist those), fatal when iterated.
//   pointer-key-ordered  std::map/std::set keyed by a raw pointer: ordered
//                      by address, i.e. by the allocator's mood.
//   lock-outside-runtime  std::mutex/std::atomic/std::thread or their headers
//                      under src/ outside src/runtime/. Simulator state has a
//                      single owner; LocalRuntime is the only threaded code.
//   style-tabs         tab characters (the codebase is space-indented).
//   style-trailing-ws  trailing whitespace.
//
// Escapes, both of which name the rule so grepping for suppressions works:
//   * an allowlist file of `path:rule` lines with a justification comment;
//   * an inline `detlint: allow(rule)` marker on the flagged line.
#ifndef TOOLS_DETLINT_DETLINT_H_
#define TOOLS_DETLINT_DETLINT_H_

#include <string>
#include <vector>

namespace ursa {
namespace detlint {

struct Finding {
  std::string file;  // Relative to repo_root, forward slashes.
  int line = 0;      // 1-based.
  std::string rule;
  std::string message;
};

struct Options {
  // Directory that findings (and allowlist entries) are relative to.
  std::string repo_root;
  // Files or directories (relative to repo_root or absolute) to scan.
  // Directories are walked recursively for *.h / *.cc files.
  std::vector<std::string> roots;
  // Optional allowlist file; empty = no allowlist.
  std::string allowlist_path;
};

// Canonical rule names, in report order.
const std::vector<std::string>& RuleNames();

// Scans per Options. Findings are sorted by (file, line, rule). Returns
// false and sets *error on IO/usage problems (unreadable root, malformed
// allowlist line, allowlist entry that matched nothing).
bool Run(const Options& options, std::vector<Finding>* findings, std::string* error);

// One "file:line: [rule] message" line per finding.
std::string FormatFindings(const std::vector<Finding>& findings);

// Exposed for tests: lints a single in-memory file.
std::vector<Finding> LintContent(const std::string& relative_path, const std::string& content);

}  // namespace detlint
}  // namespace ursa

#endif  // TOOLS_DETLINT_DETLINT_H_
