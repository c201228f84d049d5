#include "tools/detlint/detlint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <utility>

namespace ursa {
namespace detlint {

namespace {

namespace fs = std::filesystem;

struct Rule {
  std::string name;
  std::regex pattern;
  std::string message;
  // Empty = applies everywhere; otherwise the relative path must start with
  // one of these prefixes.
  std::vector<std::string> dir_prefixes;
  // Paths starting with one of these prefixes are exempt.
  std::vector<std::string> excluded_prefixes;
  // True = match the raw line (style rules); false = match with the
  // line-comment tail stripped, so prose about a banned pattern is not a
  // finding.
  bool raw = false;
};

const std::vector<Rule>& Rules() {
  static const std::vector<Rule>* rules = new std::vector<Rule>{
      {"wallclock",
       std::regex(R"((system_clock|steady_clock|high_resolution_clock)\s*::|)"
                  R"(\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(nullptr|NULL|0)?\s*\))"),
       "host clock read; simulated time comes from Simulator::Now(), wall time "
       "only via src/common/wallclock.h",
       {},
       {},
       false},
      {"raw-random",
       std::regex(R"(\brand\s*\(\s*\)|\bsrand\s*\(|\brandom_device\b|)"
                  R"(\bmt19937(_64)?\b|\bdefault_random_engine\b|\bminstd_rand0?\b)"),
       "unseeded/global randomness; all simulation randomness must flow from "
       "the seeded Rng in src/common/rng.h",
       {},
       {},
       false},
      {"no-unordered-in-core",
       std::regex(R"(\bunordered_(map|set|multimap|multiset)\b)"),
       "hash container in order-sensitive core code; iteration order is not "
       "deterministic across platforms — use std::map/std::set, or allowlist "
       "a pure lookup table",
       {"src/scheduler/", "src/exec/", "src/net/", "src/sim/"},
       {},
       false},
      {"pointer-key-ordered",
       std::regex(R"(\b(?:std\s*::\s*)?(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[A-Za-z_][A-Za-z0-9_:]*\s*\*\s*[,>])"),
       "ordered container keyed by raw pointer; address order differs between "
       "runs — key by a stable id instead",
       {},
       {},
       false},
      {"lock-outside-runtime",
       std::regex(R"(\bstd\s*::\s*(mutex|atomic|thread)\b|)"
                  R"(#\s*include\s*<(mutex|atomic|thread)>)"),
       "thread primitive in simulator code; simulator state has a single owner, "
       "and only src/runtime/ starts threads",
       {"src/"},
       {"src/runtime/"},
       false},
      {"style-tabs", std::regex("\t"), "tab character; indent with spaces", {}, {}, true},
      {"style-trailing-ws", std::regex(R"([ \t]+$)"), "trailing whitespace", {}, {}, true},
  };
  return *rules;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

// Strips a // comment tail. Token-level: a "//" inside a string literal is
// treated as a comment start; acceptable for this codebase, and an allowlist
// entry covers any false positive.
std::string StripLineComment(const std::string& line) {
  const size_t pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

bool LineSuppresses(const std::string& line, const std::string& rule) {
  const std::string marker = "detlint: allow(" + rule + ")";
  return line.find(marker) != std::string::npos;
}

std::string NormalizeSlashes(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

struct Allowlist {
  // path -> rules allowed there.
  std::vector<std::pair<std::string, std::string>> entries;
  bool Allows(const std::string& file, const std::string& rule) const {
    for (const auto& [path, allowed_rule] : entries) {
      if (path == file && allowed_rule == rule) {
        return true;
      }
    }
    return false;
  }
};

bool LoadAllowlist(const std::string& path, Allowlist* allowlist, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read allowlist: " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    // Trim.
    const size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) {
      continue;
    }
    const size_t end = line.find_last_not_of(" \t");
    line = line.substr(begin, end - begin + 1);
    const size_t colon = line.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= line.size()) {
      *error = path + ":" + std::to_string(line_no) +
               ": malformed allowlist entry (want path:rule): " + line;
      return false;
    }
    const std::string rule = line.substr(colon + 1);
    const auto& names = RuleNames();
    if (std::find(names.begin(), names.end(), rule) == names.end()) {
      *error = path + ":" + std::to_string(line_no) + ": unknown rule: " + rule;
      return false;
    }
    allowlist->entries.emplace_back(NormalizeSlashes(line.substr(0, colon)), rule);
  }
  return true;
}

void LintLines(const std::string& relative_path, const std::string& content,
               std::vector<Finding>* findings) {
  std::istringstream stream(content);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const std::string code = StripLineComment(line);
    for (const Rule& rule : Rules()) {
      if (!rule.dir_prefixes.empty()) {
        bool in_scope = false;
        for (const std::string& prefix : rule.dir_prefixes) {
          in_scope = in_scope || StartsWith(relative_path, prefix);
        }
        if (!in_scope) {
          continue;
        }
      }
      bool excluded = false;
      for (const std::string& prefix : rule.excluded_prefixes) {
        excluded = excluded || StartsWith(relative_path, prefix);
      }
      if (excluded) {
        continue;
      }
      const std::string& haystack = rule.raw ? line : code;
      if (!std::regex_search(haystack, rule.pattern)) {
        continue;
      }
      if (LineSuppresses(line, rule.name)) {
        continue;
      }
      findings->push_back(Finding{relative_path, line_no, rule.name, rule.message});
    }
  }
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

}  // namespace

const std::vector<std::string>& RuleNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    for (const Rule& rule : Rules()) {
      v->push_back(rule.name);
    }
    return v;
  }();
  return *names;
}

std::vector<Finding> LintContent(const std::string& relative_path,
                                 const std::string& content) {
  std::vector<Finding> findings;
  LintLines(NormalizeSlashes(relative_path), content, &findings);
  return findings;
}

bool Run(const Options& options, std::vector<Finding>* findings, std::string* error) {
  findings->clear();
  Allowlist allowlist;
  if (!options.allowlist_path.empty() &&
      !LoadAllowlist(options.allowlist_path, &allowlist, error)) {
    return false;
  }

  const fs::path root = options.repo_root.empty() ? fs::path(".") : fs::path(options.repo_root);
  // Collect files deterministically: gather, then sort.
  std::set<fs::path> files;
  for (const std::string& spec : options.roots) {
    fs::path p(spec);
    if (p.is_relative()) {
      p = root / p;
    }
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), last; it != last; it.increment(ec)) {
        if (ec) {
          *error = "cannot walk " + p.string() + ": " + ec.message();
          return false;
        }
        if (it->is_regular_file() && IsSourceFile(it->path())) {
          files.insert(it->path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.insert(p);
    } else {
      *error = "no such file or directory: " + spec;
      return false;
    }
  }

  std::vector<std::pair<std::string, std::string>> used_allowlist;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    if (!in) {
      *error = "cannot read " + file.string();
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    const std::string rel_path = NormalizeSlashes((ec ? file : rel).generic_string());
    std::vector<Finding> file_findings;
    LintLines(rel_path, buffer.str(), &file_findings);
    for (Finding& finding : file_findings) {
      if (allowlist.Allows(finding.file, finding.rule)) {
        used_allowlist.emplace_back(finding.file, finding.rule);
        continue;
      }
      findings->push_back(std::move(finding));
    }
  }

  // A stale allowlist entry hides future regressions; flag it as an error so
  // the list shrinks when the code gets fixed.
  for (const auto& entry : allowlist.entries) {
    if (std::find(used_allowlist.begin(), used_allowlist.end(), entry) ==
        used_allowlist.end()) {
      *error = "stale allowlist entry (no matching finding): " + entry.first + ":" +
               entry.second;
      return false;
    }
  }

  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    return a.rule < b.rule;
  });
  return true;
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& finding : findings) {
    out << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
        << finding.message << "\n";
  }
  return out.str();
}

}  // namespace detlint
}  // namespace ursa
