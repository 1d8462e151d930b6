// gosh_lint — the project's dependency-free source lint, run as a ctest
// (lint.tree / lint.fixtures) and as a CI job. It enforces invariants the
// compiler cannot see but the codebase relies on:
//
//   raw-sync          Concurrency primitives (std::mutex, std::unique_lock,
//                     std::condition_variable, pthread_*) may appear only in
//                     src/common/sync.hpp. Everything else must go through
//                     the annotated wrappers so Clang Thread Safety Analysis
//                     covers every lock in the tree.
//   unchecked-value   A `.value()` call must share a function scope with an
//                     ok()/status()/has_value() check (or a gtest assertion)
//                     — Result<T>::value() on an error is undefined.
//   internal-include  tools/, bench/ and examples/ speak the public API
//                     (gosh/api, gosh/serving); reaching into the
//                     strategy internals (query/brute_force.hpp,
//                     query/hnsw.hpp) bypasses the registry.
//   tsan-suppression  Every symbol named in .tsan-suppressions must still
//                     exist in src/ — a stale entry silently widens what the
//                     race-detector job ignores.
//   trace-clock       Serving hot paths (src/net/, src/serving/,
//                     src/cache/) time work with gosh::trace (now_ns() /
//                     Span), not raw std::chrono::steady_clock::now() —
//                     one clock shim keeps span timestamps and ad-hoc
//                     timings on the same epoch. The token-bucket refill
//                     in rate_limiter.cpp is the one justified exception.
//
// Each rule carries an explicit allowlist next to its implementation; the
// fixture tree under tools/lint/fixtures plants one violation per rule and
// --self-test asserts each fires exactly where expected (and nowhere else).
//
//   gosh_lint --root REPO             lint the real tree (exit 1 on findings)
//   gosh_lint --self-test --root DIR  run the fixture expectations
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;  // root-relative, '/'-separated
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string path;      // root-relative
  std::string text;      // raw contents
  std::string stripped;  // comments and string literals blanked, same length
};

/// Blanks comments and string/char literals (raw strings included) with
/// spaces, preserving every newline so byte offsets map to line numbers.
std::string strip_comments_and_strings(const std::string& text) {
  std::string out = text;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          const std::size_t paren = text.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + text.substr(i + 2, paren - i - 2) + "\"";
            for (std::size_t j = i; j <= paren; ++j) out[j] = ' ';
            i = paren;
            state = State::kRaw;
          }
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out[i + j] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

bool ends_with(const std::string& value, const std::string& suffix) {
  return value.size() >= suffix.size() &&
         value.compare(value.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

bool starts_with(const std::string& value, const std::string& prefix) {
  return value.compare(0, prefix.size(), prefix) == 0;
}

bool allowlisted(const std::string& path,
                 const std::vector<std::string>& allowlist) {
  for (const std::string& entry : allowlist) {
    if (path == entry || ends_with(path, "/" + entry)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule: raw-sync
// ---------------------------------------------------------------------------

/// Only the annotated wrapper layer may touch the raw primitives; every
/// other file goes through common::Mutex / common::CondVar so the Clang
/// Thread Safety pass sees the whole locking story.
const std::vector<std::string> kRawSyncAllowlist = {
    "src/common/sync.hpp",
};

const char* const kRawSyncTokens[] = {
    "std::mutex",          "std::timed_mutex",   "std::recursive_mutex",
    "std::shared_mutex",   "std::shared_timed_mutex",
    "std::condition_variable",  // also catches _any
    "std::lock_guard",     "std::unique_lock",   "std::scoped_lock",
    "std::shared_lock",    "pthread_",
};

void check_raw_sync(const SourceFile& file, std::vector<Violation>& out) {
  if (allowlisted(file.path, kRawSyncAllowlist)) return;
  for (const char* token : kRawSyncTokens) {
    const std::string needle(token);
    std::size_t pos = 0;
    while ((pos = file.stripped.find(needle, pos)) != std::string::npos) {
      // Skip identifiers that merely contain the token (e.g. a wrapper
      // method named lock_guard_like); require a non-identifier char after.
      const std::size_t end = pos + needle.size();
      const char after = end < file.stripped.size() ? file.stripped[end] : ' ';
      if (needle.back() == '_' || !(std::isalnum(static_cast<unsigned char>(
                                        after)) ||
                                    after == '_')) {
        out.push_back({file.path, line_of(file.stripped, pos), "raw-sync",
                       "raw '" + needle +
                           "' outside src/common/sync.hpp; use the "
                           "annotated gosh::common wrappers"});
      }
      pos = end;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-value
// ---------------------------------------------------------------------------

/// Files whose .value() calls are guarded by a helper the scope scan cannot
/// see. Keep entries justified.
const std::vector<std::string> kUncheckedValueAllowlist = {
    // Counter::value() / Gauge::value() are relaxed atomic reads on the
    // metrics accumulators, not Result<T> unwraps.
    "src/serving/metrics.cpp",
};

/// Tokens that count as "this scope checked the result before unwrapping".
const char* const kCheckTokens[] = {
    "ok(",        // .ok() / .is_ok() / parsed.ok()
    "status(",    // explicit status inspection
    "has_value(", "value_or", "ASSERT", "EXPECT", "CHECK",
};

/// True if the declaration text introducing a scope makes it a namespace /
/// type body rather than a function (or lambda / control-flow) body.
bool is_type_or_namespace_scope(const std::string& stripped,
                                std::size_t open_brace) {
  // Declaration text: from the previous ';', '{' or '}' up to this '{'.
  std::size_t begin = open_brace;
  while (begin > 0) {
    const char c = stripped[begin - 1];
    if (c == ';' || c == '{' || c == '}') break;
    --begin;
  }
  const std::string decl = stripped.substr(begin, open_brace - begin);
  static const std::regex kTypeKeyword(
      "\\b(namespace|class|struct|union|enum)\\b");
  if (!std::regex_search(decl, kTypeKeyword)) return false;
  // `struct` in a trailing return / parameter does not make the scope a
  // type body if the decl also looks like a function header ") ... {".
  const std::size_t close = decl.rfind(')');
  if (close != std::string::npos) {
    const std::string tail = decl.substr(close + 1);
    static const std::regex kFunctionTail(
        "^\\s*(const|noexcept|override|final|mutable|->\\s*[\\w:<>,& ]+)*\\s*"
        "$");
    if (std::regex_match(tail, kFunctionTail) &&
        decl.find("namespace") == std::string::npos &&
        decl.find("GOSH_") == std::string::npos) {
      return false;
    }
  }
  return true;
}

void check_unchecked_value(const SourceFile& file,
                           std::vector<Violation>& out) {
  if (allowlisted(file.path, kUncheckedValueAllowlist)) return;
  const std::string& text = file.stripped;
  const std::string needle = ".value()";
  // Single pass: maintain the open-brace stack, snapshot it per occurrence.
  std::vector<std::size_t> stack;
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> occurrences;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '{') {
      stack.push_back(i);
    } else if (text[i] == '}') {
      if (!stack.empty()) stack.pop_back();
    } else if (text.compare(i, needle.size(), needle) == 0) {
      occurrences.emplace_back(i, stack);
    }
  }
  for (const auto& [pos, scopes] : occurrences) {
    // Search region: from the outermost enclosing scope that is still a
    // function-ish body (stop at the first namespace / type body).
    std::size_t region_begin = std::string::npos;
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (is_type_or_namespace_scope(text, *it)) break;
      region_begin = *it;
    }
    if (region_begin == std::string::npos) continue;  // not inside a function
    const std::string region = text.substr(region_begin, pos - region_begin);
    bool checked = false;
    for (const char* token : kCheckTokens) {
      if (region.find(token) != std::string::npos) {
        checked = true;
        break;
      }
    }
    if (!checked) {
      out.push_back({file.path, line_of(text, pos), "unchecked-value",
                     ".value() without an ok()/status()/has_value() check in "
                     "the enclosing function"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: internal-include
// ---------------------------------------------------------------------------

/// Strategy internals the front-ends must not include directly — the
/// registry (serving::make_service) is the API.
const char* const kInternalHeaders[] = {
    "query/brute_force.hpp",
    "query/hnsw.hpp",
};

const std::vector<std::string> kInternalIncludeAllowlist = {};

void check_internal_include(const SourceFile& file,
                            std::vector<Violation>& out) {
  const bool front_end = starts_with(file.path, "tools/") ||
                         starts_with(file.path, "bench/") ||
                         starts_with(file.path, "examples/");
  if (!front_end || allowlisted(file.path, kInternalIncludeAllowlist)) return;
  std::istringstream lines(file.text);
  std::string line;
  std::size_t number = 0;
  while (std::getline(lines, line)) {
    ++number;
    if (line.find("#include") == std::string::npos) continue;
    for (const char* header : kInternalHeaders) {
      if (line.find(header) != std::string::npos) {
        out.push_back({file.path, number, "internal-include",
                       std::string("front-end includes strategy internal '") +
                           header + "'; use the public service API"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: trace-clock
// ---------------------------------------------------------------------------

/// Timing in the serving layers must go through the trace clock shim
/// (gosh::trace::now_ns(), Span, WallTimer) so every duration lands on the
/// same epoch the Chrome trace export uses.
const std::vector<std::string> kTraceClockAllowlist = {
    // The token bucket refills from a monotonic duration delta; it never
    // reports the timestamp, so the shared epoch does not apply.
    "src/net/rate_limiter.cpp",
};

void check_trace_clock(const SourceFile& file, std::vector<Violation>& out) {
  const bool serving_layer = starts_with(file.path, "src/net/") ||
                             starts_with(file.path, "src/serving/") ||
                             starts_with(file.path, "src/cache/");
  if (!serving_layer || allowlisted(file.path, kTraceClockAllowlist)) return;
  const std::string needle = "steady_clock::now";
  std::size_t pos = 0;
  while ((pos = file.stripped.find(needle, pos)) != std::string::npos) {
    out.push_back({file.path, line_of(file.stripped, pos), "trace-clock",
                   "raw steady_clock::now() in a serving hot path; time "
                   "through gosh::trace (now_ns()/Span) so timings share "
                   "the trace epoch"});
    pos += needle.size();
  }
}

// ---------------------------------------------------------------------------
// Rule: tsan-suppression
// ---------------------------------------------------------------------------

std::string glob_to_regex(const std::string& glob) {
  std::string out;
  for (const char c : glob) {
    if (c == '*') {
      out += "\\w*";
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out += c;
    } else {
      out += '\\';
      out += c;
    }
  }
  return out;
}

/// Validates that `symbol` (e.g. gosh::simd::*pair_update_*) still names
/// something in src/: some file must declare a namespace ending in the
/// symbol's innermost concrete namespace AND contain a function token
/// matching the final component.
bool suppression_symbol_exists(const std::string& symbol,
                               const std::vector<SourceFile>& files) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (std::size_t pos = 0; (pos = symbol.find("::", begin)) !=
                            std::string::npos;
       begin = pos + 2) {
    parts.push_back(symbol.substr(begin, pos - begin));
  }
  parts.push_back(symbol.substr(begin));
  if (parts.empty()) return false;
  const std::string function = parts.back();
  parts.pop_back();
  // Innermost namespace component that is concrete (gosh:: alone is not
  // discriminating; wildcards and anonymous namespaces cannot anchor).
  std::string ns;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (*it != "gosh" && it->find('*') == std::string::npos &&
        it->find('(') == std::string::npos && !it->empty()) {
      ns = *it;
      break;
    }
  }
  std::string function_pattern = glob_to_regex(function) + "\\s*\\(";
  if (function.empty() || function.front() != '*') {
    function_pattern = "\\b" + function_pattern;
  }
  const std::regex function_regex(function_pattern);
  const std::regex ns_regex(ns.empty()
                                ? std::string("namespace")
                                : "namespace\\s+[\\w:]*\\b" + ns + "\\b");
  for (const SourceFile& file : files) {
    if (!starts_with(file.path, "src/")) continue;
    if (std::regex_search(file.stripped, function_regex) &&
        std::regex_search(file.stripped, ns_regex)) {
      return true;
    }
  }
  return false;
}

void check_tsan_suppressions(const fs::path& root,
                             const std::vector<SourceFile>& files,
                             std::vector<Violation>& out) {
  const fs::path path = root / ".tsan-suppressions";
  std::ifstream in(path);
  if (!in) return;  // no suppressions file, nothing to validate
  std::string line;
  std::size_t number = 0;
  static const char* const kSymbolKinds[] = {"race:", "thread:", "mutex:",
                                             "deadlock:", "signal:"};
  while (std::getline(in, line)) {
    ++number;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string entry = line.substr(first);
    const std::size_t last = entry.find_last_not_of(" \t\r");
    entry = entry.substr(0, last + 1);
    for (const char* kind : kSymbolKinds) {
      if (!starts_with(entry, kind)) continue;
      const std::string symbol = entry.substr(std::string(kind).size());
      if (!suppression_symbol_exists(symbol, files)) {
        out.push_back(
            {".tsan-suppressions", number, "tsan-suppression",
             "suppression '" + entry +
                 "' names no symbol in src/ — stale entries silently widen "
                 "what the race detector ignores"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cu";
}

std::vector<SourceFile> load_tree(const fs::path& root) {
  std::vector<SourceFile> files;
  static const char* const kRoots[] = {"src", "tools", "bench", "examples",
                                       "tests"};
  for (const char* top : kRoots) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();  // the planted-violation tree
        continue;
      }
      if (!it->is_regular_file() || !lintable(it->path())) continue;
      std::ifstream in(it->path(), std::ios::binary);
      std::ostringstream text;
      text << in.rdbuf();
      SourceFile file;
      file.path = fs::relative(it->path(), root).generic_string();
      file.text = text.str();
      file.stripped = strip_comments_and_strings(file.text);
      files.push_back(std::move(file));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

std::vector<Violation> run_rules(const fs::path& root,
                                 const std::vector<SourceFile>& files) {
  std::vector<Violation> violations;
  for (const SourceFile& file : files) {
    check_raw_sync(file, violations);
    check_unchecked_value(file, violations);
    check_internal_include(file, violations);
    check_trace_clock(file, violations);
  }
  check_tsan_suppressions(root, files, violations);
  return violations;
}

void print(const std::vector<Violation>& violations) {
  for (const Violation& v : violations) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
}

/// Fixture expectations: each rule must fire on its planted violation and
/// stay quiet on the planted near-miss. Exact files, exact counts.
int self_test(const fs::path& root) {
  // The fixture tree keeps its own suppressions and sources; load it as a
  // normal tree (the fixtures/ skip only applies below a lint/ directory,
  // and here fixtures IS the root).
  std::vector<SourceFile> files;
  for (auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || !lintable(entry.path())) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    SourceFile file;
    file.path = fs::relative(entry.path(), root).generic_string();
    file.text = text.str();
    file.stripped = strip_comments_and_strings(file.text);
    files.push_back(std::move(file));
  }
  const std::vector<Violation> violations = run_rules(root, files);

  int failures = 0;
  const auto count = [&](const std::string& rule, const std::string& file) {
    return std::count_if(violations.begin(), violations.end(),
                         [&](const Violation& v) {
                           return v.rule == rule && v.file == file;
                         });
  };
  const auto expect = [&](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  expect(count("raw-sync", "src/raw_sync.cpp") >= 1,
         "raw-sync must fire on the planted std::mutex");
  expect(count("raw-sync", "src/common/sync.hpp") == 0,
         "raw-sync must honor the sync.hpp allowlist");
  expect(count("unchecked-value", "src/unchecked_value.cpp") == 1,
         "unchecked-value must fire exactly once (planted call only, the "
         "checked call stays quiet)");
  expect(count("internal-include", "tools/internal_include.cpp") == 1,
         "internal-include must fire on the planted hnsw.hpp include");
  expect(count("tsan-suppression", ".tsan-suppressions") == 1,
         "tsan-suppression must flag the stale symbol and accept the real "
         "one");
  expect(count("trace-clock", "src/net/trace_clock.cpp") == 1,
         "trace-clock must fire on the planted steady_clock::now()");
  expect(count("trace-clock", "src/net/rate_limiter.cpp") == 0,
         "trace-clock must honor the rate_limiter.cpp allowlist");
  expect(count("trace-clock", "src/clock_out_of_scope.cpp") == 0,
         "trace-clock must ignore steady_clock outside "
         "src/net|serving|cache/");
  expect(count("raw-sync", "src/cache/semantic_cache.cpp") == 1,
         "raw-sync must fire on the cache fixture's planted std::mutex");
  expect(count("trace-clock", "src/cache/semantic_cache.cpp") == 1,
         "trace-clock must fire on the cache fixture's planted "
         "steady_clock::now()");
  expect(count("raw-sync", "src/serving/remote.cpp") == 1,
         "raw-sync must fire on the serving fixture's planted std::mutex");
  expect(count("trace-clock", "src/serving/remote.cpp") == 1,
         "trace-clock must fire on the serving fixture's planted "
         "steady_clock::now()");
  // Nothing else may fire — a noisy rule is as useless as a silent one.
  const auto expected_total =
      count("raw-sync", "src/raw_sync.cpp") + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1;
  expect(static_cast<long>(violations.size()) == expected_total,
         "no unexpected violations in the fixture tree");

  if (failures != 0) {
    print(violations);
    return 1;
  }
  std::printf("gosh_lint self-test: all fixture expectations hold (%zu "
              "violations, all planted)\n",
              violations.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool fixtures = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--self-test") {
      fixtures = true;
    } else {
      std::fprintf(stderr,
                   "usage: gosh_lint [--self-test] --root DIR\n");
      return 2;
    }
  }
  if (!fs::exists(root)) {
    std::fprintf(stderr, "gosh_lint: no such root: %s\n",
                 root.string().c_str());
    return 2;
  }
  if (fixtures) return self_test(root);

  const std::vector<SourceFile> files = load_tree(root);
  if (files.empty()) {
    // A lint that scans nothing passes vacuously — treat a root with no
    // src//tools//bench//examples//tests sources as a misconfiguration.
    std::fprintf(stderr, "gosh_lint: nothing to scan under %s\n",
                 root.string().c_str());
    return 2;
  }
  const std::vector<Violation> violations = run_rules(root, files);
  if (!violations.empty()) {
    print(violations);
    std::fprintf(stderr, "gosh_lint: %zu violation(s) in %zu files scanned\n",
                 violations.size(), files.size());
    return 1;
  }
  std::printf("gosh_lint: clean (%zu files scanned)\n", files.size());
  return 0;
}
