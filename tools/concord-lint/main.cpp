// concord-lint — project-specific determinism, status-discipline, and
// protocol-consistency linter.
//
// A deliberately small, dependency-free static-analysis pass (no libclang)
// that tokenizes the C++ sources and enforces the repo's disciplines, which
// the compiler cannot see:
//
//   D1  concord-determinism     banned nondeterminism sources (wall clocks,
//                               unseeded randomness) outside an allowlist
//   D2  concord-unordered-emit  no range-for / iterator loops over
//                               std::unordered_{map,set} in files tagged
//                               `// concord-lint: emit-path` unless the loop
//                               carries a `// concord-lint: sorted` note
//   D3  concord-status          calls to Status/Result<T>-returning functions
//                               whose value is silently discarded
//   D4  concord-alloc           raw new/malloc outside common/pool_allocator
//   D5  concord-guarded         in src/sim, src/obs, and files tagged
//                               `// concord-lint: guarded-scope`, every data
//                               member of a mutex-holding class must carry a
//                               CONCORD_GUARDED_BY annotation or a justified
//                               `// concord-lint: unguarded(<reason>)`
//
// A separate cross-TU pass family (`--proto`, proto.cpp) checks the wire
// protocol and metric namespace for drift:
//
//   W1  concord-proto-wire      every net::MsgType is fully wired: binding
//                               table row, to_string case, codec pair,
//                               dispatch site, truncation-fuzz fixture
//   W2  concord-proto-metric    every metric/span name referenced anywhere
//                               (watchdog invariants, trace analysis,
//                               EXPERIMENTS.md) names a cell that exists,
//                               with a consistent kind
//
// Every rule is suppressible with `// NOLINT(concord-<rule>)` on the same
// line (or `// NOLINTNEXTLINE(concord-<rule>)` on the line above); a
// suppression that never fires is itself reported, so stale annotations
// cannot accumulate.
//
// Usage:
//   concord-lint --root <repo>          lint <repo>/{src,bench,examples}
//   concord-lint --proto --root <repo>  run the cross-TU protocol passes
//   concord-lint [--json] <file>...     lint the given files only
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace {

namespace fs = std::filesystem;
using lint::Finding;
using lint::Rule;
using lint::SourceFile;

void add_finding(const SourceFile& src, std::size_t offset, Rule rule, std::string msg,
                 std::vector<Finding>& out, bool warning = false) {
  out.push_back({src.path, src.line_of(offset), src.col_of(offset), rule, std::move(msg),
                 warning, {}});
}

// ---------------------------------------------------------------------------
// D1 — banned nondeterminism sources.

struct BannedSource {
  std::string_view needle;
  std::string_view why;
};

constexpr BannedSource kBanned[] = {
    {"std::chrono::system_clock", "wall clock breaks replay determinism"},
    {"std::chrono::steady_clock", "host clock breaks replay determinism"},
    {"system_clock", "wall clock breaks replay determinism"},
    {"steady_clock", "host clock breaks replay determinism"},
    {"std::random_device", "unseeded entropy breaks replay determinism"},
    {"random_device", "unseeded entropy breaks replay determinism"},
    {"gettimeofday(", "wall clock breaks replay determinism"},
    {"clock_gettime(", "wall clock breaks replay determinism"},
    {"timespec_get(", "wall clock breaks replay determinism"},
    {"time(", "wall clock breaks replay determinism"},
    {"srand(", "libc RNG is global, unseeded state"},
    {"rand(", "libc RNG is global, unseeded state"},
};

/// Files allowed to touch real time / real entropy: the seeded RNG itself,
/// the obs layer (owns the virtual-clock <-> host-clock boundary) and the sim
/// virtual clock.
constexpr std::string_view kDeterminismAllowlist[] = {
    "common/rng", "src/obs/", "obs/host_clock", "src/sim/",
};

void check_determinism(SourceFile& src, std::vector<Finding>& out) {
  for (std::string_view pat : kDeterminismAllowlist) {
    if (lint::path_matches(src.path, pat)) return;
  }
  const std::string& code = src.code;
  for (const BannedSource& b : kBanned) {
    for (std::size_t at = code.find(b.needle); at != std::string::npos;
         at = code.find(b.needle, at + 1)) {
      // Token boundary: not mid-identifier, and not the tail of a longer
      // qualified name already matched (e.g. `steady_clock` inside
      // `std::chrono::steady_clock`).
      if (at > 0 && (lint::ident_char(code[at - 1]) || code[at - 1] == ':')) continue;
      if (lint::suppressed(src, src.line_of(at), Rule::kDeterminism)) continue;
      add_finding(src, at, Rule::kDeterminism,
                  std::string(b.needle.substr(0, b.needle.find('('))) + ": " +
                      std::string(b.why) + " (use common/rng or the sim virtual clock)",
                  out);
    }
  }
}

// ---------------------------------------------------------------------------
// D4 — raw allocation outside the pool allocator.

void check_alloc(SourceFile& src, std::vector<Finding>& out) {
  if (lint::path_matches(src.path, "common/pool_allocator")) return;
  const std::string& code = src.code;
  for (std::string_view fn : {"malloc(", "calloc(", "realloc(", "aligned_alloc(", "free("}) {
    for (std::size_t at = code.find(fn); at != std::string::npos;
         at = code.find(fn, at + 1)) {
      if (at > 0 && lint::ident_char(code[at - 1])) continue;
      if (lint::suppressed(src, src.line_of(at), Rule::kAlloc)) continue;
      add_finding(src, at, Rule::kAlloc,
                  std::string(fn.substr(0, fn.size() - 1)) +
                      ": raw allocation; route through common/pool_allocator "
                      "or a container",
                  out);
    }
  }
  for (std::size_t at = code.find("new"); at != std::string::npos;
       at = code.find("new", at + 3)) {
    if (!lint::word_at(code, at, "new")) continue;
    // `operator new` declarations are the allocator's business, not a use.
    const std::size_t p = lint::prev_sig(code, at);
    if (p != std::string::npos && lint::ident_char(code[p])) {
      const std::size_t b = lint::ident_begin(code, p);
      if (code.compare(b, p - b + 1, "operator") == 0) continue;
    }
    // Must look like an expression: followed by a type name or '('.
    const std::size_t after = lint::skip_ws_fwd(code, at + 3);
    if (after >= code.size() || (!lint::ident_char(code[after]) && code[after] != '(')) {
      continue;
    }
    if (lint::suppressed(src, src.line_of(at), Rule::kAlloc)) continue;
    add_finding(src, at, Rule::kAlloc,
                "new: raw allocation; use make_unique/make_shared, a container, "
                "or common/pool_allocator",
                out);
  }
}

// ---------------------------------------------------------------------------
// D2 — unordered-container iteration on emit paths.

/// Collects names declared with an unordered container type in this file:
/// `std::unordered_map<K, V> name;` / member `std::unordered_set<T> name_;`.
std::vector<std::string> unordered_names(const SourceFile& src) {
  std::vector<std::string> names;
  const std::string& code = src.code;
  for (std::string_view kind : {"unordered_map", "unordered_set"}) {
    for (std::size_t at = code.find(kind); at != std::string::npos;
         at = code.find(kind, at + kind.size())) {
      if (at > 0 && lint::ident_char(code[at - 1])) continue;
      std::size_t i = lint::skip_ws_fwd(code, at + kind.size());
      if (i >= code.size() || code[i] != '<') continue;
      i = lint::skip_balanced(code, i, '<', '>');
      if (i == std::string::npos) continue;
      i = lint::skip_ws_fwd(code, i);
      while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
        i = lint::skip_ws_fwd(code, i + 1);
      }
      const std::size_t b = i;
      while (i < code.size() && lint::ident_char(code[i])) ++i;
      if (i > b) names.emplace_back(code.substr(b, i - b));
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void check_unordered_emit(SourceFile& src, std::vector<Finding>& out) {
  if (!src.emit_path) return;
  const std::vector<std::string> names = unordered_names(src);
  const std::string& code = src.code;
  for (std::size_t at = code.find("for"); at != std::string::npos;
       at = code.find("for", at + 3)) {
    if (!lint::word_at(code, at, "for")) continue;
    std::size_t open = lint::skip_ws_fwd(code, at + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = lint::skip_balanced(code, open, '(', ')');
    if (close == std::string::npos) continue;
    const std::string head = code.substr(open + 1, close - open - 2);
    // Range-for over an unordered container, or an iterator loop on one.
    bool flagged = false;
    std::string which;
    const std::size_t colon = [&] {
      int depth = 0;  // ignore ':' inside <>, e.g. std::pair
      for (std::size_t i = 0; i + 1 < head.size(); ++i) {
        if (head[i] == '<' || head[i] == '(' || head[i] == '[') ++depth;
        if ((head[i] == '>' && (i == 0 || head[i - 1] != '-')) || head[i] == ')' ||
            head[i] == ']') {
          --depth;
        }
        if (depth == 0 && head[i] == ':' && head[i + 1] != ':' &&
            (i == 0 || head[i - 1] != ':')) {
          return i;
        }
      }
      return std::string::npos;
    }();
    const std::string range = colon == std::string::npos ? "" : head.substr(colon + 1);
    const std::string& hay = colon == std::string::npos ? head : range;
    if (hay.find("unordered_") != std::string::npos) {
      flagged = true;
      which = "unordered container";
    } else {
      for (const std::string& n : names) {
        std::size_t pos = 0;
        while ((pos = hay.find(n, pos)) != std::string::npos) {
          const bool lb = pos == 0 || !lint::ident_char(hay[pos - 1]);
          const std::size_t after = pos + n.size();
          const bool rb = after >= hay.size() || !lint::ident_char(hay[after]);
          if (lb && rb) {
            // Iterator loops only count when .begin()/.cbegin() is taken;
            // a range-for counts on the bare name.
            if (colon != std::string::npos ||
                hay.compare(after, 7, ".begin(") == 0 ||
                hay.compare(after, 8, ".cbegin(") == 0) {
              flagged = true;
              which = n;
            }
          }
          pos = after;
        }
        if (flagged) break;
      }
    }
    if (!flagged) continue;
    if (lint::suppressed(src, src.line_of(at), Rule::kUnorderedEmit)) continue;
    add_finding(src, at, Rule::kUnorderedEmit,
                "iteration over " + which +
                    " on an emit path: order is hash-dependent; sort first or "
                    "justify with `// concord-lint: sorted`",
                out);
  }
}

// ---------------------------------------------------------------------------
// D3 — discarded Status / Result<T> values.

/// Pass 1: names of functions declared anywhere in the scan set whose return
/// type is Status or Result<...>. Names that are *also* declared with a
/// non-Status builtin return type anywhere (e.g. a `void run()` next to a
/// `Result<T> run()`) are ambiguous for a name-based pass and are skipped —
/// the [[nodiscard]] + -Werror compiler layer is the precise check there.
void collect_status_functions(const SourceFile& src, std::set<std::string>& status_named,
                              std::set<std::string>& other_named) {
  const std::string& code = src.code;
  constexpr std::string_view kOtherTypes[] = {
      "void", "bool", "int",      "unsigned", "long",     "float",
      "double", "auto", "size_t", "uint32_t", "uint64_t", "int64_t",
  };
  auto harvest = [&](std::string_view type, bool template_args, std::set<std::string>& out) {
    for (std::size_t at = code.find(type); at != std::string::npos;
         at = code.find(type, at + type.size())) {
      if (!lint::word_at(code, at, type)) continue;
      std::size_t i = lint::skip_ws_fwd(code, at + type.size());
      if (template_args) {
        if (i >= code.size() || code[i] != '<') continue;
        i = lint::skip_balanced(code, i, '<', '>');
        if (i == std::string::npos) continue;
        i = lint::skip_ws_fwd(code, i);
      }
      const std::size_t b = i;
      while (i < code.size() && lint::ident_char(code[i])) ++i;
      if (i == b) continue;
      const std::size_t after = lint::skip_ws_fwd(code, i);
      if (after >= code.size() || code[after] != '(') continue;
      out.insert(code.substr(b, i - b));
    }
  };
  harvest("Status", false, status_named);
  harvest("Result", true, status_named);
  for (std::string_view t : kOtherTypes) harvest(t, false, other_named);
}

void check_status_discard(SourceFile& src, const std::set<std::string>& fns,
                          std::vector<Finding>& out) {
  const std::string& code = src.code;
  for (const std::string& fn : fns) {
    for (std::size_t at = code.find(fn); at != std::string::npos;
         at = code.find(fn, at + fn.size())) {
      if (at > 0 && lint::ident_char(code[at - 1])) continue;
      std::size_t open = lint::skip_ws_fwd(code, at + fn.size());
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = lint::skip_balanced(code, open, '(', ')');
      if (close == std::string::npos) continue;
      // The call's value is consumed unless the next significant char is ';'.
      const std::size_t after = lint::skip_ws_fwd(code, close);
      if (after >= code.size() || code[after] != ';') continue;
      // Walk back over the receiver chain (`a.b->c::` ...) to the start of
      // the full call expression.
      std::size_t start = at;
      for (;;) {
        const std::size_t p = lint::prev_sig(code, start);
        if (p == std::string::npos) break;
        const bool dot = code[p] == '.';
        const bool arrow = code[p] == '>' && p > 0 && code[p - 1] == '-';
        const bool scope = code[p] == ':' && p > 0 && code[p - 1] == ':';
        if (!dot && !arrow && !scope) break;
        std::size_t q = lint::prev_sig(code, dot ? p : p - 1);
        if (q == std::string::npos) break;
        if (code[q] == ')' || code[q] == ']') {
          // Skip back over a balanced group plus the identifier before it.
          const char closer = code[q];
          const char opener = closer == ')' ? '(' : '[';
          int depth = 0;
          while (q != std::string::npos) {
            if (code[q] == closer) ++depth;
            if (code[q] == opener && --depth == 0) break;
            if (q == 0) break;
            --q;
          }
          const std::size_t r = lint::prev_sig(code, q);
          if (r == std::string::npos || !lint::ident_char(code[r])) {
            start = q;
            continue;
          }
          q = r;
        }
        if (lint::ident_char(code[q])) {
          start = lint::ident_begin(code, q);
        } else {
          start = q;
        }
        continue;
      }
      const std::size_t before = lint::prev_sig(code, start);
      bool discarded = false;
      if (before == std::string::npos) {
        discarded = false;  // file starts with a declaration
      } else if (lint::ident_char(code[before])) {
        // Preceding word: `return x()` consumes; `else`/`do x();` discards;
        // any other identifier means this is a declaration/definition.
        const std::size_t b = lint::ident_begin(code, before);
        const std::string word = code.substr(b, before - b + 1);
        discarded = word == "else" || word == "do";
      } else if (code[before] == ';' || code[before] == '{' || code[before] == '}') {
        discarded = true;
      } else if (code[before] == ')') {
        // `(void)call();` is an intentional, visible drop; `if (...) call();`
        // and `(expr) call();` are not.
        std::size_t q = before;
        int depth = 0;
        while (q != std::string::npos) {
          if (code[q] == ')') ++depth;
          if (code[q] == '(' && --depth == 0) break;
          if (q == 0) { q = std::string::npos; break; }
          --q;
        }
        if (q != std::string::npos) {
          std::string inner = code.substr(q + 1, before - q - 1);
          inner.erase(std::remove_if(inner.begin(), inner.end(),
                                     [](char ch) {
                                       return std::isspace(static_cast<unsigned char>(ch)) != 0;
                                     }),
                      inner.end());
          discarded = inner != "void";
        } else {
          discarded = true;
        }
      }
      if (!discarded) continue;
      if (lint::suppressed(src, src.line_of(at), Rule::kStatus)) continue;
      add_finding(src, at, Rule::kStatus,
                  fn + "(...) returns Status/Result but the value is discarded; "
                       "handle it or write `(void)` with a reason",
                  out);
    }
  }
}

// ---------------------------------------------------------------------------
// D5 — mutex-adjacent members must declare their guard (or justify why not).
//
// Scope: files under src/sim or src/obs (the layers that real host threads
// touch), plus any file tagged `// concord-lint: guarded-scope`. In every
// class/struct that holds a mutex member, each data member (trailing-
// underscore convention) must either carry CONCORD_GUARDED_BY /
// CONCORD_PT_GUARDED_BY, be a synchronization primitive or immutable, or sit
// under a `// concord-lint: unguarded(<reason>)` with a non-empty reason.

bool d5_applies(const SourceFile& src) {
  return src.guarded_scope || lint::path_matches(src.path, "src/sim/") ||
         lint::path_matches(src.path, "src/obs/");
}

struct MemberDecl {
  std::string text;        // statement text (brace blocks collapsed to '{')
  std::size_t offset = 0;  // offset of the declared name in `code`
  std::string name;
};

/// Splits a class body [begin, end) into depth-1 statements and returns the
/// data-member declarations found (by the trailing-underscore convention).
/// Brace blocks (inline method bodies, initializers, nested types) are
/// collapsed so their contents never masquerade as member declarations;
/// nested classes get their own top-level scan.
std::vector<MemberDecl> member_decls(const std::string& code, std::size_t begin,
                                     std::size_t end) {
  std::vector<MemberDecl> members;
  std::string stmt;
  std::size_t stmt_start = begin;
  auto flush = [&](std::size_t at) {
    // A member name is an identifier ending in '_' whose next significant
    // char is one of `; = { [ ,` (the statement text excludes the final ';').
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (!lint::ident_char(stmt[i]) || (i > 0 && lint::ident_char(stmt[i - 1]))) continue;
      std::size_t j = i;
      while (j < stmt.size() && lint::ident_char(stmt[j])) ++j;
      if (j == i || stmt[j - 1] != '_') continue;
      const std::size_t after = lint::skip_ws_fwd(stmt, j);
      const char nc = after < stmt.size() ? stmt[after] : ';';
      if (nc == ';' || nc == '=' || nc == '{' || nc == '[' || nc == ',') {
        members.push_back({stmt, stmt_start + i, stmt.substr(i, j - i)});
        break;  // one finding per statement is enough
      }
      i = j;
    }
    stmt.clear();
    stmt_start = at;
  };
  for (std::size_t i = begin; i < end; ++i) {
    const char c = code[i];
    if (c == '{') {
      const std::size_t past = lint::skip_balanced(code, i, '{', '}');
      if (past == std::string::npos) break;
      stmt.push_back('{');  // keep a marker: `name_{0};` still parses
      const std::size_t nxt = lint::skip_ws_fwd(code, past);
      if (nxt < end && code[nxt] == ';') {
        // Brace initializer (or nested type with `};`): statement continues
        // to the ';' handled below.
        i = past - 1;
        continue;
      }
      // Inline function body / nested class: the block ends the statement.
      flush(past);
      i = past - 1;
    } else if (c == ';') {
      flush(i + 1);
    } else {
      // The statement text keeps original offsets alignable: stmt_start is
      // the offset of stmt[0] only while no chars were skipped, so track the
      // true offset of each appended char via padding-free append — offsets
      // stay exact because only brace-block contents are elided, always
      // *after* any member name we could report.
      if (stmt.empty()) {
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
          stmt_start = i + 1;
          continue;
        }
        stmt_start = i;
      }
      stmt.push_back(c);
    }
  }
  return members;
}

bool statement_exempt(const std::string& stmt) {
  for (std::string_view kw : {"static", "constexpr", "using", "typedef", "friend",
                              "enum", "condition_variable", "atomic"}) {
    std::size_t at = 0;
    while ((at = stmt.find(kw, at)) != std::string::npos) {
      if (lint::word_at(stmt, at, kw)) return true;
      at += kw.size();
    }
  }
  // `const T x_;` is immutable — but `const T* x_` is a mutable pointer.
  if (stmt.starts_with("const") && !lint::ident_char(stmt.size() > 5 ? stmt[5] : ' ') &&
      stmt.find('*') == std::string::npos) {
    return true;
  }
  return false;
}

bool is_mutex_member(const std::string& stmt) {
  for (std::string_view kw : {"mutex", "Mutex", "MutexLock"}) {
    std::size_t at = 0;
    while ((at = stmt.find(kw, at)) != std::string::npos) {
      if (lint::word_at(stmt, at, kw)) return true;
      at += kw.size();
    }
  }
  return false;
}

bool is_annotated(const std::string& stmt) {
  return stmt.find("CONCORD_GUARDED_BY(") != std::string::npos ||
         stmt.find("CONCORD_PT_GUARDED_BY(") != std::string::npos;
}

/// True if the member at `line` sits under a `concord-lint: unguarded(...)`
/// comment with a non-empty reason: on the member's own line, or in the
/// comment block immediately above it.
bool has_unguarded_justification(const SourceFile& src, std::size_t line) {
  auto justified = [](const std::string& cm) {
    const std::size_t at = cm.find("concord-lint: unguarded(");
    if (at == std::string::npos) return false;
    const std::size_t open = at + std::string_view("concord-lint: unguarded(").size();
    return open < cm.size() && cm[open] != ')';
  };
  if (line < src.comments.size() && justified(src.comments[line])) return true;
  for (std::size_t ln = line; ln > 1; --ln) {
    const std::size_t above = ln - 1;
    if (!src.code_blank(above)) break;  // a code line ends the comment block
    if (above < src.comments.size()) {
      if (justified(src.comments[above])) return true;
      if (src.comments[above].empty()) break;  // blank line ends the block
    }
  }
  return false;
}

void check_guarded_members(SourceFile& src, std::vector<Finding>& out) {
  if (!d5_applies(src)) return;
  const std::string& code = src.code;
  for (std::string_view kw : {"class", "struct"}) {
    for (std::size_t at = code.find(kw); at != std::string::npos;
         at = code.find(kw, at + kw.size())) {
      if (!lint::word_at(code, at, kw)) continue;
      // `enum class` is not a record; `class X;` is a forward declaration.
      const std::size_t p = lint::prev_sig(code, at);
      if (p != std::string::npos && lint::ident_char(code[p]) &&
          code.compare(lint::ident_begin(code, p), 4, "enum") == 0) {
        continue;
      }
      std::size_t i = at + kw.size();
      while (i < code.size() && code[i] != '{' && code[i] != ';' && code[i] != '(') ++i;
      if (i >= code.size() || code[i] != '{') continue;
      const std::size_t past = lint::skip_balanced(code, i, '{', '}');
      if (past == std::string::npos) continue;
      const std::vector<MemberDecl> members = member_decls(code, i + 1, past - 1);
      bool has_mutex = false;
      for (const MemberDecl& m : members) {
        if (is_mutex_member(m.text)) has_mutex = true;
      }
      if (!has_mutex) continue;
      for (const MemberDecl& m : members) {
        if (is_mutex_member(m.text) || statement_exempt(m.text)) continue;
        if (is_annotated(m.text)) continue;
        const std::size_t ln = src.line_of(m.offset);
        if (has_unguarded_justification(src, ln)) continue;
        if (lint::suppressed(src, ln, Rule::kGuarded)) continue;
        add_finding(src, m.offset, Rule::kGuarded,
                    "member `" + m.name +
                        "` shares a class with a mutex but declares no guard; add "
                        "CONCORD_GUARDED_BY(<mu>) or justify with `// concord-lint: "
                        "unguarded(<reason>)`",
                    out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void emit(const std::vector<Finding>& findings, std::size_t files, bool json) {
  if (json) {
    std::string out = "{\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) out += ',';
      out += "{\"path\":\"";
      json_escape(out, f.path);
      char buf[96];
      std::snprintf(buf, sizeof buf, "\",\"line\":%zu,\"col\":%zu,\"rule\":\"", f.line,
                    f.col);
      out += buf;
      out += rule_name(f.rule);
      out += "\",\"severity\":\"";
      out += f.warning ? "warning" : "error";
      out += "\",\"message\":\"";
      json_escape(out, f.message);
      out += '"';
      if (!f.suppressed_rule.empty()) {
        out += ",\"suppressed_rule\":\"";
        json_escape(out, f.suppressed_rule);
        out += '"';
      }
      out += '}';
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "],\"files\":%zu,\"findings_total\":%zu}\n", files,
                  findings.size());
    out += buf;
    std::fputs(out.c_str(), stdout);
    return;
  }
  for (const Finding& f : findings) {
    if (f.col > 0) {
      std::printf("%s:%zu:%zu: %s: [%s] %s\n", f.path.c_str(), f.line, f.col,
                  f.warning ? "warning" : "error", rule_name(f.rule), f.message.c_str());
    } else {
      std::printf("%s:%zu: %s: [%s] %s\n", f.path.c_str(), f.line,
                  f.warning ? "warning" : "error", rule_name(f.rule), f.message.c_str());
    }
  }
  std::printf("concord-lint: %zu file(s), %zu finding(s)\n", files, findings.size());
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    if (a.rule != b.rule) {
      return std::string_view(rule_name(a.rule)) < std::string_view(rule_name(b.rule));
    }
    return a.message < b.message;
  });
}

int run(const std::vector<std::string>& paths, bool json) {
  std::vector<SourceFile> files;
  for (const std::string& p : paths) {
    std::string text;
    if (!lint::read_file(p, text)) {
      std::fprintf(stderr, "concord-lint: cannot read %s\n", p.c_str());
      return 2;
    }
    files.push_back(lint::load_source(p, text));
  }

  std::set<std::string> status_fns, other_fns;
  for (const SourceFile& f : files) collect_status_functions(f, status_fns, other_fns);
  for (const std::string& n : other_fns) status_fns.erase(n);

  std::vector<Finding> findings;
  for (SourceFile& f : files) {
    check_determinism(f, findings);
    check_alloc(f, findings);
    check_unordered_emit(f, findings);
    check_status_discard(f, status_fns, findings);
    check_guarded_members(f, findings);
    lint::report_unused_suppressions(f, /*proto_mode=*/false, findings);
  }

  sort_findings(findings);
  emit(findings, files.size(), json);
  return findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string root;
  bool proto = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "concord-lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--proto") {
      proto = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: concord-lint [--json] --root <repo>        per-file rules D1-D5\n"
          "       concord-lint [--json] --proto --root <repo> cross-TU passes W1/W2\n"
          "       concord-lint [--json] <file>...\n");
      return 0;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (proto) {
    if (root.empty()) {
      std::fprintf(stderr, "concord-lint: --proto needs --root <repo>\n");
      return 2;
    }
    std::vector<Finding> findings;
    std::size_t files = 0;
    lint::run_proto(root, findings, files);
    if (files == 0) {
      std::fprintf(stderr, "concord-lint: no protocol sources under %s\n", root.c_str());
      return 2;
    }
    sort_findings(findings);
    emit(findings, files, json);
    return findings.empty() ? 0 : 1;
  }
  if (!root.empty()) {
    for (const char* sub : {"src", "bench", "examples"}) {
      const fs::path dir = fs::path(root) / sub;
      if (!fs::exists(dir)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          paths.push_back(entry.path().string());
        }
      }
    }
    std::sort(paths.begin(), paths.end());
  }
  if (paths.empty()) {
    std::fprintf(stderr, "concord-lint: nothing to lint (try --root <repo>)\n");
    return 2;
  }
  return run(paths, json);
}
