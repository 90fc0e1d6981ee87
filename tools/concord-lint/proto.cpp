// concord-lint --proto: cross-TU wire-protocol (W1) and metric-namespace (W2)
// consistency passes.
//
// W1 (concord-proto-wire) reads the protocol ground truth out of
// src/net/message.hpp — the MsgType enum, the kNumMsgTypes anchor, the
// to_string/is_control_plane functions, and the kMsgTypeBindings table — and
// verifies every leg the rest of the tree owes each message type:
//
//   * a kMsgTypeBindings row whose control_plane flag matches
//     is_control_plane() and whose to_string case exists,
//   * for rows naming a codec struct: an encode(const S&...) overload and a
//     Result<S> decode_*() declared in net/codec.hpp AND defined in
//     net/codec.cpp, plus a CONCORD_TRUNC_FIXTURE(S...) truncation-fuzz
//     fixture in tests/test_codec.cpp,
//   * a dispatch site matching the row's claim: a `case MsgType::kX` in
//     core/service_daemon.cpp (kDaemonSwitch), a set_handler(MsgType::kX...)
//     registration anywhere in src (kHandler), or — for kSink — neither,
//   * per-type tables in net/fabric.hpp sized by kNumMsgTypes.
//
// W2 (concord-proto-metric) builds the catalog of every obs::Registry cell
// the tree creates — counter("sub", "name") literals, "prefix." + expr
// families, and `// concord-proto: cell <kind> <sub>/<name|prefix*>`
// declarations for names computed at runtime — plus the span catalog from
// begin_span/begin_async, then checks every reference against it:
//
//   * the same (subsystem, name) never created with two kinds,
//   * counter_total/gauge_total literals resolve to a live cell of that kind,
//   * `.name ==` / `.name !=` string comparisons name a live metric (or, in
//     obs/trace_analysis.cpp, a live span),
//   * metric tokens in EXPERIMENTS.md (`sub/name`) name live cells,
//   * dynamic-name creation sites carry a `concord-proto: cell` declaration.
//
// Findings anchor to the offending site (or the enum line for missing legs)
// and respect NOLINT(concord-proto-wire|concord-proto-metric).

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace lint {
namespace {

namespace fs = std::filesystem;

struct ProtoTree {
  std::vector<SourceFile> files;  // every source loaded for the pass
  SourceFile* message = nullptr;  // src/net/message.hpp
  SourceFile* codec_hpp = nullptr;
  SourceFile* codec_cpp = nullptr;
  SourceFile* fabric_hpp = nullptr;
  SourceFile* daemon_cpp = nullptr;  // core/service_daemon.cpp
  SourceFile* test_codec = nullptr;  // tests/test_codec.cpp
  std::string experiments;           // EXPERIMENTS.md text ("" if absent)
};

void push(ProtoTree& tree, SourceFile&& f) { tree.files.push_back(std::move(f)); }

bool load_tree(const std::string& root, ProtoTree& tree) {
  std::vector<std::string> paths;
  for (const char* sub : {"src", "bench", "examples"}) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc") {
        paths.push_back(entry.path().string());
      }
    }
  }
  const fs::path tc = fs::path(root) / "tests" / "test_codec.cpp";
  if (fs::exists(tc)) paths.push_back(tc.string());
  std::sort(paths.begin(), paths.end());
  for (const std::string& p : paths) {
    std::string text;
    if (!read_file(p, text)) return false;
    push(tree, load_source(p, text));
  }
  for (SourceFile& f : tree.files) {
    if (path_matches(f.path, "net/message.hpp")) tree.message = &f;
    if (path_matches(f.path, "net/codec.hpp")) tree.codec_hpp = &f;
    if (path_matches(f.path, "net/codec.cpp")) tree.codec_cpp = &f;
    if (path_matches(f.path, "net/fabric.hpp")) tree.fabric_hpp = &f;
    if (path_matches(f.path, "core/service_daemon.cpp")) tree.daemon_cpp = &f;
    if (path_matches(f.path, "tests/test_codec.cpp")) tree.test_codec = &f;
  }
  std::string md;
  if (read_file((fs::path(root) / "EXPERIMENTS.md").string(), md)) {
    tree.experiments = std::move(md);
  }
  return true;
}

void report(SourceFile& src, std::size_t offset, Rule rule, std::string msg,
            std::vector<Finding>& out) {
  const std::size_t line = src.line_of(offset);
  if (suppressed(src, line, rule)) return;
  out.push_back({src.path, line, src.col_of(offset), rule, std::move(msg), false, {}});
}

/// Reads a plain (escape-free) string literal starting at code_str[i] == '"'.
/// Returns false if it isn't one. `end` is set one past the closing quote.
bool read_literal(const std::string& s, std::size_t i, std::string& out,
                  std::size_t& end) {
  if (i >= s.size() || s[i] != '"') return false;
  const std::size_t close = s.find('"', i + 1);
  if (close == std::string::npos) return false;
  out = s.substr(i + 1, close - i - 1);
  end = close + 1;
  return true;
}

/// After `(`-relative scanning: expects optional `net::` / `obs::` qualifiers
/// then `Word::kIdent`; returns the identifier (e.g. "kDhtInsert") or "".
std::string scoped_enumerator(const std::string& s, std::size_t i, std::string_view word) {
  i = skip_ws_fwd(s, i);
  if (s.compare(i, 5, "net::") == 0) i = skip_ws_fwd(s, i + 5);
  if (s.compare(i, word.size(), word) != 0) return "";
  i += word.size();
  i = skip_ws_fwd(s, i);
  if (s.compare(i, 2, "::") != 0) return "";
  i = skip_ws_fwd(s, i + 2);
  const std::size_t b = i;
  while (i < s.size() && ident_char(s[i])) ++i;
  return s.substr(b, i - b);
}

// ---------------------------------------------------------------------------
// W1 — wire-protocol exhaustiveness.

struct BindingRow {
  std::string enumerator;
  std::string codec_struct;
  bool control_plane = false;
  std::string dispatch;  // kDaemonSwitch | kHandler | kSink
  std::size_t offset = 0;
};

std::vector<std::pair<std::string, std::size_t>> parse_enumerators(const SourceFile& src) {
  std::vector<std::pair<std::string, std::size_t>> out;
  const std::string& code = src.code;
  std::size_t at = code.find("enum class MsgType");
  if (at == std::string::npos) return out;
  const std::size_t open = code.find('{', at);
  if (open == std::string::npos) return out;
  const std::size_t past = skip_balanced(code, open, '{', '}');
  if (past == std::string::npos) return out;
  for (std::size_t i = open + 1; i < past - 1;) {
    i = skip_ws_fwd(code, i);
    if (i >= past - 1) break;
    if (ident_char(code[i])) {
      const std::size_t b = i;
      while (i < past - 1 && ident_char(code[i])) ++i;
      out.emplace_back(code.substr(b, i - b), b);
      // Skip to the enumerator's comma (past any `= value`).
      while (i < past - 1 && code[i] != ',') ++i;
      ++i;
    } else {
      ++i;
    }
  }
  return out;
}

std::vector<BindingRow> parse_binding_rows(const SourceFile& src) {
  std::vector<BindingRow> rows;
  const std::string& s = src.code_str;
  std::size_t at = s.find("kMsgTypeBindings[]");
  if (at == std::string::npos) return rows;
  const std::size_t open = s.find('{', at);
  if (open == std::string::npos) return rows;
  const std::size_t past = skip_balanced(s, open, '{', '}');
  if (past == std::string::npos) return rows;
  for (std::size_t i = open + 1; i < past - 1;) {
    i = skip_ws_fwd(s, i);
    if (i >= past - 1 || s[i] != '{') {
      ++i;
      continue;
    }
    const std::size_t row_end = skip_balanced(s, i, '{', '}');
    if (row_end == std::string::npos) break;
    BindingRow row;
    row.offset = i;
    row.enumerator = scoped_enumerator(s, i + 1, "MsgType");
    std::size_t j = s.find(',', i);
    if (j != std::string::npos && j < row_end) {
      j = skip_ws_fwd(s, j + 1);
      std::size_t lit_end = 0;
      read_literal(s, j, row.codec_struct, lit_end);
    }
    row.control_plane = [&] {
      const std::size_t t = s.find("true", i);
      const std::size_t f = s.find("false", i);
      return t != std::string::npos && t < row_end && (f == std::string::npos || t < f);
    }();
    const std::size_t d = s.find("MsgDispatch::", i);
    if (d != std::string::npos && d < row_end) {
      std::size_t b = d + std::string_view("MsgDispatch::").size();
      std::size_t e = b;
      while (e < row_end && ident_char(s[e])) ++e;
      row.dispatch = s.substr(b, e - b);
    }
    if (!row.enumerator.empty()) rows.push_back(std::move(row));
    i = row_end;
  }
  return rows;
}

/// Enumerators mentioned as `MsgType::kX` inside the body of `fn_name`.
std::set<std::string> enumerators_in_function(const SourceFile& src,
                                              std::string_view fn_name) {
  std::set<std::string> out;
  const std::string& code = src.code;
  std::size_t at = code.find(fn_name);
  while (at != std::string::npos && !word_at(code, at, fn_name)) {
    at = code.find(fn_name, at + 1);
  }
  if (at == std::string::npos) return out;
  const std::size_t open = code.find('{', at);
  if (open == std::string::npos) return out;
  const std::size_t past = skip_balanced(code, open, '{', '}');
  if (past == std::string::npos) return out;
  for (std::size_t i = code.find("MsgType::", open); i != std::string::npos && i < past;
       i = code.find("MsgType::", i + 1)) {
    std::size_t b = i + std::string_view("MsgType::").size();
    std::size_t e = b;
    while (e < code.size() && ident_char(code[e])) ++e;
    if (e > b) out.insert(code.substr(b, e - b));
  }
  return out;
}

std::set<std::string> collect_case_sites(const SourceFile& src) {
  std::set<std::string> out;
  const std::string& code = src.code;
  for (std::size_t at = code.find("case"); at != std::string::npos;
       at = code.find("case", at + 4)) {
    if (!word_at(code, at, "case")) continue;
    const std::string e = scoped_enumerator(code, at + 4, "MsgType");
    if (!e.empty()) out.insert(e);
  }
  return out;
}

void collect_handler_sites(const SourceFile& src, std::set<std::string>& out) {
  const std::string& code = src.code;
  for (std::size_t at = code.find("set_handler"); at != std::string::npos;
       at = code.find("set_handler", at + 11)) {
    if (!word_at(code, at, "set_handler")) continue;
    const std::size_t open = skip_ws_fwd(code, at + 11);
    if (open >= code.size() || code[open] != '(') continue;
    // Declarations (`set_handler(net::MsgType type, ...)`) have no `::k...`
    // after the type name, so scoped_enumerator returns "" for them.
    const std::string e = scoped_enumerator(code, open + 1, "MsgType");
    if (!e.empty()) out.insert(e);
  }
  return;
}

bool has_token(const SourceFile* src, const std::string& token) {
  if (src == nullptr) return false;
  const std::string& s = src->code_str;
  for (std::size_t at = s.find(token); at != std::string::npos;
       at = s.find(token, at + 1)) {
    if (at > 0 && ident_char(s[at - 1])) continue;
    return true;
  }
  return false;
}

void check_wire(ProtoTree& tree, std::vector<Finding>& out) {
  if (tree.message == nullptr) return;
  SourceFile& msg = *tree.message;
  const auto enumerators = parse_enumerators(msg);
  if (enumerators.empty()) {
    out.push_back({msg.path, 1, 0, Rule::kProtoWire,
                   "no `enum class MsgType` found; W1 has no ground truth", false, {}});
    return;
  }

  // kNumMsgTypes must anchor on the *last* enumerator.
  {
    const std::string& code = msg.code;
    const std::size_t at = code.find("kNumMsgTypes");
    if (at == std::string::npos) {
      report(msg, enumerators.front().second, Rule::kProtoWire,
             "kNumMsgTypes is not defined; per-type tables cannot be sized", out);
    } else {
      const std::string anchor = [&] {
        const std::size_t m = code.find("MsgType::", at);
        if (m == std::string::npos) return std::string();
        std::size_t b = m + std::string_view("MsgType::").size();
        std::size_t e = b;
        while (e < code.size() && ident_char(code[e])) ++e;
        return code.substr(b, e - b);
      }();
      if (anchor != enumerators.back().first) {
        report(msg, at, Rule::kProtoWire,
               "kNumMsgTypes anchors on MsgType::" + anchor + " but the last enumerator is " +
                   enumerators.back().first + "; every per-type table is now undersized",
               out);
      }
    }
  }

  // to_string must have a case per enumerator.
  for (const auto& [name, offset] : enumerators) {
    const std::string& code = msg.code;
    bool found = false;
    const std::string needle = "MsgType::" + name;
    for (std::size_t i = code.find(needle); i != std::string::npos;
         i = code.find(needle, i + 1)) {
      const std::size_t p = prev_sig(code, i);
      if (p == std::string::npos) continue;
      // `case MsgType::kX` (allow a `net::` qualifier in between).
      std::size_t q = p;
      if (code[q] == ':' && q > 0 && code[q - 1] == ':') {
        const std::size_t id = prev_sig(code, q - 1);
        if (id == std::string::npos || !ident_char(code[id])) continue;
        q = prev_sig(code, ident_begin(code, id));
        if (q == std::string::npos) continue;
      }
      if (ident_char(code[q]) &&
          code.compare(ident_begin(code, q), 4, "case") == 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      report(msg, offset, Rule::kProtoWire,
             "MsgType::" + name + " has no `case` in to_string(); traffic accounting "
                 "will label it \"unknown\"",
             out);
    }
  }

  // Binding table: one row per enumerator, flags consistent.
  const std::vector<BindingRow> rows = parse_binding_rows(msg);
  const std::set<std::string> control_set = enumerators_in_function(msg, "is_control_plane");
  std::map<std::string, const BindingRow*> row_by_name;
  for (const BindingRow& r : rows) {
    if (!row_by_name.emplace(r.enumerator, &r).second) {
      report(msg, r.offset, Rule::kProtoWire,
             "duplicate kMsgTypeBindings row for MsgType::" + r.enumerator, out);
    }
  }
  std::set<std::string> daemon_cases;
  if (tree.daemon_cpp != nullptr) daemon_cases = collect_case_sites(*tree.daemon_cpp);
  std::set<std::string> handler_sites;
  for (SourceFile& f : tree.files) {
    if (path_matches(f.path, "tests/")) continue;
    collect_handler_sites(f, handler_sites);
  }

  for (const auto& [name, offset] : enumerators) {
    const auto it = row_by_name.find(name);
    if (it == row_by_name.end()) {
      report(msg, offset, Rule::kProtoWire,
             "MsgType::" + name + " has no kMsgTypeBindings row; the protocol table "
                 "no longer covers the enum",
             out);
      continue;
    }
    const BindingRow& row = *it->second;
    if (row.control_plane != (control_set.count(name) != 0)) {
      report(msg, row.offset, Rule::kProtoWire,
             "kMsgTypeBindings claims MsgType::" + name + (row.control_plane ? " is" : " is not") +
                 " control-plane but is_control_plane() disagrees; shedding will "
                 "misclassify it",
             out);
    }
    // Dispatch claims vs actual sites.
    const bool in_switch = daemon_cases.count(name) != 0;
    const bool in_handler = handler_sites.count(name) != 0;
    if (row.dispatch == "kDaemonSwitch") {
      if (!in_switch && tree.daemon_cpp != nullptr) {
        report(msg, row.offset, Rule::kProtoWire,
               "MsgType::" + name + " claims kDaemonSwitch dispatch but "
                   "ServiceDaemon::handle_message has no `case` for it; deliveries "
                   "count as core/unhandled_msgs",
               out);
      }
    } else if (row.dispatch == "kHandler") {
      if (!in_handler) {
        report(msg, row.offset, Rule::kProtoWire,
               "MsgType::" + name + " claims kHandler dispatch but no set_handler("
                   "MsgType::" + name + ") registration exists in src/",
               out);
      }
    } else if (row.dispatch == "kSink") {
      if (in_switch || in_handler) {
        report(msg, row.offset, Rule::kProtoWire,
               "MsgType::" + name + " claims kSink (deliberately unhandled) but a " +
                   (in_switch ? "daemon-switch case" : "set_handler registration") +
                   " exists; update the binding table",
               out);
      }
    } else {
      report(msg, row.offset, Rule::kProtoWire,
             "kMsgTypeBindings row for MsgType::" + name + " has no recognizable "
                 "MsgDispatch value",
             out);
    }
    // Dispatch sites that contradict the claimed mechanism.
    if (row.dispatch == "kDaemonSwitch" && in_handler) {
      report(msg, row.offset, Rule::kProtoWire,
             "MsgType::" + name + " claims kDaemonSwitch but also has a set_handler "
                 "registration; two dispatch paths for one type",
             out);
    }
    if (row.dispatch == "kHandler" && in_switch) {
      report(msg, row.offset, Rule::kProtoWire,
             "MsgType::" + name + " claims kHandler but also has a daemon-switch case; "
                 "two dispatch paths for one type",
             out);
    }

    // Codec legs for socket-crossing types.
    if (!row.codec_struct.empty()) {
      const std::string& s = row.codec_struct;
      const std::string enc = "encode(const " + s + "&";
      auto has_sub = [](const SourceFile* f, const std::string& needle) {
        return f != nullptr && f->code_str.find(needle) != std::string::npos;
      };
      const bool dec_hpp = [&] {
        if (tree.codec_hpp == nullptr) return false;
        const std::string& c = tree.codec_hpp->code_str;
        const std::size_t at = c.find("Result<" + s + ">");
        if (at == std::string::npos) return false;
        return c.find("decode_", at) != std::string::npos;
      }();
      const bool dec_cpp = [&] {
        if (tree.codec_cpp == nullptr) return false;
        const std::string& c = tree.codec_cpp->code_str;
        const std::size_t at = c.find("Result<" + s + ">");
        if (at == std::string::npos) return false;
        return c.find("decode_", at) != std::string::npos;
      }();
      if (!has_sub(tree.codec_hpp, enc) || !dec_hpp) {
        report(msg, row.offset, Rule::kProtoWire,
               "MsgType::" + name + " binds codec struct " + s + " but net/codec.hpp "
                   "does not declare both encode(const " + s + "&...) and a Result<" +
                   s + "> decode_*()",
               out);
      }
      if (!has_sub(tree.codec_cpp, enc) || !dec_cpp) {
        report(msg, row.offset, Rule::kProtoWire,
               "MsgType::" + name + " binds codec struct " + s + " but net/codec.cpp "
                   "does not define both codec legs",
               out);
      }
      if (tree.test_codec != nullptr &&
          !has_token(tree.test_codec, "CONCORD_TRUNC_FIXTURE(" + s)) {
        report(msg, row.offset, Rule::kProtoWire,
               "MsgType::" + name + " binds codec struct " + s + " but "
                   "tests/test_codec.cpp has no CONCORD_TRUNC_FIXTURE(" + s +
                   ", ...) truncation-fuzz fixture",
               out);
      }
    }
  }

  // Per-type tables in fabric.hpp must be sized by kNumMsgTypes.
  if (tree.fabric_hpp != nullptr) {
    SourceFile& fab = *tree.fabric_hpp;
    const std::string& code = fab.code;
    for (std::size_t at = code.find("type_cells_"); at != std::string::npos;
         at = code.find("type_cells_", at + 1)) {
      const std::size_t after = at + std::string_view("type_cells_").size();
      if (after < code.size() && ident_char(code[after])) continue;
      // A declaration ends with the member name; uses index it (`[`/`.`).
      const std::size_t next = skip_ws_fwd(code, after);
      if (next < code.size() && (code[next] == '[' || code[next] == '.' ||
                                 code[next] == '=' || code[next] == ')')) {
        continue;
      }
      const std::size_t ln = fab.line_of(at);
      const std::size_t b = fab.line_start[ln - 1];
      const std::size_t e = ln < fab.line_start.size() ? fab.line_start[ln] : code.size();
      if (code.substr(b, e - b).find("kNumMsgTypes") == std::string::npos) {
        report(fab, at, Rule::kProtoWire,
               "per-type table is not sized by kNumMsgTypes; a new MsgType will "
                   "index out of bounds",
               out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// W2 — metric & span namespace consistency.

struct CellSite {
  std::string kind;  // "counter" | "gauge" | "histogram"
  std::string path;
  std::size_t line = 0;
};

struct MetricCatalog {
  std::map<std::pair<std::string, std::string>, CellSite> cells;  // (sub, name)
  // (sub, prefix) for names built as "prefix." + expr or declared `name*`.
  std::map<std::pair<std::string, std::string>, std::string> families;
  std::set<std::string> subsystems;

  [[nodiscard]] bool resolves(const std::string& sub, const std::string& name,
                              std::string_view kind) const {
    const auto it = cells.find({sub, name});
    if (it != cells.end()) return kind.empty() || it->second.kind == kind;
    for (const auto& [key, fam_kind] : families) {
      if (key.first != sub) continue;
      if (name.size() >= key.second.size() &&
          name.compare(0, key.second.size(), key.second) == 0) {
        if (kind.empty() || fam_kind == kind) return true;
      }
    }
    return false;
  }
  /// Name known under any subsystem (for bare `.name == "x"` comparisons,
  /// which carry no subsystem of their own).
  [[nodiscard]] bool any_sub(const std::string& name) const {
    for (const auto& [key, site] : cells) {
      if (key.second == name) return true;
    }
    for (const auto& [key, kind] : families) {
      if (name.size() >= key.second.size() &&
          name.compare(0, key.second.size(), key.second) == 0) {
        return true;
      }
    }
    return false;
  }
};

struct SpanCatalog {
  std::set<std::string> names;
  std::set<std::string> prefixes;  // from "phase:" + expr sites

  [[nodiscard]] bool resolves(const std::string& name) const {
    if (names.count(name) != 0) return true;
    for (const std::string& p : prefixes) {
      if (name.size() >= p.size() && name.compare(0, p.size(), p) == 0) return true;
    }
    return false;
  }
};

/// Harvests `// concord-proto: cell <kind> <sub>/<name>[*] ...` declarations
/// (one kind, one or more cells per comment) into the catalog.
void harvest_cell_declarations(SourceFile& src, MetricCatalog& cat,
                               std::vector<std::string>& declared_subs) {
  constexpr std::string_view kMarker = "concord-proto: cell ";
  for (std::size_t ln = 1; ln < src.comments.size(); ++ln) {
    const std::string& cm = src.comments[ln];
    const std::size_t at = cm.find(kMarker);
    if (at == std::string::npos) continue;
    std::size_t i = at + kMarker.size();
    auto token = [&]() {
      while (i < cm.size() && cm[i] == ' ') ++i;
      const std::size_t b = i;
      while (i < cm.size() && cm[i] != ' ') ++i;
      return cm.substr(b, i - b);
    };
    const std::string kind = token();
    if (kind != "counter" && kind != "gauge" && kind != "histogram") continue;
    for (std::string t = token(); !t.empty(); t = token()) {
      const std::size_t slash = t.find('/');
      if (slash == std::string::npos) break;
      const std::string sub = t.substr(0, slash);
      std::string name = t.substr(slash + 1);
      declared_subs.push_back(sub);
      cat.subsystems.insert(sub);
      if (!name.empty() && name.back() == '*') {
        name.pop_back();
        cat.families.try_emplace({sub, name}, kind);
      } else {
        cat.cells.try_emplace({sub, name}, CellSite{kind, src.path, ln});
      }
    }
  }
}

void collect_cells(SourceFile& src, MetricCatalog& cat, std::vector<Finding>& out) {
  std::vector<std::string> declared_subs;
  harvest_cell_declarations(src, cat, declared_subs);
  const std::string& s = src.code_str;
  for (std::string_view kind : {"counter", "gauge", "histogram"}) {
    for (std::size_t at = s.find(kind); at != std::string::npos;
         at = s.find(kind, at + kind.size())) {
      if (!word_at(s, at, kind)) continue;
      std::size_t i = skip_ws_fwd(s, at + kind.size());
      if (i >= s.size() || s[i] != '(') continue;
      i = skip_ws_fwd(s, i + 1);
      std::string sub;
      std::size_t end = 0;
      if (!read_literal(s, i, sub, end)) continue;  // declaration / wrapper
      i = skip_ws_fwd(s, end);
      if (i >= s.size() || s[i] != ',') continue;
      i = skip_ws_fwd(s, i + 1);
      cat.subsystems.insert(sub);
      std::string name;
      if (read_literal(s, i, name, end)) {
        const std::size_t next = skip_ws_fwd(s, end);
        if (next < s.size() && s[next] == '+') {
          // "prefix." + expr — a whole family of cells.
          cat.families.try_emplace({sub, name}, std::string(kind));
          continue;
        }
        const auto [it, fresh] =
            cat.cells.try_emplace({sub, name}, CellSite{std::string(kind), src.path,
                                                        src.line_of(at)});
        if (!fresh && it->second.kind != kind) {
          report(src, at, Rule::kProtoMetric,
                 "metric " + sub + "/" + name + " created as " + std::string(kind) +
                     " here but as " + it->second.kind + " at " + it->second.path + ":" +
                     std::to_string(it->second.line) + "; the registry aborts on kind "
                     "clashes",
                 out);
        }
      } else {
        // Name computed at runtime: a literal scan cannot see the cells, so
        // the file must declare them.
        bool covered = false;
        for (const std::string& d : declared_subs) {
          if (d == sub) covered = true;
        }
        if (!covered) {
          report(src, at, Rule::kProtoMetric,
                 "metric cell in subsystem \"" + sub + "\" with a computed name; "
                     "declare the names with `// concord-proto: cell " +
                     std::string(kind) + " " + sub + "/<name>` so references can be "
                     "checked",
                 out);
        }
      }
    }
  }
}

void collect_spans(SourceFile& src, SpanCatalog& cat) {
  const std::string& s = src.code_str;
  for (std::string_view fn : {"begin_span", "begin_async"}) {
    for (std::size_t at = s.find(fn); at != std::string::npos;
         at = s.find(fn, at + fn.size())) {
      if (!word_at(s, at, fn)) continue;
      std::size_t i = skip_ws_fwd(s, at + fn.size());
      if (i >= s.size() || s[i] != '(') continue;
      i = skip_ws_fwd(s, i + 1);
      std::string name;
      std::size_t end = 0;
      if (!read_literal(s, i, name, end)) continue;  // declaration or computed
      const std::size_t next = skip_ws_fwd(s, end);
      if (next < s.size() && s[next] == '+') {
        cat.prefixes.insert(name);
      } else {
        cat.names.insert(name);
      }
    }
  }
}

void check_total_reads(SourceFile& src, const MetricCatalog& cat,
                       std::vector<Finding>& out) {
  const std::string& s = src.code_str;
  for (std::string_view fn : {"counter_total", "gauge_total"}) {
    const std::string kind(fn.substr(0, fn.find('_')));
    for (std::size_t at = s.find(fn); at != std::string::npos;
         at = s.find(fn, at + fn.size())) {
      if (!word_at(s, at, fn)) continue;
      std::size_t i = skip_ws_fwd(s, at + fn.size());
      if (i >= s.size() || s[i] != '(') continue;
      i = skip_ws_fwd(s, i + 1);
      std::string sub, name;
      std::size_t end = 0;
      if (!read_literal(s, i, sub, end)) continue;
      i = skip_ws_fwd(s, end);
      if (i >= s.size() || s[i] != ',') continue;
      i = skip_ws_fwd(s, i + 1);
      if (!read_literal(s, i, name, end)) continue;  // computed name — skip
      if (!cat.resolves(sub, name, kind)) {
        report(src, at, Rule::kProtoMetric,
               fn.data() + ("(\"" + sub + "\", \"" + name + "\") reads a metric no "
                            "code path creates; it always returns 0"),
               out);
      }
    }
  }
}

void check_name_comparisons(SourceFile& src, const MetricCatalog& metrics,
                            const SpanCatalog& spans, std::vector<Finding>& out) {
  const bool span_scope = path_matches(src.path, "obs/trace_analysis");
  const std::string& s = src.code_str;
  for (std::size_t at = s.find(".name"); at != std::string::npos;
       at = s.find(".name", at + 5)) {
    const std::size_t after = at + 5;
    if (after < s.size() && ident_char(s[after])) continue;
    std::size_t i = skip_ws_fwd(s, after);
    if (i + 1 >= s.size() || (s.compare(i, 2, "==") != 0 && s.compare(i, 2, "!=") != 0)) {
      continue;
    }
    i = skip_ws_fwd(s, i + 2);
    std::string name;
    std::size_t end = 0;
    if (!read_literal(s, i, name, end)) continue;
    if (span_scope) {
      if (!spans.resolves(name)) {
        report(src, i, Rule::kProtoMetric,
               "span name \"" + name + "\" is compared here but no begin_span/"
                   "begin_async emits it; this analysis arm is dead",
               out);
      }
    } else {
      if (!metrics.any_sub(name)) {
        report(src, i, Rule::kProtoMetric,
               "metric name \"" + name + "\" is compared here but no registry cell "
                   "carries it; this check is dead",
               out);
      }
    }
  }
}

void check_experiments(const std::string& md, SourceFile& anchor, const MetricCatalog& cat,
                       std::vector<Finding>& out) {
  // Metric tokens in EXPERIMENTS.md look like `sub/name` with a known
  // subsystem; file paths (`core/cost_model.hpp`) are excluded by extension.
  std::size_t line = 1;
  for (std::size_t i = 0; i < md.size(); ++i) {
    if (md[i] == '\n') {
      ++line;
      continue;
    }
    if (md[i] != '`') continue;
    const std::size_t close = md.find('`', i + 1);
    if (close == std::string::npos) break;
    const std::string tok = md.substr(i + 1, close - i - 1);
    i = close;
    const std::size_t slash = tok.find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 >= tok.size()) continue;
    const std::string sub = tok.substr(0, slash);
    std::string name = tok.substr(slash + 1);
    if (cat.subsystems.count(sub) == 0) continue;
    if (name.find('/') != std::string::npos) continue;  // deeper path, not a metric
    bool plausible = true;
    for (const char c : name) {
      if (!ident_char(c) && c != '.' && c != '*') plausible = false;
    }
    if (!plausible) continue;
    for (std::string_view ext : {".hpp", ".cpp", ".h", ".cc", ".md", ".json", ".txt",
                                 ".py"}) {
      if (name.size() > ext.size() &&
          name.compare(name.size() - ext.size(), ext.size(), ext) == 0) {
        plausible = false;
      }
    }
    if (!plausible) continue;
    if (!name.empty() && name.back() == '*') {
      name.pop_back();
      if (!name.empty() && name.back() == '.') name.pop_back();
      bool any = false;
      for (const auto& [key, site] : cat.cells) {
        if (key.first == sub && key.second.compare(0, name.size(), name) == 0) any = true;
      }
      for (const auto& [key, kind] : cat.families) {
        if (key.first == sub && (key.second.compare(0, name.size(), name) == 0 ||
                                 name.compare(0, key.second.size(), key.second) == 0)) {
          any = true;
        }
      }
      if (!any) {
        out.push_back({"EXPERIMENTS.md", line, 0, Rule::kProtoMetric,
                       "documented metric family `" + tok + "` matches no cell the "
                           "tree creates",
                       false, {}});
      }
      continue;
    }
    if (!cat.resolves(sub, name, "")) {
      out.push_back({"EXPERIMENTS.md", line, 0, Rule::kProtoMetric,
                     "documented metric `" + tok + "` names a cell no code path "
                         "creates; the doc has drifted from the tree",
                     false, {}});
    }
  }
  (void)anchor;
}

}  // namespace

void run_proto(const std::string& root, std::vector<Finding>& out,
               std::size_t& files_scanned) {
  ProtoTree tree;
  if (!load_tree(root, tree)) return;
  files_scanned = tree.files.size();
  if (tree.files.empty()) return;

  check_wire(tree, out);

  MetricCatalog metrics;
  SpanCatalog spans;
  std::vector<Finding> creation_findings;
  for (SourceFile& f : tree.files) {
    if (path_matches(f.path, "tests/")) continue;
    collect_cells(f, metrics, creation_findings);
    collect_spans(f, spans);
  }
  out.insert(out.end(), creation_findings.begin(), creation_findings.end());
  for (SourceFile& f : tree.files) {
    if (path_matches(f.path, "tests/")) continue;
    check_total_reads(f, metrics, out);
    check_name_comparisons(f, metrics, spans, out);
  }
  if (!tree.experiments.empty() && tree.message != nullptr) {
    check_experiments(tree.experiments, *tree.message, metrics, out);
  }
  for (const SourceFile& f : tree.files) {
    report_unused_suppressions(f, /*proto_mode=*/true, out);
  }
}

}  // namespace lint
