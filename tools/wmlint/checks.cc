#include "wmlint/checks.h"

#include <map>
#include <set>

namespace wmlint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Layer of a scanned file: "src/<layer>/..." -> <layer>,
/// "bench/..." -> "bench"; "" when the file is outside the layered tree.
std::string FileLayer(const std::string& path) {
  if (StartsWith(path, "src/")) {
    size_t slash = path.find('/', 4);
    if (slash != std::string::npos) return path.substr(4, slash - 4);
    return "";
  }
  if (StartsWith(path, "bench/")) return "bench";
  return "";
}

}  // namespace

// --------------------------------------------------------------- layers

void CheckLayers(const std::vector<LexedFile>& code, LayerConfig* layers,
                 std::vector<Finding>* findings) {
  if (!layers->loaded()) {
    findings->push_back({"config", layers->path(), 0, "",
                         "layers.txt missing — the layering check cannot "
                         "run without its edge config"});
    return;
  }
  for (const LexedFile& file : code) {
    const std::string from = FileLayer(file.path);
    if (from.empty()) continue;
    for (const IncludeDirective& inc : file.includes) {
      if (inc.angled) continue;  // system headers are out of scope
      size_t slash = inc.path.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      const std::string to = inc.path.substr(0, slash);
      std::string verdict = layers->JudgeEdge(from, to);
      if (!verdict.empty()) {
        findings->push_back({"layers", file.path, inc.line,
                             from + "->" + to,
                             "#include \"" + inc.path + "\": " + verdict});
      }
    }
  }
}

// ----------------------------------------------------------- guarded_by

namespace {

/// One member-declaration statement collected from a class body.
struct MemberStmt {
  std::vector<Token> toks;
  int line = 0;
};

size_t SkipBalanced(const std::vector<Token>& toks, size_t open,
                    const char* open_text, const char* close_text) {
  int depth = 0;
  size_t i = open;
  for (; i < toks.size(); ++i) {
    if (IsPunct(toks[i], open_text)) ++depth;
    if (IsPunct(toks[i], close_text) && --depth == 0) return i + 1;
  }
  return i;
}

bool StatementContainsIdent(const MemberStmt& stmt, const char* name) {
  for (const Token& t : stmt.toks) {
    if (IsIdent(t, name)) return true;
  }
  return false;
}

/// True when the statement declares a function (callable, not state):
/// an open paren at top level — outside template angles — with no `=`
/// before it, i.e. `Status Foo(...)` but not `int x_ = Init();`.
bool LooksLikeFunction(const MemberStmt& stmt) {
  int angle = 0;
  bool saw_eq = false;
  for (size_t i = 0; i < stmt.toks.size(); ++i) {
    const Token& t = stmt.toks[i];
    if (IsPunct(t, "<") && i > 0 &&
        stmt.toks[i - 1].kind == TokKind::kIdentifier) {
      ++angle;
    } else if (IsPunct(t, ">") && angle > 0) {
      --angle;
    } else if (IsPunct(t, "=") && angle == 0) {
      saw_eq = true;
    } else if (IsPunct(t, "(") && angle == 0) {
      return !saw_eq;
    }
  }
  return false;
}

/// Declared name of a member statement: the last identifier before the
/// first top-level `=`, `{` or `[` (the initializer / array bound), or
/// the last identifier overall (`std::vector<int> rows_`).
std::string MemberName(const MemberStmt& stmt) {
  int angle = 0;
  std::string name;
  for (size_t i = 0; i < stmt.toks.size(); ++i) {
    const Token& t = stmt.toks[i];
    if (IsPunct(t, "<") && i > 0 &&
        stmt.toks[i - 1].kind == TokKind::kIdentifier) {
      ++angle;
      continue;
    }
    if (IsPunct(t, ">") && angle > 0) {
      --angle;
      continue;
    }
    if (angle > 0) continue;
    if (IsPunct(t, "=") || IsPunct(t, "{") || IsPunct(t, "[")) break;
    if (t.kind == TokKind::kIdentifier) name = t.text;
  }
  return name;
}

const std::set<std::string>& ExemptLeaders() {
  static const std::set<std::string> kLeaders = {
      "static", "constexpr", "using",  "typedef", "friend",
      "enum",   "class",     "struct", "union",   "template",
      "public", "private",   "protected"};
  return kLeaders;
}

/// Parses one class body starting at the `{` at `open`; returns the
/// index just past the matching `}`. Emits findings for mutable
/// unannotated members when the class owns a Mutex.
size_t AuditClassBody(const LexedFile& file, const std::string& class_name,
                      size_t open, Allowlist* allow,
                      std::vector<Finding>* findings);

/// Starting at a `class`/`struct` keyword at `i`, finds the class name
/// and body. Returns the index to resume scanning from; sets *name and
/// *body_open (npos when this is not a definition: forward declaration,
/// template parameter, base-clause-less alias...).
size_t ScanClassHead(const std::vector<Token>& toks, size_t i,
                     std::string* name, size_t* body_open) {
  *body_open = std::string::npos;
  name->clear();
  bool in_base_clause = false;
  size_t j = i + 1;
  for (; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (IsPunct(t, "(")) {  // attribute macro: class CAPABILITY("m") X {
      j = SkipBalanced(toks, j, "(", ")") - 1;
      continue;
    }
    if (IsPunct(t, ":")) {
      in_base_clause = true;
      continue;
    }
    if (IsPunct(t, "{")) {
      *body_open = j;
      return j;
    }
    if (t.kind == TokKind::kPunct &&
        (t.text == ";" || t.text == "," || t.text == ">" || t.text == ")" ||
         t.text == "=")) {
      return j;  // forward decl / template parameter / alias
    }
    if (IsIdent(t, "class") || IsIdent(t, "struct")) {
      return j - 1;  // template<class T> class Foo — restart from here
    }
    if (t.kind == TokKind::kIdentifier && !in_base_clause &&
        t.text != "final" && t.text != "alignas") {
      *name = t.text;
    }
  }
  return j;
}

size_t AuditClassBody(const LexedFile& file, const std::string& class_name,
                      size_t open, Allowlist* allow,
                      std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.tokens;
  bool owns_mutex = false;
  std::vector<MemberStmt> pending;  // mutable members awaiting the verdict

  MemberStmt cur;
  int paren = 0;
  size_t i = open + 1;
  auto flush = [&]() {
    if (cur.toks.empty()) return;
    const std::string& lead = cur.toks[0].text;
    bool exempt_leader = cur.toks[0].kind == TokKind::kIdentifier &&
                         ExemptLeaders().count(lead) != 0;
    bool is_function = LooksLikeFunction(cur) ||
                       StatementContainsIdent(cur, "operator");
    bool is_lock = StatementContainsIdent(cur, "Mutex") ||
                   StatementContainsIdent(cur, "CondVar");
    if (!exempt_leader && !is_function &&
        StatementContainsIdent(cur, "Mutex")) {
      owns_mutex = true;
    }
    bool annotated = StatementContainsIdent(cur, "GUARDED_BY") ||
                     StatementContainsIdent(cur, "PT_GUARDED_BY");
    bool is_atomic = StatementContainsIdent(cur, "atomic");
    bool const_value = cur.toks[0].kind == TokKind::kIdentifier &&
                       lead == "const";
    if (const_value) {
      for (const Token& t : cur.toks) {
        if (IsPunct(t, "*")) const_value = false;
      }
    }
    if (!exempt_leader && !annotated && !is_lock && !is_atomic &&
        !const_value && !is_function) {
      pending.push_back(cur);
    }
    cur = MemberStmt{};
  };

  while (i < toks.size()) {
    const Token& t = toks[i];
    if (IsPunct(t, "(")) ++paren;
    if (IsPunct(t, ")") && paren > 0) --paren;

    if (paren == 0 && IsPunct(t, "}")) {
      ++i;
      break;  // end of this class body
    }
    // Access specifiers reset the statement.
    if (paren == 0 && cur.toks.empty() && t.kind == TokKind::kIdentifier &&
        (t.text == "public" || t.text == "private" || t.text == "protected") &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], ":")) {
      i += 2;
      continue;
    }
    // Nested class/struct definition at statement start: recurse with
    // a qualified name. `friend class X;` / `enum class K {...};` have
    // a non-empty statement here and fall through as exempt leaders.
    if (paren == 0 && cur.toks.empty() &&
        (IsIdent(t, "class") || IsIdent(t, "struct"))) {
      std::string nested;
      size_t body = std::string::npos;
      size_t resume = ScanClassHead(toks, i, &nested, &body);
      if (body != std::string::npos) {
        std::string qualified =
            class_name.empty() ? nested : class_name + "::" + nested;
        i = AuditClassBody(file, qualified, body, allow, findings);
        // Consume the trailing `;` (and any declarator — none in this
        // codebase) of the nested definition.
        while (i < toks.size() && !IsPunct(toks[i], ";")) ++i;
        if (i < toks.size()) ++i;
        cur = MemberStmt{};
        continue;
      }
      // Forward declaration: resume lands on its `;` (or other
      // terminator), which flushes the empty statement harmlessly.
      i = resume;
      continue;
    }
    if (paren == 0 && IsPunct(t, ";")) {
      flush();
      ++i;
      continue;
    }
    if (paren == 0 && IsPunct(t, "{")) {
      // Function body vs brace initializer: a `;` right after the
      // balanced braces means the braces belonged to the statement
      // (member brace-init); anything else was a definition body.
      size_t after = SkipBalanced(toks, i, "{", "}");
      if (after < toks.size() && IsPunct(toks[after], ";") &&
          !LooksLikeFunction(cur)) {
        cur.toks.push_back(t);  // keep `{` so MemberName stops at it
        flush();
      } else {
        cur = MemberStmt{};
      }
      i = after;
      if (i < toks.size() && IsPunct(toks[i], ";")) ++i;
      continue;
    }
    if (cur.toks.empty()) cur.line = t.line;
    cur.toks.push_back(t);
    ++i;
  }

  if (owns_mutex) {
    for (const MemberStmt& stmt : pending) {
      std::string member = MemberName(stmt);
      if (member.empty()) continue;
      std::string key = file.path + ":" + class_name + "::" + member;
      if (allow->Claim(key)) continue;
      findings->push_back(
          {"guarded_by", file.path, stmt.line, key,
           "class " + class_name + " owns a Mutex but member '" + member +
               "' is neither GUARDED_BY-annotated nor allowlisted — "
               "annotate it, or allowlist with a rationale"});
    }
  }
  return i;
}

}  // namespace

void CheckGuardedBy(const std::vector<LexedFile>& code, Allowlist* allow,
                    std::vector<Finding>* findings) {
  for (const LexedFile& file : code) {
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (!(IsIdent(toks[i], "class") || IsIdent(toks[i], "struct"))) {
        continue;
      }
      if (i > 0 && (IsIdent(toks[i - 1], "enum") ||
                    IsIdent(toks[i - 1], "friend"))) {
        continue;
      }
      std::string name;
      size_t body = std::string::npos;
      size_t resume = ScanClassHead(toks, i, &name, &body);
      if (body != std::string::npos) {
        i = AuditClassBody(file, name, body, allow, findings) - 1;
      } else {
        i = resume;
      }
    }
  }
}

// ---------------------------------------------------------- determinism

namespace {

bool InDeterminismScope(const std::string& path) {
  return StartsWith(path, "src/core/") || StartsWith(path, "src/exec/") ||
         StartsWith(path, "src/api/");
}

/// Mirrors lint_determinism.py's `(?<![\w:.])`: the call is not a
/// member/qualified access like foo.time(, x->time( or my::time(.
bool PlainCall(const std::vector<Token>& toks, size_t i) {
  if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) return false;
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  return !(IsPunct(prev, "::") || IsPunct(prev, ".") || IsPunct(prev, "->"));
}

void Report(const LexedFile& file, int line, const std::string& token,
            const std::string& reason, Allowlist* allow,
            std::vector<Finding>* findings) {
  std::string key = file.path + ":" + token;
  if (allow->Claim(key)) return;
  findings->push_back({"determinism", file.path, line, key,
                       "banned token '" + token + "' (" + reason + ")"});
}

}  // namespace

void CheckDeterminism(const std::vector<LexedFile>& code, Allowlist* allow,
                      std::vector<Finding>* findings) {
  for (const LexedFile& file : code) {
    if (!InDeterminismScope(file.path)) continue;
    const std::vector<Token>& toks = file.tokens;

    // Pass 1: declared unordered containers (per file, like the python
    // lint: declaration and loop may be far apart but same file).
    std::set<std::string> hash_ordered;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!(IsIdent(toks[i], "unordered_map") ||
            IsIdent(toks[i], "unordered_set"))) {
        continue;
      }
      if (!IsPunct(toks[i + 1], "<")) continue;
      size_t j = i + 1;
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (IsPunct(toks[j], "<")) ++depth;
        if (IsPunct(toks[j], ">") && --depth == 0) break;
      }
      if (j >= toks.size()) continue;
      size_t k = j + 1;
      if (k < toks.size() && IsPunct(toks[k], "&")) ++k;
      if (k + 1 < toks.size() && toks[k].kind == TokKind::kIdentifier &&
          toks[k + 1].kind == TokKind::kPunct &&
          (toks[k + 1].text == ";" || toks[k + 1].text == "=" ||
           toks[k + 1].text == "{" || toks[k + 1].text == "(")) {
        hash_ordered.insert(toks[k].text);
      }
    }

    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier) continue;

      if ((t.text == "rand" || t.text == "srand") && PlainCall(toks, i)) {
        Report(file, t.line, "rand",
               "global C RNG; use a seeded common/random.h Rng", allow,
               findings);
      } else if ((t.text == "time" || t.text == "clock" ||
                  t.text == "gettimeofday") &&
                 PlainCall(toks, i)) {
        Report(file, t.line, "time",
               "wall/CPU clock in a result-producing layer", allow,
               findings);
      } else if (t.text == "random_device" && i >= 2 &&
                 IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std")) {
        Report(file, t.line, "random_device",
               "hardware entropy; results must derive from the key", allow,
               findings);
      } else if (t.text == "chrono" && i >= 2 && i + 2 < toks.size() &&
                 IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2], "std") &&
                 IsPunct(toks[i + 1], "::") &&
                 (IsIdent(toks[i + 2], "system_clock") ||
                  IsIdent(toks[i + 2], "steady_clock") ||
                  IsIdent(toks[i + 2], "high_resolution_clock"))) {
        Report(file, t.line, "chrono_clock",
               "clock reads must never steer results (timing lives in "
               "bench/)",
               allow, findings);
      } else if ((t.text == "map" || t.text == "set" ||
                  t.text == "multimap" || t.text == "multiset") &&
                 i >= 2 && IsPunct(toks[i - 1], "::") &&
                 IsIdent(toks[i - 2], "std") && i + 1 < toks.size() &&
                 IsPunct(toks[i + 1], "<")) {
        // New rule (impossible for the regex lint): pointer-keyed
        // ordered containers — iteration order is the allocator's.
        size_t j = i + 2;
        int depth = 1;
        size_t last_meaningful = 0;
        for (; j < toks.size(); ++j) {
          if (IsPunct(toks[j], "<")) ++depth;
          if (IsPunct(toks[j], ">") && --depth == 0) break;
          if (IsPunct(toks[j], ",") && depth == 1) break;
          last_meaningful = j;
        }
        if (last_meaningful != 0 && IsPunct(toks[last_meaningful], "*")) {
          Report(file, t.line, "pointer_key",
                 "pointer-keyed std::" + t.text +
                     " — iteration order follows allocation addresses, "
                     "which vary run to run; key by a stable id",
                 allow, findings);
        }
      } else if (t.text == "for" && PlainCall(toks, i)) {
        // Range-for over a hash-ordered container declared in this file.
        size_t close = SkipBalanced(toks, i + 1, "(", ")");
        if (close == 0 || close - 1 >= toks.size()) continue;
        size_t end = close - 1;  // the ')'
        bool plain_for = false;
        size_t colon = 0;
        int depth = 0;
        for (size_t j = i + 2; j < end; ++j) {
          if (IsPunct(toks[j], "(")) ++depth;
          if (IsPunct(toks[j], ")")) --depth;
          if (depth == 0 && IsPunct(toks[j], ";")) plain_for = true;
          if (depth == 0 && IsPunct(toks[j], ":") && colon == 0) colon = j;
        }
        if (plain_for || colon == 0) continue;
        // Range expression must be (*|&)* <ident> — exactly like the
        // python lint, which only matched bare variables.
        size_t j = colon + 1;
        while (j < end && (IsPunct(toks[j], "*") || IsPunct(toks[j], "&"))) {
          ++j;
        }
        if (j + 1 != end || toks[j].kind != TokKind::kIdentifier) continue;
        const std::string& var = toks[j].text;
        if (!hash_ordered.count(var)) continue;
        std::string key = file.path + ":" + var;
        if (allow->Claim(key)) continue;
        findings->push_back(
            {"determinism", file.path, toks[j].line, key,
             "range-for over hash-ordered '" + var +
                 "' — iteration order may leak into output; sort, or "
                 "allowlist with a justification"});
      }
    }
  }
}

// --------------------------------------------------------------- oracle

namespace {

/// A candidate function declaration `Name(...)` in a header: the token
/// before the name must read like the end of a return type (identifier,
/// `>`, `*`, `&`) and not like a call site (`return x`, `= f(...)`,
/// `obj.f(`, `ns::f(`).
bool LooksLikeDeclaration(const std::vector<Token>& toks, size_t i) {
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (prev.kind == TokKind::kIdentifier) {
    return prev.text != "return" && prev.text != "new" &&
           prev.text != "throw" && prev.text != "else" &&
           prev.text != "case" && prev.text != "co_return" &&
           prev.text != "operator" && prev.text != "goto";
  }
  return IsPunct(prev, ">") || IsPunct(prev, "*") || IsPunct(prev, "&");
}

}  // namespace

void CheckOracle(const std::vector<LexedFile>& code,
                 const std::vector<LexedFile>& tests, Allowlist* allow,
                 std::vector<Finding>* findings) {
  struct DeclSite {
    std::string file;
    int line = 0;
  };
  // name -> first ExecContext-taking declaration site
  std::map<std::string, DeclSite> exec_decls;
  std::set<std::string> all_decls;     // every declared name
  std::set<std::string> serial_decls;  // names with a non-exec overload

  for (const LexedFile& file : code) {
    if (!StartsWith(file.path, "src/") || !EndsWith(file.path, ".h")) {
      continue;
    }
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier ||
          !IsPunct(toks[i + 1], "(") || !LooksLikeDeclaration(toks, i)) {
        continue;
      }
      size_t close = SkipBalanced(toks, i + 1, "(", ")");
      bool takes_exec = false;
      // `const ExecContext& exec = ExecContext{}`: calling without the
      // argument is the serial overload, so the declaration is both.
      bool exec_defaulted = false;
      bool in_exec_param = false;
      for (size_t j = i + 2; j + 1 < close; ++j) {
        if (IsIdent(toks[j], "ExecContext")) {
          takes_exec = in_exec_param = true;
        } else if (IsPunct(toks[j], ",")) {
          in_exec_param = false;
        } else if (in_exec_param && IsPunct(toks[j], "=")) {
          exec_defaulted = true;
        }
      }
      all_decls.insert(toks[i].text);
      if (takes_exec) {
        exec_decls.emplace(toks[i].text, DeclSite{file.path, toks[i].line});
      }
      if (!takes_exec || exec_defaulted) serial_decls.insert(toks[i].text);
    }
  }

  // Identifier universe of tests/ — an oracle must be exercised there.
  std::set<std::string> test_idents;
  for (const LexedFile& file : tests) {
    for (const Token& t : file.tokens) {
      if (t.kind == TokKind::kIdentifier) test_idents.insert(t.text);
    }
  }

  for (const auto& [name, site] : exec_decls) {
    std::string sibling;
    if (all_decls.count(name + "Reference")) {
      sibling = name + "Reference";
    } else if (serial_decls.count(name)) {
      sibling = name;  // serial overload is the oracle
    }
    if (sibling.empty()) {
      if (allow->Claim(name)) continue;
      findings->push_back(
          {"oracle", site.file, site.line, name,
           "'" + name + "' takes ExecContext but has no '" + name +
               "Reference' sibling and no serial overload — every "
               "parallel path needs a serial oracle (DESIGN.md §12)"});
      continue;
    }
    if (!test_idents.count(sibling)) {
      if (allow->Claim(name)) continue;
      findings->push_back(
          {"oracle", site.file, site.line, name,
           "oracle '" + sibling + "' for '" + name +
               "' is never referenced from tests/ — an unexercised "
               "oracle proves nothing; add an identity test"});
    }
  }
}

// -------------------------------------------------------- identity_gate

void CheckIdentityGate(const std::vector<LexedFile>& code, Allowlist* allow,
                       std::vector<Finding>* findings) {
  for (const LexedFile& file : code) {
    const std::string& p = file.path;
    if (!StartsWith(p, "bench/bench_") || !EndsWith(p, ".cc")) continue;
    bool emits_bench_json = false;
    bool uses_gate = false;
    for (const Token& t : file.tokens) {
      if (t.kind == TokKind::kString &&
          t.text.find("BENCH_") != std::string::npos &&
          t.text.find(".json") != std::string::npos) {
        emits_bench_json = true;
      }
      if (IsIdent(t, "IdentityGate")) uses_gate = true;
    }
    if (emits_bench_json && !uses_gate) {
      if (allow->Claim(p)) continue;
      findings->push_back(
          {"identity_gate", p, 0, p,
           "emits a BENCH_*.json artifact but never runs IdentityGate "
           "(bench_common.h) — CI's fail-on-mismatch policy needs one "
           "auditable gate"});
    }
  }
}

// --------------------------------------------------------- number_parse

void CheckNumberParse(const std::vector<LexedFile>& code,
                      std::vector<Finding>* findings) {
  // The C/C++ string-to-number family, space-delimited.
  static const std::string kFamily =
      " stoi stol stoll stoul stoull stof stod stold strtol strtoll strtoul"
      " strtoull strtof strtod strtold strtoimax strtoumax atoi atol atoll"
      " atof ";
  for (const LexedFile& file : code) {
    if (!StartsWith(file.path, "src/") ||
        file.path == "src/common/string_util.cc") {
      continue;
    }
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdentifier ||
          kFamily.find(" " + t.text + " ") == std::string::npos ||
          !IsPunct(toks[i + 1], "(")) {
        continue;
      }
      if (i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
        continue;
      }
      findings->push_back(
          {"number_parse", file.path, t.line, file.path + ":" + t.text,
           "'" + t.text + "' parses outside text by hand — use ParseU64 / "
           "ParseFiniteDouble (common/string_util.h), the one parser that "
           "rejects signs, partial tokens, overflow and non-finite values"});
    }
  }
}

}  // namespace wmlint
