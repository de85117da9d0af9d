#include "wmlint/wmlint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "wmlint/checks.h"
#include "wmlint/config.h"
#include "wmlint/lexer.h"

namespace fs = std::filesystem;

namespace wmlint {

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Repo-relative forward-slash path of `p` under `root`; falls back to
/// the generic (already forward-slash) form when not under root.
std::string RelPath(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty()) return p.generic_string();
  return rel.generic_string();
}

bool IsSourceFile(const fs::path& p) {
  return p.extension() == ".h" || p.extension() == ".cc";
}

/// All .h/.cc files under root/<dir>, lexed, sorted by repo-relative
/// path so reports (and stale-entry claims) are byte-stable.
void LexTree(const fs::path& root, const std::string& dir,
             std::vector<LexedFile>* out, std::vector<Finding>* findings) {
  fs::path base = root / dir;
  std::error_code ec;
  if (!fs::is_directory(base, ec)) return;
  std::vector<fs::path> paths;
  for (const auto& entry :
       fs::recursive_directory_iterator(base, ec)) {
    if (entry.is_regular_file() && IsSourceFile(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::string rel = RelPath(root, p);
    std::string content;
    if (!ReadFile(p, &content)) {
      findings->push_back({"config", rel, 0, "", "unreadable file"});
      continue;
    }
    out->push_back(LexSource(rel, content));
  }
}

bool CheckEnabled(const std::vector<std::string>& selected,
                  const std::string& name) {
  return selected.empty() ||
         std::find(selected.begin(), selected.end(), name) != selected.end();
}

/// Loads an allowlist from <config_dir>/<name>; missing file == empty
/// allowlist (checks that need no exceptions need no file).
Allowlist LoadAllowlist(const fs::path& root, const fs::path& config_dir,
                        const std::string& name,
                        std::vector<Finding>* findings) {
  fs::path p = config_dir / name;
  std::string content;
  std::error_code ec;
  if (fs::exists(p, ec)) ReadFile(p, &content);
  return Allowlist::Parse(RelPath(root, p), content, findings);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& AllCheckNames() {
  static const std::vector<std::string> kNames = {
      "layers", "guarded_by", "determinism", "oracle", "identity_gate",
      "number_parse"};
  return kNames;
}

RunResult Run(const RunOptions& options) {
  RunResult result;
  fs::path root(options.root.empty() ? "." : options.root);
  fs::path config_dir(options.config_dir.empty()
                          ? (root / "tools" / "wmlint")
                          : fs::path(options.config_dir));
  for (const std::string& name : AllCheckNames()) {
    if (CheckEnabled(options.checks, name)) result.checks_run.push_back(name);
  }

  std::vector<LexedFile> code;
  std::vector<LexedFile> tests;
  LexTree(root, "src", &code, &result.findings);
  LexTree(root, "bench", &code, &result.findings);
  LexTree(root, "tests", &tests, &result.findings);
  result.files_scanned = code.size() + tests.size();

  if (CheckEnabled(options.checks, "layers")) {
    fs::path p = config_dir / "layers.txt";
    LayerConfig layers;
    std::string content;
    std::error_code ec;
    if (fs::exists(p, ec) && ReadFile(p, &content)) {
      layers = LayerConfig::Parse(RelPath(root, p), content,
                                  &result.findings);
    } else {
      layers = LayerConfig();  // loaded() == false -> config finding
      // Parse was never run; give the missing-file finding a path.
      result.findings.push_back(
          {"config", RelPath(root, p), 0, "",
           "layers.txt missing — the layering check cannot run"});
    }
    if (layers.loaded()) {
      CheckLayers(code, &layers, &result.findings);
      layers.ReportStale(&result.findings);
    }
  }
  if (CheckEnabled(options.checks, "guarded_by")) {
    Allowlist allow = LoadAllowlist(root, config_dir,
                                    "guarded_by_allowlist.txt",
                                    &result.findings);
    CheckGuardedBy(code, &allow, &result.findings);
    allow.ReportStale(&result.findings);
  }
  if (CheckEnabled(options.checks, "determinism")) {
    Allowlist allow = LoadAllowlist(root, config_dir,
                                    "determinism_allowlist.txt",
                                    &result.findings);
    CheckDeterminism(code, &allow, &result.findings);
    allow.ReportStale(&result.findings);
  }
  if (CheckEnabled(options.checks, "oracle")) {
    Allowlist allow = LoadAllowlist(root, config_dir,
                                    "oracle_allowlist.txt",
                                    &result.findings);
    CheckOracle(code, tests, &allow, &result.findings);
    allow.ReportStale(&result.findings);
  }
  if (CheckEnabled(options.checks, "identity_gate")) {
    Allowlist allow = LoadAllowlist(root, config_dir,
                                    "identity_gate_allowlist.txt",
                                    &result.findings);
    CheckIdentityGate(code, &allow, &result.findings);
    allow.ReportStale(&result.findings);
  }
  if (CheckEnabled(options.checks, "number_parse")) {
    CheckNumberParse(code, &result.findings);
  }

  std::sort(result.findings.begin(), result.findings.end(), FindingLess);
  return result;
}

std::string RenderText(const RunResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    out << f.file;
    if (f.line > 0) out << ":" << f.line;
    out << ": [" << f.check << "] " << f.message << "\n";
  }
  if (result.findings.empty()) {
    out << "wmlint: OK (" << result.files_scanned << " files; checks:";
    for (const std::string& c : result.checks_run) out << " " << c;
    out << ")\n";
  } else {
    out << "wmlint: FAIL (" << result.findings.size() << " finding(s))\n";
  }
  return out.str();
}

std::string RenderJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\n  \"status\": \""
      << (result.findings.empty() ? "ok" : "fail") << "\",\n"
      << "  \"files_scanned\": " << result.files_scanned << ",\n"
      << "  \"checks\": [";
  for (size_t i = 0; i < result.checks_run.size(); ++i) {
    out << (i ? ", " : "") << "\"" << JsonEscape(result.checks_run[i])
        << "\"";
  }
  out << "],\n  \"findings\": [";
  for (size_t i = 0; i < result.findings.size(); ++i) {
    const Finding& f = result.findings[i];
    out << (i ? "," : "") << "\n    {\"check\": \"" << JsonEscape(f.check)
        << "\", \"file\": \"" << JsonEscape(f.file)
        << "\", \"line\": " << f.line << ", \"key\": \""
        << JsonEscape(f.key) << "\", \"message\": \""
        << JsonEscape(f.message) << "\"}";
  }
  if (!result.findings.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

}  // namespace wmlint
