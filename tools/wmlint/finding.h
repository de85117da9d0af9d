#ifndef FREQYWM_TOOLS_WMLINT_FINDING_H_
#define FREQYWM_TOOLS_WMLINT_FINDING_H_

#include <string>
#include <vector>

namespace wmlint {

/// One analyzer finding. Emitted as human text
/// (`file:line: [check] message`) and as one JSON object; see
/// DESIGN.md §12.
struct Finding {
  /// Which check produced it: "layers", "guarded_by", "determinism",
  /// "oracle", "identity_gate", "number_parse" — or "config" for
  /// malformed / stale config and allowlist files (config findings are
  /// never allowlistable).
  std::string check;
  /// Repo-relative path with forward slashes; for config findings, the
  /// config file itself.
  std::string file;
  int line = 0;  // 1-based; 0 when no single line applies
  /// Allowlist key the finding can be suppressed under, or "" when the
  /// finding is not suppressible (config errors, stale entries).
  std::string key;
  std::string message;
};

/// Stable order for reports: by file, then line, then check, then key.
bool FindingLess(const Finding& a, const Finding& b);

}  // namespace wmlint

#endif  // FREQYWM_TOOLS_WMLINT_FINDING_H_
