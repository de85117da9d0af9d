#ifndef FREQYWM_TOOLS_WMLINT_CHECKS_H_
#define FREQYWM_TOOLS_WMLINT_CHECKS_H_

#include <string>
#include <vector>

#include "wmlint/config.h"
#include "wmlint/finding.h"
#include "wmlint/lexer.h"

namespace wmlint {

/// The six project-invariant checks (DESIGN.md §12). Each takes the
/// lexed tree, claims entries from its allowlist if it has one (the
/// driver reports stale entries afterwards), and appends findings.

/// layers: every first-party `#include` in src/ + bench/ must follow an
/// edge of the layer DAG in layers.txt. Angled includes and same-
/// directory includes (no '/') are out of scope; `forbid` edges beat
/// everything; unused `allow` edges are reported stale by the config.
void CheckLayers(const std::vector<LexedFile>& code, LayerConfig* layers,
                 std::vector<Finding>* findings);

/// guarded_by: a class owning a `Mutex` must annotate every mutable
/// member with GUARDED_BY/PT_GUARDED_BY, or allowlist it
/// (`file:Class::member`). Exempt by construction: the Mutex/CondVar
/// members themselves, `std::atomic` members (self-synchronizing),
/// `const` non-pointer members, and static/constexpr/using/typedef/
/// friend/enum/function declarations.
void CheckGuardedBy(const std::vector<LexedFile>& code, Allowlist* allow,
                    std::vector<Finding>* findings);

/// determinism: token-level port of tools/lint_determinism.py over
/// src/core, src/exec, src/api — banned ambient-nondeterminism tokens
/// (rand/srand, std::random_device, time/clock/gettimeofday, chrono
/// clocks), range-for over unordered containers declared in the same
/// file, plus one new rule the regex lint could not express:
/// pointer-keyed std::map/set (iteration order = allocation order).
void CheckDeterminism(const std::vector<LexedFile>& code, Allowlist* allow,
                      std::vector<Finding>* findings);

/// oracle: every function overload taking `ExecContext` declared in a
/// src/ header must have a discoverable serial oracle — a
/// `<Name>Reference` sibling or a serial overload of the same name —
/// and that oracle must be referenced from at least one test under
/// tests/ (identity tests are the repo's correctness spine; an
/// unreferenced oracle proves nothing). Allowlist key: function name.
void CheckOracle(const std::vector<LexedFile>& code,
                 const std::vector<LexedFile>& tests, Allowlist* allow,
                 std::vector<Finding>* findings);

/// identity_gate: every bench/bench_*.cc that emits a BENCH_*.json
/// artifact must run its optimized-vs-reference comparisons through the
/// shared `IdentityGate` helper in bench_common.h, so CI's "fail on
/// identity mismatch, never on timing" policy has one auditable
/// implementation. Allowlist key: file path.
void CheckIdentityGate(const std::vector<LexedFile>& code, Allowlist* allow,
                       std::vector<Finding>* findings);

/// number_parse: outside text becomes a number only through
/// common/string_util's `ParseU64` / `ParseFiniteDouble` (DESIGN.md §11).
/// Flags every call to the `sto*` / `strto*` / `ato*` family in src/
/// except src/common/string_util.cc, which holds the one parser; member
/// calls (`x.stoi(`, `p->atol(`) are not that family. No allowlist.
void CheckNumberParse(const std::vector<LexedFile>& code,
                      std::vector<Finding>* findings);

}  // namespace wmlint

#endif  // FREQYWM_TOOLS_WMLINT_CHECKS_H_
