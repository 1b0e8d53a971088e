// paraio-lint: project-specific static analysis for the paraio tree.
//
// A deliberately small, token/heuristic-based linter (no libclang): it knows
// nothing about C++ semantics beyond comment/string stripping, balanced
// template arguments, and line structure, but that is enough to catch the
// bug classes that no compiler flag or runtime detector covers:
//
//   * determinism hazards  — iteration over unordered containers in
//     trace-affecting code, wall-clock reads, raw libc randomness,
//     pointer-keyed ordered containers;
//   * coroutine-lifetime hazards — captures in temporary coroutine lambdas,
//     stack-local addresses escaping into detached coroutines;
//   * swallowed I/O errors — a typed *Outcome result dropped on the floor;
//   * layering violations — a lower simulator layer including a higher one,
//     or apps reaching past the hw::Machine facade into device internals.
//
// The linter runs in two passes.  Pass 1 (index_project) gathers the few
// cross-file facts the checks need: container variables declared unordered
// anywhere (including through `using`/`typedef` aliases, resolved to a
// fixpoint) and every function returning an *Outcome type.  Pass 2
// (lint_file) runs the one-pass token checks over each file against that
// index, so a member declared unordered in a header is still recognized
// when its .cpp iterates it.
//
// Findings print in compiler format (`file:line:col: error: [id] message`)
// and can be suppressed per line with `// paraio-lint: allow(<id>[,<id>...])`.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace paraio::lint {

enum class Severity { kWarning, kError };

/// Process exit codes, stable across releases (documented in LINTING.md):
/// clean (0), findings/doc-drift (1), usage or internal error (2).
enum ExitCode : int {
  kExitClean = 0,
  kExitFindings = 1,
  kExitInternalError = 2,
};

/// One registered check.  Ids are stable and documented in docs/LINTING.md
/// (the `--check-docs` gate keeps the two in sync).
struct CheckInfo {
  const char* id;
  Severity severity;
  const char* summary;
  const char* detail;  // multi-sentence rationale, shown by `--explain <id>`
};

/// Catalog of every check the linter knows, in reporting order.
const std::vector<CheckInfo>& checks();

/// Catalog of every CLI flag the driver (main.cpp) parses, without the
/// `=value` suffix.  `--check-docs` holds docs/LINTING.md to this list the
/// same way it holds it to the check catalog, so a renamed or removed flag
/// cannot leave stale documentation behind.
const std::vector<const char*>& cli_flags();

/// Catalog entry for `id`, or nullptr for an unknown id.
const CheckInfo* find_check(std::string_view id);

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::size_t col = 0;   // 1-based; 0 when only the line is known
  const char* check = "";
  Severity severity = Severity::kError;
  std::string message;
  bool suppressed = false;  // inline `// paraio-lint: allow(...)`
};

/// One source file loaded into memory.
struct SourceFile {
  std::string path;     // as given on the command line (used in findings)
  std::string content;  // raw bytes
};

/// Cross-file facts gathered in a first pass over the whole input set.
struct ProjectIndex {
  /// Container variables (and type aliases, resolved to fixpoint) declared
  /// unordered anywhere, so a member declared in a header is recognized when
  /// its .cpp iterates it.
  std::set<std::string> unordered_names;

  /// Whole-program names of functions whose declared return type is (or
  /// wraps, as in sim::Task<io::IoOutcome>) an identifier ending in
  /// "Outcome" — the typed I/O error channel a call site must inspect.
  std::set<std::string> outcome_fns;
};

/// Pass 1: build the cross-file index.
ProjectIndex index_project(const std::vector<SourceFile>& files);

/// Pass 2: run every check over one file.  Returns every finding,
/// including suppressed ones (callers count them separately).
std::vector<Finding> lint_file(const SourceFile& file,
                               const ProjectIndex& index);

/// Collapses findings that share (check, file, line, col) — a header
/// linted through several translation units reports once.  Keeps the
/// first of each group (input order otherwise preserved); a suppressed
/// duplicate never shadows an active finding.
void dedupe_findings(std::vector<Finding>* findings);

/// The `--check-docs` two-way gate against an already-loaded document:
/// every catalog id must appear in `doc` as `` `id` `` and every
/// backticked token that looks like a check id must be in the catalog.
/// The CLI flag list (cli_flags()) is held to the same two-way contract.
/// Returns kExitClean or kExitFindings; drift details go to `err`.
int check_docs_text(const std::string& doc, const std::string& doc_name,
                    std::ostream& err);

/// Replaces comments, string literals, and char literals with spaces while
/// preserving line structure.  Exposed for tests.
std::string strip_comments_and_strings(const std::string& source);

}  // namespace paraio::lint
