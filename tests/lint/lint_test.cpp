// Unit tests for the paraio-lint check implementations.  Each seeded fixture
// under tests/lint/fixtures/ carries a known number of violations per check
// id (plus one suppressed instance), and clean.cc must produce none.
#include "paraio_lint/lint.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using paraio::lint::Finding;
using paraio::lint::ProjectIndex;
using paraio::lint::Severity;
using paraio::lint::SourceFile;

SourceFile load_fixture(const std::string& relative) {
  const std::string path =
      std::string(PARAIO_LINT_FIXTURE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return SourceFile{path, buffer.str()};
}

struct Tally {
  int active = 0;
  int suppressed = 0;
};

Tally tally(const std::vector<Finding>& findings, const std::string& check) {
  Tally t;
  for (const auto& f : findings) {
    if (check != f.check) continue;
    (f.suppressed ? t.suppressed : t.active)++;
  }
  return t;
}

std::vector<Finding> lint_fixture(const std::string& relative) {
  const SourceFile file = load_fixture(relative);
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  return paraio::lint::lint_file(file, index);
}

TEST(LintFixtures, UnorderedIterSeededCounts) {
  const auto findings = lint_fixture("unordered_iter.cc");
  const Tally t = tally(findings, "unordered-iter");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, WallClockSeededCounts) {
  const auto findings = lint_fixture("wall_clock.cc");
  const Tally t = tally(findings, "wall-clock");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, RawRandomSeededCounts) {
  const auto findings = lint_fixture("raw_random.cc");
  const Tally t = tally(findings, "raw-random");
  EXPECT_EQ(t.active, 3);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, PtrKeyOrderSeededCounts) {
  const auto findings = lint_fixture("ptr_key.cc");
  const Tally t = tally(findings, "ptr-key-order");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
  for (const auto& f : findings) {
    if (std::string("ptr-key-order") == f.check) {
      EXPECT_EQ(f.severity, Severity::kWarning);
    }
  }
}

TEST(LintFixtures, CoroLambdaCaptureSeededCounts) {
  const auto findings = lint_fixture("coro_capture.cc");
  const Tally t = tally(findings, "coro-lambda-capture");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, SwallowedIoErrorSeededCounts) {
  const auto findings = lint_fixture("swallowed_io_error.cc");
  const Tally t = tally(findings, "swallowed-io-error");
  EXPECT_EQ(t.active, 3);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintIndex, OutcomeReturningFunctionsIndexed) {
  const SourceFile file = load_fixture("swallowed_io_error.cc");
  const ProjectIndex index = paraio::lint::index_project({file});
  EXPECT_TRUE(index.outcome_fns.contains("access"));
  EXPECT_TRUE(index.outcome_fns.contains("flush"));
  // Value uses of an Outcome type are not declarations.
  EXPECT_FALSE(index.outcome_fns.contains("r"));
  EXPECT_FALSE(index.outcome_fns.contains("drive"));
}

TEST(LintFixtures, LayeringLowLayerSeededCounts) {
  const auto findings = lint_fixture("src/sim/bad_layering.hpp");
  const Tally t = tally(findings, "layering");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, LayeringObsSeededCounts) {
  const auto findings = lint_fixture("src/obs/bad_layering.hpp");
  const Tally t = tally(findings, "layering");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, LayeringAppsFacadeSeededCounts) {
  const auto findings = lint_fixture("src/apps/bad_hw.cc");
  const Tally t = tally(findings, "layering");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

// Satellite regression: containers that are unordered only through a
// `using`/`typedef` alias (including an alias of an alias) used to slip
// past the check entirely.
TEST(LintFixtures, UnorderedAliasSeededCounts) {
  const auto findings = lint_fixture("unordered_alias.cc");
  const Tally t = tally(findings, "unordered-iter");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

TEST(LintFixtures, CaptureEscapeSeededCounts) {
  const auto findings = lint_fixture("capture_escape.cc");
  const Tally t = tally(findings, "capture-escape");
  EXPECT_EQ(t.active, 2);
  EXPECT_EQ(t.suppressed, 1);
}

// --- Deduplication --------------------------------------------------------

// Findings identical on (check, file, line, col) collapse to one, and an
// active finding always survives a suppressed duplicate.
TEST(LintDedupe, CollapsesDuplicatesActiveWins) {
  paraio::lint::Finding active{"a.cc", 3, 5, "wall-clock",
                               Severity::kWarning, "m1", false};
  paraio::lint::Finding suppressed = active;
  suppressed.suppressed = true;
  paraio::lint::Finding other = active;
  other.line = 4;

  // Suppressed copy first: the later active duplicate must replace it.
  std::vector<Finding> findings = {suppressed, active, other};
  paraio::lint::dedupe_findings(&findings);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_FALSE(findings[0].suppressed);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[1].line, 4u);

  // Active first: the suppressed duplicate is simply dropped.
  std::vector<Finding> reversed = {active, suppressed, other};
  paraio::lint::dedupe_findings(&reversed);
  ASSERT_EQ(reversed.size(), 2u);
  EXPECT_FALSE(reversed[0].suppressed);
}

// The regression dedupe guards against: a header linted through several
// translation units reports each site once.
TEST(LintDedupe, HeaderFindingsAcrossTusCollapse) {
  const SourceFile header{
      "fake/clock.hpp",
      "#include <chrono>\n"
      "inline double wall() {\n"
      "  return static_cast<double>(\n"
      "      std::chrono::system_clock::now().time_since_epoch().count());\n"
      "}\n"};
  const std::vector<SourceFile> files = {header};
  const ProjectIndex index = paraio::lint::index_project(files);
  std::vector<Finding> all;
  // Simulate two TUs both pulling in the header's findings.
  for (int tu = 0; tu < 2; ++tu) {
    for (Finding& f : paraio::lint::lint_file(header, index)) {
      all.push_back(std::move(f));
    }
  }
  const std::size_t doubled = all.size();
  ASSERT_GT(doubled, 0u);
  paraio::lint::dedupe_findings(&all);
  EXPECT_EQ(all.size(), doubled / 2);
}

// --- Exit codes and --check-docs ------------------------------------------

// The exit-code contract is stable API: scripts and CI match on it.
TEST(LintExitCodes, StableValues) {
  EXPECT_EQ(paraio::lint::kExitClean, 0);
  EXPECT_EQ(paraio::lint::kExitFindings, 1);
  EXPECT_EQ(paraio::lint::kExitInternalError, 2);
}

// check_docs_text returns kExitClean on a doc covering the whole catalog
// (check ids and CLI flags) and kExitFindings on drift, in both directions
// for both lists.
TEST(LintExitCodes, CheckDocsTextTwoWayGate) {
  std::string complete;
  for (const auto& c : paraio::lint::checks()) {
    complete += "| `" + std::string(c.id) + "` | ... |\n";
  }
  for (const char* flag : paraio::lint::cli_flags()) {
    complete += "* `" + std::string(flag) + "` — ...\n";
  }
  std::ostringstream quiet;
  EXPECT_EQ(paraio::lint::check_docs_text(complete, "doc.md", quiet),
            paraio::lint::kExitClean);
  EXPECT_NE(quiet.str().find("in sync"), std::string::npos);

  std::ostringstream missing_err;
  EXPECT_EQ(paraio::lint::check_docs_text("", "doc.md", missing_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(missing_err.str().find("not documented"), std::string::npos);

  std::ostringstream unknown_err;
  EXPECT_EQ(paraio::lint::check_docs_text(
                complete + "| `no-such-check` | bogus |\n", "doc.md",
                unknown_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(unknown_err.str().find("unknown check"), std::string::npos);

  // Flag drift, both directions: a doc missing one parsed flag, and a doc
  // mentioning a flag the driver no longer parses.
  std::string missing_flag = complete;
  const std::string exclude_line = "* `--exclude` — ...\n";
  missing_flag.erase(missing_flag.find(exclude_line), exclude_line.size());
  std::ostringstream flag_err;
  EXPECT_EQ(paraio::lint::check_docs_text(missing_flag, "doc.md", flag_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(flag_err.str().find("flag '--exclude'"), std::string::npos);

  std::ostringstream stale_err;
  EXPECT_EQ(paraio::lint::check_docs_text(
                complete + "and pass `--no-such-flag=1` for speed\n", "doc.md",
                stale_err),
            paraio::lint::kExitFindings);
  EXPECT_NE(stale_err.str().find("unknown flag '--no-such-flag'"),
            std::string::npos);
}

// Findings carry precise 1-based columns pointing at the offending token,
// not just a line number.
TEST(LintFixtures, FindingsCarryColumns) {
  const SourceFile file = load_fixture("unordered_alias.cc");
  const std::vector<SourceFile> files = {file};
  const ProjectIndex index = paraio::lint::index_project(files);
  const auto findings = paraio::lint::lint_file(file, index);

  std::vector<std::string> lines;
  std::stringstream text(file.content);
  for (std::string line; std::getline(text, line);) lines.push_back(line);

  int checked = 0;
  for (const auto& f : findings) {
    if (std::string("unordered-iter") != f.check || f.suppressed) continue;
    ASSERT_GE(f.line, 1u);
    ASSERT_LE(f.line, lines.size());
    ASSERT_GE(f.col, 1u);
    const std::string& line = lines[f.line - 1];
    // The column lands exactly on the iterated container's name.
    const std::string at = line.substr(f.col - 1);
    EXPECT_TRUE(at.rfind("peers_", 0) == 0 || at.rfind("blocks_", 0) == 0)
        << "col " << f.col << " points at: " << at;
    ++checked;
  }
  EXPECT_EQ(checked, 2);
}

TEST(LintFixtures, CleanExemplarHasNoFindings) {
  const auto findings = lint_fixture("clean.cc");
  EXPECT_TRUE(findings.empty()) << "unexpected finding: "
                                << (findings.empty()
                                        ? ""
                                        : findings.front().message);
}

// The cross-file index recognizes a member declared unordered in a header
// when a different file iterates it.
TEST(LintIndex, UnorderedMemberRecognizedAcrossFiles) {
  const SourceFile header{
      "fake/cache.hpp",
      "#include <unordered_map>\n"
      "struct Cache { std::unordered_map<int, int> entries_; };\n"};
  const SourceFile source{
      "fake/cache.cpp",
      "#include \"cache.hpp\"\n"
      "int sum(Cache& c) {\n"
      "  int acc = 0;\n"
      "  for (const auto& [k, v] : c.entries_) acc += v;\n"
      "  return acc;\n"
      "}\n"};
  const std::vector<SourceFile> files = {header, source};
  const ProjectIndex index = paraio::lint::index_project(files);
  const auto findings =
      paraio::lint::lint_file(source, index);
  EXPECT_EQ(tally(findings, "unordered-iter").active, 1);
}

TEST(LintStrip, CommentsAndStringsBecomeSpaces) {
  const std::string stripped = paraio::lint::strip_comments_and_strings(
      "int a = 1; // rand()\n"
      "const char* s = \"system_clock\"; /* srand */ int b = 2;\n");
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("system_clock"), std::string::npos);
  EXPECT_NE(stripped.find("int b = 2;"), std::string::npos);
  // Line structure is preserved so findings keep their line numbers.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 2);
}

TEST(LintCatalog, EveryCheckHasIdSummaryAndDetail) {
  const auto& catalog = paraio::lint::checks();
  std::vector<std::string> ids;
  for (const auto& check : catalog) ids.emplace_back(check.id);
  EXPECT_EQ(ids, (std::vector<std::string>{
                     "unordered-iter", "wall-clock", "raw-random",
                     "ptr-key-order", "coro-lambda-capture",
                     "swallowed-io-error", "capture-escape", "layering"}));
  for (const auto& check : catalog) {
    EXPECT_NE(std::string(check.id), "");
    EXPECT_NE(std::string(check.summary), "");
    // --explain would print an empty rationale otherwise.
    EXPECT_NE(std::string(check.detail), "") << check.id;
  }
}

TEST(LintCatalog, FindCheckResolvesKnownAndRejectsUnknown) {
  const auto* known = paraio::lint::find_check("capture-escape");
  ASSERT_NE(known, nullptr);
  EXPECT_EQ(std::string(known->id), "capture-escape");
  EXPECT_EQ(paraio::lint::find_check("no-such-check"), nullptr);
  // Removed checks stay removed (docs/LINTING.md, "Removed checks").
  EXPECT_EQ(paraio::lint::find_check("determinism-taint"), nullptr);
  EXPECT_EQ(paraio::lint::find_check(""), nullptr);
}

}  // namespace
