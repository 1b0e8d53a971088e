// paraio_lint command-line driver.
//
//   paraio_lint [--werror] [--exclude=sub[,sub...]] [--check-docs=path]
//               [--list-checks] [--explain <id>] paths...
//
// Paths may be files or directories (searched recursively for
// .hpp/.h/.cpp/.cc); `--exclude=` drops any collected path containing one
// of the given substrings (e.g. `--exclude=fixtures` when linting tests/).
// Findings print to stdout in compiler format (`file:line:col:`).
//
// Exit codes are stable (ExitCode in lint.hpp): 0 clean, 1 findings or
// doc drift, 2 usage, IO, or internal errors.  `--explain` and
// `--check-docs` follow the same contract.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "paraio_lint/lint.hpp"

namespace fs = std::filesystem;
using paraio::lint::Finding;
using paraio::lint::kExitClean;
using paraio::lint::kExitFindings;
using paraio::lint::kExitInternalError;
using paraio::lint::Severity;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
}

int usage() {
  std::cerr << "usage: paraio_lint [--werror] [--exclude=sub[,sub...]] "
               "[--check-docs=path] [--list-checks] [--explain <id>] "
               "<file-or-dir>...\n";
  return kExitInternalError;
}

void split_commas(const std::string& list, std::vector<std::string>* out) {
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out->push_back(item);
  }
}

int explain(const std::string& id) {
  const paraio::lint::CheckInfo* c = paraio::lint::find_check(id);
  if (c == nullptr) {
    std::cerr << "paraio_lint: unknown check '" << id
              << "' (see --list-checks)\n";
    return kExitInternalError;
  }
  std::cout << c->id << " ("
            << (c->severity == Severity::kError ? "error" : "warning")
            << ")\n  " << c->summary << "\n\n  " << c->detail << "\n";
  return kExitClean;
}

/// Thin IO wrapper over check_docs_text (lint.cpp), which holds the
/// two-way catalog <-> doc drift logic so tests can drive it directly.
int check_docs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "paraio_lint: cannot read " << path << "\n";
    return kExitInternalError;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return paraio::lint::check_docs_text(buf.str(), path, std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  bool werror = false;
  std::vector<std::string> roots;
  std::vector<std::string> excludes;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--werror") {
      werror = true;
    } else if (arg.rfind("--check-docs=", 0) == 0) {
      return check_docs(arg.substr(13));
    } else if (arg == "--list-checks") {
      for (const auto& c : paraio::lint::checks()) {
        std::cout << c.id << " ("
                  << (c.severity == Severity::kError ? "error" : "warning")
                  << "): " << c.summary << "\n";
      }
      return 0;
    } else if (arg.rfind("--explain=", 0) == 0) {
      return explain(arg.substr(10));
    } else if (arg == "--explain") {
      if (i + 1 >= argc) return usage();
      return explain(argv[i + 1]);
    } else if (arg.rfind("--exclude=", 0) == 0) {
      split_commas(arg.substr(10), &excludes);
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage();

  std::vector<std::string> paths;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          paths.push_back(entry.path().generic_string());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      paths.push_back(root);
    } else {
      std::cerr << "paraio_lint: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  std::erase_if(paths, [&](const std::string& p) {
    return std::any_of(excludes.begin(), excludes.end(),
                       [&](const std::string& sub) {
                         return p.find(sub) != std::string::npos;
                       });
  });
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<paraio::lint::SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "paraio_lint: cannot read " << p << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({p, buf.str()});
  }

  const auto index = paraio::lint::index_project(files);
  std::vector<Finding> all;
  for (const auto& file : files) {
    for (Finding& f : paraio::lint::lint_file(file, index)) {
      all.push_back(std::move(f));
    }
  }
  // A header linted through several translation units reports each site
  // once.
  paraio::lint::dedupe_findings(&all);

  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t suppressed = 0;
  for (const Finding& f : all) {
    if (f.suppressed) {
      ++suppressed;
      continue;
    }
    const bool is_error = f.severity == Severity::kError;
    (is_error ? errors : warnings) += 1;
    std::cout << f.file << ":" << f.line << ":" << (f.col == 0 ? 1 : f.col)
              << ": " << (is_error ? "error" : "warning") << ": [" << f.check
              << "] " << f.message << "\n";
  }
  std::cerr << "paraio_lint: " << files.size() << " file(s), " << errors
            << " error(s), " << warnings << " warning(s), " << suppressed
            << " suppressed\n";
  if (errors > 0 || (werror && warnings > 0)) return kExitFindings;
  return kExitClean;
}
