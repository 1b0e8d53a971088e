#include "paraio_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <ostream>
#include <tuple>

#include "paraio_lint/text.hpp"

namespace paraio::lint {

namespace {

using namespace paraio::lint::text;

// ---------------------------------------------------------------------------
// Check catalog

constexpr CheckInfo kChecks[] = {
    {"unordered-iter", Severity::kError,
     "range-for over an unordered container: iteration order is "
     "implementation-defined and can reach the trace",
     "The golden-trace tests compare event sequences byte for byte, so any "
     "value whose order depends on hashing or insertion history breaks "
     "reproducibility across standard libraries and ASLR runs.  Iterate a "
     "std::map, or copy keys into a vector and sort before iterating.  The "
     "index resolves `using` aliases, so renaming the container type does "
     "not hide it."},
    {"wall-clock", Severity::kError,
     "wall-clock read inside the simulator: all time must come from "
     "sim::Engine::now()",
     "Simulated time is a logical clock advanced by the event loop; mixing "
     "in std::chrono::system_clock or friends makes results depend on host "
     "load and wall time.  Use sim::Engine::now() for simulated timestamps. "
     "Host-side timing of the simulator itself (bench harness) carries an "
     "explicit allow() suppression."},
    {"raw-random", Severity::kError,
     "libc/raw randomness: all randomness must flow through sim::Rng so "
     "runs reproduce from a seed",
     "rand(), the *rand48 family, and std::random_device are unseeded or "
     "globally seeded, so two runs with the same --seed diverge.  sim::Rng "
     "is a splittable counter-based generator owned by the engine; every "
     "stochastic decision must draw from it (or a stream split from it)."},
    {"ptr-key-order", Severity::kWarning,
     "ordered container keyed by pointer: iteration order depends on "
     "allocation addresses",
     "std::map<T*, ...> iterates in address order, and addresses change "
     "run to run under ASLR.  If the iteration feeds a trace or a scheduling "
     "decision the run is no longer reproducible.  Key by a stable id "
     "(node index, request id) instead."},
    {"coro-lambda-capture", Severity::kError,
     "coroutine lambda with captures: the closure dies before the first "
     "resume; pass state as parameters instead",
     "A lambda's captures live in the closure object, not the coroutine "
     "frame.  When a temporary closure's coroutine suspends, the closure is "
     "destroyed at the end of the full-expression and every capture "
     "dangles.  Pass state as coroutine parameters (they are copied into "
     "the frame) or use a named function."},
    {"swallowed-io-error", Severity::kError,
     "typed I/O outcome discarded: the *Outcome return value is the only "
     "failure channel; bind and inspect it",
     "I/O paths report failure through *Outcome return values, not "
     "exceptions.  co_awaiting such a call as a statement drops the only "
     "record that the operation failed, and the fault-injection tests rely "
     "on callers observing those failures.  Bind the result and branch on "
     "it."},
    {"capture-escape", Severity::kError,
     "stack-local address escapes into a detached coroutine: the frame "
     "outlives the caller's locals; pass by value or heap-own the state",
     "engine.spawn()/spawn_daemon() detach the coroutine from the caller's "
     "scope: the frame keeps running after the caller returns.  Passing "
     "&local or a reference to a stack variable into the spawned call "
     "leaves the frame holding a dangling pointer.  Pass by value, or move "
     "ownership (unique_ptr/shared_ptr) into the frame."},
    {"layering", Severity::kError,
     "include crosses the layer order (sim < hw < io < pfs/pablo < ppfs < "
     "analysis < apps < core < testkit), or apps bypass the hw::Machine "
     "facade",
     "The simulator is layered so each subsystem can be tested in "
     "isolation and replaced (three PFS write policies, two app layers). "
     "An upward include from a lower layer, or an app reaching past the "
     "hw::Machine facade into device internals, couples layers that the "
     "experiments need to vary independently."},
};

// Token helpers (is_ident, line_of, skip_balanced, find_word, ...) live in
// paraio_lint/text.hpp.

// ---------------------------------------------------------------------------
// Per-line suppressions: `// paraio-lint: allow(id[,id...])`

std::vector<std::set<std::string>> parse_suppressions(
    const std::string& raw, const std::vector<std::size_t>& starts) {
  std::vector<std::set<std::string>> per_line(starts.size() + 2);
  std::size_t pos = 0;
  while ((pos = raw.find("paraio-lint:", pos)) != std::string::npos) {
    const std::size_t line = line_of(starts, pos);
    std::size_t open = raw.find("allow(", pos);
    pos += 12;
    if (open == std::string::npos) continue;
    const std::size_t close = raw.find(')', open);
    if (close == std::string::npos) continue;
    // Only honor an allow() on the same line as the marker.
    if (line_of(starts, open) != line) continue;
    std::string ids = raw.substr(open + 6, close - open - 6);
    std::size_t from = 0;
    while (from <= ids.size()) {
      std::size_t comma = ids.find(',', from);
      if (comma == std::string::npos) comma = ids.size();
      const std::string id = trim(ids.substr(from, comma - from));
      if (!id.empty() && line < per_line.size()) per_line[line].insert(id);
      from = comma + 1;
    }
  }
  return per_line;
}

// ---------------------------------------------------------------------------
// Declaration scans (used by the project index)

void collect_unordered_names(const std::string& stripped,
                             std::set<std::string>* names) {
  for (const char* kind : {"std::unordered_map<", "std::unordered_set<"}) {
    std::size_t pos = 0;
    const std::string needle(kind);
    while ((pos = stripped.find(needle, pos)) != std::string::npos) {
      const std::size_t open = pos + needle.size() - 1;
      pos += needle.size();
      const std::size_t past = skip_balanced(stripped, open, '<', '>');
      if (past == std::string::npos) continue;
      std::size_t cursor = skip_spaces(stripped, past);
      while (cursor < stripped.size() &&
             (stripped[cursor] == '&' || stripped[cursor] == '*')) {
        cursor = skip_spaces(stripped, cursor + 1);
      }
      std::size_t end = cursor;
      const std::string name = read_ident(stripped, cursor, &end);
      if (name.empty()) continue;
      // `type name(` declares a function returning the container, not a
      // variable; skip those.
      if (skip_spaces(stripped, end) < stripped.size() &&
          stripped[skip_spaces(stripped, end)] == '(') {
        continue;
      }
      names->insert(name);
    }
  }
}

/// `using A = <type>;` and `typedef <type> A;` pairs, as alias -> base text.
void collect_type_aliases(const std::string& stripped,
                          std::vector<std::pair<std::string, std::string>>* out) {
  for (std::size_t pos : find_word(stripped, "using")) {
    std::size_t cursor = skip_spaces(stripped, pos + 5);
    std::size_t end = cursor;
    const std::string alias = read_ident(stripped, cursor, &end);
    if (alias.empty() || alias == "namespace") continue;
    cursor = skip_spaces(stripped, end);
    if (cursor >= stripped.size() || stripped[cursor] != '=') continue;
    const std::size_t semi = stripped.find(';', cursor);
    if (semi == std::string::npos) continue;
    out->emplace_back(alias, trim(stripped.substr(cursor + 1, semi - cursor - 1)));
  }
  for (std::size_t pos : find_word(stripped, "typedef")) {
    const std::size_t semi = stripped.find(';', pos);
    if (semi == std::string::npos) continue;
    const std::string decl = stripped.substr(pos + 7, semi - pos - 7);
    // The alias is the trailing identifier; the base is everything before.
    std::string base = trim(decl);
    std::size_t b = base.size();
    while (b > 0 && is_ident(base[b - 1])) --b;
    const std::string alias = base.substr(b);
    if (alias.empty() || b == 0) continue;
    out->emplace_back(alias, trim(base.substr(0, b)));
  }
}

/// First identifier of a type expression, past namespace qualifiers:
/// `std::unordered_map<K,V>` -> "unordered_map" wouldn't help, so this
/// keeps the qualified prefix: returns the text up to the first '<' or
/// end, trimmed (e.g. "std::unordered_map", "NodeSet").
std::string type_root(const std::string& base) {
  const std::size_t lt = base.find('<');
  return trim(lt == std::string::npos ? base : base.substr(0, lt));
}

/// Variables declared with one of `alias_names` as their type.
void collect_alias_vars(const std::string& stripped,
                        const std::set<std::string>& alias_names,
                        std::set<std::string>* names) {
  for (const std::string& alias : alias_names) {
    for (std::size_t pos : find_word(stripped, alias)) {
      std::size_t cursor = pos + alias.size();
      if (cursor < stripped.size() && stripped[cursor] == '<') {
        const std::size_t past = skip_balanced(stripped, cursor, '<', '>');
        if (past == std::string::npos) continue;
        cursor = past;
      }
      cursor = skip_spaces(stripped, cursor);
      while (cursor < stripped.size() &&
             (stripped[cursor] == '&' || stripped[cursor] == '*')) {
        cursor = skip_spaces(stripped, cursor + 1);
      }
      std::size_t end = cursor;
      const std::string name = read_ident(stripped, cursor, &end);
      if (name.empty()) continue;
      const std::size_t next = skip_spaces(stripped, end);
      if (next < stripped.size() && stripped[next] == '(') continue;
      names->insert(name);
    }
  }
}

// ---------------------------------------------------------------------------
// Individual checks.  Each appends findings (suppression is applied by the
// caller, which knows the per-line allow sets).

using Sink = std::vector<Finding>;

void add(Sink* out, const char* id, const std::vector<std::size_t>& starts,
         std::size_t pos, std::string message) {
  const CheckInfo* info = find_check(id);
  out->push_back(Finding{"", line_of(starts, pos), col_of(starts, pos),
                         info->id, info->severity, std::move(message), false});
}

void check_unordered_iter(const std::string& stripped,
                          const std::vector<std::size_t>& starts,
                          const std::set<std::string>& unordered_names,
                          Sink* out) {
  for (std::size_t pos : find_word(stripped, "for")) {
    const std::size_t open = skip_spaces(stripped, pos + 3);
    if (open >= stripped.size() || stripped[open] != '(') continue;
    const std::size_t past = skip_balanced(stripped, open, '(', ')');
    if (past == std::string::npos) continue;
    const std::string head = stripped.substr(open + 1, past - open - 2);
    // A range-for has a single ':' at angle/paren depth 0 (':: ' excluded).
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
      const char c = head[i];
      if (c == '<' || c == '(' || c == '[' || c == '{') ++depth;
      if (c == '>' || c == ')' || c == ']' || c == '}') --depth;
      if (c == ':' && depth == 0) {
        if ((i + 1 < head.size() && head[i + 1] == ':') ||
            (i > 0 && head[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
      if (c == ';') break;  // classic for loop
    }
    if (colon == std::string::npos) continue;
    const std::string tail = head.substr(colon + 1);
    const std::string name = trailing_ident(tail);
    if (!name.empty() && unordered_names.contains(name)) {
      // Column of the container name itself (the last occurrence in the
      // range expression is the one trailing_ident extracted).
      const std::size_t in_tail = tail.rfind(name);
      const std::size_t name_pos = open + 1 + colon + 1 + in_tail;
      add(out, "unordered-iter", starts, name_pos,
          "iteration over unordered container '" + name +
              "': order is hash/insertion dependent and breaks trace "
              "reproducibility; use std::map or iterate a sorted snapshot");
    }
  }
}

void check_wall_clock(const std::string& stripped,
                      const std::vector<std::size_t>& starts, Sink* out) {
  for (const char* word :
       {"system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "localtime", "gmtime", "asctime"}) {
    for (std::size_t pos : find_word(stripped, word)) {
      add(out, "wall-clock", starts, pos,
          std::string("wall-clock source '") + word +
              "' in simulator code: simulated time must come from "
              "sim::Engine::now()");
    }
  }
}

void check_raw_random(const std::string& stripped,
                      const std::vector<std::size_t>& starts, Sink* out) {
  for (const char* word : {"random_device", "drand48", "lrand48", "mrand48"}) {
    for (std::size_t pos : find_word(stripped, word)) {
      add(out, "raw-random", starts, pos,
          std::string("nondeterministic randomness '") + word +
              "': use sim::Rng so runs reproduce from a seed");
    }
  }
  for (const char* word : {"rand", "srand"}) {
    for (std::size_t pos : find_word(stripped, word)) {
      const std::size_t after =
          skip_spaces(stripped, pos + std::string(word).size());
      if (after < stripped.size() && stripped[after] == '(') {
        add(out, "raw-random", starts, pos,
            std::string("libc '") + word +
                "()': use sim::Rng so runs reproduce from a seed");
      }
    }
  }
}

void check_ptr_key_order(const std::string& stripped,
                         const std::vector<std::size_t>& starts, Sink* out) {
  for (const char* kind : {"std::map<", "std::set<"}) {
    const std::string needle(kind);
    std::size_t pos = 0;
    while ((pos = stripped.find(needle, pos)) != std::string::npos) {
      const std::size_t open = pos + needle.size() - 1;
      const std::size_t at = pos;
      pos += needle.size();
      // First template argument: up to a depth-0 comma or the closing '>'.
      int depth = 1;
      std::size_t i = open + 1;
      std::size_t arg_end = std::string::npos;
      for (; i < stripped.size(); ++i) {
        const char c = stripped[i];
        if (c == '<' || c == '(') ++depth;
        if (c == '>' || c == ')') --depth;
        if ((c == ',' && depth == 1) || depth == 0) {
          arg_end = i;
          break;
        }
      }
      if (arg_end == std::string::npos) continue;
      const std::string key = trim(stripped.substr(open + 1, arg_end - open - 1));
      if (!key.empty() && key.back() == '*') {
        add(out, "ptr-key-order", starts, at,
            "ordered container keyed by pointer '" + key +
                "': ordering follows allocation addresses, which differ "
                "run to run; key by a stable id instead");
      }
    }
  }
}

/// Balanced argument regions of every `spawn(...)` / `spawn_daemon(...)`
/// call.  `detached` distinguishes fire-and-forget spawns (an Engine
/// receiver, or any spawn_daemon) from structured ones (`group.spawn(...)`
/// on a TaskGroup that is joined before its scope unwinds) — only the
/// former can outlive the caller's stack frame.
struct SpawnRegion {
  std::size_t lo = 0;  // first char of the argument list
  std::size_t hi = 0;  // one past its last char
  bool detached = true;
};

std::vector<SpawnRegion> spawn_arg_regions(const std::string& stripped) {
  std::vector<SpawnRegion> regions;
  for (std::size_t pos = 0; (pos = stripped.find("spawn", pos)) !=
                            std::string::npos;
       pos += 5) {
    if (pos > 0 && is_ident(stripped[pos - 1])) continue;
    std::size_t after = pos + 5;
    const bool daemon = stripped.compare(after, 7, "_daemon") == 0;
    if (daemon) after += 7;
    if (after < stripped.size() && is_ident(stripped[after])) continue;
    const std::size_t open = skip_spaces(stripped, after);
    if (open >= stripped.size() || stripped[open] != '(') continue;
    const std::size_t past = skip_balanced(stripped, open, '(', ')');
    if (past == std::string::npos) continue;
    bool detached = true;
    if (!daemon && pos > 0 &&
        (stripped[pos - 1] == '.' ||
         (stripped[pos - 1] == '>' && pos > 1 && stripped[pos - 2] == '-'))) {
      // Receiver's trailing token: `engine.spawn`, `machine.engine().spawn`
      // are detached; anything else (a TaskGroup or similar structured
      // scope) keeps the frame alive until join.
      std::size_t i = stripped[pos - 1] == '.' ? pos - 1 : pos - 2;
      if (i > 0 && stripped[i - 1] == ')') {
        int depth = 0;
        while (i > 0) {
          --i;
          if (stripped[i] == ')') ++depth;
          if (stripped[i] == '(' && --depth == 0) break;
        }
      }
      const std::string recv =
          i > 0 && is_ident(stripped[i - 1])
              ? read_ident_backward(stripped, i - 1)
              : "";
      detached = recv.find("engine") != std::string::npos ||
                 recv.find("Engine") != std::string::npos;
    }
    regions.push_back(SpawnRegion{open + 1, past - 1, detached});
  }
  return regions;
}

void check_coro_lambda_capture(const std::string& stripped,
                               const std::vector<std::size_t>& starts,
                               Sink* out) {
  const auto spawn_regions = spawn_arg_regions(stripped);
  for (std::size_t pos = 0; pos < stripped.size(); ++pos) {
    if (stripped[pos] != '[') continue;
    // Not an attribute ([[...]]) and not a subscript (prev token is a value).
    if (pos + 1 < stripped.size() && stripped[pos + 1] == '[') continue;
    if (pos > 0 && stripped[pos - 1] == '[') continue;
    std::size_t prev = pos;
    while (prev > 0 && (stripped[prev - 1] == ' ' || stripped[prev - 1] == '\t' ||
                        stripped[prev - 1] == '\n')) {
      --prev;
    }
    if (prev > 0 &&
        (is_ident(stripped[prev - 1]) || stripped[prev - 1] == ')' ||
         stripped[prev - 1] == ']')) {
      continue;  // subscript or attribute close
    }
    const std::size_t close = stripped.find(']', pos);
    if (close == std::string::npos) continue;
    const std::string captures = trim(stripped.substr(pos + 1, close - pos - 1));
    std::size_t cursor = skip_spaces(stripped, close + 1);
    std::string ret_type;
    std::size_t body_open = std::string::npos;
    if (cursor < stripped.size() && stripped[cursor] == '(') {
      const std::size_t past = skip_balanced(stripped, cursor, '(', ')');
      if (past == std::string::npos) continue;
      const std::size_t brace = stripped.find('{', past);
      if (brace == std::string::npos) continue;
      ret_type = stripped.substr(past, brace - past);
      body_open = brace;
    } else if (cursor < stripped.size() && stripped[cursor] == '{') {
      body_open = cursor;
    } else {
      continue;  // not a lambda after all
    }
    const std::size_t body_past = skip_balanced(stripped, body_open, '{', '}');
    if (body_past == std::string::npos) continue;
    const std::string body =
        stripped.substr(body_open, body_past - body_open);
    const bool coroutine = ret_type.find("Task") != std::string::npos ||
                           body.find("co_await") != std::string::npos ||
                           body.find("co_return") != std::string::npos ||
                           body.find("co_yield") != std::string::npos;
    if (!coroutine || captures.empty()) continue;
    // A named local closure (`auto proc = [&]...; spawn(proc());`) outlives
    // the run and is fine.  The UB shapes are a *temporary* closure: the
    // lambda expression written inline inside spawn(...)'s arguments, or
    // immediately invoked without being co_awaited in the same statement —
    // either way the closure (and its captures) dies while the coroutine
    // frame lives on.
    bool inline_in_spawn = false;
    for (const SpawnRegion& r : spawn_regions) {
      if (pos > r.lo && pos < r.hi) {
        inline_in_spawn = true;
        break;
      }
    }
    bool invoked_temporary = false;
    const std::size_t next = skip_spaces(stripped, body_past);
    if (next < stripped.size() && stripped[next] == '(') {
      const std::size_t stmt_begin =
          stripped.find_last_of(";{}", pos) == std::string::npos
              ? 0
              : stripped.find_last_of(";{}", pos) + 1;
      const std::string prefix = stripped.substr(stmt_begin, pos - stmt_begin);
      invoked_temporary = prefix.find("co_await") == std::string::npos;
    }
    if (inline_in_spawn || invoked_temporary) {
      add(out, "coro-lambda-capture", starts, pos,
          "coroutine lambda captures [" + captures +
              "] as a temporary closure: the closure object is destroyed "
              "while the frame lives on; name it in a scope that outlives "
              "the run, or pass state as explicit parameters");
    }
  }
}

// ---------------------------------------------------------------------------
// Swallowed typed I/O outcomes (pass 2, against the pass-1 outcome-fn index)

/// Function/method names whose declared return type is — or wraps, as in
/// `sim::Task<io::IoOutcome>` — an identifier ending in "Outcome".  The
/// declaration shape is `...Outcome[>&]* name(`, which a value use never
/// matches (a variable name, `=`, `{`, or `;` follows instead).
void collect_outcome_fns(const std::string& stripped,
                         std::set<std::string>* fns) {
  static constexpr std::string_view kTail = "Outcome";
  for (std::size_t pos = 0; pos + kTail.size() <= stripped.size(); ++pos) {
    if (stripped.compare(pos, kTail.size(), kTail) != 0) continue;
    const std::size_t after = pos + kTail.size();
    if (after < stripped.size() && is_ident(stripped[after])) continue;
    pos = after - 1;  // resume the scan past this token either way
    std::size_t cursor = after;
    while (cursor < stripped.size() &&
           (stripped[cursor] == '>' || stripped[cursor] == '&' ||
            stripped[cursor] == ' ' || stripped[cursor] == '\t' ||
            stripped[cursor] == '\n')) {
      ++cursor;
    }
    if (cursor >= stripped.size() || !is_ident_start(stripped[cursor])) {
      continue;
    }
    std::size_t end = cursor;
    const std::string name = read_ident(stripped, cursor, &end);
    const std::size_t paren = skip_spaces(stripped, end);
    if (paren < stripped.size() && stripped[paren] == '(') fns->insert(name);
  }
}

/// Flags single-line statements that call an Outcome-returning function and
/// drop the result.  `co_await` does not rescue the value — the awaited
/// outcome is still discarded — so awaited bare statements are flagged too
/// (the un-awaited form is rejected by the compiler: sim::Task is
/// [[nodiscard]]).
/// Deliberate discards go through `(void)` or an allow() suppression.
void check_swallowed_io_error(const std::vector<std::string>& stripped_lines,
                              const std::vector<std::size_t>& starts,
                              const std::set<std::string>& outcome_fns,
                              Sink* out) {
  if (outcome_fns.empty()) return;
  static constexpr std::string_view kAwait = "co_await ";
  for (std::size_t i = 0; i < stripped_lines.size(); ++i) {
    const std::string& raw_line = stripped_lines[i];
    std::string line = trim(raw_line);
    if (line.empty() || line.back() != ';') continue;
    // Wrapped statements: when the predecessor line neither closes a
    // statement nor opens a block, this line is a continuation (`const
    // IoOutcome r =` wrapped above the call), not a discard.
    bool continuation = false;
    for (std::size_t j = i; j > 0;) {
      const std::string prev = trim(stripped_lines[--j]);
      if (prev.empty()) continue;
      if (prev.front() == '#') break;  // preprocessor line: a boundary
      const char last = prev.back();
      continuation = last != ';' && last != '{' && last != '}' &&
                     last != ')' && last != ':';
      break;
    }
    if (continuation) continue;
    const std::size_t indent = raw_line.find_first_not_of(" \t");
    std::size_t stmt_off = indent == std::string::npos ? 0 : indent;
    if (line.starts_with(kAwait)) {
      line = line.substr(kAwait.size());
      stmt_off += kAwait.size();
    }
    for (const std::string& name : outcome_fns) {
      const std::size_t at = line.find(name + "(");
      if (at == std::string::npos) continue;
      if (at > 0 && is_ident(line[at - 1])) continue;
      // Statement position: nothing but an object chain (`obj.`, `ptr->`,
      // `ns::`) before the call — an enclosing call, assignment, return,
      // declaration, or cast all consume the value.
      const std::string prefix = line.substr(0, at);
      const bool chain_only = prefix.find('(') == std::string::npos &&
                              prefix.find(' ') == std::string::npos &&
                              prefix.find('=') == std::string::npos &&
                              prefix.find("co_") == std::string::npos;
      if (!chain_only) continue;
      add(out, "swallowed-io-error", starts, starts[i] + stmt_off + at,
          "result of '" + name +
              "()' discarded: the typed I/O outcome is the only failure "
              "channel; bind and inspect it (or cast to void to discard "
              "deliberately)");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Capture escape (pass 2)

void check_capture_escape(const std::string& stripped,
                          const std::vector<std::size_t>& starts, Sink* out) {
  for (const SpawnRegion& region : spawn_arg_regions(stripped)) {
    if (!region.detached) continue;
    const std::size_t lo = region.lo;
    const std::size_t hi = region.hi;
    int bracket_depth = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const char c = stripped[i];
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (bracket_depth > 0) continue;  // lambda capture list / subscript
      if (c == '&') {
        if (i + 1 >= hi || !is_ident_start(stripped[i + 1])) continue;
        const std::size_t prev = prev_nonspace(stripped, i);
        // Address-of in argument position: `f(&x` or `f(a, &x`.  Anything
        // else (`a & b`, `a && b`, `T& x`) has a value or type on the left.
        if (prev == std::string::npos ||
            (stripped[prev] != '(' && stripped[prev] != ',')) {
          continue;
        }
        const std::string name = read_ident(stripped, i + 1);
        if (name == "this" || name.empty()) continue;
        if (name.back() == '_') continue;  // member: owned by a live object
        add(out, "capture-escape", starts, i,
            "'&" + name +
                "' passed into a detached coroutine: the frame outlives "
                "the caller's stack, leaving a dangling pointer; pass by "
                "value or move ownership into the coroutine");
      } else if (stripped.compare(i, 9, "std::ref(") == 0 ||
                 stripped.compare(i, 10, "std::cref(") == 0) {
        if (i > 0 && is_ident(stripped[i - 1])) continue;
        const std::size_t open = stripped.find('(', i);
        const std::string name = read_ident(stripped, open + 1);
        if (!name.empty() && name.back() == '_') continue;
        add(out, "capture-escape", starts, i,
            "std::ref(" + name +
                ") passed into a detached coroutine: the reference "
                "outlives the caller's stack; pass by value or move "
                "ownership into the coroutine");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layering

struct LayerRule {
  const char* layer;
  std::set<std::string> allowed;
};

const std::vector<LayerRule>& layer_rules() {
  static const std::vector<LayerRule> kRules = {
      {"sim", {"sim"}},
      // The observability layer may read simulation/file abstractions but
      // never the device or file-system layers that publish into it (those
      // include obs, so the reverse edge would be a cycle).
      {"obs", {"obs", "pablo", "io", "sim"}},
      {"hw", {"hw", "obs", "sim"}},
      {"io", {"io", "hw", "sim"}},
      // Fault injection drives the hardware models (and publishes into obs)
      // but must never know about the file systems built on top of them.
      {"fault", {"fault", "hw", "obs", "io", "sim"}},
      {"pfs", {"pfs", "obs", "io", "hw", "sim"}},
      {"ppfs", {"ppfs", "pfs", "fault", "obs", "io", "hw", "sim"}},
      {"pablo", {"pablo", "io", "hw", "sim"}},
      {"analysis", {"analysis", "pablo", "io", "sim"}},
      {"apps", {"apps", "analysis", "pablo", "io", "hw", "sim"}},
      {"core",
       {"core", "apps", "analysis", "pablo", "ppfs", "pfs", "fault", "obs",
        "io", "hw", "sim"}},
      {"testkit",
       {"testkit", "core", "apps", "analysis", "pablo", "ppfs", "pfs",
        "fault", "obs", "io", "hw", "sim"}},
  };
  return kRules;
}

/// hw headers src/apps may include: the Machine facade only, never device
/// internals (disk, raid, network, scheduler).
bool apps_hw_header_allowed(const std::string& header) {
  return header == "hw/machine.hpp";
}

void check_layering(const std::string& path, const std::string& raw,
                    const std::vector<std::size_t>& starts, Sink* out) {
  const std::size_t src = path.rfind("src/");
  if (src == std::string::npos) return;
  const std::string rest = path.substr(src + 4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string::npos) return;  // src/paraio.hpp umbrella
  const std::string layer = rest.substr(0, slash);
  const LayerRule* rule = nullptr;
  for (const LayerRule& r : layer_rules()) {
    if (layer == r.layer) rule = &r;
  }
  if (!rule) return;

  std::size_t begin = 0;
  while (begin <= raw.size()) {
    std::size_t end = raw.find('\n', begin);
    if (end == std::string::npos) end = raw.size();
    const std::string raw_line = raw.substr(begin, end - begin);
    const std::string line = trim(raw_line);
    const std::size_t line_begin = begin;
    begin = end + 1;
    if (!line.starts_with("#include \"")) continue;
    const std::size_t include_pos = line_begin + raw_line.find("#include");
    const std::size_t quote = line.find('"');
    const std::size_t quote2 = line.find('"', quote + 1);
    if (quote2 == std::string::npos) continue;
    const std::string header = line.substr(quote + 1, quote2 - quote - 1);
    const std::size_t hslash = header.find('/');
    if (hslash == std::string::npos) continue;  // same-directory include
    const std::string target = header.substr(0, hslash);
    bool known = false;
    for (const LayerRule& r : layer_rules()) {
      if (target == r.layer) known = true;
    }
    if (!known) continue;
    if (!rule->allowed.contains(target)) {
      add(out, "layering", starts, include_pos,
          "layer 'src/" + layer + "' must not include '" + header +
              "' (layer '" + target + "' is above it)");
    } else if (layer == "apps" && target == "hw" &&
               !apps_hw_header_allowed(header)) {
      add(out, "layering", starts, include_pos,
          "src/apps must program against the hw::Machine facade; include "
          "'hw/machine.hpp' instead of '" +
              header + "'");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

const std::vector<CheckInfo>& checks() {
  static const std::vector<CheckInfo> kAll(std::begin(kChecks),
                                           std::end(kChecks));
  return kAll;
}

const CheckInfo* find_check(std::string_view id) {
  for (const CheckInfo& c : kChecks) {
    if (std::string_view(c.id) == id) return &c;
  }
  return nullptr;
}

const std::vector<const char*>& cli_flags() {
  // Must match exactly what main.cpp parses; CheckDocsTextTwoWayGate and
  // the CI `--check-docs` run both fail when this list and the driver (or
  // the doc) drift apart.
  static const std::vector<const char*> kFlags = {
      "--werror", "--exclude", "--check-docs", "--list-checks", "--explain",
  };
  return kFlags;
}

std::string strip_comments_and_strings(const std::string& source) {
  std::string out = source;
  enum class State { kCode, kLine, kBlock, kString, kChar } state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
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
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\n') {
          out[i] = ' ';
          if (next != '\0') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\n') {
          out[i] = ' ';
          if (next != '\0') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

ProjectIndex index_project(const std::vector<SourceFile>& files) {
  ProjectIndex index;
  std::vector<std::string> stripped_files;
  stripped_files.reserve(files.size());
  std::vector<std::pair<std::string, std::string>> aliases;
  for (const SourceFile& f : files) {
    stripped_files.push_back(strip_comments_and_strings(f.content));
    const std::string& stripped = stripped_files.back();
    collect_unordered_names(stripped, &index.unordered_names);
    collect_type_aliases(stripped, &aliases);
    collect_outcome_fns(stripped, &index.outcome_fns);
  }

  // Unordered-alias fixpoint: `using A = std::unordered_map<...>`, then
  // `using B = A`, then variables declared `A x;` / `B y;` anywhere.
  std::set<std::string> unordered_aliases;
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [alias, base] : aliases) {
      if (unordered_aliases.contains(alias)) continue;
      const std::string root = type_root(base);
      if (root == "std::unordered_map" || root == "std::unordered_set" ||
          unordered_aliases.contains(root)) {
        unordered_aliases.insert(alias);
        changed = true;
      }
    }
  }
  for (const std::string& stripped : stripped_files) {
    collect_alias_vars(stripped, unordered_aliases, &index.unordered_names);
  }
  return index;
}

std::vector<Finding> lint_file(const SourceFile& file,
                               const ProjectIndex& index) {
  const std::string stripped = strip_comments_and_strings(file.content);
  const std::vector<std::size_t> starts = line_starts(file.content);
  const auto suppressions = parse_suppressions(file.content, starts);

  std::vector<std::string> stripped_lines;
  {
    std::size_t begin = 0;
    while (begin <= stripped.size()) {
      std::size_t end = stripped.find('\n', begin);
      if (end == std::string::npos) end = stripped.size();
      stripped_lines.push_back(stripped.substr(begin, end - begin));
      if (end == stripped.size()) break;
      begin = end + 1;
    }
  }

  std::vector<Finding> findings;
  check_unordered_iter(stripped, starts, index.unordered_names, &findings);
  check_wall_clock(stripped, starts, &findings);
  check_raw_random(stripped, starts, &findings);
  check_ptr_key_order(stripped, starts, &findings);
  check_coro_lambda_capture(stripped, starts, &findings);
  check_swallowed_io_error(stripped_lines, starts, index.outcome_fns,
                           &findings);
  check_capture_escape(stripped, starts, &findings);
  check_layering(file.path, file.content, starts, &findings);

  for (Finding& f : findings) {
    f.file = file.path;
    if (f.line < suppressions.size() &&
        suppressions[f.line].contains(f.check)) {
      f.suppressed = true;
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return std::string_view(a.check) < std::string_view(b.check);
            });
  return findings;
}

void dedupe_findings(std::vector<Finding>* findings) {
  // (check, file, line, col) -> index of the kept finding.  An active
  // finding wins over a suppressed duplicate so deduplication can
  // never hide a real finding behind a suppressed copy of itself.  The key
  // owns its strings: moving the Finding into `out` empties f.file, so a
  // view into it would corrupt the map.
  std::map<std::tuple<std::string, std::string, std::size_t, std::size_t>,
           std::size_t>
      kept;
  std::vector<Finding> out;
  out.reserve(findings->size());
  for (Finding& f : *findings) {
    auto key = std::make_tuple(std::string(f.check), f.file, f.line, f.col);
    const auto it = kept.find(key);
    if (it == kept.end()) {
      kept.emplace(key, out.size());
      out.push_back(std::move(f));
      continue;
    }
    Finding& winner = out[it->second];
    if (winner.suppressed && !f.suppressed) {
      winner = std::move(f);
    }
  }
  *findings = std::move(out);
}

int check_docs_text(const std::string& doc, const std::string& doc_name,
                    std::ostream& err) {
  int drift = kExitClean;
  for (const auto& c : checks()) {
    // Built by append rather than operator+ chains: GCC 12's -Wrestrict
    // false-positives on `const char* + std::string&&` under -O2.
    std::string needle = "`";
    needle += c.id;
    needle += '`';
    if (doc.find(needle) == std::string::npos) {
      err << "paraio_lint: doc drift: check '" << c.id
          << "' is not documented in " << doc_name << "\n";
      drift = kExitFindings;
    }
  }
  // Table rows whose FIRST cell is a backticked id: a line starting
  // `| `some-id` ...`.  Later cells legitimately backtick non-check tokens
  // (`system_clock`, `std::map`, ...), so only the line-initial cell is
  // held to the catalog.
  std::size_t pos = 0;
  while ((pos = doc.find("| `", pos)) != std::string::npos) {
    const bool at_line_start = pos == 0 || doc[pos - 1] == '\n';
    const std::size_t begin = pos + 3;
    const std::size_t end = doc.find('`', begin);
    pos = begin;
    if (end == std::string::npos) break;
    if (!at_line_start) continue;
    const std::string id = doc.substr(begin, end - begin);
    const bool id_like =
        !id.empty() && id.find(' ') == std::string::npos && id.size() < 40;
    if (id_like && find_check(id) == nullptr) {
      err << "paraio_lint: doc drift: " << doc_name
          << " documents unknown check '" << id << "'\n";
      drift = kExitFindings;
    }
  }
  // The CLI flag list follows the same two-way contract.  Forward: every
  // flag the driver parses must appear backticked somewhere
  // (`--check-docs=path` counts for `--check-docs`).  Backward: every backticked token that starts
  // with `--` must be a flag the driver parses, so prose written against a
  // renamed or removed flag fails the gate.
  for (const char* flag : cli_flags()) {
    std::string needle = "`";
    needle += flag;
    if (doc.find(needle) == std::string::npos) {
      err << "paraio_lint: doc drift: flag '" << flag
          << "' is not documented in " << doc_name << "\n";
      drift = kExitFindings;
    }
  }
  pos = 0;
  while ((pos = doc.find("`--", pos)) != std::string::npos) {
    const std::size_t begin = pos + 1;
    std::size_t end = begin;
    while (end < doc.size() && doc[end] != '`' && doc[end] != '=' &&
           doc[end] != ' ' && doc[end] != '\n') {
      ++end;
    }
    pos = end;
    const std::string flag = doc.substr(begin, end - begin);
    bool known = false;
    for (const char* f : cli_flags()) known = known || flag == f;
    if (!known) {
      err << "paraio_lint: doc drift: " << doc_name
          << " documents unknown flag '" << flag << "'\n";
      drift = kExitFindings;
    }
  }
  if (drift == kExitClean) {
    err << "paraio_lint: " << doc_name << " is in sync with the catalog ("
        << checks().size() << " checks, " << cli_flags().size()
        << " flags)\n";
  }
  return drift;
}

}  // namespace paraio::lint
