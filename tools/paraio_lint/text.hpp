// Token-level text helpers shared by the linter's index pass and checks.
// Everything operates on comment/string-stripped source, offsets are bytes,
// lines and columns are 1-based.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace paraio::lint::text {

inline bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline std::string trim(std::string s) {
  const auto b = s.find_first_not_of(" \t");
  const auto e = s.find_last_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

/// 0-based offsets of each line start, for offset -> line translation.
inline std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

inline std::size_t line_of(const std::vector<std::size_t>& starts,
                           std::size_t pos) {
  auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<std::size_t>(it - starts.begin());  // 1-based
}

inline std::size_t col_of(const std::vector<std::size_t>& starts,
                          std::size_t pos) {
  const std::size_t line = line_of(starts, pos);
  return pos - starts[line - 1] + 1;  // 1-based
}

/// Position just past the matching closer for the opener at `open`.
/// Returns npos when unbalanced (callers then give up on that site).
inline std::size_t skip_balanced(const std::string& text, std::size_t open,
                                 char open_ch, char close_ch) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_ch) ++depth;
    if (text[i] == close_ch && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

inline std::size_t skip_spaces(const std::string& text, std::size_t pos) {
  while (pos < text.size() &&
         (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n')) {
    ++pos;
  }
  return pos;
}

/// Last non-whitespace position strictly before `pos`, or npos.
inline std::size_t prev_nonspace(const std::string& text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    const char c = text[pos];
    if (c != ' ' && c != '\t' && c != '\n') return pos;
  }
  return std::string::npos;
}

inline std::string read_ident(const std::string& text, std::size_t pos,
                              std::size_t* end = nullptr) {
  std::size_t i = pos;
  while (i < text.size() && is_ident(text[i])) ++i;
  if (end) *end = i;
  return text.substr(pos, i - pos);
}

/// Identifier ending at (inclusive) `last`, reading backward.  Returns the
/// identifier and sets `*begin` to its first character.
inline std::string read_ident_backward(const std::string& text,
                                       std::size_t last,
                                       std::size_t* begin = nullptr) {
  std::size_t b = last + 1;
  while (b > 0 && is_ident(text[b - 1])) --b;
  if (begin) *begin = b;
  return text.substr(b, last + 1 - b);
}

/// Occurrences of `word` as a whole identifier.
inline std::vector<std::size_t> find_word(const std::string& text,
                                          std::string_view word) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(text[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !is_ident(text[after]);
    if (left_ok && right_ok) out.push_back(pos);
    pos = after;
  }
  return out;
}

/// Final identifier of an expression like `fs_.inflight_`, `this->buffers_`,
/// or `*handles` — the name the expression ultimately denotes.
inline std::string trailing_ident(const std::string& expr) {
  std::string e = trim(expr);
  if (e.empty()) return "";
  if (e.back() == ')') return "";  // call result
  std::size_t end = e.size();
  std::size_t begin = end;
  while (begin > 0 && is_ident(e[begin - 1])) --begin;
  return e.substr(begin, end - begin);
}

}  // namespace paraio::lint::text
