// The append-to-string writer shared by the metrics dump
// (Registry::dump_text) and the Chrome trace exporter (chrome_trace_text).
//
// Every number goes through std::to_chars: no locale, no stream state, no
// format-string parsing.  Each floating-point renderer produces exactly the
// bytes of the printf format it names — std::to_chars with an explicit
// precision is specified as printf in the C locale, and tests/obs checks it
// against snprintf over random bit patterns and the special values — so
// the export format is unchanged by how it is produced.
#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace paraio::obs {

/// Appends `v` as printf("%.9g") renders it ("nan", "-inf" included).
inline void append_g9(std::string& out, double v) {
  // Sign, 9 digits, point, "e-308": 17 bytes at most.
  char buf[32];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 9)
          .ptr;
  out.append(buf, end);
}

/// Appends `seconds` in microseconds as printf("%.3f", seconds * 1e6)
/// renders it: byte-stable, and fine-grained enough for the
/// sub-microsecond service-time model.
inline void append_micros(std::string& out, double seconds) {
  // Sign, the 309 integer digits of DBL_MAX, point and 3 decimals.
  char buf[std::numeric_limits<double>::max_exponent10 + 8];
  const auto end = std::to_chars(buf, buf + sizeof buf, seconds * 1e6,
                                 std::chars_format::fixed, 3)
                       .ptr;
  out.append(buf, end);
}

/// A double to append as append_g9 renders it.
struct G9 {
  double value;
};

/// Seconds to append as append_micros renders them.
struct Micros {
  double seconds;
};

/// Appends each part in order: text and characters as they are, unsigned
/// integers in decimal, G9 and Micros as above.  A bare double does not
/// compile, so every floating-point field names its format.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  const auto one = [&out](const auto& part) {
    using T = std::remove_cvref_t<decltype(part)>;
    if constexpr (std::is_same_v<T, char>) {
      out += part;
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(std::is_unsigned_v<T>, "only unsigned integers");
      char buf[std::numeric_limits<std::uint64_t>::digits10 + 1];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
    } else if constexpr (std::is_same_v<T, G9>) {
      append_g9(out, part.value);
    } else if constexpr (std::is_same_v<T, Micros>) {
      append_micros(out, part.seconds);
    } else {
      out.append(std::string_view(part));
    }
  };
  (one(parts), ...);
}

/// Renders a value once for a run of equal values.  The sampler records
/// every series of one snapshot at the same time, so the exporters render
/// each snapshot time once instead of once per sample.
template <void (*Render)(std::string&, double)>
class RepeatedValueText {
 public:
  [[nodiscard]] std::string_view operator()(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (text_.empty() || bits != bits_) {  // no render is ever empty
      text_.clear();
      Render(text_, v);
      bits_ = bits;
    }
    return text_;
  }

 private:
  std::string text_;
  std::uint64_t bits_ = 0;
};

}  // namespace paraio::obs
