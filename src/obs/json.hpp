// Dependency-free JSON validation (RFC 8259 subset: no duplicate-key or
// number-range policing).  Split out of the Chrome exporter so tools that
// emit JSON without linking the full obs layer, such as paraio_stat, can
// self-check their output with the same checker the trace exporter uses.
#pragma once

#include <string>
#include <string_view>

namespace paraio::obs {

/// Returns true when `text` is exactly one valid JSON value; on failure
/// `error`, if non-null, receives a short message with the byte offset.
[[nodiscard]] bool validate_json(std::string_view text,
                                 std::string* error = nullptr);

}  // namespace paraio::obs
