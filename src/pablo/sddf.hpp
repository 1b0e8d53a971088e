// Self-describing trace file format, modeled on Pablo's SDDF.
//
// A trace file is line-oriented ASCII:
//
//   #SDDF-ASCII paraio-io-trace 1
//   #record IoEvent timestamp:f64 duration:f64 node:u32 file:u32 op:str
//           offset:u64 requested:u64 transferred:u64 mode:str
//   #file <id> <path>
//   E <timestamp> <duration> <node> <file> <op> <offset> <requested>
//     <transferred> <mode>
//
// The header carries the record structure separately from the data
// (Pablo's meta-format idea), so readers can check field layout before
// parsing, and unknown directives are skipped for forward compatibility.
// Doubles are serialized in hex-float so the round trip is bit-exact.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "pablo/trace.hpp"

namespace paraio::pablo {

/// Writes `trace` to `out`.  Throws std::runtime_error on stream failure.
void write_trace(std::ostream& out, const Trace& trace);

/// Convenience: writes to a file path.
void write_trace_file(const std::string& path, const Trace& trace);

/// Parses a trace written by write_trace.  Throws std::runtime_error naming
/// the line on malformed input: bad magic, missing or extra fields,
/// unparsable values, negative or out-of-range integers, a non-finite
/// timestamp, or a negative or non-finite duration.
[[nodiscard]] Trace read_trace(std::istream& in);

/// Convenience: reads from a file path.
[[nodiscard]] Trace read_trace_file(const std::string& path);

/// Round-trippable op/mode spellings used inside trace files (distinct from
/// the human-facing to_string forms, which contain spaces).
[[nodiscard]] const char* op_token(Op op);
[[nodiscard]] Op op_from_token(const std::string& token);
[[nodiscard]] const char* mode_token(io::AccessMode mode);
[[nodiscard]] io::AccessMode mode_from_token(const std::string& token);

/// The f64 field codec behind write_trace/read_trace, exported so tests can
/// pin it.  format_trace_double writes `v` byte-for-byte as snprintf("%a")
/// does (glibc's canonical form, "inf"/"nan" included) into `out`, which
/// needs room for 24 chars; returns one past the last char written.  No NUL.
char* format_trace_double(double v, char* out);

/// Parses one f64 field: any spelling strtod accepts (%a hex in either
/// case, decimal, inf/nan, a leading '+'), exactly, via std::from_chars.
/// Returns false on malformed text.
[[nodiscard]] bool parse_trace_double(std::string_view text, double& out);

}  // namespace paraio::pablo
