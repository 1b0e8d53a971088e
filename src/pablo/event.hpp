// Trace event records — the unit of data the whole characterization
// pipeline operates on.
//
// Every application file operation is bracketed by the instrumentation
// layer, producing one IoEvent with the call's parameters, start timestamp,
// and duration — the Pablo I/O extension's capture model (§3.1).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "io/file.hpp"
#include "sim/time.hpp"

namespace paraio::pablo {

/// Operation kinds, matching the rows of the paper's Tables 1/3/5.
enum class Op : std::uint8_t {
  kRead,
  kWrite,
  kSeek,
  kOpen,
  kClose,
  kLsize,      // file size query (Table 5, "Lsize")
  kFlush,      // Fortran buffer flush (Table 5, "Forflush")
  kAsyncRead,  // iread issue (Table 3, "AsynchRead")
  kAsyncWrite, // iwrite issue
  kIoWait,     // iowait (Table 3, "I/O Wait")
};

[[nodiscard]] const char* to_string(Op op);

/// Number of distinct Op values (for fixed-size per-op accumulators).
inline constexpr std::size_t kOpCount = 10;

/// One bracketed file operation.
///
/// Layout, 56 bytes: the two f64 times; node, file, op and mode in one
/// 16-byte row (3 padding bytes after op align mode); then the three u64
/// byte counts.  A trace holds one per operation (530,768 for an ESCAT-512
/// job), so each byte here is half a megabyte of trace.  Trace keeps them
/// in a realloc-grown array, which needs them trivially copyable.
struct IoEvent {
  sim::SimTime timestamp = 0.0;      ///< operation start time
  sim::SimDuration duration = 0.0;   ///< wall (simulated) time in the call
  io::NodeId node = 0;               ///< issuing compute node
  io::FileId file = 0;               ///< target file
  Op op = Op::kRead;
  io::AccessMode mode = io::AccessMode::kUnix;
  std::uint64_t offset = 0;          ///< file position at the start
  std::uint64_t requested = 0;       ///< bytes requested (0 for control ops)
  std::uint64_t transferred = 0;     ///< bytes actually moved

  [[nodiscard]] bool is_data_op() const {
    return op == Op::kRead || op == Op::kWrite || op == Op::kAsyncRead ||
           op == Op::kAsyncWrite;
  }
  [[nodiscard]] bool moves_data_to_app() const {
    return op == Op::kRead || op == Op::kAsyncRead;
  }
  [[nodiscard]] bool moves_data_to_storage() const {
    return op == Op::kWrite || op == Op::kAsyncWrite;
  }

  friend bool operator==(const IoEvent&, const IoEvent&) = default;
};

static_assert(sizeof(IoEvent) == 56, "IoEvent packs into 56 bytes");
static_assert(std::is_trivially_copyable_v<IoEvent>,
              "Trace grows its IoEvent array with realloc");

}  // namespace paraio::pablo
