// File striping across I/O nodes.
//
// PFS stripes files round-robin in fixed units (64 KB on the CCSF Paragon)
// across the I/O nodes.  A byte range therefore decomposes into at most one
// contiguous *local* extent per I/O node, because consecutive stripes that
// land on the same I/O node are adjacent in that node's local address space.
// The decomposition below exploits this: per request we emit one Segment per
// touched I/O node, which is also what lets the disk model see sequential
// continuation for streaming access patterns.
#pragma once

#include <cstdint>
#include <vector>

namespace paraio::pfs {

struct StripeParams {
  std::uint64_t unit = 64 * 1024;  ///< stripe unit in bytes
  std::uint32_t io_nodes = 16;     ///< number of I/O nodes in the stripe set
  std::uint32_t first_ion = 0;     ///< I/O node holding stripe 0
};

/// One per-I/O-node piece of a striped request.
struct Segment {
  std::uint32_t ion = 0;            ///< I/O node index
  std::uint64_t local_offset = 0;   ///< byte offset in the ION-local space
  std::uint64_t length = 0;         ///< bytes on this I/O node
  friend bool operator==(const Segment&, const Segment&) = default;
};

class StripeMap {
 public:
  /// Throws std::invalid_argument unless `unit` and `io_nodes` are nonzero
  /// and `first_ion` < `io_nodes` (see check()).
  explicit StripeMap(const StripeParams& params);

  /// Throws std::invalid_argument naming the first bad field of `params`;
  /// every build type checks, since a zero divisor would trap later.
  static void check(const StripeParams& params);

  /// I/O node holding the stripe that contains file offset `offset`.
  [[nodiscard]] std::uint32_t ion_of(std::uint64_t offset) const;

  /// ION-local byte offset of file offset `offset` within its I/O node.
  [[nodiscard]] std::uint64_t local_offset_of(std::uint64_t offset) const;

  /// Decomposes [offset, offset+length) into per-I/O-node segments, one per
  /// touched node (local extents are contiguous per node).  Segments are
  /// ordered by the position of each node's first byte in the request, so
  /// iteration order is deterministic.
  [[nodiscard]] std::vector<Segment> decompose(std::uint64_t offset,
                                               std::uint64_t length) const;

  [[nodiscard]] const StripeParams& params() const noexcept { return params_; }

 private:
  StripeParams params_;
};

}  // namespace paraio::pfs
