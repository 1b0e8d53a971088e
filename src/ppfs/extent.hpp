// Ordered set of byte extents with automatic coalescing.
//
// The write-behind buffer accumulates application writes as extents; because
// overlapping and adjacent inserts merge, a burst of small contiguous writes
// (ESCAT's 2 KB quadrature records) collapses into a handful of large
// extents before anything reaches an I/O node — the client half of the
// paper's §5.2 "write behind + request aggregation" result.
//
// The extents live in one sorted vector: a buffer holds a handful of them
// (one per flush on ESCAT), a coalescing insert merges in place, and clear()
// keeps the capacity, so a write-behind buffer allocates nothing once warm.
#pragma once

#include <cstdint>
#include <vector>

namespace paraio::ppfs {

struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  [[nodiscard]] std::uint64_t end() const { return offset + length; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

class ExtentSet {
 public:
  /// Inserts [offset, offset+length), merging with overlapping or adjacent
  /// extents.
  void insert(std::uint64_t offset, std::uint64_t length);

  /// True if any byte of [offset, offset+length) is present.
  [[nodiscard]] bool overlaps(std::uint64_t offset, std::uint64_t length) const;

  /// True if every byte of [offset, offset+length) is present.
  [[nodiscard]] bool covers(std::uint64_t offset, std::uint64_t length) const;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t count() const noexcept { return extents_.size(); }
  [[nodiscard]] bool empty() const noexcept { return extents_.empty(); }
  /// Largest end offset present (0 when empty).
  [[nodiscard]] std::uint64_t max_end() const;

  /// Extents in offset order: disjoint and non-adjacent.
  [[nodiscard]] const std::vector<Extent>& extents() const noexcept {
    return extents_;
  }

  /// Empties the set, keeping its storage.
  void clear() noexcept {
    extents_.clear();
    bytes_ = 0;
  }

  /// Moves the extents out and leaves the set empty, holding `spare`'s
  /// storage instead (cleared): a flush ships the extents without copying
  /// them, and hands the vector back as the next flush's spare.
  [[nodiscard]] std::vector<Extent> take(std::vector<Extent> spare) noexcept {
    spare.clear();
    extents_.swap(spare);
    bytes_ = 0;
    return spare;
  }

 private:
  /// First extent whose end is at or past `at`: the first that could
  /// touch (or, with `at` itself, abut) a range starting at `at`.
  [[nodiscard]] std::vector<Extent>::const_iterator first_ending_at_or_after(
      std::uint64_t at) const;

  std::vector<Extent> extents_;  // sorted by offset
  std::uint64_t bytes_ = 0;
};

}  // namespace paraio::ppfs
