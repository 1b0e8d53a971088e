#include "ppfs/extent.hpp"

#include <algorithm>

namespace paraio::ppfs {

std::vector<Extent>::const_iterator ExtentSet::first_ending_at_or_after(
    std::uint64_t at) const {
  // Extents are disjoint and sorted, so their ends ascend too.
  return std::partition_point(
      extents_.begin(), extents_.end(),
      [at](const Extent& e) { return e.end() < at; });
}

void ExtentSet::insert(std::uint64_t offset, std::uint64_t length) {
  if (length == 0) return;
  const std::uint64_t hi = offset + length;
  // [first, last) is every extent overlapping or adjacent to [offset, hi).
  const auto first = extents_.begin() +
                     (first_ending_at_or_after(offset) - extents_.cbegin());
  auto last = first;
  while (last != extents_.end() && last->offset <= hi) ++last;
  if (first == last) {
    extents_.insert(first, Extent{offset, length});
    bytes_ += length;
    return;
  }
  // Merge into the first touched extent and drop the rest.
  const std::uint64_t lo = std::min(offset, first->offset);
  const std::uint64_t end = std::max(hi, std::prev(last)->end());
  for (auto it = first; it != last; ++it) bytes_ -= it->length;
  *first = Extent{lo, end - lo};
  bytes_ += end - lo;
  extents_.erase(first + 1, last);
}

bool ExtentSet::overlaps(std::uint64_t offset, std::uint64_t length) const {
  if (length == 0) return false;
  const auto it = first_ending_at_or_after(offset + 1);
  return it != extents_.end() && it->offset < offset + length;
}

bool ExtentSet::covers(std::uint64_t offset, std::uint64_t length) const {
  if (length == 0) return true;
  const auto it = first_ending_at_or_after(offset + 1);
  return it != extents_.end() && it->offset <= offset &&
         it->end() >= offset + length;
}

std::uint64_t ExtentSet::max_end() const {
  return extents_.empty() ? 0 : extents_.back().end();
}

}  // namespace paraio::ppfs
