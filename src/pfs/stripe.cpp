#include "pfs/stripe.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace paraio::pfs {

void StripeMap::check(const StripeParams& params) {
  if (params.unit == 0) {
    throw std::invalid_argument("pfs::StripeMap: stripe unit must be > 0");
  }
  if (params.io_nodes == 0) {
    throw std::invalid_argument("pfs::StripeMap: io_nodes must be > 0");
  }
  if (params.first_ion >= params.io_nodes) {
    throw std::invalid_argument(
        "pfs::StripeMap: first_ion " + std::to_string(params.first_ion) +
        " must be < io_nodes " + std::to_string(params.io_nodes));
  }
}

StripeMap::StripeMap(const StripeParams& params) : params_(params) {
  check(params_);
}

std::uint32_t StripeMap::ion_of(std::uint64_t offset) const {
  const std::uint64_t stripe = offset / params_.unit;
  return static_cast<std::uint32_t>((stripe + params_.first_ion) %
                                    params_.io_nodes);
}

std::uint64_t StripeMap::local_offset_of(std::uint64_t offset) const {
  const std::uint64_t stripe = offset / params_.unit;
  const std::uint64_t local_stripe = stripe / params_.io_nodes;
  return local_stripe * params_.unit + offset % params_.unit;
}

std::vector<Segment> StripeMap::decompose(std::uint64_t offset,
                                          std::uint64_t length) const {
  std::vector<Segment> segments;
  if (length == 0) return segments;
  const std::uint32_t n = params_.io_nodes;
  // Walk stripe by stripe, merging consecutive stripes on the same ION
  // (they are contiguous locally).  At most n distinct IONs appear.
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + length;
  // Index of a node's segment in `segments`, or -1.
  std::vector<int> index(n, -1);
  while (pos < end) {
    const std::uint64_t stripe_end = (pos / params_.unit + 1) * params_.unit;
    const std::uint64_t chunk = std::min(end, stripe_end) - pos;
    const std::uint32_t ion = ion_of(pos);
    const std::uint64_t local = local_offset_of(pos);
    if (index[ion] < 0) {
      index[ion] = static_cast<int>(segments.size());
      segments.push_back(Segment{ion, local, chunk});
    } else {
      Segment& seg = segments[static_cast<std::size_t>(index[ion])];
      assert(seg.local_offset + seg.length == local &&
             "stripes on one ION must be locally contiguous");
      seg.length += chunk;
    }
    pos += chunk;
  }
  return segments;
}

}  // namespace paraio::pfs
