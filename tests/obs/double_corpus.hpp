// Inputs for the obs number-formatter exactness tests: seeded random bit
// patterns over the whole double range, values in the range simulated
// times and metric values actually take, ties for %.9g rounding, and the
// special values.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace paraio::obs {

inline std::vector<double> double_corpus() {
  std::mt19937_64 rng(0x0B5);
  std::vector<double> values;
  values.reserve(1'250'000 + 64);
  for (int i = 0; i < 1'000'000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  // Simulated seconds and metric values: [0, 2^20) with a random number of
  // low mantissa bits cleared, so short fractions are covered too.
  std::uniform_real_distribution<double> realistic(0.0, 1 << 20);
  for (int i = 0; i < 250'000; ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(realistic(rng));
    const unsigned cleared = static_cast<unsigned>(rng() % 53);
    values.push_back(
        std::bit_cast<double>(bits & ~((std::uint64_t{1} << cleared) - 1)));
  }
  // Exact ten-digit integers ending in 5: %.9g must round half to even.
  for (const double v : {1234567895.0, 1234567885.0, 9999999995.0,
                         1000000005.0, -2000000015.0}) {
    values.push_back(v);
  }
  using L = std::numeric_limits<double>;
  for (const double v : {0.0, -0.0, L::denorm_min(), -L::denorm_min(),
                         L::min(), -L::min(), L::max(), -L::max(),
                         L::infinity(), -L::infinity(), L::quiet_NaN(),
                         -L::quiet_NaN(), 1.0, -1.0, 1.5, 0.1, 0.0005}) {
    values.push_back(v);
  }
  return values;
}

}  // namespace paraio::obs
