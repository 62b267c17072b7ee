#include "common/rng.hpp"

#include <cmath>

namespace mp5 {

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_exponential(double mean) {
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Rng Rng::fork() { return Rng(next_u64()); }

} // namespace mp5
