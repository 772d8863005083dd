#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace pas {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Exact 64x64 -> 128-bit product, split into its high and low words, built
// from four 32-bit partial products (ISO C++ has no 128-bit integer).
struct Product128 {
  std::uint64_t hi;
  std::uint64_t lo;
};

Product128 mul_64x64(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kLow32 = 0xFFFFFFFFULL;
  const std::uint64_t a_lo = a & kLow32;
  const std::uint64_t a_hi = a >> 32;
  const std::uint64_t b_lo = b & kLow32;
  const std::uint64_t b_hi = b >> 32;
  const std::uint64_t ll = a_lo * b_lo;
  const std::uint64_t lh = a_lo * b_hi;
  const std::uint64_t hl = a_hi * b_lo;
  const std::uint64_t hh = a_hi * b_hi;
  // Three terms below 2^32 each: the sum cannot overflow.
  const std::uint64_t mid = (ll >> 32) + (lh & kLow32) + (hl & kLow32);
  return {hh + (lh >> 32) + (hl >> 32) + (mid >> 32), a * b};
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  has_cached_gaussian_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  PAS_CHECK(bound > 0);
  // Lemire's multiply-shift rejection method.
  Product128 m = mul_64x64(next_u64(), bound);
  if (m.lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (m.lo < threshold) m = mul_64x64(next_u64(), bound);
  }
  return m.hi;
}

std::int64_t Rng::next_in_range(std::int64_t lo, std::int64_t hi) {
  PAS_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * mul;
  has_cached_gaussian_ = true;
  return u * mul;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace pas
