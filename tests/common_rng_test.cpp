#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace pas {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 100000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng r(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowUniformity) {
  Rng r(17);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(bound)];
  for (std::uint64_t i = 0; i < bound; ++i) {
    EXPECT_NEAR(counts[i], n / static_cast<int>(bound), 500) << "bucket " << i;
  }
}

// Golden draws: next_below's outputs are part of every seeded result, so any
// rewrite of its 64x64->128 multiply or rejection step must reproduce them
// bit for bit. 2^63 + 1 rejects about half its first draws; 2^64 - 1 needs
// the full-width high word.
TEST(Rng, NextBelowGoldenValues) {
  struct Case {
    std::uint64_t bound;
    std::vector<std::uint64_t> draws;
  };
  const std::vector<Case> cases = {
      {3ULL, {0ULL, 2ULL, 0ULL, 0ULL, 2ULL, 0ULL}},
      {1000000007ULL,
       {55792889ULL, 782103778ULL, 72054940ULL, 159715871ULL, 773650395ULL, 244872126ULL}},
      {(1ULL << 63) + 1,
       {664589519293982720ULL, 1473118889992868405ULL, 2258546705306200698ULL,
        6644008486317064688ULL, 8134989128028724035ULL, 3378749892732358586ULL}},
      {~0ULL,
       {1029197146548041517ULL, 14427268137155694692ULL, 1329179038587965440ULL,
        2946237779985736810ULL, 14271330741670775462ULL, 4517093410612401396ULL}},
  };
  for (const auto& c : cases) {
    Rng r(2024);
    for (std::size_t i = 0; i < c.draws.size(); ++i) {
      EXPECT_EQ(r.next_below(c.bound), c.draws[i]) << "bound " << c.bound << " draw " << i;
    }
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng r(19);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = r.next_in_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextInRangeSingleton) {
  Rng r(23);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.next_in_range(5, 5), 5);
}

TEST(Rng, GaussianMoments) {
  Rng r(29);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.next_gaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
  Rng r(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.next_gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ForkIndependence) {
  Rng parent(37);
  Rng child = parent.fork();
  // Child stream differs from parent's continued stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(41);
  Rng p2(41);
  Rng c1 = p1.fork();
  Rng c2 = p2.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

}  // namespace
}  // namespace pas
