#include "ssd/runs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace pas::ssd {
namespace {

using Spans = std::vector<std::pair<std::uint64_t, std::uint64_t>>;  // (first, len)

Spans unbuffered(const BufferedRanges& r, std::uint64_t first, std::uint64_t n) {
  Spans out;
  r.for_each_unbuffered(first, n, [&](std::uint64_t f, std::uint64_t len) {
    out.emplace_back(f, len);
  });
  return out;
}

// The oracle's answer: maximal zero-count sub-runs of [first, first + n).
Spans zero_runs(const std::vector<int>& counts, std::uint64_t first, std::uint64_t n) {
  Spans out;
  for (std::uint64_t u = first; u < first + n; ++u) {
    if (counts[u] != 0) continue;
    if (!out.empty() && out.back().first + out.back().second == u) {
      ++out.back().second;
    } else {
      out.emplace_back(u, 1);
    }
  }
  return out;
}

TEST(BufferedRanges, BeforeFirstAddEverythingIsUnbuffered) {
  const BufferedRanges r(1000);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(unbuffered(r, 0, 1000), (Spans{{0, 1000}}));
  EXPECT_EQ(unbuffered(r, 70, 5), (Spans{{70, 5}}));
}

TEST(BufferedRanges, RangesStartEndAndCrossMidWord) {
  BufferedRanges r(256);
  r.add(60, 10);   // units 60..69: crosses the word 0 / word 1 boundary
  r.add(62, 3);    // 62..64 twice
  r.add(63, 1);    // 63 three times
  r.add(100, 80);  // 100..179: mid word 1 through mid word 2
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(unbuffered(r, 0, 256), (Spans{{0, 60}, {70, 30}, {180, 76}}));
  EXPECT_EQ(unbuffered(r, 61, 5), Spans{});
  EXPECT_EQ(unbuffered(r, 65, 40), (Spans{{70, 30}}));

  r.remove(60, 10);  // every unit drops by one: 62..64 and 63 stay buffered
  EXPECT_EQ(unbuffered(r, 50, 30), (Spans{{50, 12}, {65, 15}}));
  r.remove(62, 3);
  EXPECT_EQ(unbuffered(r, 50, 30), (Spans{{50, 13}, {64, 16}}));
  r.remove(63, 1);
  r.remove(100, 80);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(unbuffered(r, 0, 256), (Spans{{0, 256}}));
}

// Random add/remove traffic checked unit by unit against a count array. A
// hot range keeps counts of three and more in play, and the wide ranges put
// many words into the count table at once.
TEST(BufferedRanges, RandomTrafficMatchesPerUnitCounts) {
  constexpr std::uint64_t kUnits = 64 * 200 + 37;  // partial last word
  BufferedRanges r(kUnits);
  std::vector<int> counts(kUnits, 0);
  Spans outstanding;  // added, not yet removed
  Rng rng(3);
  int max_count = 0;
  for (int op = 0; op < 20000; ++op) {
    const bool add = outstanding.empty() || (outstanding.size() < 300 && rng.next_below(2) == 0);
    if (add) {
      const bool hot = rng.next_below(4) == 0;
      const std::uint64_t len = 1 + rng.next_below(hot ? 20 : 300);
      const std::uint64_t first =
          hot ? 1000 + rng.next_below(40) : rng.next_below(kUnits - len + 1);
      r.add(first, len);
      outstanding.emplace_back(first, len);
      for (std::uint64_t u = first; u < first + len; ++u) {
        max_count = std::max(max_count, ++counts[u]);
      }
    } else {
      const std::size_t k = rng.next_below(outstanding.size());
      const auto [first, len] = outstanding[k];
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
      r.remove(first, len);
      for (std::uint64_t u = first; u < first + len; ++u) --counts[u];
    }
    EXPECT_EQ(r.empty(), outstanding.empty());
    const std::uint64_t qlen = 1 + rng.next_below(400);
    const std::uint64_t qfirst = rng.next_below(kUnits - qlen + 1);
    ASSERT_EQ(unbuffered(r, qfirst, qlen), zero_runs(counts, qfirst, qlen)) << "op " << op;
    if (op % 1000 == 0) {
      ASSERT_EQ(unbuffered(r, 0, kUnits), zero_runs(counts, 0, kUnits)) << "op " << op;
    }
  }
  EXPECT_GE(max_count, 3);
  while (!outstanding.empty()) {
    r.remove(outstanding.back().first, outstanding.back().second);
    outstanding.pop_back();
  }
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(unbuffered(r, 0, kUnits), (Spans{{0, kUnits}}));
}

TEST(BufferedRangesDeathTest, RemovingAnUnbufferedUnitAborts) {
  BufferedRanges fresh(256);
  EXPECT_DEATH(fresh.remove(5, 1), "PAS_CHECK");
  BufferedRanges r(256);
  r.add(10, 20);
  EXPECT_DEATH(r.remove(5, 1), "PAS_CHECK");
  EXPECT_DEATH(r.remove(25, 10), "PAS_CHECK");  // runs past the buffered range
  r.remove(10, 20);
  EXPECT_DEATH(r.remove(10, 1), "PAS_CHECK");
}

}  // namespace
}  // namespace pas::ssd
