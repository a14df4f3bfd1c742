// Unit tests: strong ids, RNG determinism and distribution sanity, hashing,
// ASCII table rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "util/hash.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace wan {
namespace {

TEST(Ids, DefaultConstructedIsInvalid) {
  HostId h;
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(h.value(), HostId::kInvalid);
}

TEST(Ids, ValueRoundTrip) {
  UserId u(42);
  EXPECT_TRUE(u.valid());
  EXPECT_EQ(u.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(HostId(1), HostId(2));
  EXPECT_EQ(AppId(7), AppId(7));
  EXPECT_NE(AppId(7), AppId(8));
}

TEST(Ids, ToStringFormats) {
  EXPECT_EQ(to_string(HostId(3)), "host#3");
  EXPECT_EQ(to_string(UserId(9)), "user#9");
  EXPECT_EQ(to_string(AppId(1)), "app#1");
  EXPECT_EQ(to_string(HostId{}), "host#invalid");
}

TEST(Ids, Hashable) {
  std::unordered_set<HostId> set;
  set.insert(HostId(1));
  set.insert(HostId(2));
  set.insert(HostId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIndependence) {
  Rng a(7);
  Rng c = a.split();
  // Parent continues; child stream is distinct.
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng rng(11);
  const double w[3] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[weighted_pick(rng, w, 3)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Hash, Fnv1aKnownValue) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(fnv1a(""), kFnvOffset);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hash, MixChangesWithValue) {
  EXPECT_NE(hash_mix(kFnvOffset, 1), hash_mix(kFnvOffset, 2));
}

TEST(Hash, CombineAsymmetric) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Table, RendersAlignedColumns) {
  Table t("Demo");
  t.set_header({"C", "PA"});
  t.add_row({"1", "0.50000"});
  t.add_row({"10", "1.00000"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("| C "), std::string::npos);
  EXPECT_NE(out.find("0.50000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(0.387423, 5), "0.38742");
  EXPECT_EQ(Table::fmt(1.0, 2), "1.00");
  EXPECT_EQ(Table::fmt(std::int64_t{-7}), "-7");
}

TEST(AsciiChart, ContainsMarkersAndLegend) {
  AsciiChartSeries s1{"PA", '*', {0.1, 0.5, 1.0}};
  AsciiChartSeries s2{"PS", 'o', {1.0, 0.5, 0.1}};
  const std::string out = render_ascii_chart("Figure", {s1, s2}, 10);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("PA"), std::string::npos);
  EXPECT_NE(out.find("Figure"), std::string::npos);
}

TEST(AsciiChart, OverlapMarkedWithPlus) {
  AsciiChartSeries s1{"a", '*', {0.5}};
  AsciiChartSeries s2{"b", 'o', {0.5}};
  const std::string out = render_ascii_chart("t", {s1, s2}, 5);
  EXPECT_NE(out.find('+'), std::string::npos);
}

}  // namespace
}  // namespace wan
