// Unit tests for src/common: diagnostics, env parsing, hashing, RNG, stats,
// table, time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/diagnostics.hpp"
#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace mh {
namespace {

TEST(Diagnostics, CheckPassesOnTrue) {
  EXPECT_NO_THROW(MH_CHECK(1 + 1 == 2));
}

TEST(Diagnostics, CheckThrowsOnFalse) {
  EXPECT_THROW(MH_CHECK(false), Error);
}

TEST(Diagnostics, CheckMessageIncludesExpressionAndLocation) {
  try {
    MH_CHECK(2 < 1, "two is not less than one");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("two is not less than one"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
    EXPECT_GT(e.line(), 0u);
  }
}

TEST(Env, StrictParserFallsBackOnMalformedValues) {
  constexpr const char* kVar = "MH_TEST_ENV_NUMBER";
  ::unsetenv(kVar);
  EXPECT_EQ(env_number(kVar, 7.0), 7.0);
  EXPECT_EQ(env_integer<std::size_t>(kVar, 7), 7u);
  ::setenv(kVar, "12", 1);
  EXPECT_EQ(env_number(kVar, 7.0), 12.0);
  EXPECT_EQ(env_integer<std::size_t>(kVar, 7), 12u);
  // Empty, trailing characters and non-finite values are not numbers.
  for (const char* bad : {"", "12abc", "inf", "nan"}) {
    ::setenv(kVar, bad, 1);
    EXPECT_EQ(env_number(kVar, 7.0), 7.0) << bad;
    EXPECT_EQ(env_integer<std::size_t>(kVar, 7), 7u) << bad;
  }
  // Finite numbers parse, but a count must also fit its type.
  ::setenv(kVar, "-1", 1);
  EXPECT_EQ(env_number(kVar, 7.0), -1.0);
  EXPECT_EQ(env_integer<std::size_t>(kVar, 7), 7u);
  ::setenv(kVar, "1e30", 1);
  EXPECT_EQ(env_number(kVar, 7.0), 1e30);
  EXPECT_EQ(env_integer<std::size_t>(kVar, 7), 7u);
  EXPECT_EQ(env_integer<std::uint32_t>(kVar, 7), 7u);
  ::unsetenv(kVar);
}

TEST(Hash, Fnv1aDiffersOnDifferentInput) {
  const int a = 1, b = 2;
  EXPECT_NE(hash_value(a), hash_value(b));
}

TEST(Hash, Mix64IsDeterministicAndNontrivial) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), 42u);
  EXPECT_NE(mix64(0), mix64(1));
}

TEST(Hash, CombineIsOrderDependent) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(4);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, MeanIsRoughlyHalf) {
  Rng r(6);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += r.next_double();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(SimTime, UnitConversions) {
  EXPECT_DOUBLE_EQ(SimTime::millis(1500.0).sec(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::micros(2000.0).ms(), 2.0);
  EXPECT_DOUBLE_EQ(SimTime::seconds(1.0).us(), 1e6);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::seconds(2.0);
  const SimTime b = SimTime::seconds(0.5);
  EXPECT_DOUBLE_EQ((a + b).sec(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).sec(), 1.5);
  EXPECT_DOUBLE_EQ((a * 3.0).sec(), 6.0);
  EXPECT_DOUBLE_EQ((a / 4.0).sec(), 0.5);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(max(a, b), a);
  EXPECT_EQ(min(a, b), b);
}

TEST(SimTime, AccumulationOperators) {
  SimTime t = SimTime::zero();
  t += SimTime::millis(250.0);
  t += SimTime::millis(750.0);
  EXPECT_DOUBLE_EQ(t.sec(), 1.0);
  t -= SimTime::millis(500.0);
  EXPECT_DOUBLE_EQ(t.sec(), 0.5);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  // An empty accumulator has no extrema: NaN, not a fake 0.0.
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(SampleSummary, DerivesMedianP95AndCov) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const SampleSummary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.cov, s.stddev / s.mean, 1e-15);

  const SampleSummary empty = summarize(std::vector<double>{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_TRUE(std::isnan(empty.min));
  EXPECT_TRUE(std::isnan(empty.p50));
  EXPECT_DOUBLE_EQ(empty.cov, 0.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 1.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, -1.0), Error);
  EXPECT_THROW(percentile({1.0}, 101.0), Error);
}

TEST(TextTable, PrintsAlignedRows) {
  TextTable t({"nodes", "time (s)"});
  t.add_row({"2", "88"});
  t.add_row({"16", "19"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("nodes"), std::string::npos);
  EXPECT_NE(out.find("88"), std::string::npos);
  EXPECT_NE(out.find("19"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(2.345, 1), "2.3");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace mh
