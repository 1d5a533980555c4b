#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <set>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace galign {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, EveryFactoryProducesMatchingCode) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("gone"); };
  auto wrapper = [&]() -> Status {
    GALIGN_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.MoveValueOrDie();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(5);
  auto p = rng.Permutation(50);
  std::set<int64_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  auto s = rng.SampleWithoutReplacement(1000, 30);
  std::set<int64_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 30u);
  for (int64_t v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
}

TEST(RngTest, SampleWithoutReplacementDensePath) {
  Rng rng(5);
  auto s = rng.SampleWithoutReplacement(10, 9);
  std::set<int64_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 9u);
}

TEST(RngTest, SampleClampsKtoN) {
  Rng rng(5);
  auto s = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng fork = a.Fork();
  // The fork should not replay the parent's stream.
  Rng b(7);
  (void)b.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (fork.Uniform() == a.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

// ---------------------------------------------------------------- Parallel

TEST(ParallelTest, CoversWholeRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(0, 10000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SmallRangeRunsSerially) {
  std::vector<int> hits(10, 0);
  ParallelFor(0, 10, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelTest, SumMatchesSerial) {
  std::atomic<int64_t> total{0};
  ParallelFor(1, 100001, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), 100000LL * 100001 / 2);
}

TEST(ParallelTest, ReentrantCallsDoNotDeadlock) {
  // Nested ParallelFor must complete (inner calls run serially or not).
  std::atomic<int64_t> count{0};
  ParallelFor(
      0, 8,
      [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          for (int64_t j = 0; j < 100; ++j) count.fetch_add(1);
        }
      },
      1);
  EXPECT_EQ(count.load(), 800);
}

TEST(ParallelTest, ParallelismLevelPositive) {
  EXPECT_GE(ParallelismLevel(), 1);
}

TEST(ParallelTest, ParallelismLevelFollowsAffinityMask) {
  // One thread per CPU this process may run on: under taskset or a cpuset
  // the pool is no larger than the CPUs it gets, whatever the machine has.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(ParallelismLevel(), CPU_COUNT(&set));
}

// ---------------------------------------------------------------- Timer

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  EXPECT_GT(t.Seconds(), 0.0);
  double first = t.Millis();
  EXPECT_GE(t.Millis(), first);  // monotonic
}

TEST(TimerTest, ResetRestartsClock) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  double before = t.Seconds();
  t.Reset();
  EXPECT_LT(t.Seconds(), before);
}

}  // namespace
}  // namespace galign
