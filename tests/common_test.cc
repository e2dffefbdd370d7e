#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/backoff.h"
#include "common/counters.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace hydra {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, FactoryFunctionsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(Status, AllCodesHaveDistinctNames) {
  std::set<std::string> names;
  names.insert(Status::InvalidArgument("").ToString());
  names.insert(Status::NotFound("").ToString());
  names.insert(Status::IoError("").ToString());
  names.insert(Status::FailedPrecondition("").ToString());
  names.insert(Status::OutOfRange("").ToString());
  names.insert(Status::Unimplemented("").ToString());
  names.insert(Status::Internal("").ToString());
  EXPECT_EQ(names.size(), 7u);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status Helper(bool fail) {
  if (fail) return Status::Internal("inner");
  return Status::OK();
}

Status Caller(bool fail) {
  HYDRA_RETURN_IF_ERROR(Helper(fail));
  return Status::OK();
}

TEST(Result, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Caller(false).ok());
  EXPECT_EQ(Caller(true).code(), StatusCode::kInternal);
}

Result<int> MakeInt(bool fail) {
  if (fail) return Status::OutOfRange("nope");
  return 7;
}

Status UseAssign(bool fail, int* out) {
  HYDRA_ASSIGN_OR_RETURN(*out, MakeInt(fail));
  return Status::OK();
}

TEST(Result, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssign(false, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(UseAssign(true, &out).code(), StatusCode::kOutOfRange);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextDouble() == b.NextDouble()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NextUint64RespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(Rng, NextUint64CoversRange) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextUint64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, UniformRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextUniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, ExponentialIsPositiveWithMeanNearInverseRate) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextExponential(2.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Rng, SplitIsDeterministicAndDecorrelated) {
  // Same parent state + same stream index -> identical substream.
  Rng a(99), b(99);
  Rng child_a = a.Split(3);
  Rng child_b = b.Split(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_a.NextUint64(1u << 30), child_b.NextUint64(1u << 30));
  }
  // Distinct streams from the same parent state differ.
  Rng c(99), d(99);
  Rng child_c = c.Split(0);
  Rng child_d = d.Split(1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    any_diff |= child_c.NextUint64(1u << 30) != child_d.NextUint64(1u << 30);
  }
  EXPECT_TRUE(any_diff);
  // Split advances the parent exactly once: the next parent draw matches
  // a parent that burned one engine value.
  Rng e(1234), f(1234);
  (void)e.Split(7);
  (void)f.engine()();
  EXPECT_EQ(e.NextUint64(1u << 30), f.NextUint64(1u << 30));
}

TEST(QueryCounters, AccumulateAddsEveryField) {
  QueryCounters a;
  a.full_distances = 1;
  a.abandoned_distances = 8;
  a.lb_distances = 2;
  a.series_accessed = 3;
  a.bytes_read = 4;
  a.random_ios = 5;
  a.leaves_visited = 6;
  a.nodes_pushed = 7;
  QueryCounters b = a;
  b += a;
  EXPECT_EQ(b.full_distances, 2u);
  EXPECT_EQ(b.abandoned_distances, 16u);
  EXPECT_EQ(b.lb_distances, 4u);
  EXPECT_EQ(b.series_accessed, 6u);
  EXPECT_EQ(b.bytes_read, 8u);
  EXPECT_EQ(b.random_ios, 10u);
  EXPECT_EQ(b.leaves_visited, 12u);
  EXPECT_EQ(b.nodes_pushed, 14u);
}

TEST(QueryCounters, ResetZeroes) {
  QueryCounters a;
  a.full_distances = 9;
  a.bytes_read = 11;
  a.Reset();
  EXPECT_EQ(a.full_distances, 0u);
  EXPECT_EQ(a.bytes_read, 0u);
}

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 1000; ++i) x = x + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
}

TEST(Timer, RestartResets) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  double first = t.ElapsedSeconds();
  t.Restart();
  EXPECT_LE(t.ElapsedSeconds(), first + 1.0);
}

// The one retry schedule both retriers wait (the buffer pool's read
// retries, the connection pool's reconnects), pinned so that a change to
// either retrier's timing is a deliberate one.
TEST(Backoff, DelaysArePinned) {
  // BackoffDelayUs(base_us, cap_us, key, attempt).
  EXPECT_EQ(BackoffDelayUs(100, 20000, 0, 0), 148u);
  EXPECT_EQ(BackoffDelayUs(100, 20000, 7, 3), 864u);
  EXPECT_EQ(BackoffDelayUs(100, 20000, 12345, 6), 9201u);
  EXPECT_EQ(BackoffDelayUs(100, 20000, 1, 10), 7443u);   // shift capped
  EXPECT_EQ(BackoffDelayUs(1000, 16000, 2, 5), 22342u);  // delay capped
  EXPECT_EQ(BackoffDelayUs(0, 20000, 3, 2), 0u);         // no base, no wait
  EXPECT_EQ(BackoffDelayUs(2000, 16000, 0, 1), 5868u);
  EXPECT_EQ(BackoffDelayUs(1000, 250000, 1, 9), 73099u);  // pool defaults
}

}  // namespace
}  // namespace hydra
