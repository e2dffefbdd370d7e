#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/counters.h"
#include "common/crc32.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "distance/simd_dispatch.h"

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

// A count is decimal digits only. strtoull alone would negate "-1" into
// 2^64 - 1, so HYDRA_IO_RETRIES=-1 read as an unbounded retry budget; a
// sign, a space or a value past 2^64 - 1 now falls back instead. Digits
// up to 2^64 - 1 are still taken as written: the parsers bound no count.
// Only the parsers run here.
TEST(Options, CountsAreDigitsOnly) {
  const char* kVar = "HYDRA_OPTIONS_TEST_COUNT";
  for (const char* bad : {"-1", "-0", "+3", " 3", "3 ", "0x10", "abc",
                          "18446744073709551616"}) {
    ::setenv(kVar, bad, 1);
    EXPECT_EQ(EnvOrU64(kVar, 7), 7u) << bad;
    EXPECT_EQ(EnvOrSize(kVar, 7), 7u) << bad;
  }
  ::setenv(kVar, "0", 1);
  EXPECT_EQ(EnvOrU64(kVar, 7), 0u);
  ::setenv(kVar, "18446744073709551615", 1);
  EXPECT_EQ(EnvOrU64(kVar, 7), UINT64_MAX);
  ::unsetenv(kVar);
  EXPECT_EQ(EnvOrSize(kVar, 7), 7u);

  EXPECT_EQ(ParseCountList("2,-1", {9}), std::vector<size_t>({2}));
  EXPECT_EQ(ParseCountList("-1", {9}), std::vector<size_t>({9}));
  EXPECT_EQ(ParseCountList("1, 2,+3,0,4", {}), std::vector<size_t>({1, 4}));
  EXPECT_EQ(ParseCountList(nullptr, {9}), std::vector<size_t>({9}));
}

// Every CRC-32C implementation this CPU can run: the table, the SSE4.2
// path where the CPU has it, and the dispatched Crc32c.
std::vector<Crc32cFn> SupportedCrcs() {
  std::vector<Crc32cFn> crcs = {&Crc32cTable, &Crc32c};
  if (Sse42Crc32c() != nullptr) crcs.push_back(Sse42Crc32c());
  return crcs;
}

// RFC 3720 section B.4 check values, plus the catalogue check value of
// "123456789".
TEST(Crc32c, KnownAnswers) {
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = 31 - i;
  }
  for (Crc32cFn crc : SupportedCrcs()) {
    EXPECT_EQ(crc(zeros.data(), 32, 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), 32, 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending.data(), 32, 0), 0x46DD794Eu);
    EXPECT_EQ(crc(descending.data(), 32, 0), 0x113FDB5Cu);
    EXPECT_EQ(crc("123456789", 9, 0), 0xE3069283u);
  }
}

// Each implementation equals the table at every length up to a 4 KB
// page, at every alignment modulo 8, each case seeded with the checksum
// of the case before it; and a checksum split anywhere continues.
TEST(Crc32c, EveryImplementationMatchesTheTable) {
  Rng rng(22);
  std::vector<uint8_t> bytes(4096 + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64(256));
  for (Crc32cFn crc : SupportedCrcs()) {
    if (crc == &Crc32cTable) continue;
    uint32_t seed = 0;
    for (size_t len = 0; len <= 4096; ++len) {
      for (size_t align = 0; align < 8; ++align) {
        const uint8_t* p = bytes.data() + align;
        const uint32_t want = Crc32cTable(p, len, seed);
        ASSERT_EQ(crc(p, len, seed), want)
            << "length " << len << " alignment " << align;
        seed = want;
      }
    }
    const uint32_t whole = crc(bytes.data(), 4096, 0);
    for (size_t cut : {1, 7, 8, 9, 1000, 4095}) {
      EXPECT_EQ(crc(bytes.data() + cut, 4096 - cut,
                    crc(bytes.data(), cut, 0)),
                whole)
          << "cut at " << cut;
    }
  }
}

// HYDRA_SIMD=scalar pins the table; otherwise the hardware path runs
// wherever the CPU has one. The block kernel follows the same choice.
TEST(Crc32c, DispatchFollowsTheSimdTarget) {
  if (ActiveSimdTarget() == SimdTarget::kScalar ||
      Sse42Crc32c() == nullptr) {
    EXPECT_EQ(ActiveCrc32c(), &Crc32cTable);
    EXPECT_EQ(ActiveCrc32cBlocks(), &Crc32cBlocksTable);
  } else {
    EXPECT_EQ(ActiveCrc32c(), Sse42Crc32c());
    EXPECT_EQ(ActiveCrc32cBlocks(), Sse42Crc32cBlocks());
  }
}

// Every block kernel this CPU can run: the table, the four-chain SSE4.2
// path where the CPU has it, and the dispatched Crc32cBlocks.
std::vector<Crc32cBlocksFn> SupportedBlockCrcs() {
  std::vector<Crc32cBlocksFn> crcs = {&Crc32cBlocksTable, &Crc32cBlocks};
  if (Sse42Crc32cBlocks() != nullptr) crcs.push_back(Sse42Crc32cBlocks());
  return crcs;
}

// Each block kernel returns Crc32cTable of every block: counts below,
// at and past a group of four chains, blocks with and without a tail
// after their last 8-byte word, and unaligned starts. The slot past the
// last block is never written.
TEST(Crc32c, BlockKernelsMatchTheTableOnEveryBlock) {
  constexpr uint32_t kUnwritten = 0xDEADBEEFu;
  Rng rng(25);
  std::vector<uint8_t> bytes(17 * 1028 + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64(256));
  const std::vector<size_t> counts = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17};
  const std::vector<size_t> sizes = {1, 4, 7, 8, 12, 1024, 1028};
  for (Crc32cBlocksFn crc : SupportedBlockCrcs()) {
    for (size_t count : counts) {
      for (size_t size : sizes) {
        for (size_t align = 1; align < 8; align += 2) {
          const uint8_t* p = bytes.data() + align;
          std::vector<uint32_t> out(count + 1, kUnwritten);
          crc(p, count, size, out.data());
          for (size_t b = 0; b < count; ++b) {
            ASSERT_EQ(out[b], Crc32cTable(p + b * size, size, 0))
                << "block " << b << " of " << count << ", " << size
                << " bytes, alignment " << align;
          }
          ASSERT_EQ(out[count], kUnwritten) << "wrote past block " << count;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hydra
