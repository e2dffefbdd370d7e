// Fault-injection contract tests: deterministic fault decisions, CRC
// checksum verification, retry/backoff behavior of the buffer pool, and
// the zero-residue guarantee (no pinned frames, no dangling prefetches)
// after a query fails mid-scan.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "index/answer_set.h"
#include "index/leaf_scanner.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"
#include "storage/series_file.h"

namespace hydra {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_fault_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Writes a fresh random-walk dataset and returns it with its path.
  Dataset WriteData(const std::string& name, size_t n, size_t len,
                    uint64_t seed = 1) {
    Rng rng(seed);
    Dataset ds = MakeRandomWalk(n, len, rng);
    EXPECT_TRUE(WriteSeriesFile(Path(name), ds).ok());
    return ds;
  }

  std::filesystem::path dir_;
};

// --- FaultInjector determinism ---

TEST_F(FaultInjectionTest, DecisionsAreDeterministicInSeed) {
  FaultConfig config;
  config.seed = 42;
  config.transient_rate = 0.3;
  config.short_read_rate = 0.2;
  config.corrupt_rate = 0.1;
  FaultInjector a(config);
  FaultInjector b(config);
  // Identical attempt sequences draw identical verdicts: no global RNG,
  // no timing dependence.
  for (int i = 0; i < 200; ++i) {
    FaultInjector::Decision da = a.Decide(i % 7, 1, 16);
    FaultInjector::Decision db = b.Decide(i % 7, 1, 16);
    EXPECT_EQ(da.transient_error, db.transient_error);
    EXPECT_EQ(da.short_read, db.short_read);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.corrupt_word, db.corrupt_word);
  }
  EXPECT_EQ(a.attempts(), 200u);
  EXPECT_EQ(a.injected_transients(), b.injected_transients());
}

TEST_F(FaultInjectionTest, PermanentFaultsAreLocationKeyed) {
  FaultConfig config;
  config.seed = 7;
  config.permanent_rate = 0.2;
  FaultInjector inj(config);
  // Re-reads of the same location fail (or pass) identically, attempt
  // after attempt — permanence is a property of the address.
  std::vector<bool> first_verdicts;
  for (uint64_t s = 0; s < 50; ++s) {
    first_verdicts.push_back(inj.Decide(s, 1, 16).permanent_error);
  }
  for (int round = 0; round < 3; ++round) {
    for (uint64_t s = 0; s < 50; ++s) {
      EXPECT_EQ(inj.Decide(s, 1, 16).permanent_error, first_verdicts[s])
          << "series " << s;
    }
  }
  EXPECT_GT(inj.injected_permanents(), 0u);
}

TEST_F(FaultInjectionTest, TransientFaultsRedrawAcrossAttempts) {
  FaultConfig config;
  config.seed = 3;
  config.transient_rate = 0.5;
  FaultInjector inj(config);
  // The SAME location must both fail and succeed across enough attempts:
  // that redraw is what makes bounded retries able to succeed.
  int failures = 0, successes = 0;
  for (int i = 0; i < 64; ++i) {
    if (inj.Decide(/*first=*/5, 1, 16).transient_error) {
      ++failures;
    } else {
      ++successes;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
}

TEST_F(FaultInjectionTest, CorruptPayloadFlipsExactlyOneBit) {
  FaultConfig config;
  config.seed = 11;
  config.corrupt_rate = 1.0;
  FaultInjector inj(config);
  FaultInjector::Decision d = inj.Decide(0, 1, 16);
  ASSERT_TRUE(d.corrupt);
  ASSERT_LT(d.corrupt_word, 16u);
  std::vector<float> payload(16, 1.0f);
  std::vector<float> original = payload;
  inj.CorruptPayload(d, payload.data(), payload.size());
  int words_changed = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    uint32_t a, b;
    std::memcpy(&a, &payload[i], sizeof(a));
    std::memcpy(&b, &original[i], sizeof(b));
    if (a != b) {
      ++words_changed;
      // Exactly one bit differs in the corrupted word.
      EXPECT_EQ(__builtin_popcount(a ^ b), 1);
    }
  }
  EXPECT_EQ(words_changed, 1);
}

// --- Checksums on the series file ---

TEST_F(FaultInjectionTest, WriterEmitsChecksumsReaderVerifiesThem) {
  Dataset ds = WriteData("crc.hsf", 12, 24);
  auto reader = SeriesFileReader::Open(Path("crc.hsf"));
  ASSERT_TRUE(reader.ok());
  // Open() arms HYDRA_FAULT_* from the environment (the chaos lane sets
  // them); this test is about checksums, not injection.
  reader.value()->set_fault_config(FaultConfig{});
  EXPECT_TRUE(reader.value()->verifies_checksums());
  QueryCounters c;
  auto back = reader.value()->ReadAll(&c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values(), ds.values());
}

TEST_F(FaultInjectionTest, OnDiskCorruptionIsDetected) {
  WriteData("flip.hsf", 8, 16);
  // Flip one payload byte on disk, behind the checksums' back.
  {
    std::FILE* f = std::fopen(Path("flip.hsf").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    // Series 3 starts at the 32-byte header + 3 * 16 floats.
    ASSERT_EQ(std::fseek(f, 32 + 3 * 16 * 4 + 5, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }
  auto reader = SeriesFileReader::Open(Path("flip.hsf"));
  ASSERT_TRUE(reader.ok());
  reader.value()->set_fault_config(FaultConfig{});  // real damage only
  std::vector<float> buf(16);
  // The damaged series fails typed; its neighbors still read fine.
  Status st = reader.value()->ReadSeries(3, 1, buf.data(), nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataCorruption) << st.message();
  EXPECT_TRUE(reader.value()->ReadSeries(2, 1, buf.data(), nullptr).ok());
  EXPECT_TRUE(reader.value()->ReadSeries(4, 1, buf.data(), nullptr).ok());
}

TEST_F(FaultInjectionTest, InjectedCorruptionIsCaughtByChecksum) {
  WriteData("inject.hsf", 8, 16);
  auto reader = SeriesFileReader::Open(Path("inject.hsf"));
  ASSERT_TRUE(reader.ok());
  FaultConfig config;
  config.seed = 5;
  config.corrupt_rate = 1.0;  // every attempt corrupts the payload
  reader.value()->set_fault_config(config);
  std::vector<float> buf(16);
  Status st = reader.value()->ReadSeries(0, 1, buf.data(), nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataCorruption) << st.message();
  EXPECT_GT(reader.value()->fault_injector().injected_corruptions(), 0u);
}

// --- Retry/backoff through the buffer pool ---

// Opens a pool over a fresh file with the given fault config applied.
struct FaultyPool {
  Dataset data;
  std::unique_ptr<BufferManager> bm;

  FaultyPool(const std::string& path, size_t n, size_t len,
             uint64_t capacity_pages, const FaultConfig& config,
             uint64_t seed = 1) {
    Rng rng(seed);
    data = MakeRandomWalk(n, len, rng);
    EXPECT_TRUE(WriteSeriesFile(path, data).ok());
    auto opened = BufferManager::Open(path, /*page_series=*/16,
                                      capacity_pages);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    bm = std::move(opened).value();
    bm->set_fault_config(config);
  }
};

TEST_F(FaultInjectionTest, TransientErrorsAreRetriedToSuccess) {
  FaultConfig config;
  config.seed = 11;
  config.transient_rate = 0.4;  // well under the 3-retry budget
  FaultyPool pool(Path("retry.hsf"), 128, 16, 8, config);

  QueryCounters counters;
  // Sweep every series; with P(fail)=0.4 and 4 attempts per load, the
  // chance any page exhausts its budget is ~2.6% per page — but the
  // injector is deterministic, so this either always passes or always
  // fails for a given seed; seed 11 survives every load (with 10
  // injected transients retried along the way).
  for (uint64_t i = 0; i < 128; ++i) {
    PinnedRun run = pool.bm->PinSeries(i, &counters);
    ASSERT_FALSE(run.empty()) << "series " << i;
    auto expected = pool.data.series(static_cast<size_t>(i));
    ASSERT_EQ(run.span().size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(run.span()[j], expected[j]) << "series " << i;
    }
  }
  EXPECT_GT(pool.bm->io_retries(), 0u);
  EXPECT_EQ(pool.bm->io_giveups(), 0u);
  EXPECT_GT(counters.io_retries, 0u);
}

TEST_F(FaultInjectionTest, ShortReadsAreRetriedToSuccess) {
  FaultConfig config;
  config.seed = 17;
  config.short_read_rate = 0.4;
  FaultyPool pool(Path("short.hsf"), 64, 16, 8, config);
  QueryCounters counters;
  for (uint64_t i = 0; i < 64; ++i) {
    auto run = pool.bm->PinSeriesChecked(i, &counters);
    ASSERT_TRUE(run.ok()) << run.status().message();
  }
  EXPECT_GT(pool.bm->io_retries(), 0u);
  EXPECT_EQ(pool.bm->io_giveups(), 0u);
}

TEST_F(FaultInjectionTest, PermanentErrorSurfacesAsTypedIoError) {
  FaultConfig config;
  config.seed = 21;
  config.permanent_rate = 0.15;
  FaultyPool pool(Path("perm.hsf"), 128, 16, 8, config);

  // Find a series whose page the injector kills permanently.
  QueryCounters counters;
  bool saw_failure = false;
  for (uint64_t i = 0; i < 128; i += 16) {  // one probe per page
    auto run = pool.bm->PinSeriesChecked(i, &counters);
    if (!run.ok()) {
      saw_failure = true;
      EXPECT_EQ(run.status().code(), StatusCode::kIoError)
          << run.status().message();
      // The enriched message names the file and the injection.
      EXPECT_NE(run.status().message().find("injected permanent"),
                std::string::npos)
          << run.status().message();
      // Re-fetching fails identically: permanence is location-keyed.
      auto again = pool.bm->PinSeriesChecked(i, &counters);
      ASSERT_FALSE(again.ok());
      EXPECT_EQ(again.status().code(), StatusCode::kIoError);
    }
  }
  EXPECT_TRUE(saw_failure) << "seed 21 should kill at least one page";
  EXPECT_EQ(pool.bm->PinnedPages(), 0u);
}

TEST_F(FaultInjectionTest, StickyCorruptionExhaustsRetriesAsTyped) {
  FaultConfig config;
  config.seed = 2;
  config.corrupt_rate = 1.0;  // every read of every page corrupts
  config.sticky_corruption = true;
  FaultyPool pool(Path("sticky.hsf"), 32, 16, 4, config);
  QueryCounters counters;
  auto run = pool.bm->PinSeriesChecked(0, &counters);
  ASSERT_FALSE(run.ok());
  // DataCorruption survives the retry rewrite: the caller learns WHAT
  // failed, not just that something did.
  EXPECT_EQ(run.status().code(), StatusCode::kDataCorruption)
      << run.status().message();
  EXPECT_GT(pool.bm->io_giveups(), 0u);
  EXPECT_GT(counters.io_giveups, 0u);
  EXPECT_EQ(pool.bm->PinnedPages(), 0u);
}

TEST_F(FaultInjectionTest, OneShotCorruptionHealsOnRetry) {
  FaultConfig config;
  config.seed = 2;
  config.corrupt_rate = 0.5;  // attempt-keyed: the re-read redraws
  FaultyPool pool(Path("heal.hsf"), 64, 16, 8, config);
  QueryCounters counters;
  for (uint64_t i = 0; i < 64; ++i) {
    auto run = pool.bm->PinSeriesChecked(i, &counters);
    ASSERT_TRUE(run.ok()) << "series " << i << ": "
                          << run.status().message();
    auto expected = pool.data.series(static_cast<size_t>(i));
    for (size_t j = 0; j < expected.size(); ++j) {
      ASSERT_EQ(run.value().span()[j], expected[j]) << "series " << i;
    }
  }
  EXPECT_GT(pool.bm->io_retries(), 0u);
  EXPECT_EQ(pool.bm->io_giveups(), 0u);
}

// --- Error-path pin hygiene of the parallel scanner ---

TEST_F(FaultInjectionTest, FailedParallelScanLeavesZeroPins) {
  FaultConfig config;
  config.seed = 21;
  config.permanent_rate = 0.15;  // same seed as above: kills >= 1 page
  FaultyPool pool(Path("leak.hsf"), 256, 16, 8, config);

  std::vector<float> query(16, 0.0f);
  std::vector<int64_t> ids(256);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);

  for (size_t threads : {1u, 4u}) {
    AnswerSet answers(5);
    QueryCounters counters;
    LeafScanner scanner(query, &answers, &counters, threads);
    Result<size_t> scanned = scanner.ScanIds(pool.bm.get(), ids);
    ASSERT_FALSE(scanned.ok()) << "threads=" << threads;
    EXPECT_EQ(scanned.status().code(), StatusCode::kIoError)
        << scanned.status().message();
    // The RAII pin contract: a mid-shard failure releases every worker's
    // pin on the way out. Zero frames pinned, always.
    EXPECT_EQ(pool.bm->PinnedPages(), 0u) << "threads=" << threads;
  }
}

TEST_F(FaultInjectionTest, FailedRangeScanLeavesZeroPins) {
  FaultConfig config;
  config.seed = 21;
  config.permanent_rate = 0.15;
  FaultyPool pool(Path("leak_range.hsf"), 256, 16, 8, config);

  std::vector<float> query(16, 0.0f);
  for (size_t threads : {1u, 4u}) {
    AnswerSet answers(5);
    QueryCounters counters;
    LeafScanner scanner(query, &answers, &counters, threads);
    Result<size_t> scanned = scanner.ScanRange(pool.bm.get(), 0, 256);
    ASSERT_FALSE(scanned.ok()) << "threads=" << threads;
    EXPECT_EQ(pool.bm->PinnedPages(), 0u) << "threads=" << threads;
  }
}

// --- Environment knob parsing ---

TEST_F(FaultInjectionTest, FromEnvParsesAndClampsKnobs) {
  ::setenv("HYDRA_FAULT_SEED", "123", 1);
  ::setenv("HYDRA_FAULT_TRANSIENT_RATE", "0.25", 1);
  ::setenv("HYDRA_FAULT_CORRUPT_RATE", "7.5", 1);  // clamped to 1
  ::setenv("HYDRA_FAULT_STICKY_CORRUPTION", "1", 1);
  FaultConfig config = FaultConfig::FromEnv();
  ::unsetenv("HYDRA_FAULT_SEED");
  ::unsetenv("HYDRA_FAULT_TRANSIENT_RATE");
  ::unsetenv("HYDRA_FAULT_CORRUPT_RATE");
  ::unsetenv("HYDRA_FAULT_STICKY_CORRUPTION");
  EXPECT_EQ(config.seed, 123u);
  EXPECT_DOUBLE_EQ(config.transient_rate, 0.25);
  EXPECT_DOUBLE_EQ(config.corrupt_rate, 1.0);
  EXPECT_TRUE(config.sticky_corruption);
  EXPECT_TRUE(config.enabled());
}

}  // namespace
}  // namespace hydra
