#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "core/generators.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"

namespace hydra {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_storage_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Inverts the byte at `offset` of the file at `path`; a second call
  // restores it.
  static void FlipByte(const std::string& path, uint64_t offset) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_NE(std::fputc(byte ^ 0xFF, f), EOF);
    ASSERT_EQ(std::fclose(f), 0);
  }

  std::filesystem::path dir_;
};

// Bytes before the first series of a series file.
constexpr uint64_t kHeaderBytes = 32;

TEST_F(StorageTest, WriteThenReadAllRoundTrips) {
  Rng rng(1);
  Dataset ds = MakeRandomWalk(20, 32, rng);
  std::string path = Path("roundtrip.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());

  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_series(), 20u);
  EXPECT_EQ(reader.value()->series_length(), 32u);

  QueryCounters c;
  auto back = reader.value()->ReadAll(&c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().values(), ds.values());
  EXPECT_EQ(c.bytes_read, ds.SizeBytes());
}

TEST_F(StorageTest, OpenMissingFileFails) {
  auto reader = SeriesFileReader::Open(Path("nope.hsf"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST_F(StorageTest, OpenGarbageFileFailsOnMagic) {
  std::string path = Path("garbage.hsf");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  uint64_t junk[4] = {0xdeadbeef, 1, 2, 3};
  std::fwrite(junk, sizeof(junk), 1, f);
  std::fclose(f);
  auto reader = SeriesFileReader::Open(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, ReadPastEndRejected) {
  Rng rng(2);
  Dataset ds = MakeRandomWalk(4, 8, rng);
  std::string path = Path("short.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<float> buf(8 * 8);
  EXPECT_EQ(reader.value()->ReadSeries(2, 3, buf.data(), nullptr).code(),
            StatusCode::kOutOfRange);
}

// `first + count` may wrap around 64 bits; such a range still lies past
// the end. The buffer holds the whole file, so a read that got through
// would fail without overrunning it.
TEST_F(StorageTest, ReadRangesThatWrapAreOutOfRange) {
  Rng rng(15);
  Dataset ds = MakeRandomWalk(100, 8, rng);
  std::string path = Path("wrap.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<float> buf(101 * 8);
  SeriesFileReader& file = *reader.value();
  EXPECT_EQ(file.ReadSeries(UINT64_MAX - 15, 16, buf.data(), nullptr).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(file.ReadSeries(2, UINT64_MAX - 1, buf.data(), nullptr).code(),
            StatusCode::kOutOfRange);
}

// One byte flipped on disk in any series of a 16-series read fails the
// read as DataCorruption naming that series and its offset, whichever
// of the four checksum chains it lands in. The read starts off a group
// boundary, and a 52-byte series ends in a 4-byte tail.
TEST_F(StorageTest, CorruptionNamesTheSeriesItIsIn) {
  constexpr uint64_t kLength = 13;
  constexpr uint64_t kStride = kLength * sizeof(float);
  constexpr uint64_t kFirst = 5;
  Rng rng(16);
  Dataset ds = MakeRandomWalk(40, kLength, rng);
  std::string path = Path("flip.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  SeriesFileReader& file = *reader.value();
  ASSERT_TRUE(file.verifies_checksums());
  std::vector<float> buf(16 * kLength);
  ASSERT_TRUE(file.ReadSeries(kFirst, 16, buf.data(), nullptr).ok());
  for (uint64_t i = 0; i < 16; ++i) {
    const uint64_t series = kFirst + i;
    const uint64_t at = kHeaderBytes + series * kStride;
    const uint64_t flipped = at + (i * 11) % kStride;
    FlipByte(path, flipped);
    const Status st = file.ReadSeries(kFirst, 16, buf.data(), nullptr);
    FlipByte(path, flipped);
    EXPECT_EQ(st.code(), StatusCode::kDataCorruption) << "series " << series;
    EXPECT_NE(st.message().find("checksum mismatch on series " +
                                std::to_string(series) + ":"),
              std::string::npos)
        << st.message();
    ASSERT_TRUE(st.has_io_context()) << st.ToString();
    EXPECT_EQ(st.io_context().offset, at) << "series " << series;
  }
  EXPECT_TRUE(file.ReadSeries(kFirst, 16, buf.data(), nullptr).ok());
}

// ReadAll verifies in chunks; a mismatch past the first chunk is still
// found, and of two mismatches the earlier one is named.
TEST_F(StorageTest, ReadAllNamesTheFirstCorruptSeries) {
  constexpr uint64_t kStride = 13 * sizeof(float);
  Rng rng(17);
  Dataset ds = MakeRandomWalk(150, 13, rng);
  std::string path = Path("readall.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  FlipByte(path, kHeaderBytes + 130 * kStride + 3);
  Result<Dataset> all = reader.value()->ReadAll(nullptr);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kDataCorruption);
  ASSERT_TRUE(all.status().has_io_context());
  EXPECT_EQ(all.status().io_context().offset, kHeaderBytes + 130 * kStride);
  FlipByte(path, kHeaderBytes + 64 * kStride + 50);
  all = reader.value()->ReadAll(nullptr);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kDataCorruption);
  ASSERT_TRUE(all.status().has_io_context());
  EXPECT_EQ(all.status().io_context().offset, kHeaderBytes + 64 * kStride);
}

TEST_F(StorageTest, SequentialReadsChargeOneSeek) {
  Rng rng(3);
  Dataset ds = MakeRandomWalk(10, 16, rng);
  std::string path = Path("seq.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());

  QueryCounters c;
  std::vector<float> buf(16);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(reader.value()->ReadSeries(i, 1, buf.data(), &c).ok());
  }
  EXPECT_EQ(c.random_ios, 1u);  // only the first read repositions
  EXPECT_EQ(c.series_accessed, 10u);
}

TEST_F(StorageTest, BackwardReadsChargeSeeks) {
  Rng rng(4);
  Dataset ds = MakeRandomWalk(10, 16, rng);
  std::string path = Path("rand.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());

  QueryCounters c;
  std::vector<float> buf(16);
  for (uint64_t i = 10; i-- > 0;) {
    ASSERT_TRUE(reader.value()->ReadSeries(i, 1, buf.data(), &c).ok());
  }
  EXPECT_EQ(c.random_ios, 10u);  // every read is a seek
}

TEST_F(StorageTest, ReadSeriesContentMatches) {
  Rng rng(5);
  Dataset ds = MakeRandomWalk(6, 12, rng);
  std::string path = Path("content.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<float> buf(2 * 12);
  ASSERT_TRUE(reader.value()->ReadSeries(3, 2, buf.data(), nullptr).ok());
  for (size_t t = 0; t < 12; ++t) {
    EXPECT_FLOAT_EQ(buf[t], ds.series(3)[t]);
    EXPECT_FLOAT_EQ(buf[12 + t], ds.series(4)[t]);
  }
}

TEST_F(StorageTest, EmptyDatasetRoundTrips) {
  Dataset ds;
  std::string path = Path("empty.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_series(), 0u);
}

// A file shorter than its header claims ends every read that reaches the
// missing bytes with a non-retryable IoError. (Version 1 carries no
// footer, so Open cannot notice the truncation first.)
TEST_F(StorageTest, ReadPastTruncatedEndIsIoError) {
  Rng rng(13);
  Dataset ds = MakeRandomWalk(2, 8, rng);
  std::string path = Path("truncated.hsf");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t head[4] = {SeriesFileHeader::kMagic, 1, 4, 8};
  ASSERT_EQ(std::fwrite(head, sizeof(head), 1, f), 1u);
  ASSERT_EQ(std::fwrite(ds.data(), sizeof(float), 16, f), 16u);
  ASSERT_EQ(std::fclose(f), 0);

  auto reader = SeriesFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.value()->verifies_checksums());
  std::vector<float> buf(2 * 8);
  ASSERT_TRUE(reader.value()->ReadSeries(0, 2, buf.data(), nullptr).ok());
  EXPECT_EQ(buf, ds.values());
  EXPECT_EQ(reader.value()->ReadSeries(1, 2, buf.data(), nullptr).code(),
            StatusCode::kIoError);
}

// A header the file cannot back fails typed, before anything is sized by
// its counts. Each file here is the 32-byte header plus 64 payload bytes.
std::string WriteClaimingHeader(const std::string& path, uint64_t version,
                                uint64_t num_series, uint64_t length) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return path;
  const uint64_t head[4] = {SeriesFileHeader::kMagic, version, num_series,
                            length};
  const float payload[16] = {};
  EXPECT_EQ(std::fwrite(head, sizeof(head), 1, f), 1u);
  EXPECT_EQ(std::fwrite(payload, sizeof(payload), 1, f), 1u);
  EXPECT_EQ(std::fclose(f), 0);
  return path;
}

TEST_F(StorageTest, HeaderBytesBeyond64BitsAreInvalidArgument) {
  auto reader = SeriesFileReader::Open(
      WriteClaimingHeader(Path("overflow.hsf"), 2, uint64_t{1} << 62, 256));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument)
      << reader.status().ToString();
}

TEST_F(StorageTest, Version2FileShorterThanHeaderIsIoErrorAtOpen) {
  // 2^30 series would be a 4 GiB footer: refused before allocation.
  auto reader = SeriesFileReader::Open(
      WriteClaimingHeader(Path("short_v2.hsf"), 2, uint64_t{1} << 30, 256));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError)
      << reader.status().ToString();
}

TEST_F(StorageTest, Version1PayloadBeyondFileFailsReadAll) {
  auto reader = SeriesFileReader::Open(
      WriteClaimingHeader(Path("short_v1.hsf"), 1, uint64_t{1} << 40, 256));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto all = reader.value()->ReadAll(nullptr);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kIoError)
      << all.status().ToString();
}

// A write whose final flush fails (no space left) must not report OK.
TEST(StorageWriters, FullDeviceFailsBothWriters) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  Rng rng(14);
  const Status series = WriteSeriesFile("/dev/full", MakeRandomWalk(4, 8, rng));
  EXPECT_EQ(series.code(), StatusCode::kIoError) << series.ToString();
  ASSERT_TRUE(series.has_io_context());
  EXPECT_EQ(series.io_context().sys_errno, ENOSPC);
  const Status bytes = WriteFileBytes("/dev/full", std::string(100, 'x'));
  EXPECT_EQ(bytes.code(), StatusCode::kIoError) << bytes.ToString();
}

TEST(InMemoryProvider, ServesSeriesAndCountsAccess) {
  Rng rng(6);
  Dataset ds = MakeRandomWalk(5, 8, rng);
  InMemoryProvider provider(&ds);
  EXPECT_EQ(provider.num_series(), 5u);
  EXPECT_EQ(provider.series_length(), 8u);
  QueryCounters c;
  auto s = provider.GetSeries(2, &c);
  ASSERT_EQ(s.size(), 8u);
  EXPECT_FLOAT_EQ(s[0], ds.series(2)[0]);
  EXPECT_EQ(c.series_accessed, 1u);
  EXPECT_EQ(c.bytes_read, 0u);  // in-memory: no I/O charge
}

// A checked fetch of an id at or past the end is OutOfRange: the
// default checked fetches serve InMemoryProvider.
TEST(InMemoryProvider, CheckedFetchesRejectIdsPastTheCollection) {
  Rng rng(18);
  Dataset ds = MakeRandomWalk(5, 8, rng);
  InMemoryProvider provider(&ds);
  EXPECT_TRUE(provider.PinSeriesChecked(4, nullptr).ok());
  EXPECT_TRUE(provider.PinRunChecked(4, 1, nullptr).ok());
  EXPECT_EQ(provider.PinSeriesChecked(ds.size(), nullptr).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(provider.PinRunChecked(ds.size(), 1, nullptr).status().code(),
            StatusCode::kOutOfRange);
}

// The pool rejects an id past the collection before it touches a page:
// no read, no retry, no miss. 100 series in pages of 16 leave a last
// page of 4, and UINT64_MAX - 5 lies on a page whose range wraps.
TEST_F(StorageTest, BufferManagerCheckedFetchesRejectIdsPastTheCollection) {
  Rng rng(19);
  Dataset ds = MakeRandomWalk(100, 8, rng);
  std::string path = Path("range.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto opened = BufferManager::Open(path, /*page_series=*/16,
                                    /*capacity_pages=*/4);
  ASSERT_TRUE(opened.ok());
  BufferManager& bm = *opened.value();
  ASSERT_TRUE(bm.PinSeriesChecked(99, nullptr).ok());
  const uint64_t misses = bm.cache_misses();
  EXPECT_EQ(bm.PinSeriesChecked(100, nullptr).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(bm.PinRunChecked(100, 1, nullptr).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(bm.PinSeriesChecked(UINT64_MAX - 5, nullptr).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(bm.PinRunChecked(UINT64_MAX - 5, 16, nullptr).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(bm.PinSeries(100, nullptr).empty());
  EXPECT_EQ(bm.io_retries(), 0u);
  EXPECT_EQ(bm.cache_misses(), misses);
}

TEST_F(StorageTest, BufferManagerServesCorrectData) {
  Rng rng(7);
  Dataset ds = MakeRandomWalk(40, 16, rng);
  std::string path = Path("bm.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, /*page_series=*/8,
                                /*capacity_pages=*/2);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  for (uint64_t i = 0; i < 40; ++i) {
    auto s = bm.value()->GetSeries(i, &c);
    ASSERT_EQ(s.size(), 16u);
    for (size_t t = 0; t < 16; ++t) {
      ASSERT_FLOAT_EQ(s[t], ds.series(i)[t]) << "series " << i;
    }
  }
}

TEST_F(StorageTest, BufferManagerCachesWithinPage) {
  Rng rng(8);
  Dataset ds = MakeRandomWalk(32, 8, rng);
  std::string path = Path("cache.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 8, 4);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  // Sequential scan: 32 accesses, only 4 page misses.
  for (uint64_t i = 0; i < 32; ++i) bm.value()->GetSeries(i, &c);
  EXPECT_EQ(bm.value()->cache_misses(), 4u);
  EXPECT_EQ(bm.value()->cache_hits(), 28u);
  EXPECT_EQ(c.bytes_read, 32u * 8u * sizeof(float));
}

TEST_F(StorageTest, BufferManagerEvictsWhenFull) {
  Rng rng(9);
  Dataset ds = MakeRandomWalk(32, 8, rng);
  std::string path = Path("evict.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 8, 1);  // one page only
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  bm.value()->GetSeries(0, &c);   // page 0 miss
  bm.value()->GetSeries(1, &c);   // page 0 hit
  bm.value()->GetSeries(8, &c);   // page 1 miss: CLOCK evicts page 0
  bm.value()->GetSeries(0, &c);   // page 0 miss again
  EXPECT_EQ(bm.value()->cache_misses(), 3u);
  EXPECT_EQ(bm.value()->cache_hits(), 1u);
}

TEST_F(StorageTest, BufferManagerChargesRandomIoOnPageJumps) {
  Rng rng(10);
  Dataset ds = MakeRandomWalk(64, 8, rng);
  std::string path = Path("jumps.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 4, 1);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  bm.value()->GetSeries(0, &c);   // page 0: first read (1 seek)
  bm.value()->GetSeries(32, &c);  // page 8: jump (1 seek)
  bm.value()->GetSeries(4, &c);   // page 1: backward jump (1 seek)
  EXPECT_EQ(c.random_ios, 3u);
}

TEST_F(StorageTest, BufferManagerDropCacheForcesRereads) {
  Rng rng(11);
  Dataset ds = MakeRandomWalk(8, 8, rng);
  std::string path = Path("drop.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  auto bm = BufferManager::Open(path, 8, 2);
  ASSERT_TRUE(bm.ok());
  QueryCounters c;
  bm.value()->GetSeries(0, &c);
  // Nothing is pinned, so the whole pool drops (0 pages retained).
  EXPECT_EQ(bm.value()->DropCache(), 0u);
  bm.value()->GetSeries(0, &c);
  EXPECT_EQ(bm.value()->cache_misses(), 2u);
}

TEST_F(StorageTest, BufferManagerRejectsZeroConfig) {
  Rng rng(12);
  Dataset ds = MakeRandomWalk(4, 4, rng);
  std::string path = Path("zero.hsf");
  ASSERT_TRUE(WriteSeriesFile(path, ds).ok());
  EXPECT_FALSE(BufferManager::Open(path, 0, 2).ok());
  EXPECT_FALSE(BufferManager::Open(path, 2, 0).ok());
}

}  // namespace
}  // namespace hydra
