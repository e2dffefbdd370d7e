#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/codec.h"
#include "common/rng.h"
#include "core/generators.h"
#include "core/ground_truth.h"
#include "index/dstree/dstree.h"
#include "index/isax/isax_index.h"
#include "storage/buffer_manager.h"

namespace hydra {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_serialize_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(SerializeTest, PrimitivesRoundTrip) {
  std::string path = Path("prim.bin");
  {
    std::string bytes;
    ByteWriter w(&bytes);
    w.U32(0xabcd1234u);
    w.U64(1ull << 50);
    w.I64(-42);
    w.I32(-7);
    w.F64(3.14159);
    w.U8(1);
    w.U8(0);
    ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ByteReader r(bytes.value());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  int32_t i32 = 0;
  double f64 = 0.0;
  uint8_t yes = 0;
  uint8_t no = 1;
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.I32(&i32).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.U8(&yes).ok());
  ASSERT_TRUE(r.U8(&no).ok());
  EXPECT_EQ(u32, 0xabcd1234u);
  EXPECT_EQ(u64, 1ull << 50);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(i32, -7);
  EXPECT_DOUBLE_EQ(f64, 3.14159);
  EXPECT_EQ(yes, 1);
  EXPECT_EQ(no, 0);
  EXPECT_TRUE(r.exhausted());
}

TEST_F(SerializeTest, VectorsRoundTrip) {
  std::string path = Path("vec.bin");
  std::vector<double> doubles = {1.0, -2.5, 1e300};
  std::vector<int64_t> ints = {1, 2, 3, 4};
  std::vector<int32_t> links = {-1, 0, 7};
  std::vector<uint8_t> bits = {0, 8, 255};
  std::vector<uint64_t> sizes = {0, 1ull << 40};
  std::vector<uint16_t> words;
  {
    std::string bytes;
    ByteWriter w(&bytes);
    w.DoubleSpan(doubles);
    w.I64Span(ints);
    w.I32Span(links);
    w.U8Span(bits);
    w.U64Span(sizes);
    w.U16Span(words);  // empty vector
    ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ByteReader r(bytes.value());
  std::vector<double> doubles_out;
  std::vector<int64_t> ints_out;
  std::vector<int32_t> links_out;
  std::vector<uint8_t> bits_out;
  std::vector<uint64_t> sizes_out;
  std::vector<uint16_t> words_out = {9};
  ASSERT_TRUE(r.DoubleVec(&doubles_out).ok());
  ASSERT_TRUE(r.I64Vec(&ints_out).ok());
  ASSERT_TRUE(r.I32Vec(&links_out).ok());
  ASSERT_TRUE(r.U8Vec(&bits_out).ok());
  ASSERT_TRUE(r.U64Vec(&sizes_out).ok());
  ASSERT_TRUE(r.U16Vec(&words_out).ok());
  EXPECT_EQ(doubles_out, doubles);
  EXPECT_EQ(ints_out, ints);
  EXPECT_EQ(links_out, links);
  EXPECT_EQ(bits_out, bits);
  EXPECT_EQ(sizes_out, sizes);
  EXPECT_TRUE(words_out.empty());
  EXPECT_TRUE(r.exhausted());
}

TEST_F(SerializeTest, ShortReadSurfacesAsError) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.U32(1);
  ByteReader r(bytes);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(r.U32(&u32).ok());
  Status past_end = r.U64(&u64);
  EXPECT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, CorruptVectorLengthRejected) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.U64(1ull << 60);  // absurd element count
  ByteReader r(bytes);
  std::vector<double> v;
  EXPECT_FALSE(r.DoubleVec(&v).ok());
  EXPECT_TRUE(v.empty());
}

TEST_F(SerializeTest, MissingFileIsError) {
  auto bytes = ReadFileBytes(Path("missing.bin"));
  EXPECT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kIoError);

  Rng rng(1);
  Dataset data = MakeRandomWalk(10, 32, rng);
  InMemoryProvider provider(&data);
  auto dstree = DSTreeIndex::Load(Path("missing.idx"), &provider);
  EXPECT_EQ(dstree.status().code(), StatusCode::kIoError);
  auto isax = IsaxIndex::Load(Path("missing.idx"), &provider);
  EXPECT_EQ(isax.status().code(), StatusCode::kIoError);
}

struct TreeFixture {
  Dataset data;
  Dataset queries;
  InMemoryProvider provider;

  TreeFixture()
      : data([] {
          Rng rng(77);
          return MakeRandomWalk(500, 64, rng);
        }()),
        queries([] {
          Rng rng(78);
          return MakeRandomWalk(8, 64, rng);
        }()),
        provider(&data) {}
};

TEST_F(SerializeTest, DSTreeSaveLoadPreservesAnswers) {
  TreeFixture f;
  DSTreeOptions opts;
  opts.leaf_capacity = 16;
  opts.histogram_pairs = 500;
  auto original = DSTreeIndex::Build(f.data, &f.provider, opts);
  ASSERT_TRUE(original.ok());
  std::string path = Path("dstree.idx");
  ASSERT_TRUE(original.value()->Save(path).ok());

  auto loaded = DSTreeIndex::Load(path, &f.provider);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_nodes(), original.value()->num_nodes());
  EXPECT_EQ(loaded.value()->num_leaves(), original.value()->num_leaves());

  for (SearchMode mode : {SearchMode::kExact, SearchMode::kDeltaEpsilon}) {
    SearchParams params;
    params.mode = mode;
    params.k = 5;
    params.epsilon = mode == SearchMode::kDeltaEpsilon ? 1.0 : 0.0;
    for (size_t q = 0; q < f.queries.size(); ++q) {
      auto a = original.value()->Search(f.queries.series(q), params, nullptr);
      auto b = loaded.value()->Search(f.queries.series(q), params, nullptr);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value().ids, b.value().ids);
    }
  }
}

TEST_F(SerializeTest, IsaxSaveLoadPreservesAnswers) {
  TreeFixture f;
  IsaxOptions opts;
  opts.segments = 8;
  opts.leaf_capacity = 16;
  opts.histogram_pairs = 500;
  auto original = IsaxIndex::Build(f.data, &f.provider, opts);
  ASSERT_TRUE(original.ok());
  std::string path = Path("isax.idx");
  ASSERT_TRUE(original.value()->Save(path).ok());

  auto loaded = IsaxIndex::Load(path, &f.provider);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->num_nodes(), original.value()->num_nodes());

  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = 5;
  for (size_t q = 0; q < f.queries.size(); ++q) {
    auto a = original.value()->Search(f.queries.series(q), params, nullptr);
    auto b = loaded.value()->Search(f.queries.series(q), params, nullptr);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().ids, b.value().ids);
  }
}

TEST_F(SerializeTest, LoadIntoWrongIndexTypeFails) {
  TreeFixture f;
  DSTreeOptions opts;
  opts.histogram_pairs = 200;
  auto dstree = DSTreeIndex::Build(f.data, &f.provider, opts);
  ASSERT_TRUE(dstree.ok());
  std::string path = Path("dstree2.idx");
  ASSERT_TRUE(dstree.value()->Save(path).ok());

  auto as_isax = IsaxIndex::Load(path, &f.provider);
  EXPECT_FALSE(as_isax.ok());
  EXPECT_EQ(as_isax.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, LoadRejectsMismatchedProvider) {
  TreeFixture f;
  DSTreeOptions opts;
  opts.histogram_pairs = 200;
  auto dstree = DSTreeIndex::Build(f.data, &f.provider, opts);
  ASSERT_TRUE(dstree.ok());
  std::string path = Path("dstree3.idx");
  ASSERT_TRUE(dstree.value()->Save(path).ok());

  Rng rng(5);
  Dataset other = MakeRandomWalk(10, 32, rng);  // wrong series length
  InMemoryProvider wrong(&other);
  auto loaded = DSTreeIndex::Load(path, &wrong);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SerializeTest, TruncatedIndexFileRejected) {
  TreeFixture f;
  DSTreeOptions opts;
  opts.histogram_pairs = 200;
  auto dstree = DSTreeIndex::Build(f.data, &f.provider, opts);
  ASSERT_TRUE(dstree.ok());
  std::string full = Path("full.idx");
  ASSERT_TRUE(dstree.value()->Save(full).ok());

  // Copy only the first half of the file.
  std::string truncated = Path("truncated.idx");
  {
    std::FILE* in = std::fopen(full.c_str(), "rb");
    std::fseek(in, 0, SEEK_END);
    long size = std::ftell(in);
    std::fseek(in, 0, SEEK_SET);
    std::vector<char> buf(static_cast<size_t>(size / 2));
    ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
    std::fclose(in);
    std::FILE* out = std::fopen(truncated.c_str(), "wb");
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
    std::fclose(out);
  }
  auto loaded = DSTreeIndex::Load(truncated, &f.provider);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SerializeTest, ChildLinkOutOfRangeRejected) {
  TreeFixture f;
  DSTreeOptions opts;
  opts.leaf_capacity = 16;
  opts.histogram_pairs = 200;
  auto dstree = DSTreeIndex::Build(f.data, &f.provider, opts);
  ASSERT_TRUE(dstree.ok());
  ASSERT_FALSE(dstree.value()->node(0).is_leaf);
  std::string path = Path("link.idx");
  ASSERT_TRUE(dstree.value()->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  // v1 layout: magic, version and four u64 options, the node count, then
  // the root: its segmentation and four envelope vectors (u64 count +
  // 8-byte elements each), count, is_leaf, split_start, split_end,
  // split_on_std, split_value, and its left link.
  const size_t segments = dstree.value()->node(0).segmentation.size();
  const size_t left_at = 4 + 4 + 4 * 8 + 8 + 5 * (8 + 8 * segments) + 8 +
                         1 + 8 + 8 + 1 + 8;
  std::string corrupt = bytes.value();
  ASSERT_LT(left_at + 4, corrupt.size());
  const uint32_t out_of_range =
      static_cast<uint32_t>(dstree.value()->num_nodes());
  for (size_t b = 0; b < 4; ++b) {
    corrupt[left_at + b] = static_cast<char>((out_of_range >> (8 * b)) & 0xff);
  }
  ASSERT_TRUE(WriteFileBytes(path, corrupt).ok());

  auto loaded = DSTreeIndex::Load(path, &f.provider);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// An iSAX file whose words are consistent with its 16 segments but whose
// series length is 8 describes an index Build refuses to make.
TEST_F(SerializeTest, IsaxMoreSegmentsThanPointsRejected) {
  Rng rng(79);
  Dataset wide = MakeRandomWalk(200, 16, rng);
  InMemoryProvider wide_provider(&wide);
  IsaxOptions opts;
  opts.segments = 16;
  opts.histogram_pairs = 200;
  auto isax = IsaxIndex::Build(wide, &wide_provider, opts);
  ASSERT_TRUE(isax.ok()) << isax.status().ToString();
  std::string path = Path("segments.idx");
  ASSERT_TRUE(isax.value()->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  // v1 layout: magic and version (u32 each), then the u64 series length.
  std::string corrupt = bytes.value();
  corrupt[8] = 8;
  ASSERT_TRUE(WriteFileBytes(path, corrupt).ok());

  Dataset narrow = MakeRandomWalk(200, 8, rng);
  InMemoryProvider narrow_provider(&narrow);
  auto loaded = IsaxIndex::Load(path, &narrow_provider);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// A corrupt index file is refused as malformed or as not matching the
// provider; it never reads as an I/O failure or an internal error.
void ExpectCorruptFileStatus(const Status& st) {
  EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument ||
              st.code() == StatusCode::kFailedPrecondition)
      << st.ToString();
}

// Every strict prefix of a saved index file fails Load typed, and each of
// 2,000 seeded one-byte corruptions either fails Load typed or loads an
// index whose exact search returns — the loader is fuzzed the way
// net_wire_test fuzzes frames.
template <typename TreeIndex>
void FuzzIndexFile(const TreeIndex& index, const std::string& path,
                   const Dataset& queries, SeriesProvider* provider) {
  ASSERT_TRUE(index.Save(path).ok());
  auto saved = ReadFileBytes(path);
  ASSERT_TRUE(saved.ok());
  const std::string& bytes = saved.value();

  for (size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_TRUE(WriteFileBytes(path, bytes.substr(0, len)).ok());
    auto loaded = TreeIndex::Load(path, provider);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    ExpectCorruptFileStatus(loaded.status());
  }

  SearchParams params;
  params.mode = SearchMode::kExact;
  params.k = 3;
  Rng rng(0x1DE5);
  size_t loaded_count = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = bytes;
    mutated[rng.NextUint64(mutated.size())] ^=
        static_cast<char>(1 + rng.NextUint64(255));
    ASSERT_TRUE(WriteFileBytes(path, mutated).ok());
    auto loaded = TreeIndex::Load(path, provider);
    if (!loaded.ok()) {
      ExpectCorruptFileStatus(loaded.status());
      continue;
    }
    ++loaded_count;
    for (size_t q = 0; q < queries.size(); ++q) {
      (void)loaded.value()->Search(queries.series(q), params, nullptr);
    }
  }
  // Many flips land in envelopes, words and the histogram, which no
  // structural check can judge; these loads are the searches that ran.
  EXPECT_GT(loaded_count, 0u);
}

TEST_F(SerializeTest, CorruptIndexFilesFailTypedOrSearch) {
  Rng rng(91);
  Dataset data = MakeRandomWalk(60, 32, rng);
  Dataset queries = MakeRandomWalk(2, 32, rng);
  InMemoryProvider provider(&data);

  DSTreeOptions dopts;
  dopts.leaf_capacity = 8;
  dopts.histogram_pairs = 50;
  dopts.histogram_bins = 8;
  auto dstree = DSTreeIndex::Build(data, &provider, dopts);
  ASSERT_TRUE(dstree.ok());
  FuzzIndexFile(*dstree.value(), Path("fuzz_dstree.idx"), queries,
                &provider);

  IsaxOptions iopts;
  iopts.segments = 4;
  iopts.leaf_capacity = 8;
  iopts.histogram_pairs = 50;
  iopts.histogram_bins = 8;
  auto isax = IsaxIndex::Build(data, &provider, iopts);
  ASSERT_TRUE(isax.ok());
  FuzzIndexFile(*isax.value(), Path("fuzz_isax.idx"), queries, &provider);
}

}  // namespace
}  // namespace hydra
