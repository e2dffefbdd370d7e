#include "index/isax/isax_index.h"

#include <algorithm>
#include <limits>

#include "common/codec.h"
#include "common/rng.h"
#include "index/tree_search.h"

namespace hydra {

Result<std::unique_ptr<IsaxIndex>> IsaxIndex::Build(
    const Dataset& data, SeriesProvider* provider,
    const IsaxOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (provider == nullptr || provider->num_series() != data.size() ||
      provider->series_length() != data.length()) {
    return Status::InvalidArgument("provider does not match dataset");
  }
  if (options.segments == 0 || options.segments > 64) {
    return Status::InvalidArgument("segments must be in [1, 64]");
  }
  // Node words hold one symbol per segment, and a segment needs a point.
  if (options.segments > data.length()) {
    return Status::InvalidArgument("segments exceed the series length");
  }
  if (options.max_bits == 0 || options.max_bits > 16) {
    return Status::InvalidArgument("max_bits must be in [1, 16]");
  }
  if (options.leaf_capacity == 0) {
    return Status::InvalidArgument("leaf_capacity must be > 0");
  }
  std::unique_ptr<IsaxIndex> index(new IsaxIndex(provider, options));
  index->series_length_ = data.length();
  index->encoder_ = std::make_unique<SaxEncoder>(
      data.length(), options.segments, options.max_bits);

  // Bulk load: encode everything first (one summarization pass), then
  // insert ids+words only — the in-core analog of iSAX2+'s staged load.
  for (size_t i = 0; i < data.size(); ++i) {
    index->Insert(static_cast<int64_t>(i),
                  index->encoder_->Encode(data.series(i)));
  }
  // Leaf ids sorted once at build time: consecutive ids coalesce into
  // contiguous runs that ride the SIMD batch kernel and the buffer
  // pool's sequential readahead (index/leaf_scanner.h). Ascending bulk
  // load plus order-preserving splits leave leaves sorted already, so
  // this is a guarantee (and a no-op check), not a pass.
  for (IsaxNode& node : index->nodes_) {
    node.SortLeafByIds(options.segments);
  }

  Rng rng(options.histogram_seed);
  index->histogram_ = std::make_unique<DistanceHistogram>(
      data, options.histogram_pairs, options.histogram_bins, rng);
  return index;
}

uint64_t IsaxIndex::RootKey(const std::vector<uint16_t>& word) const {
  uint64_t key = 0;
  for (size_t s = 0; s < word.size(); ++s) {
    key = (key << 1) |
          static_cast<uint64_t>((word[s] >> (options_.max_bits - 1)) & 1);
  }
  return key;
}

void IsaxIndex::Insert(int64_t id, const std::vector<uint16_t>& word) {
  // Locate (or create) the first-level child for this word.
  uint64_t key = RootKey(word);
  auto it = root_map_.find(key);
  int32_t node_id;
  if (it == root_map_.end()) {
    IsaxNode node;
    node.word = word;
    node.bits.assign(options_.segments, 1);
    node_id = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(std::move(node));
    root_map_[key] = node_id;
    root_children_.push_back(node_id);
  } else {
    node_id = it->second;
  }

  while (true) {
    IsaxNode& node = nodes_[node_id];
    ++node.count;
    if (node.is_leaf) break;
    int bit = NextBit(word[node.split_segment], node.bits[node.split_segment],
                      options_.max_bits);
    node_id = bit == 0 ? node.left : node.right;
  }
  IsaxNode& leaf = nodes_[node_id];
  leaf.series_ids.push_back(id);
  leaf.leaf_words.insert(leaf.leaf_words.end(), word.begin(), word.end());
  if (leaf.series_ids.size() > options_.leaf_capacity) {
    SplitLeaf(node_id);
  }
}

void IsaxIndex::SplitLeaf(int32_t node_id) {
  const size_t segs = options_.segments;
  const size_t n = nodes_[node_id].series_ids.size();

  // Split policy (iSAX 2.0's improved policy, in spirit): among segments
  // that can still be promoted, choose the one whose next bit divides the
  // buffered series most evenly; unsplittable or one-sided segments lose.
  size_t best_seg = segs;
  double best_balance = -1.0;
  {
    const IsaxNode& leaf = nodes_[node_id];
    for (size_t s = 0; s < segs; ++s) {
      if (leaf.bits[s] >= options_.max_bits) continue;
      size_t ones = 0;
      for (size_t i = 0; i < n; ++i) {
        ones += NextBit(leaf.leaf_words[i * segs + s], leaf.bits[s],
                        options_.max_bits);
      }
      if (ones == 0 || ones == n) continue;
      double frac = static_cast<double>(ones) / static_cast<double>(n);
      double balance = 1.0 - std::abs(frac - 0.5) * 2.0;  // 1 = even split
      if (balance > best_balance) {
        best_balance = balance;
        best_seg = s;
      }
    }
  }
  if (best_seg == segs) {
    // All promotable segments are one-sided at every remaining bit (e.g.
    // duplicate series): let the leaf exceed capacity.
    return;
  }

  IsaxNode left, right;
  {
    const IsaxNode& leaf = nodes_[node_id];
    left.word = leaf.word;
    left.bits = leaf.bits;
    left.bits[best_seg] += 1;
    right.word = leaf.word;
    right.bits = left.bits;
    // Children's words must carry the promoted bit: clear/set it so that
    // SymbolRegion decodes the right interval.
    const uint16_t bitmask = static_cast<uint16_t>(
        1 << (options_.max_bits - left.bits[best_seg]));
    left.word[best_seg] &= static_cast<uint16_t>(~bitmask);
    right.word[best_seg] |= bitmask;

    for (size_t i = 0; i < n; ++i) {
      int bit = NextBit(leaf.leaf_words[i * segs + best_seg],
                        leaf.bits[best_seg], options_.max_bits);
      IsaxNode& child = bit == 0 ? left : right;
      child.series_ids.push_back(leaf.series_ids[i]);
      child.leaf_words.insert(child.leaf_words.end(),
                              leaf.leaf_words.begin() + i * segs,
                              leaf.leaf_words.begin() + (i + 1) * segs);
      ++child.count;
    }
  }

  int32_t left_id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(std::move(left));
  int32_t right_id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(std::move(right));

  IsaxNode& parent = nodes_[node_id];
  parent.is_leaf = false;
  parent.split_segment = static_cast<uint8_t>(best_seg);
  parent.left = left_id;
  parent.right = right_id;
  parent.series_ids.clear();
  parent.series_ids.shrink_to_fit();
  parent.leaf_words.clear();
  parent.leaf_words.shrink_to_fit();
}

std::vector<int32_t> IsaxIndex::NodeChildren(int32_t id) const {
  const IsaxNode& n = nodes_[id];
  std::vector<int32_t> out;
  if (n.left >= 0) out.push_back(n.left);
  if (n.right >= 0) out.push_back(n.right);
  return out;
}

double IsaxIndex::MinDistSq(const QueryContext& ctx, int32_t id) const {
  const IsaxNode& n = nodes_[id];
  return encoder_->MinDistSqPaaToSax(ctx.paa, n.word, n.bits);
}

Result<KnnAnswer> IsaxIndex::Search(std::span<const float> query,
                                    const SearchParams& params,
                                    QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  QueryContext ctx;
  ctx.paa = encoder_->paa().Transform(query);
  double r_delta = 0.0;
  if (params.mode == SearchMode::kDeltaEpsilon && params.delta < 1.0) {
    r_delta = histogram_->DeltaRadius(params.delta, provider_->num_series());
  }
  return TreeKnnSearch(*this, ctx, query, params, r_delta, counters);
}

std::vector<Result<KnnAnswer>> IsaxIndex::BatchSearch(
    std::span<const BatchQuery> batch) const {
  return TreeBatchSearch(*this, batch);
}

Result<KnnAnswer> IsaxIndex::RangeSearch(std::span<const float> query,
                                         double radius, double epsilon,
                                         QueryCounters* counters) const {
  if (radius < 0.0 || epsilon < 0.0) {
    return Status::InvalidArgument("radius and epsilon must be >= 0");
  }
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  QueryContext ctx = MakeQueryContext(query);
  return TreeRangeSearch(*this, ctx, query, radius, epsilon, counters);
}

size_t IsaxIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const IsaxNode& n : nodes_) total += n.ApproxBytes();
  total += root_map_.size() * (sizeof(uint64_t) + sizeof(int32_t)) * 2;
  return total;
}

size_t IsaxIndex::num_leaves() const {
  size_t leaves = 0;
  for (const IsaxNode& n : nodes_) leaves += n.is_leaf ? 1 : 0;
  return leaves;
}


namespace {
constexpr uint32_t kIsaxMagic = 0x49534158;  // "ISAX"
constexpr uint32_t kIsaxVersion = 2;  // 2: CRC-32C footer
}  // namespace

Status IsaxIndex::Save(const std::string& path) const {
  std::string bytes;
  ByteWriter w(&bytes);
  w.U32(kIsaxMagic);
  w.U32(kIsaxVersion);
  w.U64(series_length_);
  w.U64(options_.segments);
  w.U64(options_.max_bits);
  w.U64(options_.leaf_capacity);

  w.U64(nodes_.size());
  for (const IsaxNode& n : nodes_) {
    w.U16Span(n.word);
    w.U8Span(n.bits);
    w.U8(n.is_leaf ? 1 : 0);
    w.U32(n.split_segment);
    w.I32(n.left);
    w.I32(n.right);
    w.U64(n.count);
    w.I64Span(n.series_ids);
    w.U16Span(n.leaf_words);
  }
  w.I32Span(root_children_);
  std::vector<uint64_t> root_keys;
  std::vector<int32_t> root_values;
  root_keys.reserve(root_map_.size());
  root_values.reserve(root_map_.size());
  for (const auto& [key, value] : root_map_) {
    root_keys.push_back(key);
    root_values.push_back(value);
  }
  w.U64Span(root_keys);
  w.I32Span(root_values);
  histogram_->Encode(&w);
  SealIndexFile(&bytes);
  return WriteFileBytes(path, bytes);
}

Result<std::unique_ptr<IsaxIndex>> IsaxIndex::Load(const std::string& path,
                                                   SeriesProvider* provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("provider must not be null");
  }
  HYDRA_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  HYDRA_ASSIGN_OR_RETURN(
      ByteReader r,
      OpenIndexFile(bytes, kIsaxMagic, kIsaxVersion, "isax", path));
  IsaxOptions options;
  uint64_t series_length = 0;
  HYDRA_RETURN_IF_ERROR(r.U64(&series_length));
  HYDRA_RETURN_IF_ERROR(r.U64(&options.segments));
  HYDRA_RETURN_IF_ERROR(r.U64(&options.max_bits));
  HYDRA_RETURN_IF_ERROR(r.U64(&options.leaf_capacity));
  if (provider->series_length() != series_length) {
    return Status::FailedPrecondition(
        "provider series length does not match saved index");
  }
  // The ranges Build accepts; the encoder's tables are sized by them.
  if (options.segments == 0 || options.segments > 64 ||
      options.segments > series_length || options.max_bits == 0 ||
      options.max_bits > 16) {
    return Status::InvalidArgument(
        "isax segments or bits out of range: " + path);
  }
  const size_t segments = options.segments;

  std::unique_ptr<IsaxIndex> index(new IsaxIndex(provider, options));
  index->series_length_ = series_length;
  index->encoder_ = std::make_unique<SaxEncoder>(series_length, segments,
                                                 options.max_bits);
  uint64_t num_nodes = 0;
  HYDRA_RETURN_IF_ERROR(r.U64(&num_nodes));
  for (uint64_t i = 0; i < num_nodes; ++i) {
    IsaxNode n;
    uint8_t is_leaf = 0;
    uint32_t split_segment = 0;
    HYDRA_RETURN_IF_ERROR(r.U16Vec(&n.word));
    HYDRA_RETURN_IF_ERROR(r.U8Vec(&n.bits));
    HYDRA_RETURN_IF_ERROR(r.U8(&is_leaf));
    HYDRA_RETURN_IF_ERROR(r.U32(&split_segment));
    HYDRA_RETURN_IF_ERROR(r.I32(&n.left));
    HYDRA_RETURN_IF_ERROR(r.I32(&n.right));
    HYDRA_RETURN_IF_ERROR(r.U64(&n.count));
    HYDRA_RETURN_IF_ERROR(r.I64Vec(&n.series_ids));
    HYDRA_RETURN_IF_ERROR(r.U16Vec(&n.leaf_words));
    n.is_leaf = is_leaf != 0;
    n.split_segment = static_cast<uint8_t>(split_segment);
    // MinDistSq decodes one symbol per segment at no more than max_bits,
    // and the leaf sort permutes one word per id.
    bool valid = n.word.size() == segments && n.bits.size() == segments &&
                 n.leaf_words.size() == n.series_ids.size() * segments;
    for (size_t s = 0; valid && s < segments; ++s) {
      valid = n.bits[s] <= options.max_bits &&
              (n.word[s] >> options.max_bits) == 0;
    }
    if (!valid) {
      return Status::InvalidArgument(
          "isax node word does not match the segments: " + path);
    }
    n.SortLeafByIds(segments);  // run-coalescing invariant
    index->nodes_.push_back(std::move(n));
  }
  HYDRA_RETURN_IF_ERROR(r.I32Vec(&index->root_children_));
  std::vector<uint64_t> root_keys;
  std::vector<int32_t> root_values;
  HYDRA_RETURN_IF_ERROR(r.U64Vec(&root_keys));
  HYDRA_RETURN_IF_ERROR(r.I32Vec(&root_values));
  if (root_keys.size() != root_values.size()) {
    return Status::InvalidArgument("corrupt root map in " + path);
  }
  for (size_t i = 0; i < root_keys.size(); ++i) {
    if (root_values[i] < 0 ||
        static_cast<uint64_t>(root_values[i]) >= num_nodes) {
      return Status::InvalidArgument("corrupt root map in " + path);
    }
    index->root_map_[root_keys[i]] = root_values[i];
  }
  HYDRA_ASSIGN_OR_RETURN(DistanceHistogram histogram,
                         DistanceHistogram::Decode(&r));
  index->histogram_ =
      std::make_unique<DistanceHistogram>(std::move(histogram));
  if (index->nodes_.empty()) {
    return Status::InvalidArgument("saved index has no nodes");
  }
  HYDRA_RETURN_IF_ERROR(CheckLoadedTree(index->nodes_, index->root_children_,
                                        provider->num_series()));
  return index;
}

}  // namespace hydra
