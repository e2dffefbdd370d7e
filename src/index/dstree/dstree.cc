#include "index/dstree/dstree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/codec.h"
#include "common/rng.h"
#include "index/leaf_sort.h"
#include "index/tree_search.h"

namespace hydra {
namespace {

// Prefix sums of one series; enables O(1) mean/std over any point range,
// which DSTree needs constantly (every node has its own segmentation).
void BuildPrefixSums(std::span<const float> series, std::vector<double>* ps,
                     std::vector<double>* ps2) {
  ps->assign(series.size() + 1, 0.0);
  ps2->assign(series.size() + 1, 0.0);
  for (size_t t = 0; t < series.size(); ++t) {
    (*ps)[t + 1] = (*ps)[t] + series[t];
    (*ps2)[t + 1] = (*ps2)[t] + static_cast<double>(series[t]) * series[t];
  }
}

std::vector<EapcaFeature> FeaturesUnder(const Segmentation& seg,
                                        const std::vector<double>& ps,
                                        const std::vector<double>& ps2) {
  std::vector<EapcaFeature> f(seg.size());
  size_t start = 0;
  for (size_t s = 0; s < seg.size(); ++s) {
    size_t end = seg[s];
    double n = static_cast<double>(end - start);
    double mean = (ps[end] - ps[start]) / n;
    double var = (ps2[end] - ps2[start]) / n - mean * mean;
    f[s] = {mean, var > 0.0 ? std::sqrt(var) : 0.0};
    start = end;
  }
  return f;
}

}  // namespace

EapcaFeature DSTreeIndex::RangeFeature(const std::vector<double>& ps,
                                       const std::vector<double>& ps2,
                                       size_t start, size_t end) {
  double n = static_cast<double>(end - start);
  double mean = (ps[end] - ps[start]) / n;
  double var = (ps2[end] - ps2[start]) / n - mean * mean;
  return {mean, var > 0.0 ? std::sqrt(var) : 0.0};
}

Result<std::unique_ptr<DSTreeIndex>> DSTreeIndex::Build(
    const Dataset& data, SeriesProvider* provider,
    const DSTreeOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (provider == nullptr ||
      provider->num_series() != data.size() ||
      provider->series_length() != data.length()) {
    return Status::InvalidArgument("provider does not match dataset");
  }
  if (options.leaf_capacity == 0) {
    return Status::InvalidArgument("leaf_capacity must be > 0");
  }
  std::unique_ptr<DSTreeIndex> index(new DSTreeIndex(provider, options));
  index->series_length_ = data.length();
  index->word_encoder_ =
      std::make_unique<SaxEncoder>(data.length(), kWordSegments, kWordBits);

  DSTreeNode root;
  root.segmentation =
      UniformSegmentation(data.length(), options.initial_segments);
  index->nodes_.push_back(std::move(root));

  for (size_t i = 0; i < data.size(); ++i) {
    index->Insert(data, static_cast<int64_t>(i));
  }
  // Leaf ids sorted once at build time, words alongside, so consecutive
  // ids coalesce into contiguous runs (batch kernel + sequential
  // readahead; see index/leaf_scanner.h). Ascending bulk load plus
  // order-preserving splits leave leaves sorted already, so this is a
  // guarantee, not a pass.
  const size_t word_segments = index->word_encoder_->segments();
  for (DSTreeNode& node : index->nodes_) {
    SortLeafPayloadByIds(&node.series_ids, &node.leaf_words, word_segments);
  }

  Rng rng(options.histogram_seed);
  index->histogram_ = std::make_unique<DistanceHistogram>(
      data, options.histogram_pairs, options.histogram_bins, rng);
  return index;
}

void DSTreeIndex::WordPaa(const std::vector<double>& ps, double* out) const {
  const Paa& paa = word_encoder_->paa();
  for (size_t s = 0; s < paa.segments(); ++s) {
    const size_t start = paa.SegmentStart(s);
    const size_t end = paa.SegmentStart(s + 1);
    out[s] = (ps[end] - ps[start]) / static_cast<double>(end - start);
  }
}

void DSTreeIndex::Insert(const Dataset& data, int64_t id) {
  std::vector<double> ps, ps2;
  BuildPrefixSums(data.series(static_cast<size_t>(id)), &ps, &ps2);
  double paa[kWordSegments];
  WordPaa(ps, paa);

  int32_t node_id = 0;
  while (true) {
    DSTreeNode& node = nodes_[node_id];
    node.UpdateSynopsis(FeaturesUnder(node.segmentation, ps, ps2));
    if (node.is_leaf) break;
    EapcaFeature f = RangeFeature(ps, ps2, node.split_start, node.split_end);
    double v = node.split_on_std ? f.std : f.mean;
    node_id = v <= node.split_value ? node.left : node.right;
  }
  DSTreeNode& leaf = nodes_[node_id];
  leaf.series_ids.push_back(id);
  // Words grow by a quarter, not by doubling: at 64 bytes a series they
  // are most of a leaf, and doubling left ~40% of their memory unused.
  const size_t w = word_encoder_->segments();
  std::vector<uint8_t>& words = leaf.leaf_words;
  if (words.size() + w > words.capacity()) {
    words.reserve(words.size() + w + words.size() / 4);
  }
  words.resize(words.size() + w);
  uint8_t* word = words.data() + words.size() - w;
  for (size_t s = 0; s < w; ++s) {
    word[s] = static_cast<uint8_t>(word_encoder_->Symbol(paa[s]));
  }
  if (leaf.series_ids.size() > options_.leaf_capacity) {
    SplitLeaf(data, node_id);
  }
}

void DSTreeIndex::SplitLeaf(const Dataset& data, int32_t node_id) {
  // Candidate split rules over the leaf's segmentation:
  //  * horizontal: partition by segment mean or segment std;
  //  * vertical:   first subdivide the segment at its midpoint, then
  //    partition by a sub-segment's mean or std (children get the refined
  //    segmentation).
  // Every candidate is evaluated exactly on the buffered series: the
  // threshold is the feature median (balanced fanout) and the score is
  // the summed squared EAPCA-envelope diameter of the two children — the
  // QoS heuristic of the DSTree paper, computed on real data rather than
  // estimated.
  struct Candidate {
    size_t start = 0, end = 0;  // feature range
    bool on_std = false;
    bool vertical = false;      // children refine the split segment
    size_t segment = 0;         // index in the leaf's segmentation
    double threshold = 0.0;
    double score = std::numeric_limits<double>::infinity();
  };

  const std::vector<int64_t> ids = nodes_[node_id].series_ids;
  const Segmentation seg = nodes_[node_id].segmentation;

  // Prefix sums of every buffered series, reused across candidates.
  std::vector<std::vector<double>> ps(ids.size()), ps2(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    BuildPrefixSums(data.series(static_cast<size_t>(ids[i])), &ps[i],
                    &ps2[i]);
  }

  std::vector<Candidate> candidates;
  size_t seg_start = 0;
  for (size_t s = 0; s < seg.size(); ++s) {
    size_t seg_end = seg[s];
    for (bool on_std : {false, true}) {
      candidates.push_back({seg_start, seg_end, on_std, false, s, 0.0, 0.0});
    }
    if (seg_end - seg_start >= 2 * options_.min_segment_length) {
      size_t mid = (seg_start + seg_end) / 2;
      for (bool on_std : {false, true}) {
        candidates.push_back({seg_start, mid, on_std, true, s, 0.0, 0.0});
        candidates.push_back({mid, seg_end, on_std, true, s, 0.0, 0.0});
      }
    }
    seg_start = seg_end;
  }

  auto child_segmentation = [&](const Candidate& c) {
    Segmentation out;
    size_t start = 0;
    for (size_t s = 0; s < seg.size(); ++s) {
      if (c.vertical && s == c.segment) {
        out.push_back((start + seg[s]) / 2);
      }
      out.push_back(seg[s]);
      start = seg[s];
    }
    return out;
  };

  Candidate best;
  std::vector<double> feats(ids.size());
  for (Candidate& c : candidates) {
    for (size_t i = 0; i < ids.size(); ++i) {
      EapcaFeature f = RangeFeature(ps[i], ps2[i], c.start, c.end);
      feats[i] = c.on_std ? f.std : f.mean;
    }
    std::vector<double> sorted = feats;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    c.threshold = sorted[sorted.size() / 2];
    // Degenerate candidate: all features on one side.
    size_t left_count = 0;
    for (double v : feats) left_count += v <= c.threshold ? 1 : 0;
    if (left_count == 0 || left_count == ids.size()) continue;

    Segmentation child_seg = child_segmentation(c);
    DSTreeNode l, r;
    l.segmentation = child_seg;
    r.segmentation = child_seg;
    for (size_t i = 0; i < ids.size(); ++i) {
      auto f = FeaturesUnder(child_seg, ps[i], ps2[i]);
      (feats[i] <= c.threshold ? l : r).UpdateSynopsis(f);
    }
    c.score = l.SynopsisDiameterSq() + r.SynopsisDiameterSq();
    if (c.score < best.score) best = c;
  }

  if (best.score == std::numeric_limits<double>::infinity()) {
    // No balanced split exists (identical series). Grow the leaf instead:
    // correctness is unaffected, only the fill factor.
    return;
  }

  Segmentation child_seg = child_segmentation(best);
  DSTreeNode left, right;
  left.segmentation = child_seg;
  right.segmentation = child_seg;
  std::vector<bool> goes_left(ids.size());
  size_t left_count = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    EapcaFeature f = RangeFeature(ps[i], ps2[i], best.start, best.end);
    goes_left[i] = (best.on_std ? f.std : f.mean) <= best.threshold;
    left_count += goes_left[i] ? 1 : 0;
  }
  const size_t w = word_encoder_->segments();
  left.leaf_words.reserve(left_count * w);
  right.leaf_words.reserve((ids.size() - left_count) * w);
  const auto words = nodes_[node_id].leaf_words.begin();
  for (size_t i = 0; i < ids.size(); ++i) {
    DSTreeNode& child = goes_left[i] ? left : right;
    child.UpdateSynopsis(FeaturesUnder(child_seg, ps[i], ps2[i]));
    child.series_ids.push_back(ids[i]);
    child.leaf_words.insert(child.leaf_words.end(), words + i * w,
                            words + (i + 1) * w);
  }

  int32_t left_id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(std::move(left));
  int32_t right_id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(std::move(right));

  DSTreeNode& parent = nodes_[node_id];
  parent.is_leaf = false;
  parent.series_ids.clear();
  parent.series_ids.shrink_to_fit();
  parent.leaf_words.clear();
  parent.leaf_words.shrink_to_fit();
  parent.split_start = best.start;
  parent.split_end = best.end;
  parent.split_on_std = best.on_std;
  parent.split_value = best.threshold;
  parent.left = left_id;
  parent.right = right_id;
}

std::vector<int32_t> DSTreeIndex::NodeChildren(int32_t id) const {
  const DSTreeNode& n = nodes_[id];
  std::vector<int32_t> out;
  if (n.left >= 0) out.push_back(n.left);
  if (n.right >= 0) out.push_back(n.right);
  return out;
}

double DSTreeIndex::MinDistSq(const QueryContext& ctx, int32_t id) const {
  const DSTreeNode& n = nodes_[id];
  if (n.count == 0) return std::numeric_limits<double>::infinity();
  double sum = 0.0;
  size_t start = 0;
  for (size_t s = 0; s < n.segmentation.size(); ++s) {
    size_t end = n.segmentation[s];
    EapcaFeature q =
        RangeFeature(ctx.prefix_sum, ctx.prefix_sum2, start, end);
    // Distance from the query feature to the node envelope; the closest
    // (mean, std) point of the envelope realizes the per-segment bound
    //   w·((μq − μ*)² + (σq − σ*)²) <= ||query − series||² on the segment.
    double dm = 0.0;
    if (q.mean < n.min_mean[s]) {
      dm = n.min_mean[s] - q.mean;
    } else if (q.mean > n.max_mean[s]) {
      dm = q.mean - n.max_mean[s];
    }
    double ds = 0.0;
    if (q.std < n.min_std[s]) {
      ds = n.min_std[s] - q.std;
    } else if (q.std > n.max_std[s]) {
      ds = q.std - n.max_std[s];
    }
    sum += static_cast<double>(end - start) * (dm * dm + ds * ds);
    start = end;
  }
  return sum;
}

DSTreeIndex::QueryContext DSTreeIndex::MakeQueryContext(
    std::span<const float> query) const {
  QueryContext ctx;
  BuildPrefixSums(query, &ctx.prefix_sum, &ctx.prefix_sum2);
  ctx.paa.resize(word_encoder_->segments());
  WordPaa(ctx.prefix_sum, ctx.paa.data());
  return ctx;
}

Result<KnnAnswer> DSTreeIndex::Search(std::span<const float> query,
                                      const SearchParams& params,
                                      QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length mismatch");
  }
  QueryContext ctx = MakeQueryContext(query);
  double r_delta = 0.0;
  if (params.mode == SearchMode::kDeltaEpsilon && params.delta < 1.0) {
    r_delta = histogram_->DeltaRadius(params.delta, provider_->num_series());
  }
  return TreeKnnSearch(*this, ctx, query, params, r_delta, counters);
}

std::vector<Result<KnnAnswer>> DSTreeIndex::BatchSearch(
    std::span<const BatchQuery> batch) const {
  return TreeBatchSearch(*this, batch);
}

Result<KnnAnswer> DSTreeIndex::RangeSearch(std::span<const float> query,
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

size_t DSTreeIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const DSTreeNode& n : nodes_) total += n.ApproxBytes();
  return total;
}

size_t DSTreeIndex::num_leaves() const {
  size_t leaves = 0;
  for (const DSTreeNode& n : nodes_) leaves += n.is_leaf ? 1 : 0;
  return leaves;
}

size_t DSTreeIndex::max_depth() const {
  // Iterative DFS carrying depth; the tree is binary via left/right.
  size_t best = 0;
  std::vector<std::pair<int32_t, size_t>> stack = {{0, 1}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    best = std::max(best, depth);
    const DSTreeNode& n = nodes_[id];
    if (n.left >= 0) stack.push_back({n.left, depth + 1});
    if (n.right >= 0) stack.push_back({n.right, depth + 1});
  }
  return best;
}


namespace {
constexpr uint32_t kDSTreeMagic = 0x44535452;  // "DSTR"
// 2: CRC-32C footer; 3: one 32-segment iSAX word per leaf member;
// 4: 64-segment words.
constexpr uint32_t kDSTreeVersion = 4;
}  // namespace

Status DSTreeIndex::Save(const std::string& path) const {
  std::string bytes;
  ByteWriter w(&bytes);
  w.U32(kDSTreeMagic);
  w.U32(kDSTreeVersion);
  w.U64(series_length_);
  w.U64(options_.leaf_capacity);
  w.U64(options_.initial_segments);
  w.U64(options_.min_segment_length);

  w.U64(nodes_.size());
  for (const DSTreeNode& n : nodes_) {
    w.U64Span(n.segmentation);
    w.DoubleSpan(n.min_mean);
    w.DoubleSpan(n.max_mean);
    w.DoubleSpan(n.min_std);
    w.DoubleSpan(n.max_std);
    w.U64(n.count);
    w.U8(n.is_leaf ? 1 : 0);
    w.U64(n.split_start);
    w.U64(n.split_end);
    w.U8(n.split_on_std ? 1 : 0);
    w.F64(n.split_value);
    w.I32(n.left);
    w.I32(n.right);
    w.I64Span(n.series_ids);
    w.U8Span(n.leaf_words);
  }
  histogram_->Encode(&w);
  SealIndexFile(&bytes);
  return WriteFileBytes(path, bytes);
}

Result<std::unique_ptr<DSTreeIndex>> DSTreeIndex::Load(
    const std::string& path, SeriesProvider* provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("provider must not be null");
  }
  HYDRA_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  HYDRA_ASSIGN_OR_RETURN(
      ByteReader r,
      OpenIndexFile(bytes, kDSTreeMagic, kDSTreeVersion, "dstree", path));
  DSTreeOptions options;
  uint64_t series_length = 0;
  HYDRA_RETURN_IF_ERROR(r.U64(&series_length));
  HYDRA_RETURN_IF_ERROR(r.U64(&options.leaf_capacity));
  HYDRA_RETURN_IF_ERROR(r.U64(&options.initial_segments));
  HYDRA_RETURN_IF_ERROR(r.U64(&options.min_segment_length));
  if (provider->series_length() != series_length) {
    return Status::FailedPrecondition(
        "provider series length does not match saved index");
  }

  std::unique_ptr<DSTreeIndex> index(new DSTreeIndex(provider, options));
  index->series_length_ = series_length;
  index->word_encoder_ =
      std::make_unique<SaxEncoder>(series_length, kWordSegments, kWordBits);
  const size_t word_segments = index->word_encoder_->segments();
  uint64_t num_nodes = 0;
  HYDRA_RETURN_IF_ERROR(r.U64(&num_nodes));
  for (uint64_t i = 0; i < num_nodes; ++i) {
    DSTreeNode n;
    uint8_t is_leaf = 0;
    uint8_t split_on_std = 0;
    HYDRA_RETURN_IF_ERROR(r.U64Vec(&n.segmentation));
    HYDRA_RETURN_IF_ERROR(r.DoubleVec(&n.min_mean));
    HYDRA_RETURN_IF_ERROR(r.DoubleVec(&n.max_mean));
    HYDRA_RETURN_IF_ERROR(r.DoubleVec(&n.min_std));
    HYDRA_RETURN_IF_ERROR(r.DoubleVec(&n.max_std));
    HYDRA_RETURN_IF_ERROR(r.U64(&n.count));
    HYDRA_RETURN_IF_ERROR(r.U8(&is_leaf));
    HYDRA_RETURN_IF_ERROR(r.U64(&n.split_start));
    HYDRA_RETURN_IF_ERROR(r.U64(&n.split_end));
    HYDRA_RETURN_IF_ERROR(r.U8(&split_on_std));
    HYDRA_RETURN_IF_ERROR(r.F64(&n.split_value));
    HYDRA_RETURN_IF_ERROR(r.I32(&n.left));
    HYDRA_RETURN_IF_ERROR(r.I32(&n.right));
    HYDRA_RETURN_IF_ERROR(r.I64Vec(&n.series_ids));
    HYDRA_RETURN_IF_ERROR(r.U8Vec(&n.leaf_words));
    n.is_leaf = is_leaf != 0;
    n.split_on_std = split_on_std != 0;
    // MinDistSq reads one envelope entry per segment, and the query's
    // prefix sums up to each boundary.
    const size_t segments = n.segmentation.size();
    if (n.min_mean.size() != segments || n.max_mean.size() != segments ||
        n.min_std.size() != segments || n.max_std.size() != segments) {
      return Status::InvalidArgument(
          "dstree node envelope does not match its segmentation: " + path);
    }
    for (size_t end : n.segmentation) {
      if (end > series_length) {
        return Status::InvalidArgument(
            "dstree segment ends past the series: " + path);
      }
    }
    // MemberBoundsSq reads one word per member.
    if (n.leaf_words.size() != n.series_ids.size() * word_segments) {
      return Status::InvalidArgument(
          "dstree leaf words do not match its series: " + path);
    }
    // Run coalescing, words alongside.
    SortLeafPayloadByIds(&n.series_ids, &n.leaf_words, word_segments);
    index->nodes_.push_back(std::move(n));
  }
  HYDRA_ASSIGN_OR_RETURN(DistanceHistogram histogram,
                         DistanceHistogram::Decode(&r));
  index->histogram_ =
      std::make_unique<DistanceHistogram>(std::move(histogram));
  if (index->nodes_.empty()) {
    return Status::InvalidArgument("saved index has no nodes");
  }
  HYDRA_RETURN_IF_ERROR(CheckLoadedTree(
      index->nodes_, index->SearchRoots(), provider->num_series()));
  return index;
}

}  // namespace hydra
