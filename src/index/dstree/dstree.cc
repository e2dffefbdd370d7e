#include "index/dstree/dstree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/codec.h"
#include "common/rng.h"
#include "index/leaf_sort.h"
#include "index/tree_search.h"

namespace hydra {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Prefix sums of kLanes series of `length` points, computed together;
// they enable O(1) mean/std over any point range, which DSTree needs
// constantly (every node has its own segmentation). ps[k][t] is the
// sequential double sum of series k's first t points, ps2[k][t] of their
// squares. The series' add chains are interleaved so that they run in
// parallel; each adds in the same order as its series alone would.
template <size_t kLanes>
void PrefixSums(const float* const* series, size_t length,
                double* const* ps, double* const* ps2) {
  const float* x[kLanes];
  double* p[kLanes];
  double* p2[kLanes];
  double sum[kLanes];
  double sum2[kLanes];
  for (size_t k = 0; k < kLanes; ++k) {
    x[k] = series[k];
    p[k] = ps[k];
    p2[k] = ps2[k];
    sum[k] = 0.0;
    sum2[k] = 0.0;
    p[k][0] = 0.0;
    p2[k][0] = 0.0;
  }
  for (size_t t = 0; t < length; ++t) {
    for (size_t k = 0; k < kLanes; ++k) {
      const double v = x[k][t];
      sum[k] += v;
      sum2[k] += v * v;
      p[k][t + 1] = sum[k];
      p2[k][t + 1] = sum2[k];
    }
  }
}

// Prefix sums of up to kLanes series of one dataset, computed together;
// lanes past `count` repeat the first series.
struct PrefixLanes {
  static constexpr size_t kLanes = 4;
  size_t stride = 0;
  std::vector<double> sums;  // lane k: ps at 2k * stride, ps2 after it

  void Compute(const Dataset& data, const int64_t* ids, size_t count) {
    stride = data.length() + 1;
    sums.resize(2 * kLanes * stride);
    const float* series[kLanes];
    double* p[kLanes];
    double* p2[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      series[k] =
          data.series(static_cast<size_t>(ids[k < count ? k : 0])).data();
      p[k] = sums.data() + 2 * k * stride;
      p2[k] = p[k] + stride;
    }
    PrefixSums<kLanes>(series, data.length(), p, p2);
  }
  const double* ps(size_t k) const { return sums.data() + 2 * k * stride; }
  const double* ps2(size_t k) const { return ps(k) + stride; }
};

// Mean and std of series[start, end) from its prefix sums.
EapcaFeature RangeFeature(const double* ps, const double* ps2, size_t start,
                          size_t end) {
  double n = static_cast<double>(end - start);
  double mean = (ps[end] - ps[start]) / n;
  double var = (ps2[end] - ps2[start]) / n - mean * mean;
  return {mean, var > 0.0 ? std::sqrt(var) : 0.0};
}

// The split candidates of a leaf, one feature column each, in the order
// SplitLeaf tries them. Per segment of the leaf's segmentation: its mean
// and its std (horizontal splits); then, if the segment is long enough
// to halve, the means of its two halves and the stds of its two halves
// (vertical splits: the children's segmentation halves the segment).
struct SplitPlan {
  struct Segment {
    size_t start, mid, end;
    bool halves;
    size_t column;  // the first of its 2, or 6, columns
  };
  std::vector<Segment> segments;
  size_t columns = 0;

  void Plan(const Segmentation& seg, size_t min_segment_length) {
    segments.clear();
    columns = 0;
    size_t start = 0;
    for (size_t end : seg) {
      const bool halves = end - start >= 2 * min_segment_length;
      segments.push_back({start, (start + end) / 2, end, halves, columns});
      columns += halves ? 6 : 2;
      start = end;
    }
  }

  // One series' candidate features, from its prefix sums, written to
  // out[c * stride] for every column c.
  void Features(const double* ps, const double* ps2, double* out,
                size_t stride) const {
    for (const Segment& s : segments) {
      double* col = out + s.column * stride;
      const EapcaFeature f = RangeFeature(ps, ps2, s.start, s.end);
      col[0] = f.mean;
      col[stride] = f.std;
      if (s.halves) {
        const EapcaFeature lo = RangeFeature(ps, ps2, s.start, s.mid);
        const EapcaFeature hi = RangeFeature(ps, ps2, s.mid, s.end);
        col[2 * stride] = lo.mean;
        col[3 * stride] = hi.mean;
        col[4 * stride] = lo.std;
        col[5 * stride] = hi.std;
      }
    }
  }

  // Calls fn(mean column, std column, width) for each segment of the
  // children's segmentation, in order, when the split is on a feature of
  // segment `split` (vertical: the split halves it).
  template <typename Fn>
  void ForEachChildSegment(size_t split, bool vertical, Fn fn) const {
    for (size_t s = 0; s < segments.size(); ++s) {
      const Segment& g = segments[s];
      if (vertical && s == split) {
        fn(g.column + 2, g.column + 4, g.mid - g.start);
        fn(g.column + 3, g.column + 5, g.end - g.mid);
      } else {
        fn(g.column, g.column + 1, g.end - g.start);
      }
    }
  }
};

// The envelope of one child segment over the members in `members`,
// folded in list order as DSTreeNode::UpdateSynopsis folds them.
struct Envelope {
  double min_mean = kInf, max_mean = -kInf, min_std = kInf, max_std = -kInf;
};

Envelope EnvelopeOf(const double* mean, const double* std,
                    std::span<const uint32_t> members) {
  Envelope e;
  for (uint32_t i : members) {
    e.min_mean = std::min(e.min_mean, mean[i]);
    e.max_mean = std::max(e.max_mean, mean[i]);
    e.min_std = std::min(e.min_std, std[i]);
    e.max_std = std::max(e.max_std, std[i]);
  }
  return e;
}

// Members [0, n) whose feature is <= threshold go to `left`, the others
// to `right`, each list in member order; returns the left count.
size_t Partition(const double* feature, size_t n, double threshold,
                 uint32_t* left, uint32_t* right) {
  size_t nl = 0;
  size_t nr = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool goes_left = feature[i] <= threshold;
    left[nl] = static_cast<uint32_t>(i);
    right[nr] = static_cast<uint32_t>(i);
    nl += goes_left ? 1 : 0;
    nr += goes_left ? 0 : 1;
  }
  return nl;
}

// What is known of a leaf whose last split failed with every feature
// finite: every candidate was degenerate, i.e. at least ceil(n/2) of its
// n members sat at the candidate's maximum feature (the threshold is the
// upper median). Per column: that maximum and how many members sit at
// it.
struct StuckLeaf {
  std::vector<double> max;
  std::vector<size_t> at_max;
};

}  // namespace

// Scratch reused across the inserts and splits of one build, and the
// leaves whose last split failed.
struct DSTreeIndex::BuildState {
  PrefixLanes inserts;  // the series being inserted
  PrefixLanes members;  // members of the leaf being split
  std::vector<EapcaFeature> features;  // one series' under one node
  SplitPlan plan;
  std::vector<double> columns;  // [column][member] candidate features
  std::vector<double> member;   // one series' candidate features
  std::vector<double> median;   // one column, reordered by nth_element
  std::vector<uint32_t> sides;  // left list, then right list
  std::unordered_map<int32_t, StuckLeaf> stuck;

  // After the split of `node_id` failed: remembers each column's maximum
  // over the `n` members and how many sit at it, unless some feature is
  // not finite (then a split may fail for other reasons, and every
  // insert tries again).
  void SplitFailed(int32_t node_id, size_t n) {
    if (!std::all_of(columns.begin(), columns.end(),
                     [](double v) { return std::isfinite(v); })) {
      stuck.erase(node_id);
      return;
    }
    StuckLeaf& leaf = stuck[node_id];
    leaf.max.resize(plan.columns);
    leaf.at_max.resize(plan.columns);
    for (size_t c = 0; c < plan.columns; ++c) {
      const double* feature = columns.data() + c * n;
      leaf.max[c] = *std::max_element(feature, feature + n);
      leaf.at_max[c] =
          static_cast<size_t>(std::count(feature, feature + n, leaf.max[c]));
    }
  }

  // Whether a split of the leaf `node_id`, now holding `count` series
  // under `seg`, the last of which has prefix sums `ps` and `ps2`, would
  // fail as its last one did: the leaf's last split failed with every
  // feature finite, the new member's features are finite, and every
  // candidate still has at least half the members at its maximum.
  bool StillStuck(int32_t node_id, const Segmentation& seg,
                  size_t min_segment_length, size_t count, const double* ps,
                  const double* ps2) {
    auto found = stuck.find(node_id);
    if (found == stuck.end()) return false;
    StuckLeaf& leaf = found->second;
    plan.Plan(seg, min_segment_length);
    member.resize(plan.columns);
    plan.Features(ps, ps2, member.data(), 1);
    const size_t half = (count + 1) / 2;
    for (size_t c = 0; c < plan.columns; ++c) {
      const double v = member[c];
      if (!std::isfinite(v)) return false;
      if (v > leaf.max[c]) {
        leaf.max[c] = v;
        leaf.at_max[c] = 1;
      } else if (v == leaf.max[c]) {
        ++leaf.at_max[c];
      }
      // SplitLeaf, called next, starts the leaf's record over.
      if (leaf.at_max[c] < half) return false;
    }
    return true;
  }
};

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

  {
    BuildState state;
    constexpr size_t kLanes = PrefixLanes::kLanes;
    for (size_t i = 0; i < data.size(); i += kLanes) {
      const size_t count = std::min(kLanes, data.size() - i);
      int64_t ids[kLanes];
      for (size_t k = 0; k < count; ++k) ids[k] = static_cast<int64_t>(i + k);
      state.inserts.Compute(data, ids, count);
      for (size_t k = 0; k < count; ++k) {
        index->Insert(data, ids[k], state.inserts.ps(k),
                      state.inserts.ps2(k), &state);
      }
    }
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

void DSTreeIndex::WordPaa(const double* ps, double* out) const {
  const Paa& paa = word_encoder_->paa();
  for (size_t s = 0; s < paa.segments(); ++s) {
    const size_t start = paa.SegmentStart(s);
    const size_t end = paa.SegmentStart(s + 1);
    out[s] = (ps[end] - ps[start]) / static_cast<double>(end - start);
  }
}

void DSTreeIndex::Insert(const Dataset& data, int64_t id, const double* ps,
                         const double* ps2, BuildState* state) {
  double paa[kWordSegments];
  WordPaa(ps, paa);

  // Features under each node of the path; a child that kept its parent's
  // segmentation (a horizontal split) reuses them.
  std::vector<EapcaFeature>& features = state->features;
  const Segmentation* features_under = nullptr;
  int32_t node_id = 0;
  while (true) {
    DSTreeNode& node = nodes_[node_id];
    if (features_under == nullptr || node.segmentation != *features_under) {
      features.resize(node.segmentation.size());
      size_t start = 0;
      for (size_t s = 0; s < features.size(); ++s) {
        features[s] = RangeFeature(ps, ps2, start, node.segmentation[s]);
        start = node.segmentation[s];
      }
      features_under = &node.segmentation;
    }
    node.UpdateSynopsis(features);
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
  if (leaf.series_ids.size() > options_.leaf_capacity &&
      !state->StillStuck(node_id, leaf.segmentation,
                         options_.min_segment_length,
                         leaf.series_ids.size(), ps, ps2)) {
    SplitLeaf(data, node_id, state);
  }
}

void DSTreeIndex::SplitLeaf(const Dataset& data, int32_t node_id,
                            BuildState* state) {
  // Candidate split rules over the leaf's segmentation (SplitPlan):
  //  * horizontal: partition by segment mean or segment std;
  //  * vertical:   first subdivide the segment at its midpoint, then
  //    partition by a sub-segment's mean or std (children get the refined
  //    segmentation).
  // Every candidate is evaluated exactly on the buffered series: the
  // threshold is the feature median (balanced fanout) and the score is
  // the summed squared EAPCA-envelope diameter of the two children — the
  // QoS heuristic of the DSTree paper, computed on real data rather than
  // estimated. Each member's features are computed once, into one column
  // per candidate; a child's envelope over a child segment is the min and
  // max of two columns over the child's members.
  const std::vector<int64_t>& ids = nodes_[node_id].series_ids;
  const size_t n = ids.size();
  SplitPlan& plan = state->plan;
  plan.Plan(nodes_[node_id].segmentation, options_.min_segment_length);
  std::vector<double>& columns = state->columns;
  columns.resize(plan.columns * n);
  PrefixLanes& lanes = state->members;
  for (size_t i = 0; i < n; i += PrefixLanes::kLanes) {
    const size_t count = std::min(PrefixLanes::kLanes, n - i);
    lanes.Compute(data, ids.data() + i, count);
    for (size_t k = 0; k < count; ++k) {
      plan.Features(lanes.ps(k), lanes.ps2(k), columns.data() + i + k, n);
    }
  }
  const double* cols = columns.data();
  auto column = [cols, n](size_t c) { return cols + c * n; };

  std::vector<uint32_t>& sides = state->sides;
  sides.resize(2 * n);
  uint32_t* left = sides.data();
  uint32_t* right = sides.data() + n;
  // Σ over the child's segments of w·((Δμ)² + (Δσ)²), summed in segment
  // order as DSTreeNode::SynopsisDiameterSq sums it.
  auto diameter_sq = [&](size_t split, bool vertical,
                         std::span<const uint32_t> members) {
    double sum = 0.0;
    plan.ForEachChildSegment(
        split, vertical, [&](size_t mean, size_t std, size_t width) {
          const Envelope e = EnvelopeOf(column(mean), column(std), members);
          const double w = static_cast<double>(width);
          const double dm = e.max_mean - e.min_mean;
          const double ds = e.max_std - e.min_std;
          sum += w * (dm * dm + ds * ds);
        });
    return sum;
  };

  // The first candidate with the strictly smallest score wins.
  double best_score = kInf;
  size_t best_column = 0;
  size_t best_segment = 0;
  double best_threshold = 0.0;
  std::vector<double>& median = state->median;
  for (size_t s = 0; s < plan.segments.size(); ++s) {
    const SplitPlan::Segment& g = plan.segments[s];
    for (size_t c = g.column; c < g.column + (g.halves ? 6 : 2); ++c) {
      const double* feature = column(c);
      median.assign(feature, feature + n);
      std::nth_element(median.begin(), median.begin() + n / 2, median.end());
      const double threshold = median[n / 2];
      const size_t nl = Partition(feature, n, threshold, left, right);
      // Degenerate candidate: all features on one side.
      if (nl == 0 || nl == n) continue;
      const bool vertical = c - g.column >= 2;
      const double score = diameter_sq(s, vertical, {left, nl}) +
                           diameter_sq(s, vertical, {right, n - nl});
      if (score < best_score) {
        best_score = score;
        best_column = c;
        best_segment = s;
        best_threshold = threshold;
      }
    }
  }

  if (best_score == kInf) {
    // No balanced split exists (identical series). Grow the leaf instead:
    // correctness is unaffected, only the fill factor. Later inserts skip
    // the splits that would fail again (BuildState::StillStuck).
    state->SplitFailed(node_id, n);
    return;
  }
  state->stuck.erase(node_id);

  const SplitPlan::Segment& g = plan.segments[best_segment];
  const size_t offset = best_column - g.column;
  const bool vertical = offset >= 2;
  const size_t nl = Partition(column(best_column), n, best_threshold, left,
                              right);
  Segmentation child_seg = nodes_[node_id].segmentation;
  if (vertical) {
    child_seg.insert(child_seg.begin() + static_cast<ptrdiff_t>(best_segment),
                     g.mid);
  }
  const size_t w = word_encoder_->segments();
  const uint8_t* words = nodes_[node_id].leaf_words.data();
  auto make_child = [&](std::span<const uint32_t> members) {
    DSTreeNode child;
    child.segmentation = child_seg;
    const size_t segments = child_seg.size();
    child.min_mean.resize(segments);
    child.max_mean.resize(segments);
    child.min_std.resize(segments);
    child.max_std.resize(segments);
    size_t s = 0;
    plan.ForEachChildSegment(
        best_segment, vertical, [&](size_t mean, size_t std, size_t) {
          const Envelope e = EnvelopeOf(column(mean), column(std), members);
          child.min_mean[s] = e.min_mean;
          child.max_mean[s] = e.max_mean;
          child.min_std[s] = e.min_std;
          child.max_std[s] = e.max_std;
          ++s;
        });
    child.count = members.size();
    child.series_ids.reserve(members.size());
    child.leaf_words.reserve(members.size() * w);
    for (uint32_t i : members) {
      child.series_ids.push_back(ids[i]);
      child.leaf_words.insert(child.leaf_words.end(), words + i * w,
                              words + (i + 1) * w);
    }
    return child;
  };
  DSTreeNode left_child = make_child({left, nl});
  DSTreeNode right_child = make_child({right, n - nl});

  DSTreeNode& parent = nodes_[node_id];
  parent.is_leaf = false;
  parent.series_ids.clear();
  parent.series_ids.shrink_to_fit();
  parent.leaf_words.clear();
  parent.leaf_words.shrink_to_fit();
  // The feature range of the winning column: the segment, or one half.
  parent.split_start = offset == 3 || offset == 5 ? g.mid : g.start;
  parent.split_end = offset == 2 || offset == 4 ? g.mid : g.end;
  parent.split_on_std = offset == 1 || offset >= 4;
  parent.split_value = best_threshold;
  parent.left = static_cast<int32_t>(nodes_.size());
  parent.right = parent.left + 1;
  nodes_.push_back(std::move(left_child));
  nodes_.push_back(std::move(right_child));
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
        RangeFeature(ctx.prefix_sum.data(), ctx.prefix_sum2.data(), start,
                     end);
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
  ctx.prefix_sum.resize(query.size() + 1);
  ctx.prefix_sum2.resize(query.size() + 1);
  const float* series = query.data();
  double* ps = ctx.prefix_sum.data();
  double* ps2 = ctx.prefix_sum2.data();
  PrefixSums<1>(&series, query.size(), &ps, &ps2);
  ctx.paa.resize(word_encoder_->segments());
  WordPaa(ps, ctx.paa.data());
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
