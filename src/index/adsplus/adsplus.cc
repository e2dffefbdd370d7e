#include "index/adsplus/adsplus.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "index/leaf_scanner.h"
#include "index/tree_search.h"

namespace hydra {

Result<std::unique_ptr<AdsPlusIndex>> AdsPlusIndex::Build(
    const Dataset& data, SeriesProvider* provider,
    const AdsPlusOptions& options) {
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
  if (options.build_leaf_capacity == 0 || options.query_leaf_capacity == 0) {
    return Status::InvalidArgument("leaf capacities must be > 0");
  }
  std::unique_ptr<AdsPlusIndex> index(new AdsPlusIndex(provider, options));
  index->series_length_ = data.length();
  index->encoder_ = std::make_unique<SaxEncoder>(
      data.length(), options.segments, options.max_bits);

  // Minimal build pass: summaries only, into coarse leaves.
  for (size_t i = 0; i < data.size(); ++i) {
    index->Insert(static_cast<int64_t>(i),
                  index->encoder_->Encode(data.series(i)));
  }
  // Sorted leaf ids coalesce into contiguous runs (batch kernel +
  // sequential readahead, index/leaf_scanner.h). Query-time refinement
  // splits partition in order, so descendants of a sorted leaf stay
  // sorted across the index's whole adaptive life.
  for (IsaxNode& node : index->nodes_) {
    node.SortLeafByIds(options.segments);
  }

  Rng rng(options.histogram_seed);
  index->histogram_ = std::make_unique<DistanceHistogram>(
      data, options.histogram_pairs, options.histogram_bins, rng);
  return index;
}

uint64_t AdsPlusIndex::RootKey(const std::vector<uint16_t>& word) const {
  uint64_t key = 0;
  for (size_t s = 0; s < word.size(); ++s) {
    key = (key << 1) |
          static_cast<uint64_t>((word[s] >> (options_.max_bits - 1)) & 1);
  }
  return key;
}

void AdsPlusIndex::Insert(int64_t id, const std::vector<uint16_t>& word) {
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
  // Build-time splits use the *coarse* capacity: the tree stays shallow
  // and construction cheap; queries refine later where it matters.
  if (leaf.series_ids.size() > options_.build_leaf_capacity) {
    SplitLeaf(node_id);
  }
}

bool AdsPlusIndex::SplitLeaf(int32_t node_id) const {
  const size_t segs = options_.segments;
  const size_t n = nodes_[node_id].series_ids.size();
  if (n < 2) return false;

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
      double balance = 1.0 - std::abs(frac - 0.5) * 2.0;
      if (balance > best_balance) {
        best_balance = balance;
        best_seg = s;
      }
    }
  }
  if (best_seg == segs) return false;

  IsaxNode left, right;
  {
    const IsaxNode& leaf = nodes_[node_id];
    left.word = leaf.word;
    left.bits = leaf.bits;
    left.bits[best_seg] += 1;
    right.word = leaf.word;
    right.bits = left.bits;
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
  return true;
}

void AdsPlusIndex::RefineSubtree(int32_t node_id,
                                 QueryCounters* counters) const {
  // Split the touched leaf (and any oversized descendants) down to the
  // query-time capacity. This is the "adaptive" in ADS+: the cost is
  // paid once, only for regions queries care about.
  std::vector<int32_t> stack = {node_id};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    if (nodes_[id].is_leaf) {
      if (nodes_[id].series_ids.size() > options_.query_leaf_capacity) {
        if (SplitLeaf(id)) {
          stack.push_back(nodes_[id].left);
          stack.push_back(nodes_[id].right);
          if (counters != nullptr) ++counters->nodes_pushed;
        }
      }
    } else {
      stack.push_back(nodes_[id].left);
      stack.push_back(nodes_[id].right);
    }
  }
}

std::vector<int32_t> AdsPlusIndex::NodeChildren(int32_t id) const {
  const IsaxNode& n = nodes_[id];
  std::vector<int32_t> out;
  if (n.left >= 0) out.push_back(n.left);
  if (n.right >= 0) out.push_back(n.right);
  return out;
}

double AdsPlusIndex::MinDistSq(const QueryContext& ctx, int32_t id) const {
  const IsaxNode& n = nodes_[id];
  return encoder_->MinDistSqPaaToSax(ctx.paa, n.word, n.bits);
}

void AdsPlusIndex::ScanLeaf(int32_t id, LeafScanner* scanner,
                            std::span<const size_t> slots) const {
  if (nodes_[id].series_ids.size() > options_.query_leaf_capacity) {
    RefineSubtree(id, scanner->counters(slots.empty() ? 0 : slots[0]));
  }
  // After refinement the node may be internal: scan the (refined) leaves
  // beneath it, nearest-first is unnecessary — the caller already ordered
  // this subtree by its lower bound. Refinement itself stays on the query
  // thread; only the id scans below fan out.
  std::vector<int32_t> stack = {id};
  while (!stack.empty()) {
    int32_t cur = stack.back();
    stack.pop_back();
    const IsaxNode& node = nodes_[cur];
    if (!node.is_leaf) {
      stack.push_back(node.left);
      stack.push_back(node.right);
      continue;
    }
    if (!scanner->ScanIds(provider_, node.series_ids, slots).ok()) return;
  }
}

Result<KnnAnswer> AdsPlusIndex::Search(std::span<const float> query,
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

size_t AdsPlusIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const IsaxNode& n : nodes_) total += n.ApproxBytes();
  total += root_map_.size() * (sizeof(uint64_t) + sizeof(int32_t)) * 2;
  return total;
}

size_t AdsPlusIndex::num_leaves() const {
  size_t leaves = 0;
  for (const IsaxNode& n : nodes_) leaves += n.is_leaf ? 1 : 0;
  return leaves;
}

size_t AdsPlusIndex::num_unrefined_leaves() const {
  size_t count = 0;
  for (const IsaxNode& n : nodes_) {
    if (n.is_leaf && n.series_ids.size() > options_.query_leaf_capacity) {
      ++count;
    }
  }
  return count;
}

}  // namespace hydra
