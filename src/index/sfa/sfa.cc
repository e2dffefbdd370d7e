#include "index/sfa/sfa.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "index/leaf_sort.h"
#include "index/tree_search.h"

namespace hydra {

Result<std::unique_ptr<SfaIndex>> SfaIndex::Build(const Dataset& data,
                                                  SeriesProvider* provider,
                                                  const SfaOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (provider == nullptr || provider->num_series() != data.size() ||
      provider->series_length() != data.length()) {
    return Status::InvalidArgument("provider does not match dataset");
  }
  if (options.num_features == 0 || options.alphabet < 2 ||
      options.alphabet > 256) {
    return Status::InvalidArgument(
        "num_features must be > 0 and alphabet in [2, 256]");
  }
  if (options.leaf_capacity == 0) {
    return Status::InvalidArgument("leaf_capacity must be > 0");
  }
  std::unique_ptr<SfaIndex> index(new SfaIndex(provider, options));
  index->series_length_ = data.length();
  index->dft_ =
      std::make_unique<DftFeatures>(data.length(), options.num_features);
  const size_t f = index->dft_->num_features();

  // One transform pass over the data; features are reused for binning and
  // for the word encoding.
  std::vector<double> features(data.size() * f);
  for (size_t i = 0; i < data.size(); ++i) {
    index->dft_->Transform(data.series(i),
                           std::span<double>(features.data() + i * f, f));
  }

  // MCB: per-coefficient equi-depth boundaries from a sample, so every
  // symbol covers roughly the same number of series.
  Rng rng(options.seed);
  const size_t sample_n = std::min(options.binning_sample, data.size());
  std::vector<size_t> sample_ids(data.size());
  std::iota(sample_ids.begin(), sample_ids.end(), 0);
  for (size_t i = 0; i < sample_n; ++i) {
    std::swap(sample_ids[i], sample_ids[i + rng.NextUint64(data.size() - i)]);
  }
  index->bins_.resize(f);
  std::vector<double> column(sample_n);
  for (size_t d = 0; d < f; ++d) {
    for (size_t i = 0; i < sample_n; ++i) {
      column[i] = features[sample_ids[i] * f + d];
    }
    std::sort(column.begin(), column.end());
    index->bins_[d].resize(options.alphabet - 1);
    for (size_t b = 1; b < options.alphabet; ++b) {
      size_t pos = std::min(sample_n - 1, b * sample_n / options.alphabet);
      index->bins_[d][b - 1] = column[pos];
    }
    // Equal quantiles can collide on discrete data; keep cut points
    // strictly nondecreasing (duplicates simply yield empty symbols).
    for (size_t b = 1; b < index->bins_[d].size(); ++b) {
      index->bins_[d][b] = std::max(index->bins_[d][b],
                                    index->bins_[d][b - 1]);
    }
  }

  // Trie root + bulk insertion of words.
  index->nodes_.push_back({});
  std::vector<uint8_t> word(f);
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t d = 0; d < f; ++d) {
      word[d] = index->Quantize(d, features[i * f + d]);
    }
    index->Insert(static_cast<int64_t>(i), word);
  }
  // Leaf ids sorted once at build time so consecutive ids coalesce into
  // contiguous runs (batch kernel + sequential readahead; see
  // index/leaf_scanner.h). Ascending bulk load plus order-preserving
  // splits leave leaves sorted already, so this is a guarantee, not a
  // pass.
  for (Node& node : index->nodes_) {
    index->SortLeafByIds(&node);
  }

  index->histogram_ = std::make_unique<DistanceHistogram>(
      data, options.histogram_pairs, options.histogram_bins, rng);
  return index;
}

uint8_t SfaIndex::Quantize(size_t dim, double value) const {
  const std::vector<double>& cuts = bins_[dim];
  return static_cast<uint8_t>(
      std::upper_bound(cuts.begin(), cuts.end(), value) - cuts.begin());
}

void SfaIndex::Insert(int64_t id, const std::vector<uint8_t>& word) {
  int32_t node_id = 0;
  while (true) {
    Node& node = nodes_[node_id];
    ++node.count;
    if (node.children.empty()) break;
    // Children are keyed by the symbol at dimension `prefix_len`; the
    // child vector is indexed directly by symbol (alphabet-sized).
    node_id = node.children[word[node.prefix_len]];
  }
  Node& leaf = nodes_[node_id];
  leaf.series_ids.push_back(id);
  leaf.leaf_words.insert(leaf.leaf_words.end(), word.begin(), word.end());
  if (leaf.series_ids.size() > options_.leaf_capacity &&
      leaf.prefix_len < dft_->num_features()) {
    SplitLeaf(node_id);
  }
}

void SfaIndex::SplitLeaf(int32_t node_id) {
  const size_t f = dft_->num_features();
  const size_t next_dim = nodes_[node_id].prefix_len;
  const size_t n = nodes_[node_id].series_ids.size();

  // One child per symbol of the next coefficient (created eagerly; empty
  // children stay leaves with count 0 and are never pushed by search
  // because their MinDist sees an empty envelope... they are cheap).
  std::vector<int32_t> children(options_.alphabet);
  for (size_t sym = 0; sym < options_.alphabet; ++sym) {
    Node child;
    child.prefix_len = static_cast<uint16_t>(next_dim + 1);
    child.prefix = nodes_[node_id].prefix;
    child.prefix.push_back(static_cast<uint8_t>(sym));
    children[sym] = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(std::move(child));
  }
  for (size_t i = 0; i < n; ++i) {
    const Node& leaf = nodes_[node_id];
    uint8_t sym = leaf.leaf_words[i * f + next_dim];
    Node& child = nodes_[children[sym]];
    child.series_ids.push_back(leaf.series_ids[i]);
    child.leaf_words.insert(child.leaf_words.end(),
                            leaf.leaf_words.begin() + i * f,
                            leaf.leaf_words.begin() + (i + 1) * f);
    ++child.count;
  }
  Node& parent = nodes_[node_id];
  parent.children = std::move(children);
  parent.series_ids.clear();
  parent.series_ids.shrink_to_fit();
  parent.leaf_words.clear();
  parent.leaf_words.shrink_to_fit();
}

double SfaIndex::BinDistSq(size_t dim, uint8_t sym, double value) const {
  const std::vector<double>& cuts = bins_[dim];
  double lo = sym == 0 ? -std::numeric_limits<double>::infinity()
                       : cuts[sym - 1];
  double hi = sym >= cuts.size() ? std::numeric_limits<double>::infinity()
                                 : cuts[sym];
  double d = 0.0;
  if (value < lo) {
    d = lo - value;
  } else if (value > hi) {
    d = value - hi;
  }
  return d * d;
}

double SfaIndex::MinDistSq(const QueryContext& ctx, int32_t id) const {
  const Node& node = nodes_[id];
  if (node.count == 0) return std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (size_t d = 0; d < node.prefix.size(); ++d) {
    sum += BinDistSq(d, node.prefix[d], ctx.features[d]);
  }
  return sum;
}

void SfaIndex::SortLeafByIds(Node* node) const {
  if (node->children.empty()) {  // leaves are the childless nodes
    SortLeafPayloadByIds(&node->series_ids, &node->leaf_words,
                         dft_->num_features());
  }
}

Result<KnnAnswer> SfaIndex::Search(std::span<const float> query,
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

size_t SfaIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const auto& b : bins_) total += b.size() * sizeof(double);
  for (const Node& n : nodes_) {
    total += sizeof(Node) + n.prefix.size() +
             n.children.size() * sizeof(int32_t) +
             n.series_ids.size() * sizeof(int64_t) + n.leaf_words.size();
  }
  return total;
}

size_t SfaIndex::num_leaves() const {
  size_t leaves = 0;
  for (const Node& n : nodes_) leaves += n.children.empty() ? 1 : 0;
  return leaves;
}

}  // namespace hydra
