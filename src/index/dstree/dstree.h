#ifndef HYDRA_INDEX_DSTREE_DSTREE_H_
#define HYDRA_INDEX_DSTREE_DSTREE_H_

#include <limits>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/distance_histogram.h"
#include "index/answer_set.h"
#include "index/dstree/dstree_node.h"
#include "index/index.h"
#include "storage/buffer_manager.h"
#include "transform/sax.h"

namespace hydra {

// DSTree (Wang et al. 2013) extended with the paper's ng / ε / δ-ε
// approximate search modes (Algorithms 1 & 2). The tree indexes EAPCA
// summaries with per-node adaptive segmentation; raw series are fetched
// from a SeriesProvider at query time, so the same index serves both the
// in-memory and the disk-resident regimes.
struct DSTreeOptions {
  size_t leaf_capacity = 64;
  size_t initial_segments = 4;
  // Vertical splits subdivide a segment only while it is at least this
  // many points long.
  size_t min_segment_length = 2;
  // Sampling parameters of the δ-radius histogram (paper: 100K sample).
  size_t histogram_pairs = 20000;
  size_t histogram_bins = 512;
  uint64_t histogram_seed = 42;
};

class DSTreeIndex : public Index {
 public:
  // Builds by inserting every series of `data`. `provider` serves raw
  // series at query time and must describe the same collection.
  static Result<std::unique_ptr<DSTreeIndex>> Build(
      const Dataset& data, SeriesProvider* provider,
      const DSTreeOptions& options = {});

  std::string name() const override { return "dstree"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities c;
    c.exact = true;
    c.ng_approximate = true;
    c.epsilon_approximate = true;
    c.delta_epsilon_approximate = true;
    c.disk_resident = true;
    c.batched_queries = true;
    c.summarization = "EAPCA";
    return c;
  }
  size_t MemoryBytes() const override;

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override;

  // Exact-mode members co-traverse the tree in one best-first walk with
  // shared lower-bound computation and one scan per leaf for the queries
  // it survives (TreeBatchSearch, index/tree_search.h); approximate-mode
  // members run their own solo Search inside the batch.
  std::vector<Result<KnnAnswer>> BatchSearch(
      std::span<const BatchQuery> batch) const override;

  // r-range query (paper Definition 2): all series within `radius`.
  // epsilon > 0 trades completeness near the boundary for speed; returned
  // results always satisfy d <= radius (see TreeRangeSearch).
  Result<KnnAnswer> RangeSearch(std::span<const float> query, double radius,
                                double epsilon,
                                QueryCounters* counters) const;

  // Persists the index structure (nodes, synopses, δ-histogram) so that a
  // later session can Load() it and serve queries against the same raw
  // data via any provider. Raw series are not duplicated into the file.
  // The file ends in a CRC-32C footer that Load checks first: damage is
  // DataCorruption naming the path (common/codec.h, OpenIndexFile).
  Status Save(const std::string& path) const;
  static Result<std::unique_ptr<DSTreeIndex>> Load(const std::string& path,
                                                   SeriesProvider* provider);

  // --- Tree interface of index/tree_search.h (public for the generic
  // algorithms) ---
  struct QueryContext {
    std::vector<double> prefix_sum;   // prefix sums of the query
    std::vector<double> prefix_sum2;  // prefix sums of squares
    std::vector<double> paa;  // segment means of the members' words
  };
  // Builds the per-query context consumed by the generic tree algorithms
  // (TreeKnnSearch, IncrementalKnnStream, ProgressiveKnnSearch).
  QueryContext MakeQueryContext(std::span<const float> query) const;
  std::vector<int32_t> SearchRoots() const { return {0}; }
  bool IsLeaf(int32_t id) const { return nodes_[id].is_leaf; }
  std::vector<int32_t> NodeChildren(int32_t id) const;
  double MinDistSq(const QueryContext& ctx, int32_t id) const;
  // A leaf's candidate ids (sorted ascending at build/load), scanned and
  // prefetched from provider().
  std::span<const int64_t> LeafIds(int32_t id) const {
    return nodes_[id].series_ids;
  }
  // The member sieve: an admissible LB² for each LeafIds member, from
  // its word (MinDist of the query's PAA to its full-cardinality iSAX
  // word), or the partial sum that passed `cutoff`.
  void MemberBoundsSq(
      const QueryContext& ctx, int32_t leaf, std::span<double> out,
      double cutoff = std::numeric_limits<double>::infinity()) const {
    word_encoder_->MinDistSqPaaToWords(
        ctx.paa, nodes_[leaf].leaf_words.data(), out, cutoff);
  }
  SeriesProvider* provider() const { return provider_; }

  // Introspection for tests and benches.
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  size_t max_depth() const;
  const DSTreeNode& node(size_t i) const { return nodes_[i]; }

 private:
  DSTreeIndex(SeriesProvider* provider, const DSTreeOptions& options)
      : provider_(provider), options_(options) {}

  // Segments of a member's word (fewer for series shorter than this) and
  // bits per symbol: 64 bytes a series.
  static constexpr size_t kWordSegments = 64;
  static constexpr size_t kWordBits = 8;

  void Insert(const Dataset& data, int64_t id);
  // The means of the word segments of a series, from its prefix sums.
  void WordPaa(const std::vector<double>& ps, double* out) const;
  void SplitLeaf(const Dataset& data, int32_t node_id);
  // Mean or std of series[start, end) from per-series prefix sums.
  static EapcaFeature RangeFeature(const std::vector<double>& ps,
                                   const std::vector<double>& ps2,
                                   size_t start, size_t end);

  SeriesProvider* provider_;  // not owned
  DSTreeOptions options_;
  std::vector<DSTreeNode> nodes_;  // nodes_[0] = root
  std::unique_ptr<SaxEncoder> word_encoder_;
  std::unique_ptr<DistanceHistogram> histogram_;
  size_t series_length_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_DSTREE_DSTREE_H_
