#ifndef HYDRA_INDEX_ISAX_ISAX_INDEX_H_
#define HYDRA_INDEX_ISAX_ISAX_INDEX_H_

#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/distance_histogram.h"
#include "index/answer_set.h"
#include "index/index.h"
#include "index/isax/isax_node.h"
#include "storage/buffer_manager.h"
#include "transform/sax.h"

namespace hydra {


// iSAX2+ (Camerra et al. 2014) extended with the paper's ng / ε / δ-ε
// search modes. Series are encoded once at full cardinality (bulk
// loading); the tree grows by binary splits that promote the cardinality
// of one segment at a time. The root fans out on the first bit of every
// segment, as in the original index.
struct IsaxOptions {
  size_t segments = 16;
  size_t max_bits = 8;  // full cardinality 2^max_bits = 256
  size_t leaf_capacity = 64;
  size_t histogram_pairs = 20000;
  size_t histogram_bins = 512;
  uint64_t histogram_seed = 42;
};

class IsaxIndex : public Index {
 public:
  static Result<std::unique_ptr<IsaxIndex>> Build(
      const Dataset& data, SeriesProvider* provider,
      const IsaxOptions& options = {});

  std::string name() const override { return "isax2plus"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities c;
    c.exact = true;
    c.ng_approximate = true;
    c.epsilon_approximate = true;
    c.delta_epsilon_approximate = true;
    c.disk_resident = true;
    c.batched_queries = true;
    c.summarization = "iSAX";
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

  // r-range query (paper Definition 2); see DSTreeIndex::RangeSearch.
  Result<KnnAnswer> RangeSearch(std::span<const float> query, double radius,
                                double epsilon,
                                QueryCounters* counters) const;

  // Persistence: structure + δ-histogram only, raw data stays with the
  // provider (see DSTreeIndex::Save for the contract).
  Status Save(const std::string& path) const;
  static Result<std::unique_ptr<IsaxIndex>> Load(const std::string& path,
                                                 SeriesProvider* provider);

  // --- Tree interface of index/tree_search.h ---
  struct QueryContext {
    std::vector<double> paa;
  };
  // Builds the per-query context consumed by the generic tree algorithms
  // (TreeKnnSearch, IncrementalKnnStream, ProgressiveKnnSearch).
  QueryContext MakeQueryContext(std::span<const float> query) const {
    return {encoder_->paa().Transform(query)};
  }
  // The conceptual root is not materialized; the search roots are its
  // lazily-created first-level children.
  std::vector<int32_t> SearchRoots() const { return root_children_; }
  bool IsLeaf(int32_t id) const { return nodes_[id].is_leaf; }
  std::vector<int32_t> NodeChildren(int32_t id) const;
  double MinDistSq(const QueryContext& ctx, int32_t id) const;
  // A leaf's candidate ids (sorted ascending at build/load), scanned and
  // prefetched from provider().
  std::span<const int64_t> LeafIds(int32_t id) const {
    return nodes_[id].series_ids;
  }
  // The member sieve: an admissible LB² for each LeafIds member, from the
  // full-cardinality word the leaf keeps for it, or the partial sum that
  // passed `cutoff`.
  void MemberBoundsSq(
      const QueryContext& ctx, int32_t leaf, std::span<double> out,
      double cutoff = std::numeric_limits<double>::infinity()) const {
    encoder_->MinDistSqPaaToWords(ctx.paa, nodes_[leaf].leaf_words.data(),
                                  out, cutoff);
  }
  SeriesProvider* provider() const { return provider_; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  const SaxEncoder& encoder() const { return *encoder_; }

 private:
  IsaxIndex(SeriesProvider* provider, const IsaxOptions& options)
      : provider_(provider), options_(options) {}

  void Insert(int64_t id, const std::vector<uint16_t>& word);
  void SplitLeaf(int32_t node_id);
  // Packs the first bit of every segment's symbol: the root fanout key.
  uint64_t RootKey(const std::vector<uint16_t>& word) const;
  // The next (bits[s]+1)-th bit of the symbol in segment s.
  static int NextBit(uint16_t symbol, uint8_t used_bits, size_t max_bits) {
    return (symbol >> (max_bits - used_bits - 1)) & 1;
  }

  SeriesProvider* provider_;  // not owned
  IsaxOptions options_;
  std::unique_ptr<SaxEncoder> encoder_;
  std::vector<IsaxNode> nodes_;
  std::unordered_map<uint64_t, int32_t> root_map_;
  std::vector<int32_t> root_children_;
  std::unique_ptr<DistanceHistogram> histogram_;
  size_t series_length_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_ISAX_ISAX_INDEX_H_
