#ifndef HYDRA_INDEX_ADSPLUS_ADSPLUS_H_
#define HYDRA_INDEX_ADSPLUS_ADSPLUS_H_

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

class LeafScanner;  // index/leaf_scanner.h

// ADS+ (Zoumpatianos, Idreos & Palpanas 2016): the adaptive data series
// index. Index construction is deliberately minimal — one summarization
// pass builds a coarse iSAX tree with large, unrefined leaves — and the
// expensive work of refining the tree is deferred to query time: each
// query adaptively splits the leaves it actually touches down to a small
// query-time leaf size. Regions never queried never pay refinement cost.
//
// The paper evaluates iSAX2+ instead of ADS+ because ADS+'s SIMS answer
// strategy was "not immediately amenable to approximate search with
// guarantees" and marks the δ-ε extension of ADS+ as planned work (its
// taxonomy already lists ADS+ [•]). This class implements that planned
// extension: the adaptive build/refine split of ADS+, combined with the
// same Algorithm 1/2 search modes as the other trees.
//
// Queries mutate the tree (refinement), so a single index must not serve
// concurrent queries — matching the original single-threaded design.
struct AdsPlusOptions {
  size_t segments = 16;
  size_t max_bits = 8;
  size_t build_leaf_capacity = 1024;  // coarse leaves at build time
  size_t query_leaf_capacity = 64;    // adaptive refinement target
  size_t histogram_pairs = 20000;
  size_t histogram_bins = 512;
  uint64_t histogram_seed = 42;
};

class AdsPlusIndex : public Index {
 public:
  static Result<std::unique_ptr<AdsPlusIndex>> Build(
      const Dataset& data, SeriesProvider* provider,
      const AdsPlusOptions& options = {});

  std::string name() const override { return "adsplus"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities c;
    c.exact = true;
    c.ng_approximate = true;
    c.epsilon_approximate = true;
    c.delta_epsilon_approximate = true;
    c.disk_resident = true;
    // Queries refine the tree in place (see class comment): one instance
    // must not serve overlapping queries. The serving engine reads this
    // flag and admits ADS+ queries one at a time.
    c.concurrent_queries = false;
    c.summarization = "iSAX (adaptive)";
    return c;
  }
  size_t MemoryBytes() const override;

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override;

  // --- Tree interface of index/tree_search.h ---
  struct QueryContext {
    std::vector<double> paa;
  };
  std::vector<int32_t> SearchRoots() const { return root_children_; }
  bool IsLeaf(int32_t id) const { return nodes_[id].is_leaf; }
  std::vector<int32_t> NodeChildren(int32_t id) const;
  double MinDistSq(const QueryContext& ctx, int32_t id) const;
  // Adaptive: refines the leaf to query_leaf_capacity before scanning.
  void ScanLeaf(int32_t id, LeafScanner* scanner,
                std::span<const size_t> slots) const;
  // A leaf's (sorted) ids, prefetched from provider() while queued. An
  // unrefined leaf keeps the same ids after refinement splits them across
  // descendants, so they are exactly the readahead its scans want.
  std::span<const int64_t> LeafIds(int32_t id) const {
    return nodes_[id].series_ids;
  }
  SeriesProvider* provider() const { return provider_; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  // How many leaves exceed the query-time capacity (shrinks as queries
  // refine the tree — the adaptivity observable).
  size_t num_unrefined_leaves() const;

 private:
  AdsPlusIndex(SeriesProvider* provider, const AdsPlusOptions& options)
      : provider_(provider), options_(options) {}

  void Insert(int64_t id, const std::vector<uint16_t>& word);
  // Splits `node_id` once (same promotion policy as iSAX2+); returns
  // false when the node is unsplittable.
  bool SplitLeaf(int32_t node_id) const;
  // Splits the leaf repeatedly until the subtree it rooted is refined to
  // the query-time capacity; the query then re-descends.
  void RefineSubtree(int32_t node_id, QueryCounters* counters) const;
  uint64_t RootKey(const std::vector<uint16_t>& word) const;
  static int NextBit(uint16_t symbol, uint8_t used_bits, size_t max_bits) {
    return (symbol >> (max_bits - used_bits - 1)) & 1;
  }

  SeriesProvider* provider_;  // not owned
  AdsPlusOptions options_;
  std::unique_ptr<SaxEncoder> encoder_;
  // Query-time refinement mutates the structure: mutable by design (see
  // class comment on concurrency).
  mutable std::vector<IsaxNode> nodes_;
  std::unordered_map<uint64_t, int32_t> root_map_;
  std::vector<int32_t> root_children_;
  std::unique_ptr<DistanceHistogram> histogram_;
  size_t series_length_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_ADSPLUS_ADSPLUS_H_
