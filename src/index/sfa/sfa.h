#ifndef HYDRA_INDEX_SFA_SFA_H_
#define HYDRA_INDEX_SFA_SFA_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/distance_histogram.h"
#include "index/answer_set.h"
#include "index/index.h"
#include "storage/buffer_manager.h"
#include "transform/dft.h"

namespace hydra {


// SFA trie (Schäfer & Högqvist 2012): the Symbolic Fourier Approximation
// index, listed in the paper's taxonomy alongside the SAX-family methods.
// Series are represented by the first DFT coefficients, quantized with
// Multiple Coefficient Binning (MCB): per-coefficient equi-depth bins
// learned from the data, so symbols are uniformly used even for skewed
// spectra (contrast with SAX's fixed Gaussian breakpoints). Words are
// organized in a prefix trie: a node constrains the first `prefix_len`
// symbols; splitting a leaf extends the prefix by one coefficient.
//
// MinDist sums per-constrained-coefficient distances to the symbol bins,
// which lower-bounds the truncated-DFT distance and hence (Parseval) the
// true Euclidean distance — making exact and δ-ε search admissible via
// the same generic Algorithms 1 & 2 as the other trees.
struct SfaOptions {
  size_t num_features = 16;   // retained DFT dimensions (word length)
  size_t alphabet = 8;        // symbols per coefficient (MCB bins)
  size_t leaf_capacity = 64;
  size_t binning_sample = 4096;  // series sampled to learn MCB bins
  size_t histogram_pairs = 20000;
  size_t histogram_bins = 512;
  uint64_t seed = 42;
};

class SfaIndex : public Index {
 public:
  static Result<std::unique_ptr<SfaIndex>> Build(
      const Dataset& data, SeriesProvider* provider,
      const SfaOptions& options = {});

  std::string name() const override { return "sfa"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities c;
    c.exact = true;
    c.ng_approximate = true;
    c.epsilon_approximate = true;
    c.delta_epsilon_approximate = true;
    c.disk_resident = true;
    c.summarization = "SFA";
    return c;
  }
  size_t MemoryBytes() const override;

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override;

  // --- Tree interface of index/tree_search.h ---
  struct QueryContext {
    std::vector<double> features;
  };
  QueryContext MakeQueryContext(std::span<const float> query) const {
    return {dft_->Transform(query)};
  }
  std::vector<int32_t> SearchRoots() const { return {0}; }
  bool IsLeaf(int32_t id) const { return nodes_[id].children.empty(); }
  std::vector<int32_t> NodeChildren(int32_t id) const {
    return nodes_[id].children;
  }
  double MinDistSq(const QueryContext& ctx, int32_t id) const;
  // A leaf's candidate ids (sorted ascending at build), scanned and
  // prefetched from provider().
  std::span<const int64_t> LeafIds(int32_t id) const {
    return nodes_[id].series_ids;
  }
  SeriesProvider* provider() const { return provider_; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  // MCB boundaries of coefficient d (alphabet − 1 ascending cut points).
  const std::vector<double>& Bins(size_t d) const { return bins_[d]; }

 private:
  struct Node {
    uint16_t prefix_len = 0;
    std::vector<uint8_t> prefix;     // symbols for dims [0, prefix_len)
    std::vector<int32_t> children;   // empty = leaf
    std::vector<int64_t> series_ids;
    std::vector<uint8_t> leaf_words;  // ids.size() × num_features
    size_t count = 0;
  };

  SfaIndex(SeriesProvider* provider, const SfaOptions& options)
      : provider_(provider), options_(options) {}

  uint8_t Quantize(size_t dim, double value) const;
  void Insert(int64_t id, const std::vector<uint8_t>& word);
  void SplitLeaf(int32_t node_id);
  // Sorts a leaf's ids (permuting leaf_words alongside); see Build.
  void SortLeafByIds(Node* node) const;
  // Squared distance from value to symbol bin `sym` of dimension `dim`.
  double BinDistSq(size_t dim, uint8_t sym, double value) const;

  SeriesProvider* provider_;  // not owned
  SfaOptions options_;
  std::unique_ptr<DftFeatures> dft_;
  std::vector<std::vector<double>> bins_;  // per-dim MCB boundaries
  std::vector<Node> nodes_;
  std::unique_ptr<DistanceHistogram> histogram_;
  size_t series_length_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_SFA_SFA_H_
