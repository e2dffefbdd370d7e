#ifndef HYDRA_INDEX_DSTREE_DSTREE_NODE_H_
#define HYDRA_INDEX_DSTREE_DSTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "transform/eapca.h"

namespace hydra {

// One DSTree node. The DSTree (Wang et al. 2013) is a binary tree over
// EAPCA summaries in which every node owns its own segmentation of the
// series domain; leaves split either *horizontally* (series partitioned by
// the mean or standard deviation of one segment) or *vertically* (a
// segment is first subdivided, refining the children's segmentation, then
// partitioned) — the data-adaptive property that distinguishes it from
// fixed-segmentation indexes.
struct DSTreeNode {
  // Segmentation of this node (exclusive end offsets).
  Segmentation segmentation;

  // Synopsis: per-segment envelope of the EAPCA features of every series
  // in this subtree. MinDist against a query lower-bounds the true
  // distance; the envelope diameter drives the split-quality heuristic.
  std::vector<double> min_mean, max_mean, min_std, max_std;
  size_t count = 0;  // series in the subtree

  bool is_leaf = true;

  // Split rule (internal nodes): series with feature <= split_value go
  // left. The feature is the mean (or std) of points [split_start,
  // split_end), a range that is a segment of the *children's*
  // segmentation (it differs from the parent's after a vertical split).
  size_t split_start = 0;
  size_t split_end = 0;
  bool split_on_std = false;
  double split_value = 0.0;

  int32_t left = -1;
  int32_t right = -1;

  // Leaf payload: dataset positions of the series stored here, and one
  // full-cardinality iSAX word per series (series_ids.size() × the
  // index's word segments), whose bounds let a search skip members
  // without fetching them (DSTreeIndex::MemberBoundsSq).
  std::vector<int64_t> series_ids;
  std::vector<uint8_t> leaf_words;

  // Extends the envelope with one series' features (under this node's
  // segmentation) and bumps count.
  void UpdateSynopsis(const std::vector<EapcaFeature>& features);

  // Σ_s w_s·((Δμ_s)² + (Δσ_s)²): the squared EAPCA-envelope diameter,
  // the QoS measure minimized when choosing splits.
  double SynopsisDiameterSq() const;

  size_t ApproxBytes() const;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_DSTREE_DSTREE_NODE_H_
