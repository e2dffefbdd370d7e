#include "index/dstree/dstree_node.h"

#include <algorithm>
#include <limits>

namespace hydra {

void DSTreeNode::UpdateSynopsis(std::span<const EapcaFeature> features) {
  if (min_mean.empty()) {
    size_t s = segmentation.size();
    min_mean.assign(s, std::numeric_limits<double>::infinity());
    max_mean.assign(s, -std::numeric_limits<double>::infinity());
    min_std.assign(s, std::numeric_limits<double>::infinity());
    max_std.assign(s, -std::numeric_limits<double>::infinity());
  }
  for (size_t s = 0; s < features.size(); ++s) {
    min_mean[s] = std::min(min_mean[s], features[s].mean);
    max_mean[s] = std::max(max_mean[s], features[s].mean);
    min_std[s] = std::min(min_std[s], features[s].std);
    max_std[s] = std::max(max_std[s], features[s].std);
  }
  ++count;
}

double DSTreeNode::SynopsisDiameterSq() const {
  if (count == 0 || min_mean.empty()) return 0.0;
  double sum = 0.0;
  size_t start = 0;
  for (size_t s = 0; s < segmentation.size(); ++s) {
    double w = static_cast<double>(segmentation[s] - start);
    double dm = max_mean[s] - min_mean[s];
    double ds = max_std[s] - min_std[s];
    sum += w * (dm * dm + ds * ds);
    start = segmentation[s];
  }
  return sum;
}

size_t DSTreeNode::ApproxBytes() const {
  return sizeof(DSTreeNode) +
         segmentation.size() * sizeof(size_t) +
         4 * min_mean.size() * sizeof(double) +
         series_ids.size() * sizeof(int64_t) + leaf_words.size();
}

}  // namespace hydra
