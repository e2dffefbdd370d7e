#ifndef HYDRA_INDEX_FLANN_FLANN_H_
#define HYDRA_INDEX_FLANN_FLANN_H_

#include <memory>

#include "common/status.h"
#include "index/flann/kd_forest.h"
#include "index/flann/kmeans_tree.h"
#include "index/index.h"

namespace hydra {

// Flann (Muja & Lowe 2009): an ensemble that auto-selects between
// randomized kd-trees and a hierarchical k-means tree. The original
// performs full cross-validated parameter search; we implement the same
// selection principle with a direct bake-off, scored without a clock so
// that a build is reproducible: build both structures, draw
// `autotune_queries` self-queries from the data with an Rng seeded by
// the two structures' seeds, and count for each structure how many of
// every query's exact 10 nearest neighbors (a linear scan) it returns at
// the `default_checks` budget. The higher count wins; a tie goes to the
// kd-forest. `kAuto` can be overridden to force either algorithm.
struct FlannOptions {
  enum class Algorithm { kAuto, kKdForest, kKmeansTree };
  Algorithm algorithm = Algorithm::kAuto;
  KdForestOptions kd;
  KmeansTreeOptions kmeans;
  size_t default_checks = 64;  // visited-point budget per query
  size_t autotune_queries = 16;
};

class FlannIndex : public Index {
 public:
  static Result<std::unique_ptr<FlannIndex>> Build(
      const Dataset& data, const FlannOptions& options = {});

  std::string name() const override { return "flann"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities c;
    c.ng_approximate = true;
    c.disk_resident = false;
    c.summarization = "kd-forest / k-means tree";
    return c;
  }
  size_t MemoryBytes() const override;

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override;

  bool uses_kd_forest() const { return kd_ != nullptr; }

 private:
  FlannIndex(const Dataset& data, const FlannOptions& options)
      : data_(&data), options_(options) {}

  const Dataset* data_;
  FlannOptions options_;
  std::unique_ptr<KdForest> kd_;
  std::unique_ptr<KmeansTree> kmeans_;
  size_t series_length_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_FLANN_FLANN_H_
