#ifndef HYDRA_INDEX_SCAN_LINEAR_SCAN_H_
#define HYDRA_INDEX_SCAN_LINEAR_SCAN_H_

#include <memory>

#include "index/index.h"
#include "storage/buffer_manager.h"

namespace hydra {

// Sequential-scan exact k-NN over a SeriesProvider. The paper's yardstick:
// scans cannot support efficient approximate search (every candidate is
// read regardless), so this index answers every mode exactly.
class LinearScanIndex : public Index {
 public:
  explicit LinearScanIndex(SeriesProvider* provider) : provider_(provider) {}

  std::string name() const override { return "scan"; }
  IndexCapabilities capabilities() const override {
    IndexCapabilities c;
    c.exact = true;
    c.disk_resident = true;
    c.batched_queries = true;
    c.summarization = "raw";
    return c;
  }
  size_t MemoryBytes() const override { return sizeof(*this); }

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override;

  // Shared full scan: the whole collection is walked ONCE, each pinned
  // page evaluated for every batch member through the multi-query kernel
  // (one LeafScanner slot per member, index/leaf_scanner.h). Per-member
  // answers match solo Search bit for bit — the batched scan pins the same
  // page runs in the same order and refreshes each query's abandon
  // threshold at the same chunk granularity as a solo scan.
  std::vector<Result<KnnAnswer>> BatchSearch(
      std::span<const BatchQuery> batch) const override;

 private:
  SeriesProvider* provider_;  // not owned
};

}  // namespace hydra

#endif  // HYDRA_INDEX_SCAN_LINEAR_SCAN_H_
