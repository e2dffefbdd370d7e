#include "index/scan/linear_scan.h"

#include "index/answer_set.h"
#include "index/leaf_scanner.h"

namespace hydra {

Result<KnnAnswer> LinearScanIndex::Search(std::span<const float> query,
                                          const SearchParams& params,
                                          QueryCounters* counters) const {
  if (params.k == 0) return Status::InvalidArgument("k must be > 0");
  if (query.size() != provider_->series_length()) {
    return Status::InvalidArgument("query length mismatch");
  }
  AnswerSet answers(params.k);
  // The whole file is one ascending id range: each worker pulls maximal
  // contiguous runs of its shard (the full dataset in memory, page-sized
  // runs from the buffer manager) and feeds the SIMD batch kernel. This
  // is the partition-parallel scaling primitive — with num_threads = 1 it
  // is exactly the serial batched scan.
  LeafScanner scanner(query, &answers, counters, params.num_threads,
                      params.pin_budget, ResolvePrefetchDepth(params),
                      ResolveCancellation(params));
  scanner.ScanRange(provider_, 0, provider_->num_series());
  return scanner.Finish(0);
}

std::vector<Result<KnnAnswer>> LinearScanIndex::BatchSearch(
    std::span<const BatchQuery> batch) const {
  std::vector<Result<KnnAnswer>> results;
  const std::vector<size_t> members =
      SplitBatch(*this, batch, provider_->series_length(),
                 /*exact_only=*/false, &results);
  if (members.empty()) return results;
  // The shared scan walks the collection once for every member.
  ScanBatchMembers(batch, members, &results, [&](LeafScanner* scanner) {
    scanner->ScanRange(provider_, 0, provider_->num_series());
  });
  return results;
}

}  // namespace hydra
