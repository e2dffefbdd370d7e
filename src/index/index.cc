#include "index/index.h"

#include <algorithm>

#include "common/options.h"
#include "index/answer_set.h"
#include "index/leaf_scanner.h"

// Index is an interface; this translation unit anchors its vtable and
// holds the reference BatchSearch implementation, plus the SearchParams
// helpers every index resolves its query through.

namespace hydra {

size_t DefaultPrefetchDepth() {
  // Parse-once: the process-wide default may not drift mid-run.
  static const size_t depth = EnvOrSize("HYDRA_PREFETCH", 0);
  return depth;
}

size_t ResolvePrefetchDepth(const SearchParams& params) {
  if (params.prefetch_depth == SearchParams::kPrefetchOff) return 0;
  // explicit param > HYDRA_PREFETCH > 0 (off) — the system-wide
  // precedence of common/options.h, with the parse-once default above.
  return params.prefetch_depth != 0 ? params.prefetch_depth
                                    : DefaultPrefetchDepth();
}

std::shared_ptr<CancellationToken> ResolveCancellation(
    const SearchParams& params) {
  if (params.cancel != nullptr) return params.cancel;
  if (params.deadline_ms > 0) {
    return CancellationToken::WithDeadline(params.deadline_ms);
  }
  return nullptr;
}

std::vector<Result<KnnAnswer>> Index::BatchSearch(
    std::span<const BatchQuery> batch) const {
  // The reference semantics every batched override must reproduce: Q
  // independent Search() calls, each with its own params, counters, and
  // failure isolation.
  std::vector<Result<KnnAnswer>> results;
  results.reserve(batch.size());
  for (const BatchQuery& member : batch) {
    results.push_back(Search(member.query, member.params, member.counters));
  }
  return results;
}

std::vector<size_t> SplitBatch(const Index& index,
                               std::span<const BatchQuery> batch,
                               size_t series_length, bool exact_only,
                               std::vector<Result<KnnAnswer>>* results) {
  results->assign(batch.size(), Status::Internal("unset"));
  std::vector<size_t> shared;
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchQuery& member = batch[i];
    if (member.params.k == 0) {
      (*results)[i] = Status::InvalidArgument("k must be > 0");
    } else if (member.query.size() != series_length) {
      (*results)[i] = Status::InvalidArgument("query length mismatch");
    } else if (exact_only && member.params.mode != SearchMode::kExact) {
      (*results)[i] =
          index.Search(member.query, member.params, member.counters);
    } else {
      shared.push_back(i);
    }
  }
  if (shared.size() == 1) {
    const BatchQuery& lone = batch[shared[0]];
    (*results)[shared[0]] =
        index.Search(lone.query, lone.params, lone.counters);
    shared.clear();
  }
  return shared;
}

void ScanBatchMembers(std::span<const BatchQuery> batch,
                      std::span<const size_t> members,
                      std::vector<Result<KnnAnswer>>* results,
                      const std::function<void(LeafScanner*)>& scan) {
  size_t prefetch_depth = 0;
  for (size_t i : members) {
    prefetch_depth =
        std::max(prefetch_depth, ResolvePrefetchDepth(batch[i].params));
  }
  LeafScanner scanner(prefetch_depth);
  std::vector<AnswerSet> answers;
  answers.reserve(members.size());
  for (size_t i : members) {
    scanner.AddQuery(batch[i].query, &answers.emplace_back(batch[i].params.k),
                     batch[i].counters, ResolveCancellation(batch[i].params));
  }
  scan(&scanner);
  for (size_t m = 0; m < members.size(); ++m) {
    (*results)[members[m]] = scanner.Finish(m);
  }
}

}  // namespace hydra
