#include "index/sharded/sharded_index.h"

#include <algorithm>
#include <utility>

#include "exec/thread_pool.h"
#include "storage/series_file.h"

namespace hydra {
namespace {

// One shard's contribution to a scatter: its answer plus its own counter
// sink (merged into the query's counters in shard order afterwards, so
// the sums are deterministic no matter how the tasks interleaved).
struct ShardOutcome {
  Result<KnnAnswer> answer{Status::Unavailable("shard not searched")};
  QueryCounters counters;
};

struct MergeEntry {
  double distance;
  int64_t global_id;
};

// Root-cause selection over the per-shard statuses, in shard order: the
// first non-Cancelled error wins (sibling tasks cancelled BECAUSE a shard
// failed must not mask the failure itself); all-cancelled means the
// cancellation is the story.
Status PickFailure(const std::vector<size_t>& active,
                   const std::vector<ShardOutcome>& outcomes) {
  Status failure = Status::OK();
  for (size_t s : active) {
    if (outcomes[s].answer.ok()) continue;
    const Status st = outcomes[s].answer.status();
    if (failure.ok() ||
        (failure.code() == StatusCode::kCancelled &&
         st.code() != StatusCode::kCancelled)) {
      failure = st;
    }
  }
  return failure;
}

// Losslessly merges per-shard exact top-k lists into the global top-k.
// Works in true-distance space: every shard distance is the correctly
// rounded sqrt of the full squared distance the unsharded index computes
// for the same (query, series) pair, so the merged values are
// bit-identical to the unsharded answer's; ordering is (distance, global
// id) ascending, the same order AnswerSet::Finish emits (ties on exact
// equal distances are the repo-wide id-choice caveat).
KnnAnswer MergeAnswers(const ShardPartitioning& parts,
                       const std::vector<size_t>& active,
                       const std::vector<ShardOutcome>& outcomes, size_t k) {
  std::vector<MergeEntry> entries;
  for (size_t s : active) {
    const KnnAnswer& a = outcomes[s].answer.value();
    for (size_t i = 0; i < a.ids.size(); ++i) {
      entries.push_back({a.distances[i], parts.GlobalId(s, a.ids[i])});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const MergeEntry& x, const MergeEntry& y) {
              if (x.distance != y.distance) return x.distance < y.distance;
              return x.global_id < y.global_id;
            });
  const size_t take = std::min(k, entries.size());
  KnnAnswer merged;
  merged.ids.reserve(take);
  merged.distances.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    merged.ids.push_back(entries[i].global_id);
    merged.distances.push_back(entries[i].distance);
  }
  return merged;
}

}  // namespace

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Build(
    const Dataset& data, const ShardedIndexOptions& options) {
  ShardedIndexOptions opts = options;
  if (opts.num_shards == 0) opts.num_shards = 1;
  const ShardPartitioning parts(opts.scheme, data.size(), opts.num_shards);
  std::vector<Dataset> partitions = PartitionDataset(data, parts);

  std::vector<Shard> shards(opts.num_shards);
  for (size_t s = 0; s < opts.num_shards; ++s) {
    Shard& shard = shards[s];
    shard.data = std::make_unique<Dataset>(std::move(partitions[s]));
    // An empty shard (more shards than series) holds no index at all:
    // the scatter skips it and the merge treats it as zero candidates.
    if (shard.data->empty()) continue;

    SeriesProvider* provider = nullptr;
    if (!opts.storage_dir.empty()) {
      // Disk-resident shard: its own file, its own pool. Independent
      // pools are the failure-isolation boundary — a fault config or pin
      // storm on one shard cannot touch another's pages.
      const std::string path =
          opts.storage_dir + "/shard-" + std::to_string(s) + ".hsf";
      const Status written = WriteSeriesFile(path, *shard.data);
      if (!written.ok()) return written;
      const uint64_t page_series =
          opts.build.page_series != 0 ? opts.build.page_series : 16;
      const uint64_t capacity =
          opts.build.capacity_pages != 0 ? opts.build.capacity_pages : 32;
      HYDRA_ASSIGN_OR_RETURN(shard.pool,
                             BufferManager::Open(path, page_series, capacity));
      provider = shard.pool.get();
    } else {
      shard.memory = std::make_unique<InMemoryProvider>(shard.data.get());
      provider = shard.memory.get();
    }
    // The factory builds whatever method the topology asked for — the
    // sharded layer itself is method-blind.
    BuildOptions build = opts.build;
    build.page_series = 0;
    build.capacity_pages = 0;
    HYDRA_ASSIGN_OR_RETURN(shard.index, BuildIndex(*shard.data, provider, build));
  }
  return std::unique_ptr<ShardedIndex>(
      new ShardedIndex(std::move(opts), parts, std::move(shards)));
}

std::string ShardedIndex::name() const {
  return "sharded(" + options_.build.method + ")x" +
         std::to_string(shards_.size());
}

IndexCapabilities ShardedIndex::capabilities() const {
  // The fleet can only promise what EVERY populated shard promises
  // (accuracy modes, concurrent/batched serving); it is disk-resident as
  // soon as any shard is.
  IndexCapabilities merged;
  merged.exact = true;
  merged.ng_approximate = true;
  merged.epsilon_approximate = true;
  merged.delta_epsilon_approximate = true;
  merged.concurrent_queries = true;
  merged.batched_queries = true;
  merged.disk_resident = false;
  bool first = true;
  for (const Shard& shard : shards_) {
    if (shard.index == nullptr) continue;
    const IndexCapabilities c = shard.index->capabilities();
    merged.exact &= c.exact;
    merged.ng_approximate &= c.ng_approximate;
    merged.epsilon_approximate &= c.epsilon_approximate;
    merged.delta_epsilon_approximate &= c.delta_epsilon_approximate;
    merged.concurrent_queries &= c.concurrent_queries;
    merged.batched_queries &= c.batched_queries;
    merged.disk_resident |= c.disk_resident;
    if (first) {
      merged.summarization = c.summarization;
      first = false;
    }
  }
  return merged;
}

size_t ShardedIndex::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const Shard& shard : shards_) {
    if (shard.index != nullptr) total += shard.index->MemoryBytes();
  }
  return total;
}

Result<KnnAnswer> ShardedIndex::Search(std::span<const float> query,
                                       const SearchParams& params,
                                       QueryCounters* counters) const {
  std::vector<size_t> active;
  active.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].index != nullptr) active.push_back(s);
  }
  if (active.empty()) return KnnAnswer{};  // an empty collection

  // One budget for the whole scatter: the query's deadline/cancel token
  // is resolved ONCE here and shared by every shard task, so queue wait
  // and a slow shard draw from the same clock. When no caller token
  // exists this call owns one anyway — that is what lets the first shard
  // failure cancel the siblings instead of letting them run to
  // completion for an answer that is already lost.
  SearchParams shard_params = params;
  const bool owns_token = (params.cancel == nullptr);
  std::shared_ptr<CancellationToken> cancel = ResolveCancellation(params);
  if (cancel == nullptr) cancel = std::make_shared<CancellationToken>();
  shard_params.cancel = cancel;
  shard_params.deadline_ms = 0;  // the budget lives in the shared token now

  std::vector<ShardOutcome> outcomes(shards_.size());
  if (active.size() == 1) {
    // Degenerate scatter (one populated shard): run inline — same
    // semantics, no pool round-trip.
    const size_t s = active.front();
    outcomes[s].answer =
        shards_[s].index->Search(query, shard_params, &outcomes[s].counters);
  } else {
    TaskGroup group(&ThreadPool::Global());
    for (size_t s : active) {
      group.Run([this, s, query, &shard_params, &outcomes, &cancel,
                 owns_token] {
        outcomes[s].answer = shards_[s].index->Search(
            query, shard_params, &outcomes[s].counters);
        if (!outcomes[s].answer.ok() && owns_token) cancel->Cancel();
      });
    }
    group.Wait();
  }

  // Counters sum in shard order — work done on behalf of the query is
  // charged whether or not the query survives.
  if (counters != nullptr) {
    for (size_t s : active) *counters += outcomes[s].counters;
  }
  const Status failure = PickFailure(active, outcomes);
  if (!failure.ok()) return failure;
  return MergeAnswers(parts_, active, outcomes, params.k);
}

std::vector<Result<KnnAnswer>> ShardedIndex::BatchSearch(
    std::span<const BatchQuery> batch) const {
  const size_t q = batch.size();
  std::vector<Result<KnnAnswer>> results(
      q, Result<KnnAnswer>(Status::Internal("not served")));
  if (q == 0) return results;

  std::vector<size_t> active;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].index != nullptr) active.push_back(s);
  }
  if (active.empty()) {
    for (size_t m = 0; m < q; ++m) results[m] = KnnAnswer{};
    return results;
  }

  // Per-member budgets resolved once, shared across shards — one member
  // expiring mid-scatter expires in every shard at its next cancellation
  // point, exactly like the single-query path.
  std::vector<SearchParams> member_params(q);
  for (size_t m = 0; m < q; ++m) {
    member_params[m] = batch[m].params;
    std::shared_ptr<CancellationToken> token =
        ResolveCancellation(batch[m].params);
    if (token != nullptr) {
      member_params[m].cancel = std::move(token);
      member_params[m].deadline_ms = 0;
    }
  }

  // Each shard serves the WHOLE batch through its own BatchSearch (the
  // shared-scan amortization happens inside the shard), into its own
  // per-member counter sinks.
  std::vector<std::vector<Result<KnnAnswer>>> shard_answers(shards_.size());
  std::vector<std::vector<QueryCounters>> shard_counters(shards_.size());
  TaskGroup group(&ThreadPool::Global());
  for (size_t s : active) {
    shard_counters[s].resize(q);
    group.Run([this, s, batch, &member_params, &shard_answers,
               &shard_counters] {
      std::vector<BatchQuery> local(batch.size());
      for (size_t m = 0; m < batch.size(); ++m) {
        local[m].query = batch[m].query;
        local[m].params = member_params[m];
        local[m].counters = &shard_counters[s][m];
      }
      shard_answers[s] = shards_[s].index->BatchSearch(
          std::span<const BatchQuery>(local));
    });
  }
  group.Wait();

  // Gather per member: counters in shard order, then root-cause status
  // or the merged exact top-k.
  for (size_t m = 0; m < q; ++m) {
    std::vector<ShardOutcome> outcomes(shards_.size());
    bool malformed = false;
    for (size_t s : active) {
      if (shard_answers[s].size() != q) {
        malformed = true;
        break;
      }
      outcomes[s].answer = shard_answers[s][m];
      outcomes[s].counters = shard_counters[s][m];
    }
    if (malformed) {
      results[m] = Status::Internal("shard BatchSearch count mismatch");
      continue;
    }
    if (batch[m].counters != nullptr) {
      for (size_t s : active) *batch[m].counters += outcomes[s].counters;
    }
    const Status failure = PickFailure(active, outcomes);
    if (!failure.ok()) {
      results[m] = failure;
    } else {
      results[m] = MergeAnswers(parts_, active, outcomes, batch[m].params.k);
    }
  }
  return results;
}

}  // namespace hydra
