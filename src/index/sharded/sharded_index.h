#ifndef HYDRA_INDEX_SHARDED_SHARDED_INDEX_H_
#define HYDRA_INDEX_SHARDED_SHARDED_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "index/factory.h"
#include "index/index.h"
#include "index/sharded/partitioner.h"
#include "storage/buffer_manager.h"

namespace hydra {

// Topology of one sharded deployment: how many shards, how ids map onto
// them, what method each shard runs and where shard data lives.
struct ShardedIndexOptions {
  size_t num_shards = 1;
  PartitionScheme scheme = PartitionScheme::kRoundRobin;
  // Per-shard construction: method + knobs, built through the factory —
  // the sharded layer never special-cases a method. The storage knobs
  // (page_series/capacity_pages) size EACH shard's buffer pool when
  // storage_dir is set.
  BuildOptions build;
  // Non-empty = disk-resident shards: shard s's series are written to
  // `<storage_dir>/shard-<s>.hsf` and served through the shard's own
  // page-pinning pool (per-shard pools, so one shard's pin pressure or
  // faults never bleed into another's). Empty = every shard serves from
  // its in-memory partition.
  std::string storage_dir;
};

// Scatter-gather over S per-shard indexes: the dataset is partitioned by
// pure id arithmetic (partitioner.h), each shard builds its own index of
// the chosen method over its own storage, and one Search() fans out
// across the shards on the shared ThreadPool (TaskGroup, helping Wait —
// the same seams intra-query scans use), then merges the per-shard
// AnswerSets into one exact global k-NN.
//
// Determinism contract (the serving suites extend to every shard count):
// each shard computes the same full distance for a given (query, series)
// pair as the unsharded index would — partitioning copies raw series bits
// and early abandonment never alters a surviving candidate's sum — so the
// merged top-k carries bit-identical distances, merged in true-distance
// space ordered by (distance, global id). Every AnswerSet orders by
// (distance, id) and local ids map to global ids in order within a
// shard, so exact distance ties keep the same (smallest) ids at every
// shard count.
//
// Failure semantics: shards fail independently (per-shard pools and
// files). A failed shard degrades the query to its typed Status — never
// a silently partial answer — and, when the query's cancellation token
// is owned by this call, the first failure cancels the sibling shard
// tasks so a dead shard does not burn the fleet's time. Per-query
// deadlines/cancel tokens are resolved ONCE and shared by every shard
// task, so one budget governs the whole scatter.
class ShardedIndex : public Index {
 public:
  static Result<std::unique_ptr<ShardedIndex>> Build(
      const Dataset& data, const ShardedIndexOptions& options);

  std::string name() const override;
  IndexCapabilities capabilities() const override;
  size_t MemoryBytes() const override;

  Result<KnnAnswer> Search(std::span<const float> query,
                           const SearchParams& params,
                           QueryCounters* counters) const override;

  // Scatter-gather for a whole batch: every shard evaluates the full
  // batch through its own BatchSearch (shared scans amortize inside each
  // shard), then each member's per-shard answers merge independently. A
  // member fails alone with its own typed Status; per-member counters
  // sum across shards in shard order.
  std::vector<Result<KnnAnswer>> BatchSearch(
      std::span<const BatchQuery> batch) const override;

  const ShardPartitioning& partitioning() const { return parts_; }
  size_t num_shards() const { return shards_.size(); }
  // The shard's buffer pool (nullptr for in-memory or empty shards) —
  // the seam fault-injection tests arm one shard's faults through.
  BufferManager* shard_pool(size_t shard) const {
    return shards_[shard].pool.get();
  }
  // The shard's index (nullptr for an empty shard).
  const Index* shard_index(size_t shard) const {
    return shards_[shard].index.get();
  }

 private:
  struct Shard {
    // The shard's partition, local-id order (kept alive: methods may
    // reference it past build, and the in-memory provider serves it).
    std::unique_ptr<Dataset> data;
    std::unique_ptr<BufferManager> pool;        // disk shards
    std::unique_ptr<InMemoryProvider> memory;   // in-memory shards
    std::unique_ptr<Index> index;               // null when the shard is empty
  };

  ShardedIndex(ShardedIndexOptions options, ShardPartitioning parts,
               std::vector<Shard> shards)
      : options_(std::move(options)),
        parts_(parts),
        shards_(std::move(shards)) {}

  ShardedIndexOptions options_;
  ShardPartitioning parts_;
  std::vector<Shard> shards_;
};

}  // namespace hydra

#endif  // HYDRA_INDEX_SHARDED_SHARDED_INDEX_H_
