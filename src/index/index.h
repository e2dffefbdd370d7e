#ifndef HYDRA_INDEX_INDEX_H_
#define HYDRA_INDEX_INDEX_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/counters.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/metrics.h"

namespace hydra {

// Accuracy contract of a search call, following the paper's taxonomy
// (Fig. 1): exact ⊂ ε-approximate ⊂ δ-ε-approximate; ng-approximate makes
// no guarantee. For tree methods, ng-approximate visits up to `nprobe`
// leaves; for IMI, `nprobe` is the number of inverted lists; for HNSW,
// `efs` bounds the candidate set; for VA+file, `nprobe` is the number of
// raw series refined.
enum class SearchMode {
  kExact,
  kNgApproximate,
  kDeltaEpsilon,  // δ = 1 makes it ε-approximate; δ = 1, ε = 0 exact
};

struct SearchParams {
  SearchMode mode = SearchMode::kExact;
  size_t k = 1;
  // ng-approximate knobs.
  size_t nprobe = 1;
  size_t efs = 0;  // HNSW candidate-list width; 0 = use index default
  // δ-ε knobs (paper Definition 6; epsilon is the relative distance error,
  // delta the success probability of the guarantee).
  double epsilon = 0.0;
  double delta = 1.0;
  // Intra-query parallelism: leaf/candidate scans shard across up to this
  // many workers of the process-wide pool (src/exec/). 1 = fully serial,
  // preserving the pre-exec behavior bit for bit. Results are a function
  // of num_threads alone — never of pool size or scheduling — and exact
  // search returns answers identical to num_threads = 1 (the counter
  // full/abandoned split may shift; see index/leaf_scanner.h).
  size_t num_threads = 1;
  // Cap on the pinned pages this query may hold concurrently on a shared
  // bounded buffer pool (0 = provider default). The serving engine
  // (exec/query_scheduler.h) sets it to MaxConcurrentPins() / admitted
  // queries so overlapping queries can never starve each other of pins;
  // the scanner clamps its provider-backed fan-outs to it
  // (index/leaf_scanner.h). Affects only shard counts, never answers.
  uint64_t pin_budget = 0;
  // Asynchronous readahead depth in buffer-pool pages: the scan layers
  // announce this many pages of their upcoming id stream to the
  // provider's background prefetcher before evaluating the current run,
  // overlapping disk reads with distance kernels
  // (index/leaf_scanner.h, storage/buffer_manager.h). 0 = unset, which
  // falls back to the HYDRA_PREFETCH environment default (itself 0 = off,
  // the serial-identical seed behavior). A pure cache hint: answers are
  // bit-identical at every depth; only wall-clock and the hit/miss &
  // prefetch counters move. The serving engine clamps it so concurrent
  // queries share the pool's readahead budget (MaxPrefetchPages()).
  size_t prefetch_depth = 0;
  // Sentinel for prefetch_depth: readahead FORCED off, even when
  // HYDRA_PREFETCH is set — the harness uses it for the depth-0 baseline
  // rows so an exported env default cannot contaminate them.
  static constexpr size_t kPrefetchOff = static_cast<size_t>(-1);
  // Per-query wall-clock budget in milliseconds (0 = none). When set and
  // no `cancel` token is supplied, the search layers arm a deadline token
  // themselves (ResolveCancellation below); the serving
  // engine instead measures the budget from Submit time, so queue wait
  // counts against it. On expiry the query abandons work at its next
  // cancellation point and returns Status::DeadlineExceeded — never a
  // silently truncated answer.
  double deadline_ms = 0;
  // Cooperative cancellation handle shared with the caller: fire it and
  // every worker of this query stops at its next cancellation point
  // (page fetch, tree node pop, refinement commit), pins are released and
  // still-queued prefetches are skipped. Null = not cancellable (beyond
  // deadline_ms above). Shared because announced readahead can outlive
  // the Search() call itself.
  std::shared_ptr<CancellationToken> cancel;
};

// The process-default prefetch depth from HYDRA_PREFETCH (pages of
// lookahead; unset/invalid = 0 = off), parsed once. SearchParams::
// prefetch_depth = 0 falls back to this, so the env knob turns the whole
// scan path's readahead on without touching call sites.
size_t DefaultPrefetchDepth();

// The effective lookahead of a query: its explicit prefetch_depth, or
// the HYDRA_PREFETCH default when unset (0).
size_t ResolvePrefetchDepth(const SearchParams& params);

// The effective cancellation token of a query: its explicit token, or a
// fresh deadline token when only deadline_ms is set (measured from this
// call — the serving engine passes an explicit token instead so queue
// wait counts against the budget), or null when the query is not
// cancellable. Every index Search() resolves through this one helper so
// the deadline knob behaves identically across methods.
std::shared_ptr<CancellationToken> ResolveCancellation(
    const SearchParams& params);

// Capability flags for the taxonomy table (paper Table 1 / Fig. 1).
struct IndexCapabilities {
  bool exact = false;
  bool ng_approximate = false;
  bool epsilon_approximate = false;
  bool delta_epsilon_approximate = false;
  bool disk_resident = false;
  // Safe to call Search() from several threads at once on one instance.
  // True for every read-only index (all shared state — provider, pool,
  // kernels — is thread-safe); ADS+ answers false because queries refine
  // the tree in place. The serving engine clamps its admission to 1 for
  // such indexes instead of racing them.
  bool concurrent_queries = true;
  // BatchSearch() does better than the default per-query loop: the index
  // amortizes page fetches and distance kernels across the batch (shared
  // scans, tree co-traversal, batched LUT phase). The serving engine only
  // coalesces queued queries for indexes that answer true — and never for
  // indexes with concurrent_queries == false (ADS+ mutates per query, so
  // it must not even see a multi-query call).
  bool batched_queries = false;
  std::string summarization;  // e.g. "EAPCA", "iSAX", "OPQ"
};

// One member of a BatchSearch() call: a query plus its own parameters and
// its own counter sink. Queries in a batch are independent requests that
// happen to be evaluated together — each keeps its own k, mode, abandon
// thresholds, deadline/cancel token, and QueryCounters attribution.
struct BatchQuery {
  std::span<const float> query;
  SearchParams params;
  QueryCounters* counters = nullptr;  // may be null
};

// Common interface of the ten methods under evaluation. Indexes are built
// once over a dataset and then serve any number of queries; Search is
// const so one index can serve different modes without rebuilding (the
// paper highlights this as a key advantage of the extended data-series
// methods over accuracy-at-build-time methods like QALSH/HNSW/IMI).
struct BuildOptions;  // index/factory.h

class Index {
 public:
  virtual ~Index() = default;

  // Method-independent entry point: opens the series file at `path`,
  // assembles the storage it will be served from (page-pinning pool or
  // in-memory copy, per BuildOptions), builds the index named by
  // `options.method` over it, and returns ONE owning object — no caller
  // juggles {reader, pool, dataset, index} lifetimes or special-cases
  // construction per method anymore. Implemented in index/factory.cc.
  // ShardedIndex and hydra_cli assemble their own storage and call
  // BuildIndex (index/factory.h) instead; the harness takes built indexes.
  static Result<std::unique_ptr<Index>> Open(const std::string& path,
                                             const BuildOptions& options);

  virtual std::string name() const = 0;
  virtual IndexCapabilities capabilities() const = 0;

  // Approximate main-memory footprint of the index structure in bytes
  // (excluding the raw data unless the method stores it internally).
  virtual size_t MemoryBytes() const = 0;

  virtual Result<KnnAnswer> Search(std::span<const float> query,
                                   const SearchParams& params,
                                   QueryCounters* counters) const = 0;

  // Evaluates a batch of independent queries in one call, returning one
  // Result per member in batch order. The contract mirrors Q separate
  // Search() calls exactly: every member's answer is what its own
  // Search(query, params, counters) would return (bit-identical for exact
  // search), and a member that fails — typed I/O error, expired deadline,
  // fired cancel token — fails alone with its own Status while the rest
  // of the batch completes. The base implementation IS the per-query
  // loop; indexes that set capabilities().batched_queries override it to
  // share page fetches, SIMD kernel passes, and lower-bound computation
  // across the batch (one LeafScanner slot per member,
  // index/leaf_scanner.h). Only I/O and cache locality are shared, never
  // arithmetic, which is what makes the equivalence provable
  // (tests/batch_search_test.cc holds every covered index to it).
  virtual std::vector<Result<KnnAnswer>> BatchSearch(
      std::span<const BatchQuery> batch) const;
};

// The shared opening of the BatchSearch overrides. Fails each invalid
// member alone with the status its own Search returns (k = 0, a query of
// the wrong length); runs through its own Search every valid member that
// cannot share — an approximate one when `exact_only` — and a lone member
// that could (a batch of one is a Search, and keeps its intra-query
// fan-out). Returns the members left to run together: none, or at least
// two. `results` gets one entry per member.
std::vector<size_t> SplitBatch(const Index& index,
                               std::span<const BatchQuery> batch,
                               size_t series_length, bool exact_only,
                               std::vector<Result<KnnAnswer>>* results);

class LeafScanner;  // index/leaf_scanner.h

// Runs the `members` of `batch` that SplitBatch left to share through one
// LeafScanner: one slot per member, in order, with the largest readahead
// any member asks for (a cache hint serves them all). Calls `scan` once,
// then stores each member's answers or failure in its `results` entry.
void ScanBatchMembers(std::span<const BatchQuery> batch,
                      std::span<const size_t> members,
                      std::vector<Result<KnnAnswer>>* results,
                      const std::function<void(LeafScanner*)>& scan);

}  // namespace hydra

#endif  // HYDRA_INDEX_INDEX_H_
