#ifndef HYDRA_COMMON_COUNTERS_H_
#define HYDRA_COMMON_COUNTERS_H_

#include <cstdint>

namespace hydra {

// Implementation-independent cost counters, mirroring the measures the
// paper reports alongside wall-clock time: number of full-resolution
// distance computations, raw series touched, bytes read from storage, and
// random (non-sequential) storage accesses.
//
// Counters are plain value objects owned by whoever runs a query; indexes
// receive a pointer and bump the fields. No global mutable state.
//
// Thread-safety contract: a QueryCounters instance must only ever be
// written from one thread at a time — the fields are plain integers and
// concurrent bumps lose updates. Parallel execution therefore never
// shares an instance across workers: each worker of a fan-out
// (index/leaf_scanner.h) accumulates into its own local QueryCounters
// and the coordinator folds them into the caller's with operator+= after
// the workers have joined. Code that hands a counters pointer to another
// thread must hand a distinct instance per thread and merge afterwards.
struct QueryCounters {
  uint64_t full_distances = 0;     // raw-series evaluations run to completion
  uint64_t abandoned_distances = 0;  // raw-series evaluations abandoned early
  uint64_t lb_distances = 0;       // lower-bound computations on summaries
  uint64_t series_accessed = 0;    // raw series fetched from storage
  uint64_t bytes_read = 0;         // payload bytes fetched from storage
  uint64_t random_ios = 0;         // seeks: fetches not contiguous with prev
  uint64_t leaves_visited = 0;     // tree leaves (or cells/lists) opened
  uint64_t nodes_pushed = 0;       // priority-queue pushes
  // Buffer-pool attribution: which of THIS query's page fetches were
  // served from the pool vs. loaded from disk. The pool's own atomic
  // totals aggregate all queries; these fields let the serving harness
  // report hit rates per query / per concurrency level. A waiter joined
  // to another query's in-flight load counts a hit here (no I/O was
  // issued on its behalf), matching the pool's accounting.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Readahead attribution: pages this query queued for background
  // prefetch (storage/buffer_manager.h Prefetch), and prefetched pages a
  // demand fetch of this query then consumed. useful/issued is the
  // prefetch hit rate the benches report; the consuming fetch also
  // inherits the prefetcher's bytes_read/random_ios for the page, so the
  // physical I/O measures stay comparable with prefetch off.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_useful = 0;
  // Fault-tolerance attribution: page reads re-issued on behalf of this
  // query after a transient failure or a checksum mismatch
  // (storage/buffer_manager.h retry-with-backoff), and reads abandoned
  // after the retry budget was exhausted (each give-up surfaces as a
  // typed non-OK Status on the query). Waiters joined to another query's
  // load charge nothing here, matching the cache_hits convention.
  uint64_t io_retries = 0;
  uint64_t io_giveups = 0;

  void Reset() { *this = QueryCounters(); }
  QueryCounters& operator+=(const QueryCounters& other);
};

}  // namespace hydra

#endif  // HYDRA_COMMON_COUNTERS_H_
