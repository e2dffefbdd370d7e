#ifndef HYDRA_STORAGE_BUFFER_MANAGER_H_
#define HYDRA_STORAGE_BUFFER_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancellation.h"
#include "common/counters.h"
#include "common/status.h"
#include "core/dataset.h"
#include "storage/series_file.h"

namespace hydra {

namespace internal {

// One cached page: a contiguous block of consecutive series plus the
// bookkeeping the buffer pool needs. Frames are shared-owned by the page
// table, the eviction ring, and every outstanding PinnedRun.
struct PageFrame {
  explicit PageFrame(uint64_t page_id) : id(page_id) {}

  const uint64_t id;
  // Filled once by the loading thread before `state` flips to kReady,
  // unchanged while any pin is held. Readers observe the fill through
  // the state-guarding mutex, so no fence gymnastics are needed. The
  // buffer outlives the page: eviction (which only takes unpinned
  // frames) hands it to the page admitted in its place, so a pin is the
  // only guarantee that its bytes hold still.
  std::vector<float> data;

  // Pin count. A frame with pins > 0 is never evicted and never dropped
  // by DropCache. The first pin of a table lookup is taken while holding
  // the frame's shard lock (shared suffices); the eviction sweep rechecks
  // pins under the same shard's exclusive lock, which is what makes
  // "observed unpinned" a stable eviction license.
  std::atomic<uint64_t> pins{0};
  // CLOCK reference bit: set on every access, cleared (one second chance)
  // by the sweep before a frame becomes an eviction candidate. Prefetched
  // frames enter the ring with the bit CLEARED, so readahead that nobody
  // touches is always the first thing evicted.
  std::atomic<bool> referenced{true};
  // Set while the frame was faulted in by the prefetcher and no demand
  // fetch has consumed it yet. The first demand fetch clears it (claiming
  // the prefetch_useful credit and the frame's deferred I/O charge);
  // eviction and DropCache clear it when the readahead turned out
  // useless. Exactly one party observes the true->false edge.
  std::atomic<bool> prefetched{false};
  // Physical cost of the prefetcher's read of this page, charged to the
  // first demand fetch that consumes the frame (so per-query bytes_read /
  // random_ios stay comparable with prefetch off). Written by the loader
  // before `state` flips to kReady, immutable afterwards.
  uint64_t load_bytes = 0;
  uint64_t load_ios = 0;

  // Single-flight load state: concurrent misses on the same page find the
  // kLoading frame in the table and block on `cv` instead of issuing
  // their own read. kFailed frames are removed from the table by the
  // loader before notification, so waiters report failure and the next
  // fetch retries the I/O.
  enum class State : uint8_t { kLoading, kReady, kFailed };
  std::mutex mu;
  std::condition_variable cv;
  State state = State::kLoading;  // guarded by mu
  // Why the load failed (set before `state` flips to kFailed, guarded by
  // mu): waiters joined to the failed load read the real typed status —
  // DataCorruption vs. transient give-up vs. pool exhaustion — instead of
  // inventing a generic one.
  Status error;
};

}  // namespace internal

// RAII pin handle over a run of consecutive series. While the handle is
// alive the viewed span is guaranteed valid and bit-stable, across
// eviction pressure and across other threads' fetches — this is the
// contract parallel scans are built on. An empty handle means the fetch
// failed (I/O error, or every frame of a full pool was pinned).
//
// Handles are cheap (a span plus one shared_ptr) and move-only; destroy
// or Release() them promptly, since a pinned page cannot be evicted and
// shrinks the pool's working capacity while held.
class PinnedRun {
 public:
  PinnedRun() = default;
  // Unpinned view over storage that outlives the handle by construction
  // (in-memory providers): nothing to release.
  explicit PinnedRun(std::span<const float> span) : span_(span) {}
  // Pinned view into `frame`'s payload; drops the pin on destruction.
  PinnedRun(std::span<const float> span,
            std::shared_ptr<internal::PageFrame> frame)
      : span_(span), frame_(std::move(frame)) {}
  ~PinnedRun() { Release(); }

  PinnedRun(PinnedRun&& other) noexcept
      : span_(other.span_), frame_(std::move(other.frame_)) {
    other.span_ = {};
  }
  PinnedRun& operator=(PinnedRun&& other) noexcept {
    if (this != &other) {
      Release();
      span_ = other.span_;
      frame_ = std::move(other.frame_);
      other.span_ = {};
    }
    return *this;
  }
  PinnedRun(const PinnedRun&) = delete;
  PinnedRun& operator=(const PinnedRun&) = delete;

  std::span<const float> span() const { return span_; }
  bool empty() const { return span_.empty(); }

  // Drops the pin (and empties the span) before destruction would.
  void Release() {
    if (frame_ != nullptr) {
      frame_->pins.fetch_sub(1, std::memory_order_release);
      frame_.reset();
    }
    span_ = {};
  }

 private:
  std::span<const float> span_;
  std::shared_ptr<internal::PageFrame> frame_;
};

// Serves raw series to the indexes, in one of two modes:
//
//  * In-memory: wraps a Dataset; accesses are free of I/O charges except
//    the series_accessed counter.
//  * Disk-resident: wraps a SeriesFileReader plus a bounded pool of
//    fixed-size pages (groups of consecutive series). A page miss reads
//    from the file and charges bytes/random-I/O; hits are free. Bounding
//    the pool reproduces the paper's GRUB trick of limiting RAM so that
//    large datasets are forced out of core.
//
// This split lets every index run unchanged in both regimes, which is how
// the paper compares in-memory vs. on-disk behaviour.
class SeriesProvider {
 public:
  virtual ~SeriesProvider() = default;
  virtual uint64_t num_series() const = 0;
  virtual uint64_t series_length() const = 0;
  // Returns a view of series i, valid until the caller's next Get* call
  // on this provider. Serial convenience API: not required to be safe
  // under concurrent calls — concurrent readers use Pin*.
  virtual std::span<const float> GetSeries(uint64_t i,
                                           QueryCounters* counters) = 0;

  // Returns a view over as many consecutive series starting at `first` as
  // the backing storage holds contiguously, capped at `max_count` (the
  // span covers a whole number of series: span.size() / series_length()
  // of them, at least 1). Lets batched scans (index/leaf_scanner.h) feed
  // the SIMD kernel row without copying. Default: one series.
  virtual std::span<const float> GetSeriesRun(uint64_t first,
                                              uint64_t max_count,
                                              QueryCounters* counters) {
    (void)max_count;
    return GetSeries(first, counters);
  }

  // Pin-handle fetches: same addressing as GetSeries/GetSeriesRun but the
  // returned span is guaranteed valid for the handle's lifetime, across
  // other threads' fetches and eviction. The scan engine (LeafScanner,
  // index/leaf_scanner.h) fetches exclusively through these. The defaults
  // wrap Get* in an unpinned handle, which is correct for providers whose
  // spans already outlive calls (in-memory) and for providers only ever
  // read serially.
  virtual PinnedRun PinSeries(uint64_t i, QueryCounters* counters) {
    return PinnedRun(GetSeries(i, counters));
  }
  virtual PinnedRun PinRun(uint64_t first, uint64_t max_count,
                           QueryCounters* counters) {
    return PinnedRun(GetSeriesRun(first, max_count, counters));
  }

  // Typed-error variants of the pin fetches: where PinSeries/PinRun
  // collapse every failure into an empty handle, these surface the
  // provider's actual Status — DataCorruption vs. I/O give-up vs. pool
  // exhaustion — so the scan layers can fail a query with its real cause.
  // An id at or past num_series() is OutOfRange before anything is
  // fetched. The defaults wrap the unchecked fetches with a generic
  // IoError; providers with richer diagnostics (BufferManager) override.
  virtual Result<PinnedRun> PinSeriesChecked(uint64_t i,
                                             QueryCounters* counters) {
    HYDRA_RETURN_IF_ERROR(CheckSeriesId(i));
    PinnedRun run = PinSeries(i, counters);
    if (run.empty()) {
      return Status::IoError("series fetch failed: id " + std::to_string(i));
    }
    return run;
  }
  virtual Result<PinnedRun> PinRunChecked(uint64_t first, uint64_t max_count,
                                          QueryCounters* counters) {
    HYDRA_RETURN_IF_ERROR(CheckSeriesId(first));
    PinnedRun run = PinRun(first, max_count, counters);
    if (run.empty()) {
      return Status::IoError("series run fetch failed: first " +
                             std::to_string(first));
    }
    return run;
  }

  // Upper bound on the number of pins that can be held concurrently
  // without starving fetches (for a bounded pool: its page capacity).
  // The exec layer clamps a provider-backed fan-out to this many workers
  // so every worker can always hold its one pinned page; the clamp
  // depends only on provider configuration, never on timing, so results
  // stay deterministic.
  virtual uint64_t MaxConcurrentPins() const { return UINT64_MAX; }

  // --- asynchronous readahead (no-ops except on a bounded pool) ---

  // Hints that series [first, first + count) will be fetched soon: a
  // disk-backed provider queues the covering pages for its background
  // prefetch workers and returns immediately. Purely a performance hint —
  // it never changes what any fetch returns, only whether the fetch finds
  // the page already resident. Newly queued pages are charged to
  // `counters->prefetch_issued` (may be null). `cancel` (optional) ties
  // the hint to its query: readahead still queued when the token fires is
  // skipped instead of loaded, so a failed or timed-out query stops
  // consuming I/O the moment its workers stop.
  virtual void Prefetch(uint64_t first, uint64_t count,
                        QueryCounters* counters,
                        std::shared_ptr<CancellationToken> cancel = nullptr) {
    (void)first;
    (void)count;
    (void)counters;
    (void)cancel;
  }

  // Series per pooled page, for converting a page-denominated lookahead
  // depth (SearchParams::prefetch_depth) into a series window. Providers
  // without paging report their whole collection as one "page".
  virtual uint64_t SeriesPerPage() const { return num_series(); }

  // Pages the prefetcher may keep resident-but-unconsumed at once: the
  // readahead budget carved out of the pool's capacity (0 = prefetch
  // unsupported, every Prefetch call is a no-op). The serving engine
  // splits this across concurrent queries the same way it splits the pin
  // budget.
  virtual uint64_t MaxPrefetchPages() const { return 0; }

  // True when Pin* may be called from several threads at once (and the
  // pinned spans honor the PinnedRun lifetime contract). Parallel scans
  // (index/leaf_scanner.h) require this; providers that answer false
  // are scanned serially even when SearchParams::num_threads > 1. Both
  // providers here now answer true: InMemoryProvider trivially, and
  // BufferManager through page pinning (pinned frames are shared-owned
  // and exempt from eviction, so a span outlives any other thread's
  // fetch/evict activity for as long as its handle is held).
  virtual bool SupportsConcurrentReads() const { return false; }

 protected:
  // OutOfRange for an id at or past num_series(): the checked fetches'
  // first step.
  Status CheckSeriesId(uint64_t i) const {
    if (i < num_series()) return Status::OK();
    return Status::OutOfRange("series id " + std::to_string(i) +
                              " past the collection of " +
                              std::to_string(num_series()));
  }
};

class InMemoryProvider : public SeriesProvider {
 public:
  explicit InMemoryProvider(const Dataset* dataset) : dataset_(dataset) {}

  uint64_t num_series() const override { return dataset_->size(); }
  uint64_t series_length() const override { return dataset_->length(); }
  std::span<const float> GetSeries(uint64_t i,
                                   QueryCounters* counters) override {
    if (counters != nullptr) ++counters->series_accessed;
    return dataset_->series(i);
  }
  std::span<const float> GetSeriesRun(uint64_t first, uint64_t max_count,
                                      QueryCounters* counters) override {
    // The whole dataset is one row-major block.
    uint64_t count = std::min<uint64_t>(max_count, dataset_->size() - first);
    if (counters != nullptr) counters->series_accessed += count;
    return {dataset_->data() + first * dataset_->length(),
            static_cast<size_t>(count * dataset_->length())};
  }
  // Reads are plain dataset views with no shared scratch; spans stay
  // valid for the dataset's lifetime (the default Pin* wrappers are
  // therefore exact).
  bool SupportsConcurrentReads() const override { return true; }

 private:
  const Dataset* dataset_;
};

// Thread-safe page-pinning buffer pool over a series file.
//
// Concurrency design (docs/ARCHITECTURE.md has the full walkthrough):
//
//  * The page table is sharded; each shard's map sits under its own
//    std::shared_mutex, so concurrent hits on different shards never
//    contend and hits on the same shard share the lock.
//  * Fetches return PinnedRun handles holding an atomic pin count on the
//    frame. Pinned frames are never evicted. An evicted frame's page
//    buffer goes to the page admitted in its place, so a miss in a full
//    pool allocates no page buffer, and a span's bytes hold still only
//    while its pin does.
//  * Eviction is pin-aware CLOCK (second chance): a sweep under the pool
//    lock skips pinned frames, clears reference bits once, and rechecks
//    the victim's pin count under its shard's exclusive lock before
//    removing it from the table. Replacement is in place and O(1): the
//    admitted frame takes the victim's ring slot (and its page buffer)
//    and the hand moves past it; only a failed load (AbortLoad) and
//    DropCache remove ring entries. If every frame is pinned, the fetch
//    that needed the slot briefly yields (scan-layer pins last one
//    candidate evaluation, so contention from concurrent scans clears
//    quickly) and then fails cleanly (empty PinnedRun) instead of
//    over-committing memory.
//  * Page loads are single-flight: concurrent misses on one page find
//    the loading frame in the table and wait; exactly one read is issued
//    and exactly one miss is counted (waiters count as hits). Prefetch
//    loads ride the same mechanism: a demand fetch racing a prefetch of
//    the same page joins the in-flight load instead of re-reading, and a
//    demand fetch joined to a load that was aborted (a prefetch that lost
//    its ring slot) retries the fetch itself rather than reporting a
//    spurious failure.
//
//  * Prefetch (readahead): Prefetch(first, count) queues the covering
//    pages for a small pool of background workers, which fault them in
//    through the single-flight path with the CLOCK reference bit CLEARED
//    and no pin, so untouched readahead is the first thing evicted.
//    Readahead is bounded by a budget carved out of capacity_pages_
//    (MaxPrefetchPages() = capacity / 2): at most that many prefetched
//    pages may be queued/resident-unconsumed at once, and a prefetch
//    admission may only evict frames that are ALREADY unpinned and
//    unreferenced — it never clears reference bits, so it can never push
//    out a pinned or imminently-needed page; when no such victim exists
//    the prefetch is simply dropped. prefetch_issued_/prefetch_useful_
//    count queued pages and consumed-by-a-demand-fetch pages; the same
//    events are charged to the requesting/consuming query's QueryCounters
//    (prefetch_issued at Prefetch(), prefetch_useful — plus the page's
//    deferred bytes_read/random_ios — at the consuming fetch), so
//    per-query sums match the pool atomics.
//
// Lock order: prefetch queue mutex before pool (clock) mutex before
// shard mutex; frame state mutexes are leaves. No path holds a shard
// lock while acquiring the pool lock.
//
// DropCache is pin-aware: it drops every unpinned page and *retains*
// pinned ones (returning how many were retained), so outstanding spans
// are never invalidated; a retained page is dropped by a later DropCache
// once its pins are gone. DropCache also cancels every queued prefetch
// and waits out the in-flight ones first, so a test (or a cold-sweep
// harness) that resets the pool can never race a late prefetch
// completion repopulating it. cache_hits/cache_misses are atomics and feed
// the %-data-accessed measure exactly as in serial use: every successful
// fetch counts exactly one hit or one miss, never both. Failed fetches
// follow the seed's accounting: an attempted load that fails (I/O error,
// all-pinned pool) still counts its miss, and a waiter joined to a load
// that fails counts nothing. The same hit-or-miss event is also charged
// to the fetching query's own QueryCounters (cache_hits/cache_misses),
// so overlapping queries on one pool each know their share — the serving
// harness reports hit rates from these per-query fields, the atomics
// stay the pool-wide totals.
//
// Sizing rule for concurrent use: a scan-layer worker holds one pin at a
// time and a single query's fan-out is clamped to capacity_pages, but
// the clamp is per scan — queries running concurrently on one pool
// should size capacity_pages >= their combined thread counts (plus any
// long-lived caller pins), or transient fetch failures surface as
// skipped candidates under the scan layers' tree-leaf semantics
// (ROADMAP tracks propagating them as errors instead).
class BufferManager : public SeriesProvider {
 public:
  // page_series: series per page; capacity_pages: max pooled pages.
  static Result<std::unique_ptr<BufferManager>> Open(const std::string& path,
                                                     uint64_t page_series,
                                                     uint64_t capacity_pages);

  // Stops the prefetch workers (pending readahead is discarded, in-flight
  // loads are completed) before any member is torn down.
  ~BufferManager() override;

  uint64_t num_series() const override { return reader_->num_series(); }
  uint64_t series_length() const override {
    return reader_->series_length();
  }

  // Serial convenience accessors (the seed API): the returned span points
  // into the pool and shows the page until it is evicted, after which the
  // buffer holds another page — in serial use, not before this
  // provider's next Get*/DropCache call. Not safe under concurrent
  // calls; concurrent readers use Pin*.
  std::span<const float> GetSeries(uint64_t i,
                                   QueryCounters* counters) override;
  // Runs extend to the end of the pooled page holding `first` (pages
  // store consecutive series contiguously), so sequential scans batch
  // page by page.
  std::span<const float> GetSeriesRun(uint64_t first, uint64_t max_count,
                                      QueryCounters* counters) override;

  // Pin-handle fetches; safe from any number of threads. An empty handle
  // means the read failed or every page of a full pool was pinned.
  PinnedRun PinSeries(uint64_t i, QueryCounters* counters) override;
  PinnedRun PinRun(uint64_t first, uint64_t max_count,
                   QueryCounters* counters) override;
  // Typed-error fetches: the real load status behind an empty handle.
  // Transient read failures have already been retried with backoff by the
  // time these report; the status is the terminal verdict (IoError for an
  // exhausted retry budget or a permanent error, DataCorruption for a
  // checksum mismatch that survived a re-read, Unavailable for a pool
  // whose every page is pinned). An id past the collection is OutOfRange
  // and touches no page.
  Result<PinnedRun> PinSeriesChecked(uint64_t i,
                                     QueryCounters* counters) override;
  Result<PinnedRun> PinRunChecked(uint64_t first, uint64_t max_count,
                                  QueryCounters* counters) override;

  bool SupportsConcurrentReads() const override { return true; }
  uint64_t MaxConcurrentPins() const override { return capacity_pages_; }

  // Queues the pages covering [first, first + count) for background
  // readahead (see the class comment); returns immediately. Bounded by
  // MaxPrefetchPages(); pages already resident, already queued, or past
  // the budget are skipped. Thread-safe. Pages still queued when `cancel`
  // fires are skipped by the workers (counted by prefetch_cancelled()).
  void Prefetch(uint64_t first, uint64_t count, QueryCounters* counters,
                std::shared_ptr<CancellationToken> cancel = nullptr) override;
  uint64_t SeriesPerPage() const override { return page_series_; }
  // Half the capacity: demand fetches always keep at least half the pool,
  // so readahead can help but never dominate. 0 on a capacity-1 pool.
  uint64_t MaxPrefetchPages() const override {
    return capacity_pages_ >= 2 ? capacity_pages_ / 2 : 0;
  }

  // Blocks until the prefetch queue is empty and no prefetch load is in
  // flight (pages stay resident). For tests and cold/warm sweeps that
  // need deterministic "readahead has landed" points.
  void DrainPrefetches();

  // Cache statistics, for tests and for the %-data-accessed measure.
  uint64_t cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  uint64_t cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  // Prefetch statistics: pages queued for readahead, and prefetched pages
  // that a demand fetch then consumed. useful/issued is the readahead hit
  // rate the benches report.
  uint64_t prefetch_issued() const {
    return prefetch_issued_.load(std::memory_order_relaxed);
  }
  uint64_t prefetch_useful() const {
    return prefetch_useful_.load(std::memory_order_relaxed);
  }
  // Queued readahead skipped because its query's token fired first.
  uint64_t prefetch_cancelled() const {
    return prefetch_cancelled_.load(std::memory_order_relaxed);
  }
  // Fault-tolerance statistics: page reads re-issued after a retryable
  // failure (transient error or checksum mismatch), and loads abandoned
  // with the retry budget exhausted. Pool-wide totals; the per-query
  // split lands on QueryCounters::io_retries/io_giveups.
  uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  uint64_t io_giveups() const {
    return io_giveups_.load(std::memory_order_relaxed);
  }

  // Pages currently held by at least one pin. Test/debug instrumentation:
  // the leak regressions assert a pool returns to zero pinned frames
  // after a query fails mid-scan.
  size_t PinnedPages();
  // Page ids in CLOCK ring order, slot 0 first. Test/debug
  // instrumentation: the replacement-policy test reads each victim's
  // slot, and the ring's size, from it.
  std::vector<uint64_t> RingPages();

  // Replaces the underlying reader's fault-injection config (tests).
  // Call while no fetch is in flight.
  void set_fault_config(const FaultConfig& config) {
    reader_->set_fault_config(config);
  }
  // Injection telemetry of the underlying reader.
  const SeriesFileReader& reader() const { return *reader_; }

  // Drops every unpinned page. Pages pinned at call time are retained —
  // their spans stay valid — and the count of retained pages is returned
  // (0 = the pool is now empty). Call again after the pins are released
  // to drop the stragglers. Queued prefetches are cancelled and in-flight
  // ones drained first, so no late prefetch completion can repopulate
  // (or race) the freshly emptied pool.
  size_t DropCache();

 private:
  static constexpr size_t kNumShards = 8;

  struct Shard {
    std::shared_mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<internal::PageFrame>> pages;
  };

  BufferManager(std::unique_ptr<SeriesFileReader> reader,
                uint64_t page_series, uint64_t capacity_pages,
                uint64_t io_retry_limit, uint64_t io_backoff_us)
      : reader_(std::move(reader)),
        page_series_(page_series),
        capacity_pages_(capacity_pages),
        io_retry_limit_(io_retry_limit),
        io_backoff_us_(io_backoff_us) {}

  Shard& ShardFor(uint64_t page_id) {
    return shards_[page_id % kNumShards];
  }

  // Reads `frame`'s page into its buffer (sized here) through the retry
  // policy: retryable failures (Unavailable, DataCorruption) are
  // re-issued up to io_retry_limit_ times with exponential backoff +
  // deterministic jitter; retries and give-ups land on the pool atomics
  // and on `counters`. The returned status is the terminal verdict (an
  // exhausted transient budget is rewritten to IoError; DataCorruption
  // stays typed).
  Status ReadPageWithRetry(internal::PageFrame* frame, QueryCounters* io,
                           QueryCounters* counters);
  void BackoffSleep(uint64_t attempt, uint64_t key);

  // Returns the pooled (or freshly read) page with one pin taken on
  // behalf of the caller; nullptr on read failure or an all-pinned pool
  // (`*error` then holds the typed cause). A caller joined to an
  // in-flight load that fails retries (bounded): the load may have been
  // an aborted prefetch, not a real I/O error.
  std::shared_ptr<internal::PageFrame> FetchPinned(uint64_t page_id,
                                                   QueryCounters* counters,
                                                   Status* error);
  // One attempt of FetchPinned. Sets *joined_failed when the caller
  // joined another thread's load and that load failed (retryable).
  std::shared_ptr<internal::PageFrame> FetchPinnedOnce(uint64_t page_id,
                                                       QueryCounters* counters,
                                                       bool* joined_failed,
                                                       Status* error);
  // Blocks until `frame` finished loading. Returns the frame on success;
  // on a failed load, copies the frame's typed error into `*error`,
  // drops the caller's pin and returns nullptr.
  std::shared_ptr<internal::PageFrame> AwaitReady(
      std::shared_ptr<internal::PageFrame> frame, Status* error);
  // Claims a prefetched frame for the demand fetch that consumed it:
  // counts prefetch_useful and charges the deferred load cost.
  void ConsumePrefetched(const std::shared_ptr<internal::PageFrame>& frame,
                         QueryCounters* counters);
  // Adds `frame` to the CLOCK ring: appended while the ring is below
  // capacity, otherwise in the slot of an evicted victim, whose page
  // buffer it takes over. False when capacity is exhausted by pinned
  // frames. Prefetch admissions never clear reference bits (see class
  // comment).
  bool AdmitToRing(const std::shared_ptr<internal::PageFrame>& frame,
                   bool for_prefetch);
  // CLOCK sweep under clock_mu_; removes one unpinned frame from the
  // table and returns its ring slot (the frame stays in the ring for the
  // caller to replace), or ring_.size() when no frame could be evicted.
  // With `clear_reference` false the sweep only takes frames whose
  // reference bit is already clear (single pass, no second chances
  // granted).
  size_t EvictOneLocked(bool clear_reference);
  // Unwinds a failed load: records `error` on the frame, removes it from
  // table (and ring when `in_ring`), marks it failed, wakes waiters,
  // drops the loader's pin.
  void AbortLoad(const std::shared_ptr<internal::PageFrame>& frame,
                 bool in_ring, Status error);
  // Bookkeeping for a prefetched frame leaving the pool unconsumed.
  void ReleasePrefetchCredit(const std::shared_ptr<internal::PageFrame>& f);

  // --- prefetch worker machinery (all under prefetch_mu_) ---

  // A queued readahead hint: the page plus the announcing query's token
  // (null = not cancellable). The token travels with the entry so a
  // worker popping it long after Search() returned still knows whether
  // the query is alive.
  struct PrefetchRequest {
    uint64_t page_id = 0;
    std::shared_ptr<CancellationToken> cancel;
  };

  void EnsurePrefetchWorkersLocked();
  void PrefetchWorkerLoop();
  // Loads one page for the prefetcher (no pin kept, reference bit clear).
  void PrefetchOne(uint64_t page_id);
  // Clears the queue and waits until no prefetch load is in flight.
  void CancelPrefetches();

  std::unique_ptr<SeriesFileReader> reader_;
  uint64_t page_series_;
  uint64_t capacity_pages_;
  // Retry policy, fixed at Open from HYDRA_IO_RETRIES (extra attempts
  // after the first, default 3) and HYDRA_IO_BACKOFF_US (base backoff,
  // default 100; 0 disables the sleeps but not the retries).
  uint64_t io_retry_limit_;
  uint64_t io_backoff_us_;

  std::array<Shard, kNumShards> shards_;

  std::mutex clock_mu_;  // guards ring_ and hand_
  std::vector<std::shared_ptr<internal::PageFrame>> ring_;
  size_t hand_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> prefetch_issued_{0};
  std::atomic<uint64_t> prefetch_useful_{0};
  std::atomic<uint64_t> prefetch_cancelled_{0};
  std::atomic<uint64_t> io_retries_{0};
  std::atomic<uint64_t> io_giveups_{0};
  // Prefetched pages currently resident and not yet consumed by a demand
  // fetch; together with the queued/in-flight set this is what the
  // MaxPrefetchPages() budget bounds.
  std::atomic<uint64_t> prefetch_resident_{0};

  std::mutex prefetch_mu_;
  std::condition_variable prefetch_cv_;       // workers: work available
  std::condition_variable prefetch_idle_cv_;  // drain/cancel waiters
  std::deque<PrefetchRequest> prefetch_queue_;
  // Pages queued or currently loading (dedup + budget accounting).
  std::unordered_set<uint64_t> prefetch_pending_;
  size_t prefetch_inflight_ = 0;
  bool prefetch_stop_ = false;
  std::vector<std::thread> prefetch_workers_;
};

}  // namespace hydra

#endif  // HYDRA_STORAGE_BUFFER_MANAGER_H_
