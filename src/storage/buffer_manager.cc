#include "storage/buffer_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/backoff.h"
#include "common/options.h"

namespace hydra {

using internal::PageFrame;

namespace {
// Admission retries before an all-pinned pool fails a fetch. Scan-layer
// pins last one candidate evaluation, so contention from other scans on
// the same pool clears within a few yields; only long-lived caller pins
// exhaust the bound.
constexpr int kAdmitRetries = 64;
// Retries after joining another thread's load that then failed. The
// joined load may have been a prefetch that lost its ring slot (not an
// I/O error), so the demand fetch tries again as its own loader; a real
// read error still surfaces after one extra attempt.
constexpr int kJoinRetries = 8;
// Background readahead workers per pool. Two keep one read in flight
// while the next one queues without oversubscribing small machines.
constexpr size_t kPrefetchWorkers = 2;

}  // namespace

Result<std::unique_ptr<BufferManager>> BufferManager::Open(
    const std::string& path, uint64_t page_series, uint64_t capacity_pages) {
  if (page_series == 0 || capacity_pages == 0) {
    return Status::InvalidArgument("page_series and capacity must be > 0");
  }
  HYDRA_ASSIGN_OR_RETURN(auto reader, SeriesFileReader::Open(path));
  // Retry policy knobs, fixed per pool at open (see buffer_manager.h).
  const uint64_t retries = EnvOrU64("HYDRA_IO_RETRIES", 3);
  const uint64_t backoff_us = EnvOrU64("HYDRA_IO_BACKOFF_US", 100);
  return std::unique_ptr<BufferManager>(new BufferManager(
      std::move(reader), page_series, capacity_pages, retries, backoff_us));
}

BufferManager::~BufferManager() {
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    prefetch_stop_ = true;
    prefetch_queue_.clear();
    prefetch_pending_.clear();
  }
  prefetch_cv_.notify_all();
  for (std::thread& worker : prefetch_workers_) worker.join();
}

std::shared_ptr<PageFrame> BufferManager::AwaitReady(
    std::shared_ptr<PageFrame> frame, Status* error) {
  {
    std::unique_lock<std::mutex> lock(frame->mu);
    frame->cv.wait(lock,
                   [&] { return frame->state != PageFrame::State::kLoading; });
    if (frame->state == PageFrame::State::kReady) return frame;
    if (error != nullptr) *error = frame->error;
  }
  // Failed load: the loader already removed the frame from the table, so
  // the next fetch retries the read. Give back the pin we took.
  frame->pins.fetch_sub(1, std::memory_order_release);
  return nullptr;
}

Status BufferManager::ReadPageWithRetry(uint64_t first, uint64_t count,
                                        float* out, QueryCounters* io,
                                        QueryCounters* counters) {
  Status st;
  for (uint64_t attempt = 0;; ++attempt) {
    st = reader_->ReadSeries(first, count, out, io);
    if (st.ok() || !st.IsRetryable()) return st;
    if (attempt >= io_retry_limit_) break;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    if (counters != nullptr) ++counters->io_retries;
    BackoffSleep(attempt, first);
  }
  io_giveups_.fetch_add(1, std::memory_order_relaxed);
  if (counters != nullptr) ++counters->io_giveups;
  // Terminal verdict: an exhausted transient budget is no longer
  // retryable, so it is rewritten to IoError with the last attempt's
  // detail. A checksum mismatch that survived its re-reads stays typed —
  // callers must be able to tell "device kept lying" apart from "device
  // kept failing".
  if (st.code() == StatusCode::kUnavailable) {
    return Status::IoError("I/O retry budget exhausted after " +
                           std::to_string(io_retry_limit_ + 1) +
                           " attempts: " + st.message());
  }
  return st;
}

void BufferManager::BackoffSleep(uint64_t attempt, uint64_t key) {
  if (io_backoff_us_ == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(
      BackoffDelayUs(io_backoff_us_, /*cap_us=*/20000, key, attempt)));
}

void BufferManager::ReleasePrefetchCredit(
    const std::shared_ptr<PageFrame>& f) {
  if (f->prefetched.exchange(false, std::memory_order_acq_rel)) {
    prefetch_resident_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void BufferManager::ConsumePrefetched(const std::shared_ptr<PageFrame>& frame,
                                      QueryCounters* counters) {
  if (!frame->prefetched.exchange(false, std::memory_order_acq_rel)) return;
  prefetch_resident_.fetch_sub(1, std::memory_order_relaxed);
  prefetch_useful_.fetch_add(1, std::memory_order_relaxed);
  if (counters != nullptr) {
    ++counters->prefetch_useful;
    // The readahead's physical I/O lands on the query that profited from
    // it: bytes_read/random_ios stay comparable with prefetch off.
    counters->bytes_read += frame->load_bytes;
    counters->random_ios += frame->load_ios;
  }
}

bool BufferManager::EvictOneLocked(bool clear_reference) {
  if (ring_.empty()) return false;
  // Two full sweeps give every referenced frame its second chance; the
  // extra rounds absorb frames whose pin appeared between the unlocked
  // observation and the shard-locked recheck. A non-clearing (prefetch)
  // sweep takes one pass at most: it may only claim frames that are
  // already unreferenced.
  const size_t limit = clear_reference ? 4 * ring_.size() : ring_.size();
  for (size_t step = 0; step < limit; ++step) {
    if (hand_ >= ring_.size()) hand_ = 0;
    const std::shared_ptr<PageFrame>& frame = ring_[hand_];
    if (frame->pins.load(std::memory_order_acquire) != 0) {
      ++hand_;
      continue;
    }
    if (clear_reference
            ? frame->referenced.exchange(false, std::memory_order_relaxed)
            : frame->referenced.load(std::memory_order_relaxed)) {
      ++hand_;  // second chance (prefetch sweeps never grant one)
      continue;
    }
    // Candidate. Re-check the pin under the shard's exclusive lock: the
    // first pin of any fetch is taken while holding this shard lock (at
    // least shared), so a frame observed unpinned here cannot gain a pin
    // until it is out of the table.
    std::shared_ptr<PageFrame> victim = frame;
    Shard& shard = ShardFor(victim->id);
    {
      std::unique_lock<std::shared_mutex> shard_lock(shard.mu);
      if (victim->pins.load(std::memory_order_acquire) != 0) {
        ++hand_;
        continue;
      }
      shard.pages.erase(victim->id);
    }
    ring_.erase(ring_.begin() + static_cast<ptrdiff_t>(hand_));
    if (!ring_.empty()) hand_ %= ring_.size();
    ReleasePrefetchCredit(victim);
    return true;
  }
  return false;
}

bool BufferManager::AdmitToRing(const std::shared_ptr<PageFrame>& frame,
                                bool for_prefetch) {
  std::lock_guard<std::mutex> lock(clock_mu_);
  while (ring_.size() >= capacity_pages_) {
    if (!EvictOneLocked(/*clear_reference=*/!for_prefetch)) return false;
  }
  ring_.push_back(frame);
  return true;
}

void BufferManager::AbortLoad(const std::shared_ptr<PageFrame>& frame,
                              bool in_ring, Status error) {
  {
    Shard& shard = ShardFor(frame->id);
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.pages.find(frame->id);
    if (it != shard.pages.end() && it->second == frame) shard.pages.erase(it);
  }
  if (in_ring) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    for (size_t i = 0; i < ring_.size(); ++i) {
      if (ring_[i] == frame) {
        ring_.erase(ring_.begin() + static_cast<ptrdiff_t>(i));
        if (hand_ > i) --hand_;
        if (!ring_.empty()) hand_ %= ring_.size();
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(frame->mu);
    frame->error = std::move(error);
    frame->state = PageFrame::State::kFailed;
  }
  frame->cv.notify_all();
  frame->pins.fetch_sub(1, std::memory_order_release);  // the loader's pin
}

std::shared_ptr<PageFrame> BufferManager::FetchPinnedOnce(
    uint64_t page_id, QueryCounters* counters, bool* joined_failed,
    Status* error) {
  *joined_failed = false;
  Shard& shard = ShardFor(page_id);
  std::shared_ptr<PageFrame> frame;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.pages.find(page_id);
    if (it != shard.pages.end()) {
      frame = it->second;
      // Pinning under the shard lock is what makes the pin visible to the
      // eviction recheck (which runs under the exclusive lock).
      frame->pins.fetch_add(1, std::memory_order_acq_rel);
      frame->referenced.store(true, std::memory_order_relaxed);
    }
  }
  if (frame != nullptr) {
    frame = AwaitReady(std::move(frame), error);
    if (frame != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (counters != nullptr) ++counters->cache_hits;
      ConsumePrefetched(frame, counters);
    } else {
      *joined_failed = true;
    }
    return frame;
  }

  // Miss path: insert a loading frame (or join a racing inserter).
  bool loader = false;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.pages.find(page_id);
    if (it != shard.pages.end()) {
      frame = it->second;
      frame->pins.fetch_add(1, std::memory_order_acq_rel);
      frame->referenced.store(true, std::memory_order_relaxed);
    } else {
      frame = std::make_shared<PageFrame>(page_id);
      frame->pins.store(1, std::memory_order_relaxed);
      shard.pages.emplace(page_id, frame);
      loader = true;
    }
  }
  if (!loader) {
    frame = AwaitReady(std::move(frame), error);
    if (frame != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (counters != nullptr) ++counters->cache_hits;
      ConsumePrefetched(frame, counters);
    } else {
      *joined_failed = true;
    }
    return frame;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  if (counters != nullptr) ++counters->cache_misses;
  // From here the loading frame is published in the table: every exit
  // path — including exceptions (e.g. bad_alloc from the page buffer
  // under the very memory pressure the pool exists to bound) — must
  // resolve its state, or waiters would block on kLoading forever.
  bool in_ring = false;
  try {
    in_ring = AdmitToRing(frame, /*for_prefetch=*/false);
    // All pinned: another scan's worker holds the last slot for one
    // candidate evaluation; yield briefly before failing for real.
    for (int retry = 0; !in_ring && retry < kAdmitRetries; ++retry) {
      std::this_thread::yield();
      in_ring = AdmitToRing(frame, /*for_prefetch=*/false);
    }
    if (!in_ring) {
      // Every pooled page is pinned beyond transient scan contention:
      // admitting would over-commit the memory budget, so the fetch
      // fails cleanly. Callers see an empty PinnedRun.
      Status st = Status::Unavailable(
          "buffer pool exhausted: all " + std::to_string(capacity_pages_) +
          " pages pinned");
      if (error != nullptr) *error = st;
      AbortLoad(frame, /*in_ring=*/false, std::move(st));
      return nullptr;
    }

    const uint64_t len = reader_->series_length();
    const uint64_t first = page_id * page_series_;
    const uint64_t count =
        std::min(page_series_, reader_->num_series() - first);
    frame->data.resize(count * len);
    // The reader is charged through a scratch counter: a page fill costs
    // bytes and (possibly) a seek, but only the series the caller asked
    // for count as logical accesses — prefetched page neighbors do not.
    QueryCounters io;
    Status st = ReadPageWithRetry(first, count, frame->data.data(),
                                  counters != nullptr ? &io : nullptr,
                                  counters);
    if (!st.ok()) {
      if (error != nullptr) *error = st;
      AbortLoad(frame, /*in_ring=*/true, std::move(st));
      return nullptr;
    }
    if (counters != nullptr) {
      counters->bytes_read += io.bytes_read;
      counters->random_ios += io.random_ios;
    }
  } catch (...) {
    AbortLoad(frame, in_ring, Status::Internal("page load threw"));
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(frame->mu);
    frame->state = PageFrame::State::kReady;
  }
  frame->cv.notify_all();
  return frame;
}

std::shared_ptr<PageFrame> BufferManager::FetchPinned(
    uint64_t page_id, QueryCounters* counters, Status* error) {
  bool joined_failed = false;
  Status err;
  for (int attempt = 0; attempt < kJoinRetries; ++attempt) {
    std::shared_ptr<PageFrame> frame =
        FetchPinnedOnce(page_id, counters, &joined_failed, &err);
    if (frame != nullptr || !joined_failed) {
      if (frame == nullptr && error != nullptr) *error = std::move(err);
      return frame;
    }
    // The load we joined was aborted (possibly a prefetch that lost its
    // ring slot): retry as our own loader instead of failing the scan.
  }
  if (error != nullptr) {
    *error = err.ok() ? Status::IoError("page fetch failed: page " +
                                        std::to_string(page_id))
                      : std::move(err);
  }
  return nullptr;
}

// --- prefetch pipeline ---

void BufferManager::EnsurePrefetchWorkersLocked() {
  if (!prefetch_workers_.empty()) return;
  prefetch_workers_.reserve(kPrefetchWorkers);
  for (size_t i = 0; i < kPrefetchWorkers; ++i) {
    prefetch_workers_.emplace_back([this] { PrefetchWorkerLoop(); });
  }
}

void BufferManager::PrefetchWorkerLoop() {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  while (true) {
    prefetch_cv_.wait(lock, [this] {
      return prefetch_stop_ || !prefetch_queue_.empty();
    });
    if (prefetch_stop_) return;
    const PrefetchRequest req = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    ++prefetch_inflight_;
    lock.unlock();
    // A hint whose query already failed, timed out, or was cancelled is
    // dead weight: skip the load entirely so a dying query stops
    // consuming the device the instant its token fires.
    if (req.cancel != nullptr && req.cancel->Fired()) {
      prefetch_cancelled_.fetch_add(1, std::memory_order_relaxed);
    } else {
      try {
        PrefetchOne(req.page_id);
      } catch (...) {
        // Readahead is a hint; a failed speculative load (OOM included)
        // must never take the process down. The demand fetch will retry
        // and surface a real error through the normal path.
      }
    }
    lock.lock();
    --prefetch_inflight_;
    prefetch_pending_.erase(req.page_id);
    if (prefetch_queue_.empty() && prefetch_inflight_ == 0) {
      prefetch_idle_cv_.notify_all();
    }
  }
}

void BufferManager::PrefetchOne(uint64_t page_id) {
  // Over-budget loads are dropped, not deferred: by the time the budget
  // frees up the scan has usually moved past this page anyway.
  if (prefetch_resident_.load(std::memory_order_relaxed) >=
      MaxPrefetchPages()) {
    return;
  }
  Shard& shard = ShardFor(page_id);
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    if (shard.pages.count(page_id) != 0) return;  // resident or in flight
  }
  std::shared_ptr<PageFrame> frame;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    if (shard.pages.count(page_id) != 0) return;
    frame = std::make_shared<PageFrame>(page_id);
    frame->pins.store(1, std::memory_order_relaxed);  // loader pin
    frame->prefetched.store(true, std::memory_order_relaxed);
    // Cleared reference bit: untouched readahead is evicted first.
    frame->referenced.store(false, std::memory_order_relaxed);
    shard.pages.emplace(page_id, frame);
  }
  // The frame is now published: a racing demand fetch joins this load
  // (single flight). Every exit below must resolve the frame's state.
  bool in_ring = false;
  try {
    // One polite admission attempt: prefetch never clears reference bits
    // and never retries, so it can only displace frames that are already
    // unpinned AND unreferenced — losing the slot just drops the hint.
    in_ring = AdmitToRing(frame, /*for_prefetch=*/true);
    if (!in_ring) {
      // Not an I/O error: a joined demand fetch retries as its own
      // loader, so this status is only ever seen transiently.
      AbortLoad(frame, /*in_ring=*/false,
                Status::Unavailable("prefetch admission lost its ring slot"));
      return;
    }
    const uint64_t len = reader_->series_length();
    const uint64_t first = page_id * page_series_;
    const uint64_t count =
        std::min(page_series_, reader_->num_series() - first);
    frame->data.resize(count * len);
    QueryCounters io;
    // Same retry policy as demand fetches (retries land on the pool
    // atomics only — no query owns a speculative load).
    Status st = ReadPageWithRetry(first, count, frame->data.data(), &io,
                                  /*counters=*/nullptr);
    if (!st.ok()) {
      AbortLoad(frame, /*in_ring=*/true, std::move(st));
      return;
    }
    // Deferred charge, claimed by the demand fetch that consumes the
    // frame (ConsumePrefetched).
    frame->load_bytes = io.bytes_read;
    frame->load_ios = io.random_ios;
  } catch (...) {
    AbortLoad(frame, in_ring, Status::Internal("prefetch load threw"));
    throw;
  }
  prefetch_resident_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(frame->mu);
    frame->state = PageFrame::State::kReady;
  }
  frame->cv.notify_all();
  frame->pins.fetch_sub(1, std::memory_order_release);  // loader pin
}

void BufferManager::Prefetch(uint64_t first, uint64_t count,
                             QueryCounters* counters,
                             std::shared_ptr<CancellationToken> cancel) {
  const uint64_t budget = MaxPrefetchPages();
  if (budget == 0 || count == 0 || first >= reader_->num_series()) return;
  // A dead query announces nothing.
  if (cancel != nullptr && cancel->Fired()) return;
  const uint64_t last =
      std::min(first + count, reader_->num_series()) - 1;
  const uint64_t first_page = first / page_series_;
  const uint64_t last_page = last / page_series_;

  bool queued_any = false;
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    if (prefetch_stop_) return;
    EnsurePrefetchWorkersLocked();
    for (uint64_t page = first_page; page <= last_page; ++page) {
      // Budget gate: queued/in-flight plus resident-unconsumed readahead
      // never exceeds the carve-out, so prefetch cannot crowd out demand.
      if (prefetch_pending_.size() +
              prefetch_resident_.load(std::memory_order_relaxed) >=
          budget) {
        break;
      }
      if (prefetch_pending_.count(page) != 0) continue;
      {
        Shard& shard = ShardFor(page);
        std::shared_lock<std::shared_mutex> shard_lock(shard.mu);
        if (shard.pages.count(page) != 0) continue;  // already resident
      }
      prefetch_pending_.insert(page);
      prefetch_queue_.push_back(PrefetchRequest{page, cancel});
      queued_any = true;
      prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
      if (counters != nullptr) ++counters->prefetch_issued;
    }
  }
  if (queued_any) {
    // One waiter per queued page is plenty; notify_all would stampede
    // both workers for a single-page hint.
    if (last_page - first_page == 0) {
      prefetch_cv_.notify_one();
    } else {
      prefetch_cv_.notify_all();
    }
  }
}

void BufferManager::CancelPrefetches() {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  for (const PrefetchRequest& req : prefetch_queue_) {
    prefetch_pending_.erase(req.page_id);
  }
  prefetch_queue_.clear();
  prefetch_idle_cv_.wait(lock, [this] { return prefetch_inflight_ == 0; });
}

void BufferManager::DrainPrefetches() {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  prefetch_idle_cv_.wait(lock, [this] {
    return prefetch_queue_.empty() && prefetch_inflight_ == 0;
  });
}

Result<PinnedRun> BufferManager::PinSeriesChecked(uint64_t i,
                                                  QueryCounters* counters) {
  const uint64_t len = reader_->series_length();
  const uint64_t page_id = i / page_series_;
  if (counters != nullptr) ++counters->series_accessed;
  Status error;
  std::shared_ptr<PageFrame> frame = FetchPinned(page_id, counters, &error);
  if (frame == nullptr) return error;
  std::span<const float> span{
      frame->data.data() + (i - page_id * page_series_) * len, len};
  return PinnedRun(span, std::move(frame));
}

Result<PinnedRun> BufferManager::PinRunChecked(uint64_t first,
                                               uint64_t max_count,
                                               QueryCounters* counters) {
  const uint64_t len = reader_->series_length();
  const uint64_t page_id = first / page_series_;
  const uint64_t page_first = page_id * page_series_;
  const uint64_t page_count =
      std::min(page_series_, reader_->num_series() - page_first);
  const uint64_t count =
      std::min(max_count, page_first + page_count - first);
  if (counters != nullptr) counters->series_accessed += count;
  Status error;
  std::shared_ptr<PageFrame> frame = FetchPinned(page_id, counters, &error);
  if (frame == nullptr) return error;
  std::span<const float> span{
      frame->data.data() + (first - page_first) * len,
      static_cast<size_t>(count * len)};
  return PinnedRun(span, std::move(frame));
}

PinnedRun BufferManager::PinSeries(uint64_t i, QueryCounters* counters) {
  Result<PinnedRun> run = PinSeriesChecked(i, counters);
  return run.ok() ? std::move(run).value() : PinnedRun{};
}

PinnedRun BufferManager::PinRun(uint64_t first, uint64_t max_count,
                                QueryCounters* counters) {
  Result<PinnedRun> run = PinRunChecked(first, max_count, counters);
  return run.ok() ? std::move(run).value() : PinnedRun{};
}

size_t BufferManager::PinnedPages() {
  size_t pinned = 0;
  for (Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [id, frame] : shard.pages) {
      if (frame->pins.load(std::memory_order_acquire) > 0) ++pinned;
    }
  }
  return pinned;
}

std::span<const float> BufferManager::GetSeries(uint64_t i,
                                                QueryCounters* counters) {
  // The pin is dropped on return; in serial use the page stays pooled (so
  // the span stays valid) at least until the next Get*/DropCache call.
  PinnedRun run = PinSeries(i, counters);
  return run.span();
}

std::span<const float> BufferManager::GetSeriesRun(uint64_t first,
                                                   uint64_t max_count,
                                                   QueryCounters* counters) {
  PinnedRun run = PinRun(first, max_count, counters);
  return run.span();
}

size_t BufferManager::DropCache() {
  // No late prefetch completion may repopulate (or race) the sweep below:
  // queued readahead is cancelled and in-flight loads are waited out.
  CancelPrefetches();
  std::lock_guard<std::mutex> lock(clock_mu_);
  std::vector<std::shared_ptr<PageFrame>> retained;
  for (const std::shared_ptr<PageFrame>& frame : ring_) {
    Shard& shard = ShardFor(frame->id);
    std::unique_lock<std::shared_mutex> shard_lock(shard.mu);
    if (frame->pins.load(std::memory_order_acquire) == 0) {
      shard.pages.erase(frame->id);
      ReleasePrefetchCredit(frame);
    } else {
      retained.push_back(frame);
    }
  }
  ring_ = std::move(retained);
  hand_ = 0;
  return ring_.size();
}

}  // namespace hydra
