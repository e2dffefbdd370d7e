#include "index/leaf_scanner.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace hydra {

namespace {

// Runs fn(worker, begin, end) over `shards` contiguous pieces of
// [0, count). Shard 0 runs on the calling thread, so a query only ever
// blocks on shards - 1 workers.
template <typename Fn>
void Shard(ThreadPool* pool, size_t count, size_t shards, const Fn& fn) {
  if (shards == 1) return fn(0, 0, count);
  TaskGroup group(pool);
  for (size_t w = 1; w < shards; ++w) {
    const size_t begin = count * w / shards;
    const size_t end = count * (w + 1) / shards;
    if (begin < end) group.Run([&fn, w, begin, end] { fn(w, begin, end); });
  }
  fn(0, 0, count / shards);
  group.Wait();  // rethrows the first worker exception
}

}  // namespace

// A candidate stream, positions [0, size): a provider's id list, or its
// id range from `first`; or, in memory, `block` with ids from `first`.
struct LeafScanner::Stream {
  SeriesProvider* provider = nullptr;  // null = in memory
  std::span<const int64_t> ids = {};   // empty = consecutive ids
  int64_t first = 0;
  const float* block = nullptr;
  size_t stride = 0;
  size_t size = 0;

  int64_t IdAt(size_t i) const {
    return ids.empty() ? first + static_cast<int64_t>(i) : ids[i];
  }
  // End (exclusive) of the run starting at `i`, the unit fetched and
  // announced as one contiguous stretch: the maximal consecutive ids of an
  // id list, the rest of a range or block.
  size_t RunEnd(size_t i) const {
    if (ids.empty()) return size;
    size_t stop = i + 1;
    while (stop < size && ids[stop] == ids[stop - 1] + 1) ++stop;
    return stop;
  }
  Stream Sub(size_t begin, size_t end) const {
    Stream s = *this;
    s.size = end - begin;
    if (!ids.empty()) {
      s.ids = ids.subspan(begin, end - begin);
    } else {
      s.first += static_cast<int64_t>(begin);
      if (block != nullptr) s.block += begin * stride;
    }
    return s;
  }
};

void LeafScanner::Slot::Settle(const double* dist, size_t count,
                               size_t completed, int64_t first_id, double t) {
  if (counters != nullptr) {
    counters->full_distances += completed;
    counters->abandoned_distances += count - completed;
  }
  bool improved = false;
  for (size_t c = 0; c < count; ++c) {
    if (dist[c] <= t) {
      improved |= answers->Offer(dist[c], first_id + static_cast<int64_t>(c));
    }
  }
  if (improved && bound != nullptr && answers->full()) {
    bound->RelaxTo(answers->KthDistanceSq());
  }
}

LeafScanner::LeafScanner(size_t prefetch_depth)
    : prefetch_depth_(prefetch_depth), kernels_(ActiveKernels()) {}

LeafScanner::LeafScanner(std::span<const float> query, AnswerSet* answers,
                         QueryCounters* counters, size_t num_threads,
                         uint64_t pin_budget, size_t prefetch_depth,
                         std::shared_ptr<CancellationToken> cancel,
                         ThreadPool* pool)
    : num_threads_(std::max<size_t>(num_threads, 1)),
      pin_budget_(pin_budget),
      prefetch_depth_(prefetch_depth),
      pool_(pool),
      kernels_(ActiveKernels()) {
  if (pool_ == nullptr && num_threads_ > 1) pool_ = &ThreadPool::Global();
  AddQuery(query, answers, counters, std::move(cancel));
}

size_t LeafScanner::AddQuery(std::span<const float> query, AnswerSet* answers,
                             QueryCounters* counters,
                             std::shared_ptr<CancellationToken> cancel) {
  slots_.push_back(Slot{query, answers, counters, std::move(cancel)});
  return slots_.size() - 1;
}

Result<size_t> LeafScanner::ScanIds(SeriesProvider* provider,
                                    std::span<const int64_t> ids,
                                    std::span<const size_t> slots) {
  return Run({.provider = provider, .ids = ids, .size = ids.size()}, slots);
}

Result<size_t> LeafScanner::ScanRange(SeriesProvider* provider,
                                      uint64_t first, uint64_t count,
                                      std::span<const size_t> slots) {
  return Run({.provider = provider,
              .first = static_cast<int64_t>(first),
              .size = static_cast<size_t>(count)},
             slots);
}

size_t LeafScanner::ScanContiguous(const float* block, size_t count,
                                   size_t stride, int64_t first_id,
                                   std::span<const size_t> slots) {
  Result<size_t> scanned = Run(
      {.first = first_id, .block = block, .stride = stride, .size = count},
      slots);
  return scanned.ok() ? scanned.value() : 0;
}

size_t LeafScanner::PrefetchIds(SeriesProvider* provider,
                                std::span<const int64_t> ids,
                                size_t max_pages) {
  if (provider == nullptr || max_pages == 0 || ids.empty() ||
      provider->MaxPrefetchPages() == 0) {
    return 0;
  }
  for (const Slot& slot : slots_) {
    if (slot.status.ok()) {
      return Announce({.provider = provider, .ids = ids, .size = ids.size()},
                      0, max_pages, slot);
    }
  }
  return 0;
}

Result<size_t> LeafScanner::Run(const Stream& s,
                                std::span<const size_t> slots) {
  const size_t n = slots.empty() ? slots_.size() : slots.size();
  auto served = [&](size_t i) { return slots.empty() ? i : slots[i]; };
  const size_t shards = Shards(s);
  if (shards > 1) {
    FanOut(s, shards);
  } else if (slots_.size() == 1) {
    solo_ = &slots_[0];  // a one-slot scan builds no lane
    Walk(s, {&solo_, 1}, scratch_, nullptr);
  } else {
    lane_.clear();
    for (size_t i = 0; i < n; ++i) lane_.push_back(&slots_[served(i)]);
    Walk(s, lane_, scratch_, nullptr);
  }
  for (size_t i = 0; i < n; ++i) {
    if (alive(served(i))) return s.size;
  }
  if (n == 0) return s.size;
  return slots_[served(0)].status;
}

size_t LeafScanner::Shards(const Stream& s) const {
  if (num_threads_ <= 1 || slots_.size() != 1 || !slots_[0].status.ok() ||
      s.size < kMinParallelCandidates) {
    return 1;
  }
  if (s.provider == nullptr) return num_threads_;
  if (!s.provider->SupportsConcurrentReads()) return 1;
  uint64_t budget = s.provider->MaxConcurrentPins();
  if (pin_budget_ != 0) budget = std::min(budget, pin_budget_);
  return static_cast<size_t>(
      std::min<uint64_t>(num_threads_, std::max<uint64_t>(1, budget)));
}

void LeafScanner::Walk(const Stream& s, std::span<Slot*> lane,
                       Scratch& scratch,
                       const std::atomic<bool>* stop) const {
  SeriesProvider* const provider = s.provider;
  const bool announce = provider != nullptr && prefetch_depth_ > 0 &&
                        provider->MaxPrefetchPages() > 0;
  const size_t announce_every = std::max<size_t>(1, prefetch_depth_ / 2);
  size_t since_announce = announce_every - 1;  // the first fetch announces
  // One fetch per step: a lone id, the part of a run of consecutive ids
  // that one page holds, or an in-memory block.
  for (size_t pos = 0, run_end = 0; pos < s.size;) {
    // Cancellation point, per run and per pinned page: drop the slots
    // that died or whose token fired; stop when none is left or a peer
    // worker failed.
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    size_t live = 0;
    for (Slot* slot : lane) {
      if (slot->Live()) lane[live++] = slot;
    }
    lane = lane.first(live);
    if (lane.empty()) return;
    const Slot& leader = *lane[0];  // charged with the shared I/O
    if (pos == run_end) run_end = s.RunEnd(pos);
    const int64_t id = s.IdAt(pos);
    size_t count = run_end - pos;
    size_t stride = s.stride;
    const float* block = s.block;
    PinnedRun pin;  // the walk's one pin, released after evaluation
    if (provider == nullptr) {
      block += pos * stride;
    } else {
      stride = leader.query.size();
      Result<PinnedRun> run =
          count == 1 && !s.ids.empty()
              ? provider->PinSeriesChecked(static_cast<uint64_t>(id),
                                           leader.counters)
              : provider->PinRunChecked(static_cast<uint64_t>(id), count,
                                        leader.counters);
      if (!run.ok()) {
        for (Slot* slot : lane) slot->status = run.status();
        return;
      }
      pin = std::move(run).value();
      block = pin.span().data();
      if (count > 1) count = pin.span().size() / stride;
    }
    // Announce the stream past this fetch before evaluating it, so the
    // prefetch workers read ahead while the kernels run.
    if (announce && pos + count < s.size &&
        ++since_announce >= announce_every) {
      Announce(s, pos + count, prefetch_depth_, leader);
      since_announce = 0;
    }
    Evaluate(lane, scratch, block, count, stride, id);
    pos += count;
  }
}

void LeafScanner::Evaluate(std::span<Slot* const> lane, Scratch& scratch,
                           const float* block, size_t count, size_t stride,
                           int64_t first_id) const {
  const size_t nq = lane.size();
  const size_t n = lane[0]->query.size();
  if (nq == 1 && count == 1) {
    // One query, one candidate: its early-abandon kernel, no scratch.
    Slot& slot = *lane[0];
    const double t = slot.Threshold();
    bool abandoned = false;
    const double d = kernels_.squared_euclidean_ea(slot.query.data(), block,
                                                   n, t, &abandoned);
    slot.Settle(&d, 1, abandoned ? 0 : 1, first_id, t);
    return;
  }
  const size_t width = std::min(count, kChunk);
  scratch.queries.resize(nq);
  scratch.thresholds.resize(nq);
  if (scratch.out.size() < nq * width) {
    scratch.out.resize(nq * width);
    scratch.abandoned.resize(nq * width);
  }
  for (size_t done = 0; done < count; done += kChunk) {
    const size_t chunk = std::min(kChunk, count - done);
    // Thresholds from each slot's own answer set, refreshed per chunk.
    for (size_t q = 0; q < nq; ++q) {
      scratch.queries[q] = lane[q]->query.data();
      scratch.thresholds[q] = lane[q]->Threshold();
    }
    kernels_.squared_euclidean_multi(
        scratch.queries.data(), nq, n, block + done * stride, chunk, stride,
        scratch.thresholds.data(), scratch.out.data(),
        scratch.abandoned.data());
    for (size_t q = 0; q < nq; ++q) {
      const uint8_t* flags = scratch.abandoned.data() + q * chunk;
      const size_t completed = static_cast<size_t>(
          std::count(flags, flags + chunk, uint8_t{0}));
      lane[q]->Settle(scratch.out.data() + q * chunk, chunk, completed,
                      first_id + static_cast<int64_t>(done),
                      scratch.thresholds[q]);
    }
  }
}

size_t LeafScanner::Announce(const Stream& s, size_t from, size_t max_pages,
                             const Slot& leader) const {
  const uint64_t spp = s.provider->SeriesPerPage();
  uint64_t pages = 0;
  for (size_t j = from; j < s.size && pages < max_pages;) {
    const size_t stop = s.RunEnd(j);
    const uint64_t first = static_cast<uint64_t>(s.IdAt(j));
    // Clip the run to the remaining page budget: one long consecutive
    // run must not announce past max_pages (the serving session's
    // per-query share depends on this bound holding).
    const uint64_t last_page = first / spp + (max_pages - pages) - 1;
    const uint64_t count =
        std::min<uint64_t>(stop - j, (last_page + 1) * spp - first);
    s.provider->Prefetch(first, count, leader.counters, leader.cancel);
    pages += (first + count - 1) / spp - first / spp + 1;
    j = stop;
  }
  return static_cast<size_t>(pages);
}

void LeafScanner::FanOut(const Stream& s, size_t shards) {
  Slot& slot = slots_[0];
  // A worker scans into its own answers and counters, abandoning against
  // its peers' bound too.
  struct Worker {
    Worker(const Slot& of, SharedBound* bound)
        : answers(of.answers->k()),
          slot{of.query, &answers, &counters, of.cancel, Status(), bound} {}
    AnswerSet answers;
    QueryCounters counters;
    Slot slot;
    Scratch scratch;
  };
  // The shared bound starts at the slot's k-th distance: answers from
  // earlier scans keep pruning inside this fan-out.
  SharedBound bound(slot.answers->KthDistanceSq());
  std::vector<Worker> workers;
  workers.reserve(shards);
  for (size_t i = 0; i < shards; ++i) workers.emplace_back(slot, &bound);
  // The first failure wins: its worker raises `failed`, the others stop
  // at their next run or page, and its status survives the join.
  std::atomic<bool> failed{false};
  std::mutex mu;
  Status first_failure;
  Shard(pool_, s.size, shards, [&](size_t i, size_t begin, size_t end) {
    Worker& w = workers[i];
    Slot* lane = &w.slot;
    Walk(s.Sub(begin, end), {&lane, 1}, w.scratch, &failed);
    if (!w.slot.status.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (!failed.exchange(true)) first_failure = w.slot.status;
    }
  });
  // Answers are ordered by (distance, id), so the merge order is free.
  for (Worker& w : workers) {
    if (slot.counters != nullptr) *slot.counters += w.counters;
    for (const auto& [dist_sq, id] : w.answers.TakeEntries()) {
      slot.answers->Offer(dist_sq, id);
    }
  }
  if (failed.load()) slot.status = std::move(first_failure);
}

Result<size_t> LeafScanner::RefineOrdered(
    SeriesProvider* provider, size_t count,
    const std::function<int64_t(size_t)>& id_at,
    const std::function<bool(size_t)>& before,
    const std::function<bool(size_t)>& after) {
  return RefineOrdered(
      provider, count, id_at,
      [&before](size_t i) {
        return before(i) ? RefineStep::kTake : RefineStep::kStop;
      },
      after);
}

Result<size_t> LeafScanner::RefineOrdered(
    SeriesProvider* provider, size_t count,
    const std::function<int64_t(size_t)>& id_at,
    const std::function<RefineStep(size_t)>& step,
    const std::function<bool(size_t)>& after,
    std::span<const size_t> slots) {
  const size_t n = slots.empty() ? slots_.size() : slots.size();
  if (n == 0) return size_t{0};
  lane_.clear();
  for (size_t i = 0; i < n; ++i) {
    lane_.push_back(&slots_[slots.empty() ? i : slots[i]]);
  }
  const Slot& first = *lane_[0];
  // Readahead: the next `prefetch_depth_` candidates the walk would take
  // on the current state, in walk order.
  auto announce = [&](size_t from) {
    ahead_.clear();
    for (size_t j = from; j < count && ahead_.size() < prefetch_depth_;
         ++j) {
      const RefineStep next = step(j);
      if (next == RefineStep::kStop) break;
      if (next == RefineStep::kTake) ahead_.push_back(id_at(j));
    }
    PrefetchIds(provider, ahead_, prefetch_depth_);
  };
  const bool prefetch =
      prefetch_depth_ > 0 && provider->MaxPrefetchPages() > 0;
  const size_t shards = Shards({.provider = provider, .size = count});
  if (shards > 1) {
    return RefineFannedOut(provider, count, shards, id_at, step, after,
                           prefetch ? announce
                                    : std::function<void(size_t)>());
  }
  // Serially, one candidate at a time, for every served slot: the same
  // pin, kernel and offer as a scan's walk.
  std::span<Slot*> lane(lane_);
  const size_t announce_every = std::max<size_t>(1, prefetch_depth_ / 2);
  size_t since_announce = announce_every - 1;  // the first fetch announces
  size_t committed = 0;
  for (size_t i = 0; i < count; ++i) {
    // Cancellation point per candidate: drop the slots that died or whose
    // token fired.
    size_t live = 0;
    for (Slot* slot : lane) {
      if (slot->Live()) lane[live++] = slot;
    }
    lane = lane.first(live);
    if (lane.empty()) return first.status;
    const RefineStep next = step(i);
    if (next == RefineStep::kStop) break;
    if (next == RefineStep::kSkip) continue;
    const Slot& leader = *lane[0];  // charged with the shared I/O
    const int64_t id = id_at(i);
    Result<PinnedRun> run =
        provider->PinSeriesChecked(static_cast<uint64_t>(id), leader.counters);
    if (!run.ok()) {
      for (Slot* slot : lane) slot->status = run.status();
      return run.status();
    }
    if (prefetch && ++since_announce >= announce_every) {
      announce(i + 1);
      since_announce = 0;
    }
    Evaluate(lane, scratch_, run.value().span().data(), 1,
             leader.query.size(), id);
    ++committed;
    if (!after(i)) break;
  }
  return committed;
}

Result<size_t> LeafScanner::RefineFannedOut(
    SeriesProvider* provider, size_t count, size_t shards,
    const std::function<int64_t(size_t)>& id_at,
    const std::function<RefineStep(size_t)>& step,
    const std::function<bool(size_t)>& after,
    const std::function<void(size_t)>& announce) {
  Slot& slot = slots_[0];
  // Each worker evaluates kRefineGrain candidates of a block.
  const size_t block = shards * kRefineGrain;
  // One evaluation: its distance, or the typed status of its failed fetch
  // or fired token — reported when (and only when) the commit loop
  // takes it; speculative failures that are not taken are discarded.
  struct Eval {
    double dist = 0.0;
    bool abandoned = false;
    Status error;
  };
  std::vector<Eval> evals(block);
  // Per-worker I/O scratch: logical measures are committed in order
  // below, but the physical I/O a speculative page load performs is real.
  std::vector<QueryCounters> io(shards);
  size_t committed = 0;
  for (size_t base = 0; base < count; base += block) {
    // Cancellation point: once per block, on the committing thread — this
    // is also what latches a deadline expiry so the workers' cheap
    // Fired() polls below observe it.
    if (!slot.Live()) return slot.status;
    const RefineStep first = step(base);
    if (first == RefineStep::kStop) break;
    const size_t b = std::min(block, count - base);
    if (announce) announce(base + b);
    // One threshold per block, read before any commit of the block: it is
    // the serial loop's threshold or looser, so abandons here imply serial
    // abandons and every serial keeper completes exactly.
    const double t0 = slot.answers->KthDistanceSq();
    Shard(pool_, b, shards, [&](size_t worker, size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        Eval& e = evals[j] = Eval{};
        if (slot.cancel != nullptr && slot.cancel->Fired()) {
          e.error = slot.cancel->Check();
          continue;
        }
        Result<PinnedRun> run = provider->PinSeriesChecked(
            static_cast<uint64_t>(id_at(base + j)), &io[worker]);
        if (!run.ok()) {
          e.error = run.status();
          continue;
        }
        e.dist = kernels_.squared_euclidean_ea(
            slot.query.data(), run.value().span().data(), slot.query.size(),
            t0, &e.abandoned);
      }
    });
    for (QueryCounters& w : io) {
      // series_accessed is logical, charged at commit; the rest of what a
      // fetch records is physical (bytes, seeks, and the pool attribution
      // the per-query sums must match), charged as incurred.
      w.series_accessed = 0;
      if (slot.counters != nullptr) *slot.counters += w;
      w.Reset();
    }
    // Commit strictly in candidate order; speculative evaluations that
    // are not taken are discarded without touching answers or counters.
    for (size_t j = 0; j < b; ++j) {
      const RefineStep next = j == 0 ? first : step(base + j);
      if (next == RefineStep::kStop) return committed;
      if (next == RefineStep::kSkip) continue;
      const Eval& e = evals[j];
      if (!e.error.ok()) {
        slot.status = e.error;
        return slot.status;
      }
      if (slot.counters != nullptr) {
        ++slot.counters->series_accessed;
        ++(e.abandoned ? slot.counters->abandoned_distances
                       : slot.counters->full_distances);
      }
      slot.answers->Offer(e.dist, id_at(base + j));
      ++committed;
      if (!after(base + j)) return committed;
    }
  }
  return committed;
}

}  // namespace hydra
