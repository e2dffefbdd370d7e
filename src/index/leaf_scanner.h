#ifndef HYDRA_INDEX_LEAF_SCANNER_H_
#define HYDRA_INDEX_LEAF_SCANNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/counters.h"
#include "common/status.h"
#include "distance/simd_dispatch.h"
#include "exec/shared_bound.h"
#include "exec/thread_pool.h"
#include "index/answer_set.h"
#include "storage/buffer_manager.h"

namespace hydra {

// The one candidate-evaluation engine every index scans through. It holds
// one SLOT per query — the query, its AnswerSet, its QueryCounters, its
// cancellation token and a sticky Status — and runs one loop over a
// candidate stream (a provider's id list or id range, or an in-memory
// block): walk the stream run by run, check cancellation, pin, announce
// readahead, run the distance kernel, offer the results. A scan of one
// slot with num_threads > 1 shards that loop across workers; a scan of
// several slots runs it once for all of them, so each pinned page is
// fetched once and fed to every query's kernel while it is cache-hot.
//
// Evaluation: chunks of kChunk candidates go through the multi-query
// kernel row (squared_euclidean_multi), which evaluates every pair with
// the single-query early-abandon kernel at that query's own threshold,
// refreshed from its own answer set per chunk; a lone candidate of a lone
// query calls that kernel directly. Results equal evaluating candidates
// one by one in order: a chunk only sees a looser (older) threshold, and
// completed distances are the same numbers either way. A completed
// evaluation counts in full_distances, an abandoned one in
// abandoned_distances, never both. AnswerSet orders by (distance, id), so
// the k answers kept do not depend on candidate order, ties included.
//
// Fan-out (one slot, num_threads > 1): the stream is cut into num_threads
// contiguous shards — by num_threads alone, never by pool size or timing
// — and the calling thread runs shard 0. Each worker scans into its own
// AnswerSet and QueryCounters and abandons at min(own k-th, shared
// bound); both merge into the slot after the join, so no QueryCounters is
// written concurrently and parallelism never escapes the call. Answers
// equal num_threads = 1 (same ids, bit-identical distances; proof in
// docs/ARCHITECTURE.md); only the full/abandoned split may move. Streams
// shorter than kMinParallelCandidates, and providers without
// SupportsConcurrentReads(), scan serially; a provider-backed fan-out is
// clamped to MaxConcurrentPins() and to the query's pin budget
// (SearchParams::pin_budget), so every worker can hold its one pin.
//
// Pins: a scan, or each worker, holds at most one pin (PinSeriesChecked /
// PinRunChecked), for exactly one run's evaluation, and releases it
// before returning — also on failure, so an abandoned query leaves no
// residue on a shared pool.
//
// Readahead: with prefetch_depth > 0 (pages), each fetch announces the
// next pages of the stream to SeriesProvider::Prefetch before its kernels
// run, re-announcing once half the window is consumed (not per run:
// scattered id lists would pay a queue-lock round trip per candidate).
// Consecutive ids coalesce into runs (tree leaves are sorted at build
// time to expose them), riding the batch kernel and sequential
// readahead. Prefetch is a pure cache hint: answers are identical at
// every depth.
//
// Failure: every slot fails alone. A fired token, checked per run and
// per pinned page, fails its slot with DeadlineExceeded/Cancelled; a
// failed fetch fails the slots scanning that stream with the provider's
// typed Status (DataCorruption, IoError, Unavailable) — a skipped
// candidate could be a true neighbor. In a fan-out the first failure
// wins and the other workers stop at their next run or page. A failed
// slot is sticky: later scans skip it. Candidates evaluated before a
// failure stay offered; the caller abandons the query.
//
// Attribution: distance counters are charged to each slot from its own
// abandon flags; shared physical I/O (hits, misses, bytes, random I/Os,
// prefetch, retries) to the first live slot of the scan, so per-query
// sums equal the pool's atomic totals.
class LeafScanner {
 public:
  // A scanner without slots: AddQuery registers each query of a batch.
  // `prefetch_depth` is the readahead lookahead in pages (0 = off).
  explicit LeafScanner(size_t prefetch_depth = 0);

  // A scanner with one slot. num_threads > 1 shards its scans across
  // `pool` (default ThreadPool::Global()); `pin_budget` caps the shards of
  // a provider-backed fan-out (0 = no per-query cap); `cancel` is the
  // query's token (null = not cancellable).
  LeafScanner(std::span<const float> query, AnswerSet* answers,
              QueryCounters* counters, size_t num_threads = 1,
              uint64_t pin_budget = 0, size_t prefetch_depth = 0,
              std::shared_ptr<CancellationToken> cancel = nullptr,
              ThreadPool* pool = nullptr);

  LeafScanner(const LeafScanner&) = delete;
  LeafScanner& operator=(const LeafScanner&) = delete;

  // Registers one query; returns its slot index. `answers`/`counters`
  // must outlive the scanner (counters may be null).
  size_t AddQuery(std::span<const float> query, AnswerSet* answers,
                  QueryCounters* counters,
                  std::shared_ptr<CancellationToken> cancel = nullptr);

  bool alive(size_t slot) const { return slots_[slot].status.ok(); }
  const Status& status(size_t slot) const { return slots_[slot].status; }
  QueryCounters* counters(size_t slot) const { return slots_[slot].counters; }
  // +inf until the slot's answer set holds k answers.
  double KthDistanceSq(size_t slot) const {
    return slots_[slot].answers->KthDistanceSq();
  }
  // Answers the slot still lacks: k minus what its answer set holds.
  size_t MissingAnswers(size_t slot) const {
    const AnswerSet& answers = *slots_[slot].answers;
    return answers.k() - answers.size();
  }
  // The slot's answers, or its failure.
  Result<KnnAnswer> Finish(size_t slot) {
    if (!alive(slot)) return slots_[slot].status;
    return slots_[slot].answers->Finish();
  }
  // Cancellation point for traversal loops: fails every live slot whose
  // token has fired.
  void CheckCancellations() {
    for (Slot& slot : slots_) slot.Live();
  }

  // The scans. Each serves the live members of `slots` (slot indices;
  // empty = every slot) and returns the candidates walked — or, when no
  // served slot survives, the first served slot's status.
  Result<size_t> ScanIds(SeriesProvider* provider,
                         std::span<const int64_t> ids,
                         std::span<const size_t> slots = {});
  Result<size_t> ScanRange(SeriesProvider* provider, uint64_t first,
                           uint64_t count, std::span<const size_t> slots = {});
  // In memory: `count` series at block + c * stride with ids first_id,
  // first_id + 1, ... (0 when no served slot survives).
  size_t ScanContiguous(const float* block, size_t count, size_t stride,
                        int64_t first_id, std::span<const size_t> slots = {});

  // What an ordered walk does with a candidate, decided just before its
  // fetch: evaluate it, pass over it, or end the walk.
  enum class RefineStep : uint8_t { kTake, kSkip, kStop };

  // Ordered refinement of the live members of `slots` (empty = every
  // slot), for the candidate-list methods (VA+file, SRS) and the tree
  // search's member sieve: reproduces the serial loop
  //
  //   for i in [0, count):
  //     switch (step(i)): kStop: stop; kSkip: continue; kTake: go on
  //     evaluate id_at(i) for every served slot, offer to its answers;
  //     if (!after(i)) stop;
  //
  // exactly — `step`/`after` observe the answer sets with candidates
  // 0..i-1 (resp. 0..i) applied, so adaptive stopping rules (lower-bound
  // cutoffs, chi-squared termination, δ-radius stops) decide on the same
  // state as at num_threads = 1 — while a fan-out (one slot, see the
  // class comment) evaluates the upcoming kRefineGrain candidates per
  // worker speculatively. Speculative evaluations that are not taken are
  // discarded and uncounted: logical counters (series_accessed, distance
  // splits) reflect taken candidates only, while physical I/O
  // (bytes_read, random_ios, pool attribution) is charged as incurred.
  // With prefetch on, each fetch announces the next candidates `step`
  // takes on the current state, in walk order, through PrefetchIds
  // (re-announcing once half the window is consumed), so `step` must be
  // pure. `id_at` maps a position to its series id (typically a view
  // into the caller's sorted lower-bound order, so no id array is
  // materialized); it must be pure and safe to call from any worker.
  // Returns the taken count, or — when no served slot survives — the
  // typed status of the first served slot (a taken candidate's failed
  // fetch or a fired token).
  Result<size_t> RefineOrdered(SeriesProvider* provider, size_t count,
                               const std::function<int64_t(size_t)>& id_at,
                               const std::function<RefineStep(size_t)>& step,
                               const std::function<bool(size_t)>& after,
                               std::span<const size_t> slots = {});
  // The same walk over every slot, where `before(i)` false stops it.
  Result<size_t> RefineOrdered(SeriesProvider* provider, size_t count,
                               const std::function<int64_t(size_t)>& id_at,
                               const std::function<bool(size_t)>& before,
                               const std::function<bool(size_t)>& after);

  // Announces (at most) the first `max_pages` pages covering the id list
  // to the provider's prefetcher, charged to the first live slot; returns
  // the pages announced (0 unless the provider prefetches). The tree
  // search warms the best queued leaves with it while one scans.
  size_t PrefetchIds(SeriesProvider* provider, std::span<const int64_t> ids,
                     size_t max_pages);

  size_t prefetch_depth() const { return prefetch_depth_; }

 private:
  // Candidates per kernel call: bounds threshold staleness while keeping
  // per-call overhead negligible.
  static constexpr size_t kChunk = 64;
  // Below this many candidates a fan-out costs more than it saves.
  static constexpr size_t kMinParallelCandidates = 64;
  // Candidates per worker per speculative refinement block.
  static constexpr size_t kRefineGrain = 16;

  struct Slot {
    std::span<const float> query;
    AnswerSet* answers;
    QueryCounters* counters;  // may be null
    std::shared_ptr<CancellationToken> cancel;
    Status status = {};            // sticky; non-OK = slot dead
    SharedBound* bound = nullptr;  // a fan-out worker's peers' k-th

    // Cancellation point: fails the slot once its token has fired.
    bool Live() {
      if (status.ok() && cancel != nullptr) {
        Status fired = cancel->Check();
        if (!fired.ok()) status = std::move(fired);
      }
      return status.ok();
    }
    // The abandon threshold: the slot's k-th distance, tightened by its
    // peers' in a fan-out. Both upper-bound the final k-th distance.
    double Threshold() const {
      const double kth = answers->KthDistanceSq();
      return bound == nullptr ? kth : std::min(kth, bound->Load());
    }
    // Charges `count` evaluations (`completed` of them run to completion)
    // and offers the distances within the threshold `t` the kernel ran
    // at: only completed exact distances qualify, abandoned partial sums
    // exceed `t`. A fan-out worker then publishes its tightened k-th.
    void Settle(const double* dist, size_t count, size_t completed,
                int64_t first_id, double t);
  };
  // Kernel scratch of one walker (the scanner itself, or one fan-out
  // worker), reused across chunks.
  struct Scratch {
    std::vector<const float*> queries;
    std::vector<double> thresholds;
    std::vector<double> out;
    std::vector<uint8_t> abandoned;
  };
  struct Stream;

  // Walks `s` for `slots`, serially or as a fan-out.
  Result<size_t> Run(const Stream& s, std::span<const size_t> slots);
  // The one candidate loop, for the live slots of `lane`; stops early
  // once `stop` (a failed peer worker) is raised.
  void Walk(const Stream& s, std::span<Slot*> lane, Scratch& scratch,
            const std::atomic<bool>* stop) const;
  // Shards `s` across workers for slot 0 and merges their answers.
  void FanOut(const Stream& s, size_t shards);
  // Fan-out width for `s`: 1 = serial (see the class comment's clamps).
  size_t Shards(const Stream& s) const;
  // The kernel step: evaluates `count` candidates at block + c * stride,
  // ids from first_id, for every slot of `lane`.
  void Evaluate(std::span<Slot* const> lane, Scratch& scratch,
                const float* block, size_t count, size_t stride,
                int64_t first_id) const;
  // Announces the stream from position `from` on, up to `max_pages`
  // pages, charged to `leader`; returns the pages announced.
  size_t Announce(const Stream& s, size_t from, size_t max_pages,
                  const Slot& leader) const;
  // RefineOrdered's fan-out of slot 0 over `shards` workers.
  Result<size_t> RefineFannedOut(
      SeriesProvider* provider, size_t count, size_t shards,
      const std::function<int64_t(size_t)>& id_at,
      const std::function<RefineStep(size_t)>& step,
      const std::function<bool(size_t)>& after,
      const std::function<void(size_t)>& announce);

  std::vector<Slot> slots_;
  size_t num_threads_ = 1;
  uint64_t pin_budget_ = 0;
  size_t prefetch_depth_;
  ThreadPool* pool_ = nullptr;
  const DistanceKernels& kernels_;
  // Reused by the scanner's own walks: the lane of a multi-slot scan (a
  // one-slot scan walks `solo_` and builds nothing) and kernel scratch.
  std::vector<Slot*> lane_;
  Slot* solo_ = nullptr;
  Scratch scratch_;
  std::vector<int64_t> ahead_;  // an ordered walk's readahead window
};

}  // namespace hydra

#endif  // HYDRA_INDEX_LEAF_SCANNER_H_
