#ifndef HYDRA_EXEC_QUERY_SCHEDULER_H_
#define HYDRA_EXEC_QUERY_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "common/timer.h"
#include "exec/serving_backend.h"
#include "exec/thread_pool.h"
#include "index/index.h"

namespace hydra {

class SeriesProvider;  // storage/buffer_manager.h

// Inter-query concurrency: the serving engine that overlaps WHOLE queries
// on the shared worker pool, where the rest of src/exec/ parallelizes the
// inside of one query. The paper's harness runs queries one at a time; a
// production store is judged on throughput under concurrent access, so
// this layer turns the same indexes into a serving system without
// touching them — a query is an opaque unit above the per-query scan
// engine.
//
// Determinism argument (docs/ARCHITECTURE.md "Serving" has the long
// form): every query owns its AnswerSet, QueryCounters and scanner; the
// only state shared between in-flight queries is (a) the ThreadPool,
// whose scheduling never affects answers (work is sharded by
// SearchParams::num_threads alone), and (b) the buffer pool, which is a
// content-addressed cache — a page's bytes are the same no matter which
// query faulted it in — with pin-stable spans. Hence the answer to each
// query is identical at every concurrency level, including 1; only
// timing and cache hit/miss attribution shift. Tests/serving_test.cc
// asserts exactly this.
//
// The client-facing types (QueryTicket, ServedQuery, ServingStats) and
// the ServingBackend interface this engine serves live in
// exec/serving_backend.h — the remote HydraClient (net/client.h)
// implements the same surface.

struct ServingOptions {
  // Queries admitted onto the pool at once. Clamped to 1 when the index
  // does not serve concurrent queries (IndexCapabilities), and to the
  // provider's pin capacity.
  size_t concurrency = 1;
  // Bounded submission queue: Submit() blocks (backpressure) while this
  // many queries are waiting for admission. 0 = 2 * concurrency.
  size_t queue_capacity = 0;
  // Worker pool the whole-query tasks run on; nullptr = the process-wide
  // ThreadPool::Global(). Intra-query fan-outs of an admitted query run
  // on the same pool (TaskGroup::Wait helps, so nesting cannot deadlock).
  ThreadPool* pool = nullptr;
  // Opportunistic coalescing: when admission finds several queries
  // waiting, up to this many are popped together into one
  // Index::BatchSearch call (one pass over the shared pages instead of
  // one per query). 0 = the HYDRA_BATCH_WINDOW env default (itself 1 =
  // batching off). Clamped to 1 unless the index declares BOTH
  // batched_queries and concurrent_queries (an ADS+-style index whose
  // Search mutates state is never coalesced). The window is a bound, not
  // a quota: a lone queued query is served solo immediately — coalescing
  // never waits for stragglers, so an idle stream keeps solo latency.
  // A coalesced batch occupies ONE in-flight slot: it executes as a
  // single task whose pin-holding phases are shared or member-serial
  // (the shared scan pins at most one run at a time, tree co-traversal
  // pins like one search, VA+file refines members one at a time), so its
  // instantaneous pin demand is bounded by a single query's budget and
  // the pin-capacity admission clamp stays sound. Batching therefore
  // RAISES the number of queries in flight (up to concurrency *
  // batch_window) without raising pin demand — that is the throughput
  // win.
  size_t batch_window = 0;
};

// The HYDRA_BATCH_WINDOW resolution used when ServingOptions::batch_window
// is 0: the env value if set to a positive integer, else 1 (off).
size_t DefaultBatchWindow();

// The in-process ServingBackend — the object the harness served runner
// (RunLoad), bench_serving, and HydraServer's one session drive. One
// FIFO submission queue sits in front of N in-flight whole-query tasks
// on the ThreadPool, and a completion stream hands results back in
// submission order regardless of completion order — serving output is
// deterministic even though execution overlaps.
//
// Resource split: admission is clamped to the provider's pin capacity
// (never more in-flight queries than pages — excess queries just
// queue), and each admitted query gets a pin budget of
// MaxConcurrentPins() / concurrency, which the scan layers clamp their
// provider-backed fan-outs to. The readahead budget is split the same
// way: a query's effective prefetch_depth (explicit, or the
// HYDRA_PREFETCH default) is clamped to MaxPrefetchPages() /
// concurrency. All splits depend only on configuration, never on
// timing, so answers stay deterministic — and the combined demand of N
// in-flight queries is N * (capacity / N) <= capacity: overlapping
// queries can never starve each other of buffer-pool pins. With no
// provider (indexes that own their data) nothing is negotiated.
//
// Thread safety: Submit/Next/Finish may be called from any threads
// (typically one producer and one consumer). The destructor drains the
// queries already admitted (their tasks reference this object) and
// their sinks, resolves never-admitted ones typed kUnavailable, wakes
// producers blocked in Submit (their submissions are dropped), and
// waits until the last of them has left before tearing down.
class ServingSession : public ServingBackend {
 public:
  // `provider` is the storage the index searches over (nullptr for
  // indexes that own their data): only its MaxConcurrentPins() and
  // MaxPrefetchPages() are read.
  ServingSession(const Index& index, SeriesProvider* provider,
                 ServingOptions options);
  ~ServingSession() override;

  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  // Receives one query's result on the pool worker that finished it.
  using Sink = std::function<void(ServedQuery)>;

  // Applies the session's pin and prefetch budgets, then enqueues the
  // query (the span is copied; the caller's buffer is free immediately).
  // Blocks while the submission queue is full. Returns the query's
  // ticket — results come back from Next() in ticket-id order — or an
  // invalid ticket (!valid(), id() == QueryTicket::kDropped) when the
  // stream was closed before the query could be accepted. Calling
  // Submit after — or racing — Finish() is a supported contract: the
  // submission is refused promptly with the invalid ticket (typed
  // kUnavailable status), never blocked forever on backpressure; a
  // producer already parked on a full queue when Finish lands is woken
  // and refused the same way. HydraServer::Stop leans on this: it
  // finishes the session while connection threads are still mid-Submit.
  QueryTicket Submit(std::span<const float> query,
                     const SearchParams& params) override {
    return Submit(query, params, Sink());
  }
  // As above, but the result goes to `sink` and never enters Next()'s
  // stream. The sink may run before Submit returns. It runs after the
  // ticket is resolved and before the query's in-flight slot is
  // released, with no session lock held, so the destructor waits for
  // it; a query the destructor drops before admission reaches its sink
  // typed kUnavailable. Every accepted query is delivered exactly once.
  QueryTicket Submit(std::span<const float> query,
                     const SearchParams& params, Sink sink);
  // Blocks for the result of the next ticket in submission order;
  // nullopt once Finish() was called and every submitted query was
  // consumed.
  std::optional<ServedQuery> Next() override;
  // Declares the submission stream closed so Next() can drain to
  // nullopt. Idempotent.
  void Finish() override;
  ServingStats stats() const override;

  // Effective values after capability clamping / budget negotiation.
  size_t concurrency() const { return max_in_flight_; }
  size_t batch_window() const { return batch_window_; }
  uint64_t per_query_pin_budget() const { return per_query_pin_budget_; }
  // Per-query readahead cap (pages); 0 = the provider does not prefetch.
  uint64_t per_query_prefetch_budget() const {
    return per_query_prefetch_budget_;
  }
  // Producers currently parked inside Submit on backpressure. Lets tests
  // wait for "the producer has actually blocked" as an observable event
  // instead of sleeping an arbitrary interval.
  size_t blocked_submitters() const;
  // Coalescing observability: BatchSearch calls issued (size >= 2 only)
  // and the total queries they carried.
  uint64_t batches_served() const { return stats().batches_served; }
  uint64_t coalesced_queries() const { return stats().coalesced_queries; }

 private:
  struct Request {
    std::shared_ptr<QueryTicket::State> ticket;
    std::vector<float> query;
    SearchParams params;
    Timer submitted;  // starts at Submit()
    Sink sink;        // empty = the result joins Next()'s stream
  };

  // Admits pending queries in FIFO order while in-flight slots are free,
  // coalescing up to batch_window_ waiting queries into one pool task.
  // Called with mu_ held, from Submit and from every completion (direct
  // handoff: no dispatcher thread exists).
  void DispatchLocked();
  // Arms the request's deadline with what its queue wait left of the
  // budget (a deadline bounds the latency a CLIENT observes, so it runs
  // from Submit). Returns DeadlineExceeded when the queue already spent
  // it; the query then fails fast without touching the index.
  static Status ArmDeadline(Request& req);
  // Runs one query on the pool and files its result.
  void Serve(const std::shared_ptr<Request>& req);
  // Runs a coalesced batch (size >= 2) through Index::BatchSearch; a
  // member whose deadline already expired never joins the index call.
  void ServeBatch(const std::vector<std::shared_ptr<Request>>& reqs);
  // Resolves the tickets, hands each result outs[i] to reqs[i]'s sink or
  // files it for Next(), releases the one in-flight slot they held,
  // admits what is waiting and wakes the consumer.
  void Complete(std::span<const std::shared_ptr<Request>> reqs,
                std::span<ServedQuery> outs);

  const Index& index_;
  ThreadPool* pool_;
  size_t max_in_flight_;
  size_t queue_capacity_;
  size_t batch_window_;
  uint64_t per_query_pin_budget_ = 0;       // 0 = unconstrained provider
  uint64_t per_query_prefetch_budget_ = 0;  // 0 = no prefetch support

  mutable std::mutex mu_;
  std::condition_variable space_cv_;    // submitters: queue has room
  std::condition_variable results_cv_;  // consumer + dtor: results/idle
  std::deque<std::shared_ptr<Request>> pending_;  // admission order
  std::map<uint64_t, ServedQuery> done_;          // completed, unconsumed
  uint64_t next_ticket_ = 0;
  uint64_t next_result_ = 0;
  // Sink queries are numbered apart, so Next() never waits on one.
  uint64_t next_sink_ticket_ = 0;
  size_t in_flight_ = 0;
  // Producers currently inside Submit (blocked or not): the destructor
  // waits them out so a woken submitter never touches freed state.
  size_t submitters_ = 0;
  // The subset of submitters_ parked on the backpressure wait.
  size_t blocked_submitters_ = 0;
  bool finished_ = false;
  uint64_t batches_served_ = 0;
  uint64_t coalesced_queries_ = 0;
};

}  // namespace hydra

#endif  // HYDRA_EXEC_QUERY_SCHEDULER_H_
