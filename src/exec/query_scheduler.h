#ifndef HYDRA_EXEC_QUERY_SCHEDULER_H_
#define HYDRA_EXEC_QUERY_SCHEDULER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
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
// The client-facing types (QueryPriority, SubmitOptions, QueryTicket,
// ServedQuery, ServingStats) and the ServingBackend interface this
// engine serves live in exec/serving_backend.h — the remote HydraClient
// (net/client.h) implements the same surface.

struct ServingOptions {
  // Queries admitted onto the pool at once. Clamped to 1 when the index
  // does not serve concurrent queries (IndexCapabilities).
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
  // Per-tenant admission isolation: at most this many queries of ONE
  // tenant may sit in the submission queue; a tenant at its cap blocks in
  // Submit (tenant-local backpressure) while other tenants keep being
  // admitted — one flooding tenant can no longer occupy the whole shared
  // queue. 0 = the HYDRA_TENANT_QUEUE env default (itself 0 = no
  // per-tenant bound, the shared queue_capacity alone applies).
  size_t tenant_queue_capacity = 0;
};

// The HYDRA_BATCH_WINDOW resolution used when ServingOptions::batch_window
// is 0: the env value if set to a positive integer, else 1 (off).
size_t DefaultBatchWindow();

// Bounded-admission scheduler: a submission queue in front of N in-flight
// whole-query tasks on the ThreadPool, with a completion stream that
// hands results back in submission order regardless of completion order
// — serving output is deterministic even though execution overlaps.
//
// Thread safety: Submit/Next/Finish may be called from any threads
// (typically one producer and one consumer). The destructor drains the
// queries already admitted (their tasks reference this object), discards
// never-admitted pending queries, wakes producers blocked in Submit
// (their submissions are dropped), and waits until the last of them has
// left before tearing down.
class QueryScheduler {
 public:
  QueryScheduler(const Index& index, const ServingOptions& options);
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // No-ticket id sentinel: QueryTicket::id() of an invalid ticket (the
  // query was NOT accepted — Finish() or the destructor raced the
  // submission while it was blocked on backpressure). Never a valid id.
  static constexpr uint64_t kDropped = UINT64_MAX;

  // Enqueues one query (the span is copied; the caller's buffer is free
  // immediately). Blocks while the submission queue is full — and, when a
  // per-tenant cap is configured, while this submission's tenant is at
  // its cap. Returns the query's ticket — results come back from Next()
  // in ticket-id order — or an invalid ticket (!valid(), id() ==
  // kDropped) when the stream was closed before the query could be
  // accepted (the query is discarded; no result will appear for it).
  // Calling Submit after — or racing — Finish() is a supported contract:
  // the submission is refused promptly with the invalid ticket (typed
  // kUnavailable status), never blocked forever on backpressure; a
  // producer already parked on a full queue when Finish lands is woken
  // and refused the same way. A network front-end leans on this: a
  // disconnecting client's session can be finished while its submitter
  // thread is still mid-Submit.
  QueryTicket Submit(std::span<const float> query, const SearchParams& params,
                     const SubmitOptions& submit = {});

  // Blocks for the result of the next ticket in submission order;
  // nullopt once Finish() was called and every submitted query was
  // consumed.
  std::optional<ServedQuery> Next();

  // Declares the submission stream closed so Next() can drain to
  // nullopt. Idempotent.
  void Finish();

  // Admitted-but-not-completed queries right now (for tests/monitoring;
  // racy by nature).
  size_t in_flight() const;
  // Producers currently parked inside Submit on backpressure. Lets tests
  // wait for "the producer has actually blocked" as an observable event
  // instead of sleeping an arbitrary interval.
  size_t blocked_submitters() const;
  size_t concurrency() const { return max_in_flight_; }
  size_t queue_capacity() const { return queue_capacity_; }
  // Effective per-tenant pending cap (0 = off).
  size_t tenant_queue_capacity() const { return tenant_queue_capacity_; }
  // Effective coalescing window after the capability clamp (1 = off).
  size_t batch_window() const { return batch_window_; }
  // Coalescing observability: BatchSearch calls issued (size >= 2 only)
  // and the total queries they carried. A deterministic test can assert
  // coalesced_queries() > 0 by stuffing the queue before serving starts.
  uint64_t batches_served() const;
  uint64_t coalesced_queries() const;

 private:
  struct Request {
    std::shared_ptr<QueryTicket::State> ticket;
    std::vector<float> query;
    SearchParams params;
    Timer submitted;  // starts at Submit()
  };

  // Admits pending queries while in-flight slots are free, always from
  // the highest-priority non-empty class, coalescing up to batch_window_
  // waiting queries OF THAT CLASS into one pool task (classes never mix
  // in a batch, so a background flood cannot ride along with an
  // interactive admission). Called with mu_ held, from Submit and from
  // every completion (direct handoff: no dispatcher thread exists).
  void DispatchLocked();
  // Files one completed query under mu_: publishes the terminal status
  // through the ticket (release-ordered), moves the result into the
  // completion map and wakes the consumer.
  void FileResultLocked(ServedQuery out);
  // Runs one query on the pool and files its result.
  void Serve(const std::shared_ptr<Request>& req);
  // Runs a coalesced batch (size >= 2) through Index::BatchSearch and
  // files every member's result by ticket. Deadlines are armed per
  // member from ITS OWN Submit time; a member whose budget the queue
  // already consumed fails fast and never joins the index call. The
  // batch holds one in-flight slot (see ServingOptions::batch_window),
  // released at the end.
  void ServeBatch(const std::vector<std::shared_ptr<Request>>& reqs);

  const Index& index_;
  ThreadPool* pool_;
  size_t max_in_flight_;
  size_t queue_capacity_;
  size_t batch_window_;
  size_t tenant_queue_capacity_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;    // submitters: queue has room
  std::condition_variable results_cv_;  // consumer + dtor: results/idle
  // One FIFO per priority class, indexed by QueryPriority; admission
  // drains the highest non-empty class first, FIFO within a class.
  std::array<std::deque<std::shared_ptr<Request>>, 3> pending_;
  size_t pending_count_ = 0;  // sum over the classes
  // Pending queries per tenant (entries erased at zero), only maintained
  // when tenant_queue_capacity_ > 0.
  std::map<std::string, size_t> tenant_pending_;
  std::map<uint64_t, ServedQuery> done_;  // completed, unconsumed
  uint64_t next_ticket_ = 0;
  uint64_t next_result_ = 0;
  size_t in_flight_ = 0;
  // Producers currently inside Submit (blocked or not): the destructor
  // waits them out so a woken submitter never touches freed state.
  size_t submitters_ = 0;
  // The subset of submitters_ parked on the backpressure wait.
  size_t blocked_submitters_ = 0;
  bool finished_ = false;
  // Coalescing stats (guarded by mu_).
  uint64_t batches_served_ = 0;
  uint64_t coalesced_queries_ = 0;
};

// Binds a scheduler to one index + the shared storage it serves from and
// negotiates the per-query resource split: admission is clamped to the
// provider's pin capacity (never more in-flight queries than pages —
// excess queries just queue), and each admitted query gets a pin budget
// of MaxConcurrentPins() / concurrency, which the scan layers clamp
// their provider-backed fan-outs to. The readahead budget is split the
// same way: a query's effective prefetch_depth (explicit, or the
// HYDRA_PREFETCH default) is clamped to MaxPrefetchPages() / concurrency
// so overlapping queries share the pool's prefetch carve-out instead of
// fighting over it. All splits depend only on configuration (pool
// capacity, concurrency level), never on timing, so answers stay
// deterministic — and the combined demand of N in-flight queries is
// N * (capacity / N) <= capacity: overlapping queries can never starve
// each other of buffer-pool pins. This is the in-process ServingBackend
// — the object the harness served runner (RunLoad),
// bench_serving, and HydraServer's per-connection sessions drive.
class ServingSession : public ServingBackend {
 public:
  // `provider` is the storage the index searches over (nullptr for
  // indexes that own their data): only its MaxConcurrentPins() is read.
  ServingSession(const Index& index, SeriesProvider* provider,
                 ServingOptions options);

  // Applies the session's pin budget (and records the concurrency level
  // in params for downstream reporting), then submits. `submit` carries
  // the tenant/priority routing; the default is the single-tenant,
  // normal-priority behavior.
  QueryTicket Submit(std::span<const float> query, const SearchParams& params,
                     const SubmitOptions& submit = {}) override;

  std::optional<ServedQuery> Next() override { return scheduler_.Next(); }
  void Finish() override { scheduler_.Finish(); }
  ServingStats stats() const override;

  // Effective values after capability clamping / budget negotiation.
  size_t concurrency() const { return scheduler_.concurrency(); }
  size_t blocked_submitters() const {
    return scheduler_.blocked_submitters();
  }
  size_t batch_window() const { return scheduler_.batch_window(); }
  uint64_t batches_served() const { return scheduler_.batches_served(); }
  uint64_t coalesced_queries() const {
    return scheduler_.coalesced_queries();
  }
  uint64_t per_query_pin_budget() const { return per_query_pin_budget_; }
  // Per-query readahead cap (pages); 0 = the provider does not prefetch.
  uint64_t per_query_prefetch_budget() const {
    return per_query_prefetch_budget_;
  }

 private:
  static ServingOptions NegotiateOptions(SeriesProvider* provider,
                                         ServingOptions options);

  uint64_t per_query_pin_budget_ = 0;       // 0 = unconstrained provider
  uint64_t per_query_prefetch_budget_ = 0;  // 0 = no prefetch support
  QueryScheduler scheduler_;
};

}  // namespace hydra

#endif  // HYDRA_EXEC_QUERY_SCHEDULER_H_
