#ifndef HYDRA_EXEC_SERVING_BACKEND_H_
#define HYDRA_EXEC_SERVING_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/counters.h"
#include "common/status.h"
#include "index/index.h"

namespace hydra {

class ServingSession;     // exec/query_scheduler.h
class HydraClient;        // net/client.h
class ReplicaSetBackend;  // net/replica_set.h

// ---------------------------------------------------------------------------
// The client-facing serving surface. Everything a caller needs to submit
// queries and drain results lives in this header: the typed per-query
// ticket, the completed-query record, and the ServingBackend interface
// that the in-process engine (ServingSession), the remote client
// (HydraClient) and the replica set implement. Callers — the harness
// sweeps, bench_serving, hydra_cli — program against ServingBackend and
// never name a concrete backend, which is what makes "local" vs
// "remote" a one-line swap with identical answers (tests/net_serving
// proves bit-identity).
// ---------------------------------------------------------------------------

// Typed handle to one submitted query — the unit a response protocol
// serializes. Replaces the raw uint64_t position ticket: the id is still
// the submission position (Next() returns results in id order), but the
// handle also carries a thread-safe per-query status accessor that
// becomes meaningful the moment the query completes, independent of who
// drains the stream. Copyable and cheap (shared state with the
// backend); a default-constructed or dropped-submission ticket is
// !valid().
class QueryTicket {
 public:
  QueryTicket() = default;

  // id() of an invalid ticket. Never a valid id.
  static constexpr uint64_t kDropped = UINT64_MAX;

  // False for a default-constructed ticket and for a submission the
  // backend dropped (stream closed while the producer was blocked).
  bool valid() const { return state_ != nullptr; }
  // Submission position — Next() hands results back in id order;
  // kDropped for an invalid ticket.
  uint64_t id() const { return state_ != nullptr ? state_->id : kDropped; }

  // True once the query's result has been filed (whether or not it has
  // been drained from the completion stream yet).
  bool done() const {
    return state_ != nullptr && state_->done.load(std::memory_order_acquire);
  }
  // The query's terminal Status once done(): OK for a served answer, the
  // typed error otherwise (DeadlineExceeded, IoError, ...). Before
  // completion — and forever for an invalid ticket — a typed Unavailable
  // placeholder. Safe from any thread.
  Status status() const;

 private:
  friend class ServingSession;
  friend class HydraClient;
  friend class ReplicaSetBackend;
  struct State {
    uint64_t id = 0;
    // status is written before done is set (release); readers acquire.
    std::atomic<bool> done{false};
    Status status = Status::Unavailable("query pending");
    // The one way a backend publishes a query's terminal status: OK for
    // an answer, the typed error otherwise, then done.
    void Resolve(const Result<KnnAnswer>& answer) {
      status = answer.status();
      done.store(true, std::memory_order_release);
    }
  };
  explicit QueryTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

// One completed query as it leaves the completion stream.
struct ServedQuery {
  QueryTicket ticket;
  Result<KnnAnswer> answer{Status::Internal("not served")};
  QueryCounters counters;
  // Submission (Submit() return) to completion, queue wait included —
  // the latency a serving client observes under load.
  double seconds = 0.0;
};

// Backend observability snapshot: the effective (post-negotiation)
// serving configuration plus coalescing counters. All-u64 so it encodes
// to the wire unchanged — a remote client's stats() answers with the
// SERVER session's numbers, not a local approximation.
struct ServingStats {
  uint64_t concurrency = 0;
  uint64_t queue_capacity = 0;
  uint64_t batch_window = 0;
  uint64_t batches_served = 0;
  uint64_t coalesced_queries = 0;
  uint64_t per_query_pin_budget = 0;       // 0 = unconstrained provider
  uint64_t per_query_prefetch_budget = 0;  // 0 = no prefetch support
  uint64_t in_flight = 0;                  // racy by nature (monitoring)
  // Server-level policing counters (zero for an in-process session; a
  // HydraServer fills them into its kStatsReply so operators can see
  // how many connections it accepted and how many malformed/oversized/
  // unknown frames it rejected).
  uint64_t connections_accepted = 0;
  uint64_t frames_rejected = 0;
  // Replica-routing counters (zero for single-endpoint backends; a
  // ReplicaSetBackend fills them with its own fan-out activity).
  uint64_t retries = 0;    // re-submissions after a retry-safe failure
  uint64_t failovers = 0;  // queries answered by a non-primary replica
  uint64_t hedges = 0;     // backup attempts launched by the hedger
};

// The single client-facing serving interface. Contract (every
// implementation, enforced by the loopback equivalence suite):
//  - Submit copies the query span before returning; results come back
//    from Next() in ticket-id (submission) order. After Finish — or
//    after the backend/stream is torn down — Submit returns an invalid
//    ticket (!valid(), status kUnavailable) instead of blocking forever.
//  - Next blocks for the next result in submission order and returns
//    nullopt once Finish() was called and every accepted query drained.
//  - Finish is idempotent and only closes the SUBMISSION side; pending
//    results remain drainable.
//  - Answers are bit-identical across backends for the same index +
//    params: the network layer may move bytes, never change them.
class ServingBackend {
 public:
  virtual ~ServingBackend() = default;

  virtual QueryTicket Submit(std::span<const float> query,
                             const SearchParams& params) = 0;
  virtual std::optional<ServedQuery> Next() = 0;
  virtual void Finish() = 0;
  virtual ServingStats stats() const = 0;
};

}  // namespace hydra

#endif  // HYDRA_EXEC_SERVING_BACKEND_H_
