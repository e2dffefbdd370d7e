#ifndef HYDRA_NET_REPLICA_SET_H_
#define HYDRA_NET_REPLICA_SET_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/serving_backend.h"
#include "net/conn_pool.h"

namespace hydra {

// How the first attempt of each query is routed across replicas.
// Failover applies to every policy: a retry-safe typed failure
// re-submits the query to a different live replica while budget and
// deadline remain.
enum class ReplicaPolicy : uint8_t {
  // All queries go to the lowest-index live replica; others only serve
  // after a failure (the classic primary/standby shape).
  kPrimaryFailover = 0,
  // First attempts rotate across live replicas (load spreading).
  kRoundRobin = 1,
  // Round-robin first attempt plus a hedged backup: if the primary
  // attempt has not answered after hedge_ms, a second attempt launches
  // on a different replica; first OK answer wins and the loser is
  // cancelled over the wire (kCancel). Tames tail latency when one
  // replica is slow rather than dead.
  kHedged = 2,
};
const char* ReplicaPolicyName(ReplicaPolicy policy);

struct ReplicaSetOptions {
  ReplicaPolicy policy = ReplicaPolicy::kPrimaryFailover;
  // Hedge delay before the backup attempt launches. 0 = 20 ms. Only
  // meaningful under kHedged.
  double hedge_ms = 0;
  // Per-query re-submission budget after retry-safe typed failures.
  // 0 = 2.
  uint64_t retry_budget = 0;
  // Forwarded to the connection pool underneath.
  ConnPoolOptions pool;
};

// True when a typed failure from one replica is safe to re-submit to
// another: exact queries are idempotent pure reads, so any
// replica-local transport/storage fault (kUnavailable from a dying
// connection or exhausted admission, kIoError from that replica's
// device, kDataCorruption from that replica's pages) can be answered
// by a different replica without changing semantics. Deterministic
// request errors (kInvalidArgument, ...) would fail identically
// everywhere, and kDeadlineExceeded/kCancelled mean the query's budget
// itself is spent — neither is retried.
bool RetrySafeOnReplica(StatusCode code);

// ServingBackend over N replicated HydraServers: the availability
// layer. Fans each query out per `policy`, treats typed failed-shard /
// kUnavailable statuses as the retry trigger with a bounded per-query
// budget charged against deadline_ms (a re-submission carries only the
// REMAINING deadline), and rides on ConnectionPool underneath so dead
// replicas reconnect with backoff instead of killing the client.
//
// Contract: identical to every other ServingBackend — results drain in
// ticket-id (submission) order, Submit after Finish returns an invalid
// ticket, answers are bit-identical to a single-server HydraClient for
// every query that completes OK (replicas serve the same collection;
// the fan-out may move a query between them, never change its answer).
//
// Queries that cannot reach any live replica: with a deadline they are
// parked and dispatched the moment an endpoint turns healthy (or
// resolved kDeadlineExceeded when it expires); without a deadline they
// resolve typed kUnavailable immediately rather than blocking the
// ordered stream forever. Callers without deadlines should
// WaitAnyHealthy() first.
class ReplicaSetBackend : public ServingBackend {
 public:
  // Builds the pool and starts connecting. Does NOT wait for a replica
  // to come up — use WaitAnyHealthy() when the caller needs one.
  static Result<std::unique_ptr<ReplicaSetBackend>> Connect(
      std::vector<Endpoint> endpoints, const ReplicaSetOptions& options = {});

  // Finishes, resolves anything parked, stops the pool (draining every
  // in-flight attempt), joins. No ticket is ever left unresolved.
  ~ReplicaSetBackend() override;

  ReplicaSetBackend(const ReplicaSetBackend&) = delete;
  ReplicaSetBackend& operator=(const ReplicaSetBackend&) = delete;

  QueryTicket Submit(std::span<const float> query,
                     const SearchParams& params) override;
  std::optional<ServedQuery> Next() override;
  void Finish() override;
  // First live replica's snapshot — its server's one session, covering
  // every connection to that server — with this set's own routing
  // counters (retries/failovers/hedges) merged in.
  ServingStats stats() const override;

  size_t replicas() const { return pool_->size(); }
  bool WaitHealthy(size_t i, std::chrono::milliseconds timeout) {
    return pool_->WaitHealthy(i, timeout);
  }
  bool WaitAnyHealthy(std::chrono::milliseconds timeout) {
    return pool_->WaitAnyHealthy(timeout);
  }

  uint64_t retries() const { return retries_.load(); }
  uint64_t failovers() const { return failovers_.load(); }
  uint64_t hedges() const { return hedges_.load(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    uint64_t id = 0;
    std::shared_ptr<QueryTicket::State> ticket;
    std::vector<float> query;
    SearchParams params;  // as submitted (deadline_ms = the full budget)
    Clock::time_point submitted;
    uint64_t retries_left = 0;
    size_t first_endpoint = SIZE_MAX;
    bool hedged = false;
    bool parked = false;
    bool resolved = false;
    Status last_error = Status::OK();
    // One entry per outstanding attempt (normally one; two while a
    // hedge race is in flight). Entries leave when their result — real
    // or typed — arrives from the pool.
    struct Attempt {
      size_t endpoint = 0;
      std::shared_ptr<HydraClient> client;
      QueryTicket ticket;
    };
    std::vector<Attempt> live;
    Clock::time_point hedge_due;  // meaningful under kHedged only
  };

  ReplicaSetBackend() = default;

  // Pool callbacks.
  void OnResult(size_t endpoint, ServedQuery served);
  void OnHealth(size_t endpoint, EndpointHealth health);
  void MaintLoop();

  // Launches one attempt on the best policy-eligible live replica not
  // already carrying this request (preferring != exclude). When
  // check_deadline and the budget is spent, resolves kDeadlineExceeded
  // and reports true. False = no live replica took it.
  bool TryDispatchLocked(const std::shared_ptr<Request>& req, size_t exclude,
                         bool check_deadline);
  void ResolveLocked(const std::shared_ptr<Request>& req, ServedQuery served);
  void ResolveErrorLocked(const std::shared_ptr<Request>& req,
                          const Status& error);
  void MaybeEraseLocked(const std::shared_ptr<Request>& req);
  double RemainingDeadlineMsLocked(const Request& req) const;

  ReplicaPolicy policy_ = ReplicaPolicy::kPrimaryFailover;
  double hedge_ms_ = 0;
  uint64_t retry_budget_ = 0;
  std::unique_ptr<ConnectionPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable results_cv_;
  std::condition_variable maint_cv_;
  uint64_t next_id_ = 0;
  uint64_t next_result_ = 0;
  bool finished_ = false;
  bool stopping_ = false;
  size_t rr_next_ = 0;  // round-robin cursor
  // Unresolved-or-undrained-attempt requests by replica-set ticket id.
  std::map<uint64_t, std::shared_ptr<Request>> requests_;
  // (endpoint, client request_id) → replica-set ticket id. Unique among
  // outstanding attempts because a dying connection's receive thread
  // delivers ALL its results before the pool publishes the endpoint's
  // next connection (it waits for HydraClient::WaitClosed).
  std::map<std::pair<size_t, uint64_t>, uint64_t> attempt_index_;
  // Completed queries awaiting their turn in the ordered stream.
  std::map<uint64_t, ServedQuery> done_;
  // Submission-ordered ids awaiting a hedge decision (hedge_due is
  // monotonic in submission order, so the front is always earliest).
  std::deque<uint64_t> hedge_queue_;
  std::deque<uint64_t> parked_;

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> hedges_{0};

  std::thread maint_;
};

}  // namespace hydra

#endif  // HYDRA_NET_REPLICA_SET_H_
