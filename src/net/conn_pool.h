#ifndef HYDRA_NET_CONN_POOL_H_
#define HYDRA_NET_CONN_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/serving_backend.h"
#include "net/client.h"

namespace hydra {

// One server address a pool keeps a connection to.
struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

// Parses "host:port[,host:port...]" (the --endpoints CLI syntax).
Result<std::vector<Endpoint>> ParseEndpoints(const std::string& csv);
std::string EndpointToString(const Endpoint& endpoint);

// Per-endpoint health, driven by typed failures and the periodic probe:
//
//   kProbing --connect ok--> kHealthy --typed failure--> kSuspect
//      ^  \--connect fail--> kDown         |    \--ping ok--> kHealthy
//      |                       ^           +--connection died--+
//      +------backoff----------+<------------------------------+
//
// kSuspect means "a query on this endpoint failed typed but the
// transport still looks alive" — the next probe either clears it (ping
// OK) or the connection dies on its own and the endpoint goes kDown. kDown
// endpoints reconnect with capped decorrelated exponential backoff
// (mirroring the HYDRA_IO_BACKOFF_US policy in BufferManager) and pass
// through kProbing while a connect attempt is in flight.
enum class EndpointHealth : uint8_t {
  kProbing = 0,
  kHealthy = 1,
  kSuspect = 2,
  kDown = 3,
};
const char* EndpointHealthName(EndpointHealth health);

struct ConnPoolOptions {
  // Health probe period. 0 = 100 ms.
  double probe_ms = 0;
  // Reconnect backoff: base << min(attempt, 6), capped, plus
  // deterministic decorrelation jitter from (endpoint, attempt). 0 =
  // defaults (1000us base, 250000us cap).
  uint64_t backoff_base_us = 0;
  uint64_t backoff_cap_us = 0;
};

// Observability snapshot for one endpoint.
struct EndpointStatus {
  Endpoint endpoint;
  EndpointHealth health = EndpointHealth::kProbing;
  uint64_t generation = 0;          // completed connects
  uint64_t reconnect_attempts = 0;  // connect attempts (incl. failures)
  uint64_t probes_sent = 0;
  uint64_t probes_failed = 0;
};

// A reconnecting pool of HydraClient connections, one per endpoint —
// the transport layer under ReplicaSetBackend that replaces the
// one-socket-for-life client. Each endpoint gets one thread that
// connects (with backoff), publishes the live client for leasing,
// probes it every probe_ms while it lives, and loops back to
// reconnecting when it closes. Each client's receive thread delivers
// its results straight to `on_result`. A dying connection resolves its
// in-flight queries to typed kUnavailable (HydraClient's failure
// contract), and those typed results flow through `on_result` like any
// other — which is exactly the hook the replica set uses to re-submit
// retry-safe queries elsewhere — all before the endpoint's next client
// is published.
//
// Threading: Lease/health/Report* are safe from any thread. Callbacks
// (`on_result` on a client's receive thread, `on_health` on an endpoint
// thread or a caller of Report*) run with no pool or client locks held;
// they may call back into the pool and Submit/Cancel on leased clients
// freely.
class ConnectionPool {
 public:
  // endpoint index + the served query (results and typed failures both).
  using ResultHandler = std::function<void(size_t, ServedQuery)>;
  // endpoint index + its new health, fired on every transition.
  using HealthHandler = std::function<void(size_t, EndpointHealth)>;

  ConnectionPool(std::vector<Endpoint> endpoints, const ConnPoolOptions& opts,
                 ResultHandler on_result, HealthHandler on_health = nullptr);
  ~ConnectionPool();

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  size_t size() const { return slots_.size(); }
  const Endpoint& endpoint(size_t i) const { return slots_[i]->endpoint; }

  // The live client for endpoint i, or nullptr while it is down or a
  // (re)connect is still in flight. The lease stays valid after the
  // connection dies — submits on it just return invalid tickets.
  std::shared_ptr<HydraClient> Lease(size_t i) const;

  EndpointHealth health(size_t i) const;
  EndpointStatus endpoint_status(size_t i) const;

  // A query on endpoint i's live connection failed typed: demote
  // healthy → suspect. The next probe re-verifies; the connection dying
  // demotes further to down on its own.
  void ReportSuspect(size_t i);
  // An OK answer from endpoint i: clear suspect → healthy.
  void ReportHealthy(size_t i);

  // Blocks until endpoint i is kHealthy (true) or the timeout expires
  // (false). WaitAnyHealthy waits for any endpoint.
  bool WaitHealthy(size_t i, std::chrono::milliseconds timeout);
  bool WaitAnyHealthy(std::chrono::milliseconds timeout);

  // Stops reconnecting, finishes every live connection (its in-flight
  // queries still reach on_result), joins the endpoint threads.
  // Idempotent; the destructor calls it.
  void Stop();

 private:
  struct Slot {
    Endpoint endpoint;
    mutable std::mutex mu;
    std::condition_variable cv;  // health transitions
    std::shared_ptr<HydraClient> client;  // non-null iff healthy/suspect
    EndpointHealth health = EndpointHealth::kProbing;
    uint64_t generation = 0;
    uint64_t reconnect_attempts = 0;
    uint64_t probes_sent = 0;
    uint64_t probes_failed = 0;
    std::thread manager;
  };

  void ManagerLoop(size_t i);
  bool Stopping();
  void SetHealth(size_t i, EndpointHealth health);
  // Interruptible decorrelated backoff sleep; false when stopping.
  bool BackoffWait(size_t i, uint64_t attempt);

  std::vector<std::unique_ptr<Slot>> slots_;
  ResultHandler on_result_;
  HealthHandler on_health_;
  double probe_ms_ = 0;
  uint64_t backoff_base_us_ = 0;
  uint64_t backoff_cap_us_ = 0;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
};

}  // namespace hydra

#endif  // HYDRA_NET_CONN_POOL_H_
