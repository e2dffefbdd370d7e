#include "net/conn_pool.h"

#include <utility>

#include "common/backoff.h"
#include "common/options.h"

namespace hydra {

Result<std::vector<Endpoint>> ParseEndpoints(const std::string& csv) {
  std::vector<Endpoint> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string part = csv.substr(start, comma - start);
    start = comma + 1;
    if (part.empty()) continue;
    const size_t colon = part.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= part.size()) {
      return Status::InvalidArgument("endpoint not host:port: '" + part + "'");
    }
    unsigned long port = 0;  // NOLINT(runtime/int)
    try {
      port = std::stoul(part.substr(colon + 1));
    } catch (...) {
      return Status::InvalidArgument("endpoint port not numeric: '" + part +
                                     "'");
    }
    if (port == 0 || port > 65535) {
      return Status::InvalidArgument("endpoint port out of range: '" + part +
                                     "'");
    }
    out.push_back(Endpoint{part.substr(0, colon), static_cast<uint16_t>(port)});
  }
  if (out.empty()) return Status::InvalidArgument("empty endpoint list");
  return out;
}

std::string EndpointToString(const Endpoint& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

const char* EndpointHealthName(EndpointHealth health) {
  switch (health) {
    case EndpointHealth::kProbing:
      return "probing";
    case EndpointHealth::kHealthy:
      return "healthy";
    case EndpointHealth::kSuspect:
      return "suspect";
    case EndpointHealth::kDown:
      return "down";
  }
  return "unknown";
}

ConnectionPool::ConnectionPool(std::vector<Endpoint> endpoints,
                               const ConnPoolOptions& opts,
                               ResultHandler on_result,
                               HealthHandler on_health)
    : on_result_(std::move(on_result)), on_health_(std::move(on_health)) {
  probe_ms_ = ResolveOptionDouble(opts.probe_ms, "HYDRA_PROBE_MS", 100.0);
  backoff_base_us_ =
      opts.backoff_base_us != 0 ? opts.backoff_base_us : uint64_t{1000};
  backoff_cap_us_ =
      opts.backoff_cap_us != 0 ? opts.backoff_cap_us : uint64_t{250000};
  slots_.reserve(endpoints.size());
  for (Endpoint& endpoint : endpoints) {
    auto slot = std::make_unique<Slot>();
    slot->endpoint = std::move(endpoint);
    slots_.push_back(std::move(slot));
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i]->manager = std::thread([this, i] { ManagerLoop(i); });
  }
  prober_ = std::thread([this] { ProbeLoop(); });
}

ConnectionPool::~ConnectionPool() { Stop(); }

std::shared_ptr<HydraClient> ConnectionPool::Lease(size_t i) const {
  std::lock_guard<std::mutex> lock(slots_[i]->mu);
  return slots_[i]->client;
}

EndpointHealth ConnectionPool::health(size_t i) const {
  std::lock_guard<std::mutex> lock(slots_[i]->mu);
  return slots_[i]->health;
}

EndpointStatus ConnectionPool::endpoint_status(size_t i) const {
  Slot& slot = *slots_[i];
  std::lock_guard<std::mutex> lock(slot.mu);
  EndpointStatus out;
  out.endpoint = slot.endpoint;
  out.health = slot.health;
  out.generation = slot.generation;
  out.reconnect_attempts = slot.reconnect_attempts;
  out.probes_sent = slot.probes_sent;
  out.probes_failed = slot.probes_failed;
  return out;
}

void ConnectionPool::SetHealth(size_t i, EndpointHealth health) {
  Slot& slot = *slots_[i];
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.health == health) return;
    slot.health = health;
  }
  slot.cv.notify_all();
  // Callback without the slot lock: handlers may call back into the
  // pool (Lease, ReportSuspect, ...) freely.
  if (on_health_) on_health_(i, health);
}

void ConnectionPool::ReportSuspect(size_t i) {
  Slot& slot = *slots_[i];
  bool demoted = false;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.health == EndpointHealth::kHealthy) {
      slot.health = EndpointHealth::kSuspect;
      demoted = true;
    }
  }
  if (demoted) {
    slot.cv.notify_all();
    if (on_health_) on_health_(i, EndpointHealth::kSuspect);
  }
}

void ConnectionPool::ReportHealthy(size_t i) {
  Slot& slot = *slots_[i];
  bool promoted = false;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.health == EndpointHealth::kSuspect) {
      slot.health = EndpointHealth::kHealthy;
      promoted = true;
    }
  }
  if (promoted) {
    slot.cv.notify_all();
    if (on_health_) on_health_(i, EndpointHealth::kHealthy);
  }
}

bool ConnectionPool::WaitHealthy(size_t i, std::chrono::milliseconds timeout) {
  Slot& slot = *slots_[i];
  std::unique_lock<std::mutex> lock(slot.mu);
  return slot.cv.wait_for(lock, timeout, [&slot] {
    return slot.health == EndpointHealth::kHealthy;
  });
}

bool ConnectionPool::WaitAnyHealthy(std::chrono::milliseconds timeout) {
  // Poll across slots (each has its own lock); the granularity only
  // affects a cold-start wait, never the serving path.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (health(i) == EndpointHealth::kHealthy) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool ConnectionPool::BackoffWait(size_t i, uint64_t attempt) {
  // The shared backoff schedule keyed by endpoint, so a fleet of
  // reconnecting endpoints decorrelates — but interruptible, so Stop()
  // never waits out a backoff.
  const uint64_t delay =
      BackoffDelayUs(backoff_base_us_, backoff_cap_us_, i, attempt);
  std::unique_lock<std::mutex> lock(stop_mu_);
  return !stop_cv_.wait_for(lock, std::chrono::microseconds(delay),
                            [this] { return stopping_; });
}

void ConnectionPool::ManagerLoop(size_t i) {
  Slot& slot = *slots_[i];
  uint64_t attempt = 0;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stopping_) return;
    }
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      ++slot.reconnect_attempts;
    }
    Result<std::unique_ptr<HydraClient>> connected =
        HydraClient::Connect(slot.endpoint.host, slot.endpoint.port);
    if (!connected.ok()) {
      SetHealth(i, EndpointHealth::kDown);
      if (!BackoffWait(i, attempt++)) return;
      SetHealth(i, EndpointHealth::kProbing);
      continue;
    }
    attempt = 0;
    std::shared_ptr<HydraClient> client = std::move(connected).value();
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.client = client;
      ++slot.generation;
    }
    // Stop() finishes the clients it finds published. One published
    // after Stop() looked would wait in Next() forever, so the manager
    // finishes it itself: either Stop() saw the client or this check
    // sees stopping_ (Finish is idempotent).
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      stopping = stopping_;
    }
    if (stopping) client->Finish();
    SetHealth(i, EndpointHealth::kHealthy);
    // Drain until the connection dies (or Stop() finishes it). Next()
    // hands back every result — including the typed kUnavailable batch
    // FailConnection files for in-flight queries on a dying connection
    // — then nullopt. Delivering those BEFORE the slot's client is
    // replaced is what keeps (endpoint, request_id) unique among
    // outstanding attempts for the replica set's routing table.
    while (std::optional<ServedQuery> served = client->Next()) {
      if (on_result_) on_result_(i, std::move(*served));
    }
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.client = nullptr;
    }
    SetHealth(i, EndpointHealth::kDown);
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stopping_) return;
    }
    if (!BackoffWait(i, attempt++)) return;
    SetHealth(i, EndpointHealth::kProbing);
  }
}

void ConnectionPool::ProbeLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(
              lock,
              std::chrono::microseconds(
                  static_cast<int64_t>(probe_ms_ * 1000.0) + 1),
              [this] { return stopping_; })) {
        return;
      }
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      std::shared_ptr<HydraClient> client = Lease(i);
      if (client == nullptr) continue;
      {
        std::lock_guard<std::mutex> lock(slots_[i]->mu);
        ++slots_[i]->probes_sent;
      }
      // StatsRequest doubles as the protocol ping: a reply proves the
      // server end-to-end (reader thread, session, pump) is alive.
      const Status ping = client->Ping();
      if (ping.ok()) {
        ReportHealthy(i);
      } else {
        std::lock_guard<std::mutex> lock(slots_[i]->mu);
        ++slots_[i]->probes_failed;
        // The transport is broken: the manager's drain loop observes
        // the same failure and demotes to kDown; nothing more to do.
      }
    }
  }
}

void ConnectionPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopping_) {
      // Already stopped (idempotent).
    }
    stopping_ = true;
  }
  stop_cv_.notify_all();
  // Finishing a live client closes its submission side; the server
  // drains what is in flight and answers kFinish, so the manager's
  // drain loop delivers every outstanding result and exits.
  for (auto& slot : slots_) {
    std::shared_ptr<HydraClient> client;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      client = slot->client;
    }
    if (client) client->Finish();
  }
  for (auto& slot : slots_) {
    if (slot->manager.joinable()) slot->manager.join();
  }
  if (prober_.joinable()) prober_.join();
  // Drop the last leases so the clients tear down (their destructors
  // wait for pending tickets, which the drain above already resolved).
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->client = nullptr;
  }
}

}  // namespace hydra
