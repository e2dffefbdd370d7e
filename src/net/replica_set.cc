#include "net/replica_set.h"

#include <cassert>
#include <utility>


namespace hydra {

const char* ReplicaPolicyName(ReplicaPolicy policy) {
  switch (policy) {
    case ReplicaPolicy::kPrimaryFailover:
      return "primary-failover";
    case ReplicaPolicy::kRoundRobin:
      return "round-robin";
    case ReplicaPolicy::kHedged:
      return "hedged";
  }
  return "unknown";
}

bool RetrySafeOnReplica(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kIoError ||
         code == StatusCode::kDataCorruption;
}

Result<std::unique_ptr<ReplicaSetBackend>> ReplicaSetBackend::Connect(
    std::vector<Endpoint> endpoints, const ReplicaSetOptions& options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("replica set needs at least one endpoint");
  }
  std::unique_ptr<ReplicaSetBackend> set(new ReplicaSetBackend());
  set->policy_ = options.policy;
  set->hedge_ms_ = options.hedge_ms != 0 ? options.hedge_ms : 20.0;
  set->retry_budget_ =
      options.retry_budget != 0 ? options.retry_budget : uint64_t{2};
  ReplicaSetBackend* self = set.get();
  set->pool_ = std::make_unique<ConnectionPool>(
      std::move(endpoints), options.pool,
      [self](size_t endpoint, ServedQuery served) {
        self->OnResult(endpoint, std::move(served));
      },
      [self](size_t endpoint, EndpointHealth health) {
        self->OnHealth(endpoint, health);
      });
  set->maint_ = std::thread([self] { self->MaintLoop(); });
  return set;
}

ReplicaSetBackend::~ReplicaSetBackend() {
  Finish();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Parked requests are waiting for a replica that will never come
    // (we are tearing the pool down): resolve them typed now.
    for (uint64_t id : parked_) {
      auto it = requests_.find(id);
      if (it == requests_.end() || it->second->resolved) continue;
      it->second->parked = false;
      ResolveErrorLocked(it->second,
                         Status::Unavailable("replica set shut down"));
    }
    parked_.clear();
  }
  maint_cv_.notify_all();
  results_cv_.notify_all();
  if (maint_.joinable()) maint_.join();
  // Stop drains every in-flight attempt through OnResult (served or
  // typed), so after this every accepted ticket has resolved. It must
  // run before reset(): the unique_ptr nulls its pointer before
  // deleting, and OnResult reaches back through pool_.
  pool_->Stop();
  pool_.reset();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, req] : requests_) {
    (void)id;
    assert(req->resolved && "ReplicaSetBackend left a ticket unresolved");
  }
}

double ReplicaSetBackend::RemainingDeadlineMsLocked(const Request& req) const {
  if (req.params.deadline_ms <= 0) return -1.0;  // no deadline
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - req.submitted)
          .count();
  return req.params.deadline_ms - elapsed_ms;
}

bool ReplicaSetBackend::TryDispatchLocked(const std::shared_ptr<Request>& req,
                                          size_t exclude,
                                          bool check_deadline) {
  if (stopping_) return false;
  double remaining_ms = RemainingDeadlineMsLocked(*req);
  if (req->params.deadline_ms > 0 && remaining_ms <= 0) {
    if (check_deadline) {
      ResolveErrorLocked(
          req, Status::DeadlineExceeded("deadline spent across " +
                                        std::to_string(req->live.size() +
                                                       1) +
                                        " replica attempts"));
      return true;
    }
    return false;  // hedging a spent budget is pointless
  }
  const size_t n = pool_->size();
  // Candidate order is the routing policy; the failed endpoint is only
  // eligible on the second pass (better a same-replica retry than none
  // when it is the lone survivor).
  const size_t start =
      policy_ == ReplicaPolicy::kPrimaryFailover ? 0 : rr_next_++ % n;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t step = 0; step < n; ++step) {
      const size_t i = (start + step) % n;
      if (pass == 0 && i == exclude) continue;
      if (pass == 1 && i != exclude) continue;
      bool carrying = false;
      for (const Request::Attempt& attempt : req->live) {
        if (attempt.endpoint == i) carrying = true;
      }
      if (carrying) continue;
      const EndpointHealth health = pool_->health(i);
      if (health != EndpointHealth::kHealthy &&
          health != EndpointHealth::kSuspect) {
        continue;
      }
      std::shared_ptr<HydraClient> client = pool_->Lease(i);
      if (client == nullptr) continue;
      SearchParams attempt_params = req->params;
      if (attempt_params.deadline_ms > 0) {
        // The retry budget is charged against the ORIGINAL deadline: a
        // re-submission only gets what is left of it.
        attempt_params.deadline_ms = remaining_ms;
      }
      QueryTicket ticket =
          client->Submit(std::span<const float>(req->query.data(),
                                                req->query.size()),
                         attempt_params, req->route);
      if (!ticket.valid()) continue;  // endpoint died under us; next
      attempt_index_[{i, ticket.id()}] = req->id;
      Request::Attempt attempt;
      attempt.endpoint = i;
      attempt.client = std::move(client);
      attempt.ticket = std::move(ticket);
      req->live.push_back(std::move(attempt));
      if (req->first_endpoint == SIZE_MAX) req->first_endpoint = i;
      return true;
    }
  }
  return false;
}

void ReplicaSetBackend::ResolveLocked(const std::shared_ptr<Request>& req,
                                      ServedQuery served) {
  req->resolved = true;
  req->ticket->status =
      served.answer.ok() ? Status::OK() : served.answer.status();
  req->ticket->done.store(true, std::memory_order_release);
  ServedQuery out;
  out.ticket = QueryTicket(req->ticket);
  out.answer = std::move(served.answer);
  out.counters = served.counters;
  // The latency a replica-set caller observes: submission to
  // resolution, every retry and hedge included.
  out.seconds =
      std::chrono::duration<double>(Clock::now() - req->submitted).count();
  done_.emplace(req->id, std::move(out));
  results_cv_.notify_all();
  MaybeEraseLocked(req);
}

void ReplicaSetBackend::ResolveErrorLocked(const std::shared_ptr<Request>& req,
                                           const Status& error) {
  // Outstanding attempts are moot once the request has a terminal
  // status: fire wire-level cancellation, drop their results on
  // arrival.
  for (const Request::Attempt& attempt : req->live) {
    attempt.client->Cancel(attempt.ticket);
  }
  ServedQuery served;
  served.answer = Result<KnnAnswer>(error);
  ResolveLocked(req, std::move(served));
}

void ReplicaSetBackend::MaybeEraseLocked(
    const std::shared_ptr<Request>& req) {
  if (req->resolved && req->live.empty()) requests_.erase(req->id);
}

void ReplicaSetBackend::OnResult(size_t endpoint, ServedQuery served) {
  std::unique_lock<std::mutex> lock(mu_);
  auto index_it = attempt_index_.find({endpoint, served.ticket.id()});
  if (index_it == attempt_index_.end()) return;  // not one of ours
  const uint64_t id = index_it->second;
  attempt_index_.erase(index_it);
  auto req_it = requests_.find(id);
  if (req_it == requests_.end()) return;
  std::shared_ptr<Request> req = req_it->second;
  for (auto it = req->live.begin(); it != req->live.end(); ++it) {
    if (it->endpoint == endpoint) {
      req->live.erase(it);
      break;
    }
  }
  if (req->resolved) {
    // A hedge loser (or an attempt cancelled at resolution) reporting
    // in after the race was decided: exactly one result per ticket
    // reaches the ordered stream, so this one is dropped.
    MaybeEraseLocked(req);
    return;
  }
  const Status status =
      served.answer.ok() ? Status::OK() : served.answer.status();
  if (status.ok()) {
    pool_->ReportHealthy(endpoint);
    if (endpoint != req->first_endpoint) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
    ResolveLocked(req, std::move(served));
    for (const Request::Attempt& attempt : req->live) {
      attempt.client->Cancel(attempt.ticket);
    }
    return;
  }
  if (RetrySafeOnReplica(status.code())) pool_->ReportSuspect(endpoint);
  req->last_error = status;
  if (!req->live.empty()) return;  // a hedge attempt is still racing
  if (RetrySafeOnReplica(status.code()) && req->retries_left > 0 &&
      !stopping_) {
    --req->retries_left;
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (TryDispatchLocked(req, endpoint, /*check_deadline=*/true)) return;
    if (req->resolved) return;  // deadline fired inside dispatch
    if (req->params.deadline_ms > 0) {
      // No live replica right now but budget remains: park until the
      // pool reports one healthy or the deadline expires.
      req->parked = true;
      parked_.push_back(req->id);
      maint_cv_.notify_all();
      return;
    }
  }
  ResolveErrorLocked(req, status);
}

void ReplicaSetBackend::OnHealth(size_t endpoint, EndpointHealth health) {
  (void)endpoint;
  // A replica turning healthy may unblock parked requests; the
  // maintenance thread owns that dispatch.
  if (health == EndpointHealth::kHealthy) maint_cv_.notify_all();
}

QueryTicket ReplicaSetBackend::Submit(std::span<const float> query,
                                      const SearchParams& params,
                                      const SubmitOptions& submit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || stopping_) return QueryTicket();
  auto req = std::make_shared<Request>();
  req->id = next_id_++;
  req->ticket = std::make_shared<QueryTicket::State>();
  req->ticket->id = req->id;
  req->ticket->tenant = submit.tenant;
  req->ticket->priority = submit.priority;
  req->ticket->status = Status::Unavailable("query pending");
  req->query.assign(query.begin(), query.end());
  req->params = params;
  req->params.cancel = nullptr;  // tokens never cross the wire
  req->route = submit;
  req->submitted = Clock::now();
  req->retries_left = retry_budget_;
  requests_.emplace(req->id, req);
  if (!TryDispatchLocked(req, /*exclude=*/SIZE_MAX,
                         /*check_deadline=*/true) &&
      !req->resolved) {
    if (req->params.deadline_ms > 0) {
      req->parked = true;
      parked_.push_back(req->id);
      maint_cv_.notify_all();
    } else {
      ResolveErrorLocked(req, Status::Unavailable("no live replica"));
    }
  }
  if (policy_ == ReplicaPolicy::kHedged && !req->resolved && !req->parked) {
    req->hedge_due =
        req->submitted +
        std::chrono::microseconds(static_cast<int64_t>(hedge_ms_ * 1000.0));
    hedge_queue_.push_back(req->id);
    maint_cv_.notify_all();
  }
  return QueryTicket(req->ticket);
}

std::optional<ServedQuery> ReplicaSetBackend::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  results_cv_.wait(lock, [this] {
    return done_.count(next_result_) != 0 ||
           (finished_ && next_result_ >= next_id_);
  });
  auto it = done_.find(next_result_);
  if (it == done_.end()) return std::nullopt;
  ServedQuery out = std::move(it->second);
  done_.erase(it);
  ++next_result_;
  return out;
}

void ReplicaSetBackend::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  results_cv_.notify_all();
  maint_cv_.notify_all();
}

ServingStats ReplicaSetBackend::stats() const {
  ServingStats out;
  // One live replica's server-session snapshot stands for the set (the
  // replicas share a configuration by construction).
  for (size_t i = 0; i < pool_->size(); ++i) {
    std::shared_ptr<HydraClient> client = pool_->Lease(i);
    if (client == nullptr) continue;
    Result<ServingStats> snapshot = client->TryStats();
    if (snapshot.ok()) {
      out = snapshot.value();
      break;
    }
  }
  out.retries += retries_.load(std::memory_order_relaxed);
  out.failovers += failovers_.load(std::memory_order_relaxed);
  out.hedges += hedges_.load(std::memory_order_relaxed);
  return out;
}

void ReplicaSetBackend::MaintLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    // Next scheduled duty: the earliest pending hedge and the earliest
    // parked-request deadline.
    bool have_wake = false;
    Clock::time_point wake;
    auto consider = [&](Clock::time_point t) {
      if (!have_wake || t < wake) {
        wake = t;
        have_wake = true;
      }
    };
    for (uint64_t id : hedge_queue_) {
      auto it = requests_.find(id);
      if (it == requests_.end() || it->second->resolved ||
          it->second->hedged) {
        continue;
      }
      consider(it->second->hedge_due);
      break;  // hedge_due is monotonic in submission order
    }
    for (uint64_t id : parked_) {
      auto it = requests_.find(id);
      if (it == requests_.end() || it->second->resolved) continue;
      if (it->second->params.deadline_ms > 0) {
        consider(it->second->submitted +
                 std::chrono::microseconds(static_cast<int64_t>(
                     it->second->params.deadline_ms * 1000.0)));
      }
    }
    if (have_wake) {
      maint_cv_.wait_until(lock, wake);
    } else {
      maint_cv_.wait(lock);
    }
    if (stopping_) return;
    const Clock::time_point now = Clock::now();
    // Launch due hedges: a request still waiting on its single live
    // attempt past hedge_due gets a backup on a different replica.
    while (!hedge_queue_.empty()) {
      auto it = requests_.find(hedge_queue_.front());
      if (it == requests_.end() || it->second->resolved ||
          it->second->hedged || it->second->parked) {
        hedge_queue_.pop_front();
        continue;
      }
      std::shared_ptr<Request> req = it->second;
      if (req->hedge_due > now) break;
      hedge_queue_.pop_front();
      req->hedged = true;
      if (req->live.size() == 1 &&
          TryDispatchLocked(req, req->live[0].endpoint,
                            /*check_deadline=*/false)) {
        hedges_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Parked requests: dispatch to any replica that came back, expire
    // the ones whose deadline ran out while waiting.
    for (auto it = parked_.begin(); it != parked_.end();) {
      auto req_it = requests_.find(*it);
      if (req_it == requests_.end() || req_it->second->resolved ||
          !req_it->second->parked) {
        it = parked_.erase(it);
        continue;
      }
      std::shared_ptr<Request> req = req_it->second;
      if (RemainingDeadlineMsLocked(*req) <= 0) {
        req->parked = false;
        ResolveErrorLocked(
            req, Status::DeadlineExceeded(
                     "deadline expired waiting for a live replica"));
        it = parked_.erase(it);
        continue;
      }
      if (TryDispatchLocked(req, /*exclude=*/SIZE_MAX,
                            /*check_deadline=*/true)) {
        req->parked = false;
        it = parked_.erase(it);
        continue;
      }
      ++it;
    }
  }
}

}  // namespace hydra
