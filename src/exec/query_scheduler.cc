#include "exec/query_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/options.h"
#include "storage/buffer_manager.h"

namespace hydra {

size_t DefaultBatchWindow() {
  const size_t v = EnvOrSize("HYDRA_BATCH_WINDOW", 1);
  return v == 0 ? 1 : v;
}

QueryScheduler::QueryScheduler(const Index& index,
                               const ServingOptions& options)
    : index_(index),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::Global()),
      // The capability clamp lives here, on the shared mechanism: an
      // index whose Search mutates state (ADS+) must never see
      // overlapping calls no matter how the scheduler was constructed.
      max_in_flight_(index.capabilities().concurrent_queries
                         ? std::max<size_t>(1, options.concurrency)
                         : 1),
      queue_capacity_(options.queue_capacity != 0 ? options.queue_capacity
                                                  : 2 * max_in_flight_),
      // Coalescing requires batched_queries (the index can serve a
      // batch) AND concurrent_queries (its Search is stateless enough
      // that member queries may interleave): an ADS+-style adaptive
      // index is excluded even when a window was requested.
      batch_window_(index.capabilities().batched_queries &&
                            index.capabilities().concurrent_queries
                        ? std::max<size_t>(1, options.batch_window != 0
                                                  ? options.batch_window
                                                  : DefaultBatchWindow())
                        : 1),
      tenant_queue_capacity_(options.tenant_queue_capacity) {}

QueryScheduler::~QueryScheduler() {
  std::unique_lock<std::mutex> lock(mu_);
  finished_ = true;
  // Never-admitted queries are discarded: the consumer of their results
  // is the thread destroying the stream. Their tickets outlive the
  // scheduler (shared state), so each one is resolved to a TERMINAL
  // typed kUnavailable before being dropped — a front-end polling
  // ticket.done() must see every accepted query reach a final state, not
  // hang on "query pending" forever. Admitted tasks reference this
  // object, so the destructor must see them out — and so must any
  // producer still inside Submit (woken by the notify below): waiting on
  // submitters_ keeps the mutex/cvs alive until the last one left.
  for (auto& q : pending_) {
    for (const std::shared_ptr<Request>& req : q) {
      req->ticket->status = Status::Unavailable(
          "dropped submission: scheduler destroyed before admission");
      req->ticket->done.store(true, std::memory_order_release);
    }
    q.clear();
  }
  pending_count_ = 0;
  tenant_pending_.clear();
  space_cv_.notify_all();
  results_cv_.wait(lock,
                   [this] { return in_flight_ == 0 && submitters_ == 0; });
}

QueryTicket QueryScheduler::Submit(std::span<const float> query,
                                   const SearchParams& params,
                                   const SubmitOptions& submit) {
  std::shared_ptr<Request> req;
  std::shared_ptr<QueryTicket::State> state;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++submitters_;
    const auto admissible = [this, &submit] {
      if (pending_count_ >= queue_capacity_) return false;
      if (tenant_queue_capacity_ == 0) return true;
      // Tenant-local backpressure: a tenant at its cap parks here while
      // other tenants' submissions keep flowing past it.
      const auto it = tenant_pending_.find(submit.tenant);
      return it == tenant_pending_.end() ||
             it->second < tenant_queue_capacity_;
    };
    if (!admissible() && !finished_) {
      // Count only submitters actually parked on backpressure: tests
      // wait for blocked_submitters() to rise instead of sleeping and
      // hoping the producer thread got there.
      ++blocked_submitters_;
      space_cv_.wait(lock,
                     [this, &admissible] { return admissible() || finished_; });
      --blocked_submitters_;
    }
    --submitters_;
    if (finished_) {
      // Shutdown (or Finish) raced this submission: the query is
      // dropped, visibly — the returned ticket is !valid(). A waiting
      // destructor learns the last submitter is gone.
      if (submitters_ == 0) results_cv_.notify_all();
      return QueryTicket();
    }
    state = std::make_shared<QueryTicket::State>();
    state->id = next_ticket_++;
    state->tenant = submit.tenant;
    state->priority = submit.priority;
    state->status = Status::Unavailable("query pending");
    req = std::make_shared<Request>();
    req->ticket = state;
    req->query.assign(query.begin(), query.end());
    req->params = params;
    pending_[static_cast<size_t>(submit.priority)].push_back(req);
    ++pending_count_;
    if (tenant_queue_capacity_ != 0) ++tenant_pending_[submit.tenant];
    DispatchLocked();
  }
  return QueryTicket(std::move(state));
}

void QueryScheduler::DispatchLocked() {
  while (in_flight_ < max_in_flight_ && pending_count_ > 0) {
    // Strict-priority admission: always drain the highest non-empty
    // class (interactive > normal > background), FIFO within the class.
    // Starvation of lower classes under sustained higher-class load is
    // the intended policy — the per-tenant caps bound how much any one
    // tenant can keep stuffing into a class.
    auto& queue = [this]() -> std::deque<std::shared_ptr<Request>>& {
      for (size_t c = pending_.size(); c-- > 1;) {
        if (!pending_[c].empty()) return pending_[c];
      }
      return pending_[0];
    }();
    // Opportunistic coalescing: take whatever is ALREADY waiting in that
    // one class, up to the window — never wait for more to arrive, and
    // never mix classes in a batch. The batch fills ONE in-flight slot
    // (its execution holds pins like a single query; see
    // ServingOptions::batch_window), which is also what lets batches
    // form at all: completions free slots one at a time, so a window
    // gated on free slots would collapse to solo serving as soon as the
    // session saturates.
    const size_t take = std::min(batch_window_, queue.size());
    std::vector<std::shared_ptr<Request>> batch;
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      std::shared_ptr<Request> req = std::move(queue.front());
      queue.pop_front();
      --pending_count_;
      if (tenant_queue_capacity_ != 0) {
        const auto it = tenant_pending_.find(req->ticket->tenant);
        if (it != tenant_pending_.end() && --it->second == 0) {
          tenant_pending_.erase(it);
        }
      }
      batch.push_back(std::move(req));
      space_cv_.notify_all();
    }
    ++in_flight_;
    // The pool task holds the requests alive; completion re-enters
    // DispatchLocked, so admission needs no dispatcher thread.
    if (take == 1) {
      std::shared_ptr<Request> req = std::move(batch.front());
      pool_->Submit([this, req] { Serve(req); });
    } else {
      ++batches_served_;
      coalesced_queries_ += take;
      auto reqs = std::make_shared<std::vector<std::shared_ptr<Request>>>(
          std::move(batch));
      pool_->Submit([this, reqs] { ServeBatch(*reqs); });
    }
  }
}

void QueryScheduler::FileResultLocked(ServedQuery out) {
  // Publish the terminal status through the ticket handle first: status
  // is written, then done is released, so any thread that observes
  // done() == true reads the final status. The handle outlives the
  // scheduler (shared state), so a front-end can poll tickets after the
  // stream is gone.
  QueryTicket::State& state = *out.ticket.state_;
  state.status = out.answer.ok() ? Status::OK() : out.answer.status();
  state.done.store(true, std::memory_order_release);
  done_.emplace(state.id, std::move(out));
}

void QueryScheduler::Serve(const std::shared_ptr<Request>& req) {
  ServedQuery out;
  out.ticket = QueryTicket(req->ticket);
  // A deadline bounds the latency a CLIENT observes, so the budget is
  // measured from Submit — queue wait counts against it. Arm the token
  // here with whatever budget is left (not in Search's
  // ResolveCancellation, which would restart the clock at execution
  // time). A query whose budget the queue already consumed fails fast
  // without touching the index or the pool's pages.
  if (req->params.deadline_ms > 0 && req->params.cancel == nullptr) {
    const double waited_ms = req->submitted.ElapsedSeconds() * 1000.0;
    const double remaining_ms = req->params.deadline_ms - waited_ms;
    if (remaining_ms <= 0) {
      out.answer = Status::DeadlineExceeded(
          "query deadline expired in the submission queue");
      out.seconds = req->submitted.ElapsedSeconds();
      std::lock_guard<std::mutex> lock(mu_);
      FileResultLocked(std::move(out));
      --in_flight_;
      DispatchLocked();
      results_cv_.notify_all();
      return;
    }
    req->params.cancel = CancellationToken::WithDeadline(remaining_ms);
  }
  try {
    out.answer = index_.Search(
        std::span<const float>(req->query.data(), req->query.size()),
        req->params, &out.counters);
  } catch (const std::exception& e) {
    // No exception crosses the serving boundary: a throwing search (OOM
    // inside a scan fan-out) becomes a per-query error result.
    out.answer = Status::Internal(e.what());
  } catch (...) {
    out.answer = Status::Internal("unknown exception in Search");
  }
  out.seconds = req->submitted.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    FileResultLocked(std::move(out));
    --in_flight_;
    DispatchLocked();
    // Notified under the lock on purpose: the destructor destroys the cv
    // as soon as it observes in_flight_ == 0, which it can only do after
    // this critical section — a notify after unlock could still be
    // touching the cv then.
    results_cv_.notify_all();
  }
}

void QueryScheduler::ServeBatch(
    const std::vector<std::shared_ptr<Request>>& reqs) {
  const size_t n = reqs.size();
  std::vector<ServedQuery> outs(n);
  // Members that actually join the index call. A member whose deadline
  // the queue already consumed degrades ALONE — it gets its typed
  // DeadlineExceeded without costing the index a look, and the rest of
  // the batch proceeds (same per-query deadline semantics as Serve).
  std::vector<size_t> live;
  live.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Request& req = *reqs[i];
    outs[i].ticket = QueryTicket(req.ticket);
    if (req.params.deadline_ms > 0 && req.params.cancel == nullptr) {
      const double waited_ms = req.submitted.ElapsedSeconds() * 1000.0;
      const double remaining_ms = req.params.deadline_ms - waited_ms;
      if (remaining_ms <= 0) {
        outs[i].answer = Status::DeadlineExceeded(
            "query deadline expired in the submission queue");
        outs[i].seconds = req.submitted.ElapsedSeconds();
        continue;
      }
      req.params.cancel = CancellationToken::WithDeadline(remaining_ms);
    }
    live.push_back(i);
  }
  if (!live.empty()) {
    std::vector<BatchQuery> batch;
    batch.reserve(live.size());
    for (size_t i : live) {
      batch.push_back(BatchQuery{
          std::span<const float>(reqs[i]->query.data(),
                                 reqs[i]->query.size()),
          reqs[i]->params, &outs[i].counters});
    }
    try {
      std::vector<Result<KnnAnswer>> answers =
          index_.BatchSearch(std::span<const BatchQuery>(batch));
      if (answers.size() != batch.size()) {
        for (size_t i : live) {
          outs[i].answer =
              Status::Internal("BatchSearch result count mismatch");
        }
      } else {
        for (size_t m = 0; m < live.size(); ++m) {
          outs[live[m]].answer = std::move(answers[m]);
        }
      }
    } catch (const std::exception& e) {
      // No exception crosses the serving boundary (see Serve). A
      // throwing batch fails its members as typed errors; deadline
      // expiries already filed above are untouched.
      for (size_t i : live) outs[i].answer = Status::Internal(e.what());
    } catch (...) {
      for (size_t i : live) {
        outs[i].answer = Status::Internal("unknown exception in BatchSearch");
      }
    }
    for (size_t i : live) {
      outs[i].seconds = reqs[i]->submitted.ElapsedSeconds();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      FileResultLocked(std::move(outs[i]));
    }
    --in_flight_;  // the whole batch held one slot
    DispatchLocked();
    // Under the lock for the same destructor-lifetime reason as Serve.
    results_cv_.notify_all();
  }
}

std::optional<ServedQuery> QueryScheduler::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  results_cv_.wait(lock, [this] {
    return done_.count(next_result_) != 0 ||
           (finished_ && next_result_ >= next_ticket_);
  });
  auto it = done_.find(next_result_);
  if (it == done_.end()) return std::nullopt;  // drained
  ServedQuery out = std::move(it->second);
  done_.erase(it);
  ++next_result_;
  return out;
}

void QueryScheduler::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_ = true;
  space_cv_.notify_all();
  results_cv_.notify_all();  // under the lock: see Serve()
}

size_t QueryScheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

size_t QueryScheduler::blocked_submitters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocked_submitters_;
}

uint64_t QueryScheduler::batches_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_served_;
}

uint64_t QueryScheduler::coalesced_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_queries_;
}

namespace {
const std::string& EmptyTenant() {
  static const std::string empty;
  return empty;
}
}  // namespace

uint64_t QueryTicket::id() const {
  return state_ != nullptr ? state_->id : QueryScheduler::kDropped;
}

const std::string& QueryTicket::tenant() const {
  return state_ != nullptr ? state_->tenant : EmptyTenant();
}

QueryPriority QueryTicket::priority() const {
  return state_ != nullptr ? state_->priority : QueryPriority::kNormal;
}

bool QueryTicket::done() const {
  return state_ != nullptr && state_->done.load(std::memory_order_acquire);
}

Status QueryTicket::status() const {
  if (state_ == nullptr) {
    return Status::Unavailable("dropped submission: no result will appear");
  }
  if (!state_->done.load(std::memory_order_acquire)) {
    return Status::Unavailable("query pending");
  }
  return state_->status;
}

ServingOptions ServingSession::NegotiateOptions(SeriesProvider* provider,
                                                ServingOptions options) {
  // (The concurrent_queries capability clamp is QueryScheduler's own
  // job; only the storage negotiation happens here.)
  if (provider != nullptr) {
    const uint64_t pins = provider->MaxConcurrentPins();
    // Admission itself is clamped to the pin capacity: more in-flight
    // queries than pages would let the per-query floor of one pin
    // overcommit the pool and starve fetches — the very failure the
    // budget split exists to rule out. Excess queries simply queue.
    if (pins != UINT64_MAX && options.concurrency > pins) {
      options.concurrency = static_cast<size_t>(pins);
    }
  }
  return options;
}

ServingSession::ServingSession(const Index& index, SeriesProvider* provider,
                               ServingOptions options)
    : scheduler_(index, NegotiateOptions(provider, options)) {
  if (provider != nullptr) {
    const uint64_t pins = provider->MaxConcurrentPins();
    if (pins != UINT64_MAX) {
      // The negotiation: split the pool's pin capacity evenly across the
      // admitted queries (concurrency <= pins after the clamp above, so
      // the combined demand of N queries is N * (pins / N) <= pins and
      // overlapping queries can never starve each other of pins).
      // Configuration-only, so every query of a session sees the same
      // budget.
      per_query_pin_budget_ =
          std::max<uint64_t>(1, pins / scheduler_.concurrency());
    }
    // The readahead carve-out is shared the same way. Floored at one
    // page: the pool's own budget gate (storage/buffer_manager.h) is the
    // hard bound, the per-query depth only paces how far ahead each
    // query announces.
    const uint64_t prefetch_pages = provider->MaxPrefetchPages();
    if (prefetch_pages > 0) {
      per_query_prefetch_budget_ =
          std::max<uint64_t>(1, prefetch_pages / scheduler_.concurrency());
    }
  }
}

QueryTicket ServingSession::Submit(std::span<const float> query,
                                   const SearchParams& caller_params,
                                   const SubmitOptions& submit) {
  SearchParams params = caller_params;
  params.concurrency = scheduler_.concurrency();
  if (per_query_pin_budget_ != 0) {
    params.pin_budget = params.pin_budget == 0
                            ? per_query_pin_budget_
                            : std::min(params.pin_budget,
                                       per_query_pin_budget_);
  }
  // Clamp the query's effective readahead (explicit depth or the
  // HYDRA_PREFETCH default) to its share of the pool's prefetch budget.
  // Resolved here so the clamp also binds env-driven depths; a depth of 0
  // (prefetch off) stays 0.
  if (per_query_prefetch_budget_ != 0) {
    const size_t resolved = ResolvePrefetchDepth(params);
    if (resolved != 0) {
      params.prefetch_depth = static_cast<size_t>(std::min<uint64_t>(
          resolved, per_query_prefetch_budget_));
    }
  }
  return scheduler_.Submit(query, params, submit);
}

ServingStats ServingSession::stats() const {
  ServingStats s;
  s.concurrency = scheduler_.concurrency();
  s.queue_capacity = scheduler_.queue_capacity();
  s.batch_window = scheduler_.batch_window();
  s.batches_served = scheduler_.batches_served();
  s.coalesced_queries = scheduler_.coalesced_queries();
  s.per_query_pin_budget = per_query_pin_budget_;
  s.per_query_prefetch_budget = per_query_prefetch_budget_;
  s.in_flight = scheduler_.in_flight();
  return s;
}

}  // namespace hydra
