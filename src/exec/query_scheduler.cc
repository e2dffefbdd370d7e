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

namespace {

// Queries admitted at once. An index whose Search mutates state (ADS+)
// must never see overlapping calls. Admission is also clamped to the
// pool's pin capacity: more in-flight queries than pages would let the
// per-query floor of one pin overcommit the pool and starve fetches —
// the very failure the budget split exists to rule out. Excess queries
// simply queue.
size_t AdmissionLimit(const Index& index, SeriesProvider* provider,
                      size_t concurrency) {
  if (!index.capabilities().concurrent_queries) return 1;
  if (provider != nullptr) {
    concurrency = std::min<uint64_t>(concurrency,
                                     provider->MaxConcurrentPins());
  }
  return std::max<size_t>(1, concurrency);
}

}  // namespace

ServingSession::ServingSession(const Index& index, SeriesProvider* provider,
                               ServingOptions options)
    : index_(index),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::Global()),
      max_in_flight_(AdmissionLimit(index, provider, options.concurrency)),
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
                        : 1) {
  if (provider == nullptr) return;
  const uint64_t pins = provider->MaxConcurrentPins();
  if (pins != UINT64_MAX) {
    // Split the pool's pin capacity evenly across the admitted queries
    // (max_in_flight_ <= pins, so N * (pins / N) <= pins).
    // Configuration-only, so every query of a session sees the same
    // budget.
    per_query_pin_budget_ = std::max<uint64_t>(1, pins / max_in_flight_);
  }
  // The readahead carve-out is shared the same way. Floored at one page:
  // the pool's own budget gate (storage/buffer_manager.h) is the hard
  // bound, the per-query depth only paces how far ahead each query
  // announces.
  const uint64_t prefetch_pages = provider->MaxPrefetchPages();
  if (prefetch_pages > 0) {
    per_query_prefetch_budget_ =
        std::max<uint64_t>(1, prefetch_pages / max_in_flight_);
  }
}

ServingSession::~ServingSession() {
  std::unique_lock<std::mutex> lock(mu_);
  finished_ = true;
  std::deque<std::shared_ptr<Request>> dropped;
  dropped.swap(pending_);
  space_cv_.notify_all();
  lock.unlock();
  // Never-admitted queries are discarded. Their tickets outlive the
  // session (shared state), so each one is resolved to a TERMINAL typed
  // kUnavailable — a front-end polling ticket.done() must see every
  // accepted query reach a final state, not hang on "query pending"
  // forever — and a sink gets that result.
  for (const std::shared_ptr<Request>& req : dropped) {
    ServedQuery out;
    out.ticket = QueryTicket(req->ticket);
    out.answer = Status::Unavailable(
        "dropped submission: session destroyed before admission");
    req->ticket->Resolve(out.answer);
    if (req->sink) req->sink(std::move(out));
  }
  // Admitted tasks and their sinks reference this object, so the
  // destructor must see them out — and any producer still inside Submit
  // (woken above): waiting on submitters_ keeps the mutex/cvs alive.
  lock.lock();
  results_cv_.wait(lock,
                   [this] { return in_flight_ == 0 && submitters_ == 0; });
}

QueryTicket ServingSession::Submit(std::span<const float> query,
                                   const SearchParams& caller_params,
                                   Sink sink) {
  SearchParams params = caller_params;
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
  std::unique_lock<std::mutex> lock(mu_);
  ++submitters_;
  if (pending_.size() >= queue_capacity_ && !finished_) {
    // Count only submitters actually parked on backpressure: tests wait
    // for blocked_submitters() to rise instead of sleeping and hoping
    // the producer thread got there.
    ++blocked_submitters_;
    space_cv_.wait(lock, [this] {
      return pending_.size() < queue_capacity_ || finished_;
    });
    --blocked_submitters_;
  }
  --submitters_;
  if (finished_) {
    // Shutdown (or Finish) raced this submission: the query is dropped,
    // visibly — the returned ticket is !valid(). A waiting destructor
    // learns the last submitter is gone.
    if (submitters_ == 0) results_cv_.notify_all();
    return QueryTicket();
  }
  auto req = std::make_shared<Request>();
  req->ticket = std::make_shared<QueryTicket::State>();
  req->ticket->id = sink ? next_sink_ticket_++ : next_ticket_++;
  req->query.assign(query.begin(), query.end());
  req->params = std::move(params);
  req->sink = std::move(sink);
  pending_.push_back(req);
  DispatchLocked();
  return QueryTicket(req->ticket);
}

void ServingSession::DispatchLocked() {
  while (in_flight_ < max_in_flight_ && !pending_.empty()) {
    // Opportunistic coalescing: take whatever is ALREADY waiting, up to
    // the window — never wait for more to arrive. The batch fills ONE
    // in-flight slot (its execution holds pins like a single query; see
    // ServingOptions::batch_window), which is also what lets batches
    // form at all: completions free slots one at a time, so a window
    // gated on free slots would collapse to solo serving as soon as the
    // session saturates.
    const size_t take = std::min(batch_window_, pending_.size());
    ++in_flight_;
    space_cv_.notify_all();
    // The pool task holds the requests alive; completion re-enters
    // DispatchLocked, so admission needs no dispatcher thread.
    if (take == 1) {
      std::shared_ptr<Request> req = std::move(pending_.front());
      pending_.pop_front();
      pool_->Submit([this, req] { Serve(req); });
      continue;
    }
    auto batch = std::make_shared<std::vector<std::shared_ptr<Request>>>(
        std::make_move_iterator(pending_.begin()),
        std::make_move_iterator(pending_.begin() + take));
    pending_.erase(pending_.begin(), pending_.begin() + take);
    ++batches_served_;
    coalesced_queries_ += take;
    pool_->Submit([this, batch] { ServeBatch(*batch); });
  }
}

Status ServingSession::ArmDeadline(Request& req) {
  // Armed here with whatever budget is left, not in Search's
  // ResolveCancellation, which would restart the clock at execution
  // time. A front-end that passes its own token (HydraServer arms one
  // at frame receipt) gets no second deadline.
  if (req.params.deadline_ms <= 0 || req.params.cancel != nullptr) {
    return Status::OK();
  }
  const double remaining_ms =
      req.params.deadline_ms - req.submitted.ElapsedSeconds() * 1000.0;
  if (remaining_ms <= 0) {
    return Status::DeadlineExceeded(
        "query deadline expired in the submission queue");
  }
  req.params.cancel = CancellationToken::WithDeadline(remaining_ms);
  return Status::OK();
}

void ServingSession::Serve(const std::shared_ptr<Request>& req) {
  ServedQuery out;
  out.ticket = QueryTicket(req->ticket);
  const Status armed = ArmDeadline(*req);
  if (!armed.ok()) {
    out.answer = armed;
  } else {
    try {
      out.answer = index_.Search(
          std::span<const float>(req->query.data(), req->query.size()),
          req->params, &out.counters);
    } catch (const std::exception& e) {
      // No exception crosses the serving boundary: a throwing search
      // (OOM inside a scan fan-out) becomes a per-query error result.
      out.answer = Status::Internal(e.what());
    } catch (...) {
      out.answer = Status::Internal("unknown exception in Search");
    }
  }
  out.seconds = req->submitted.ElapsedSeconds();
  Complete(std::span<const std::shared_ptr<Request>>(&req, 1),
           std::span<ServedQuery>(&out, 1));
}

void ServingSession::ServeBatch(
    const std::vector<std::shared_ptr<Request>>& reqs) {
  std::vector<ServedQuery> outs(reqs.size());
  // The members that join the index call. A member whose deadline the
  // queue already consumed degrades ALONE: it gets its typed
  // DeadlineExceeded without costing the index a look, and the rest of
  // the batch proceeds.
  std::vector<size_t> live;
  std::vector<BatchQuery> batch;
  for (size_t i = 0; i < reqs.size(); ++i) {
    Request& req = *reqs[i];
    outs[i].ticket = QueryTicket(req.ticket);
    const Status armed = ArmDeadline(req);
    if (!armed.ok()) {
      outs[i].answer = armed;
      outs[i].seconds = req.submitted.ElapsedSeconds();
      continue;
    }
    live.push_back(i);
    batch.push_back(BatchQuery{
        std::span<const float>(req.query.data(), req.query.size()),
        req.params, &outs[i].counters});
  }
  if (!live.empty()) {
    try {
      std::vector<Result<KnnAnswer>> answers =
          index_.BatchSearch(std::span<const BatchQuery>(batch));
      for (size_t m = 0; m < live.size(); ++m) {
        outs[live[m]].answer =
            answers.size() == live.size()
                ? std::move(answers[m])
                : Status::Internal("BatchSearch result count mismatch");
      }
    } catch (const std::exception& e) {
      // No exception crosses the serving boundary (see Serve).
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
  Complete(reqs, outs);
}

void ServingSession::Complete(std::span<const std::shared_ptr<Request>> reqs,
                              std::span<ServedQuery> outs) {
  // The ticket is resolved before the result is delivered, so a thread
  // that sees done() == true reads the final status. Sinks run before
  // the slot is released, so the destructor waits for them too.
  for (ServedQuery& out : outs) out.ticket.state_->Resolve(out.answer);
  for (size_t i = 0; i < outs.size(); ++i) {
    if (reqs[i]->sink) reqs[i]->sink(std::move(outs[i]));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < outs.size(); ++i) {
    if (!reqs[i]->sink) done_.emplace(outs[i].ticket.id(), std::move(outs[i]));
  }
  --in_flight_;  // a batch held one slot
  DispatchLocked();
  // Notified under the lock on purpose: the destructor destroys the cv
  // as soon as it observes in_flight_ == 0, which it can only do after
  // this critical section — a notify after unlock could still be
  // touching the cv then.
  results_cv_.notify_all();
}

std::optional<ServedQuery> ServingSession::Next() {
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

void ServingSession::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_ = true;
  space_cv_.notify_all();
  results_cv_.notify_all();  // under the lock: see Complete()
}

size_t ServingSession::blocked_submitters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocked_submitters_;
}

ServingStats ServingSession::stats() const {
  ServingStats s;
  s.concurrency = max_in_flight_;
  s.queue_capacity = queue_capacity_;
  s.batch_window = batch_window_;
  s.per_query_pin_budget = per_query_pin_budget_;
  s.per_query_prefetch_budget = per_query_prefetch_budget_;
  std::lock_guard<std::mutex> lock(mu_);
  s.batches_served = batches_served_;
  s.coalesced_queries = coalesced_queries_;
  s.in_flight = in_flight_;
  return s;
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

}  // namespace hydra
