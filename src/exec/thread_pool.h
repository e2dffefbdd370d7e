#ifndef HYDRA_EXEC_THREAD_POOL_H_
#define HYDRA_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hydra {

// The thread pool behind every parallel path: one FIFO queue under one
// mutex, popped front-first by every worker. Serving hands it one task
// per admitted query or coalesced batch, ShardedIndex one per shard. Its
// finest tasks come from a refine's fan-out (LeafScanner::RefineFannedOut
// in index/leaf_scanner.h, behind every tree index's leaf refine, VA+file
// and SRS): each block of num_threads * 16 candidates forks
// num_threads - 1 tasks of about 16 candidates and joins them before the
// next block forks, tens to a hundred rounds a query for an exact DSTree
// search over 1,000-series leaves. So a refine never has more than
// num_threads - 1 tasks queued, and whichever worker is idle takes the
// next one: there is no per-worker backlog for stealing to balance
// (docs/ARCHITECTURE.md, "Thread pool", times these rounds).
//
// Thread safety: Submit may be called from any thread, including from
// inside a running task. The destructor drains every queued task and
// then joins the workers; tasks submitted during shutdown still run.
// Tasks MAY block waiting for other tasks of the same pool through
// TaskGroup::Wait: the wait helps — it pops and runs queued tasks OF ITS
// OWN GROUP on the waiting thread until the group drains — so nested
// fan-outs (a whole-query task that internally shards its leaf scans,
// see exec/query_scheduler.h) cannot deadlock even a one-worker pool.
class ThreadPool {
 public:
  // Spawns max(1, num_threads) workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Enqueues a task at the back of the queue. `tag` identifies the
  // submitter's task group for targeted helping (see TryRunOne).
  void Submit(std::function<void()> task, const void* tag = nullptr);

  // Takes the newest queued task submitted under `tag` and runs it on the
  // calling thread; false when none is queued. This is the helping
  // primitive behind TaskGroup::Wait, which must run its OWN shards while
  // waiting, not an arbitrary queued task (inlining, say, a whole other
  // serving query would bloat the waiter's latency by that query's full
  // runtime).
  bool TryRunOne(const void* tag);

  // Process-wide pool shared by every query. Sized once, on first use, to
  // HYDRA_THREADS if set, else std::thread::hardware_concurrency().
  // SearchParams::num_threads shards work independently of this size, so
  // query results never depend on how many workers exist.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  // mu_ guards tasks_ and stop_; workers sleep on cv_.
  std::mutex mu_;
  std::condition_variable cv_;
  // Each task carries its submitter's helping tag (nullptr: untagged).
  std::deque<std::pair<std::function<void()>, const void*>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// Tracks a batch of tasks submitted to a pool and lets the caller block
// until all of them finished. The first exception thrown by any task is
// captured and rethrown from Wait() (the remaining tasks still run to
// completion, so the pool is left clean).
//
// Waiting helps: while its tasks are pending, the waiter runs queued
// tasks OF THIS GROUP (ThreadPool::TryRunOne with the group as tag)
// instead of sleeping, and only blocks once none of its tasks are queued
// — at which point the remainder are mid-execution on workers and
// completion is guaranteed. This makes nested waits (a pool task waiting
// on its own subtasks) deadlock-free: a group's pending tasks are always
// either queued under its tag (the waiter runs them) or running (their
// completion notifies), never parked behind the waiter. Restricting help
// to the own group also keeps the waiter's latency its own — it can
// never get stuck inlining an unrelated long task (e.g. a whole other
// serving query) that happened to be queued.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  // Blocks until every task finished, like Wait(), but never throws: a
  // captured exception that Wait() was not called for is dropped (a
  // rethrow from a destructor would std::terminate). Call Wait() before
  // destruction when task failures must be observed.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> task);

  // Blocks until every Run() task completed; rethrows the first captured
  // exception. Safe to call repeatedly (later calls return immediately).
  void Wait();

 private:
  // The helping drain shared by Wait() and the destructor: runs this
  // group's queued tasks until none is left, then sleeps until pending_
  // reaches 0 (without touching first_error_).
  void HelpUntilDrained();

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace hydra

#endif  // HYDRA_EXEC_THREAD_POOL_H_
