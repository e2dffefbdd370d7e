#ifndef HYDRA_EXEC_THREAD_POOL_H_
#define HYDRA_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hydra {

// Work-stealing thread pool behind every parallel query path (see the
// fan-out of index/leaf_scanner.h). One deque per worker: a worker pops its own
// queue from the front and, when empty, steals from the back of the other
// queues, so a queue loaded with skewed work drains across the whole pool.
//
// Thread safety: Submit/SubmitTo may be called from any thread, including
// from inside a running task. The destructor drains every queued task and
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

  // Enqueues a task on the next queue, round-robin. `tag` identifies the
  // submitter's task group for targeted helping (see TryRunOne); nullptr
  // = untagged.
  void Submit(std::function<void()> task, const void* tag = nullptr);

  // Enqueues a task on a specific worker's queue (tests use this to force
  // skew; the task may still be stolen by any idle worker).
  void SubmitTo(size_t worker, std::function<void()> task,
                const void* tag = nullptr);

  // Pops one queued task and runs it on the calling thread; false when
  // nothing eligible was queued at the scan. With a tag, only tasks
  // submitted under that tag are eligible — the helping primitive behind
  // TaskGroup::Wait, which must run its OWN shards while waiting, not an
  // arbitrary queued task (inlining, say, a whole other serving query
  // would bloat the waiter's latency by that query's full runtime).
  // With tag == nullptr any task is eligible (generic cycle donation).
  bool TryRunOne(const void* tag = nullptr);

  // Process-wide pool shared by every query. Sized once, on first use, to
  // HYDRA_THREADS if set, else std::thread::hardware_concurrency().
  // SearchParams::num_threads shards work independently of this size, so
  // query results never depend on how many workers exist.
  static ThreadPool& Global();

 private:
  struct Queue {
    std::mutex mu;
    // Each task carries its submitter's helping tag (nullptr: untagged).
    std::deque<std::pair<std::function<void()>, const void*>> tasks;
  };

  void WorkerLoop(size_t self);
  // Pops own queue front, else steals another queue's back. Returns an
  // empty function when every queue is empty.
  std::function<void()> TryPop(size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;

  // wake_mu_ guards stop_ and pairs with wake_cv_; pending_ counts queued
  // tasks and is only advanced before the matching notify, so a worker
  // that checks it under wake_mu_ cannot miss a wakeup.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  size_t pending_ = 0;
  size_t next_ = 0;
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
  // Skew-aware variant routed to one worker's queue (see SubmitTo).
  void RunOn(size_t worker, std::function<void()> task);

  // Blocks until every Run() task completed; rethrows the first captured
  // exception. Safe to call repeatedly (later calls return immediately).
  void Wait();

 private:
  std::function<void()> Wrap(std::function<void()> task);
  // The helping drain shared by Wait() and the destructor: runs queued
  // pool tasks until pending_ reaches 0, then returns (without touching
  // first_error_).
  void HelpUntilDrained();

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace hydra

#endif  // HYDRA_EXEC_THREAD_POOL_H_
