#include "exec/thread_pool.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/options.h"

namespace hydra {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task, const void* tag) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.emplace_back(std::move(task), tag);
  }
  cv_.notify_one();
}

bool ThreadPool::TryRunOne(const void* tag) {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // From the back: a group's tasks are usually the newest in the queue,
    // and the front stays with the workers.
    const auto it = std::find_if(
        tasks_.rbegin(), tasks_.rend(),
        [tag](const auto& queued) { return queued.second == tag; });
    if (it == tasks_.rend()) return false;
    task = std::move(it->first);
    tasks_.erase(std::next(it).base());
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown begun and the queue drained
      task = std::move(tasks_.front().first);
      tasks_.pop_front();
    }
    // Run, and release the task's captures, outside the lock: either may
    // submit to this pool.
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  // The constructor turns 0 (HYDRA_THREADS=0, or a core count the
  // platform cannot tell) into one worker.
  static ThreadPool pool(
      EnvOrSize("HYDRA_THREADS", std::thread::hardware_concurrency()));
  return pool;
}

void TaskGroup::HelpUntilDrained() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_ == 0) return;
    }
    // Help instead of sleeping — but only with THIS group's tasks: an
    // arbitrary queued task (another serving query, say) could run for
    // this waiter's entire latency budget.
    if (!pool_->TryRunOne(this)) break;
  }
  // None of this group's tasks are queued, and only the owner thread
  // (which is here, waiting) can enqueue more: the remaining pending
  // tasks are all mid-execution on workers, so blocking is safe — each
  // completion notifies this group's cv.
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

TaskGroup::~TaskGroup() { HelpUntilDrained(); }

void TaskGroup::Run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->Submit(
      [this, task = std::move(task)] {
        try {
          task();
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) cv_.notify_all();
      },
      this);
}

void TaskGroup::Wait() {
  HelpUntilDrained();
  std::unique_lock<std::mutex> lock(mu_);
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace hydra
