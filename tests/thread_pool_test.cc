#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/shared_bound.h"
#include "exec/thread_pool.h"

namespace hydra {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    group.Run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Run([&ran] { ++ran; });
  group.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    // Enqueue more tasks than workers so some are still queued when the
    // destructor begins; drain semantics require all of them to run.
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ImmediateShutdownWithNoTasks) {
  ThreadPool pool(8);  // construct + destruct must not hang
}

TEST(ThreadPool, ExceptionPropagatesToWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Run([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 16; ++i) {
    group.Run([&ran] { ++ran; });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The failure did not cancel the rest of the batch.
  EXPECT_EQ(ran.load(), 16);
  // The group (and the pool) stay usable after a failed batch.
  group.Run([&ran] { ++ran; });
  group.Wait();
  EXPECT_EQ(ran.load(), 17);
}

TEST(ThreadPool, OnlyFirstExceptionIsReported) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([] { throw std::runtime_error("boom"); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // Wait() after the rethrow reports nothing further.
  group.Wait();
}

TEST(ThreadPool, SpreadsOneGroupAcrossThreads) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  std::mutex mu;
  std::set<std::thread::id> executors;
  // Each task is slow enough that idle workers take the next ones from
  // the queue while the first still run. Seeing more than one executing
  // thread proves the batch spread.
  for (int i = 0; i < 32; ++i) {
    group.Run([&mu, &executors] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::lock_guard<std::mutex> lock(mu);
      executors.insert(std::this_thread::get_id());
    });
  }
  group.Wait();
  EXPECT_GE(executors.size(), 2u);
}

TEST(ThreadPool, NestedWaitsDrainOnOneWorker) {
  ThreadPool pool(1);
  TaskGroup outer(&pool);
  std::atomic<int> inner_ran{0};
  // Each outer task blocks on inner tasks of the same one-worker pool; the
  // helping waits run them, so neither the worker nor this thread hangs.
  for (int i = 0; i < 4; ++i) {
    outer.Run([&pool, &inner_ran] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.Run([&inner_ran] { inner_ran.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_ran.load(), 32);
}

TEST(ThreadPool, WaitHelpsOnlyItsOwnGroup) {
  std::atomic<int> foreign_ran{0};
  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  {
    ThreadPool pool(1);
    pool.Submit([&held, released] {
      held.set_value();
      released.wait();
    });
    held.get_future().wait();  // the only worker is busy from here on

    // Queued ahead of the group: an untagged task and another group's.
    pool.Submit([&foreign_ran] { foreign_ran.fetch_add(1); });
    TaskGroup other(&pool);
    other.Run([&foreign_ran] { foreign_ran.fetch_add(1); });

    TaskGroup group(&pool);
    const std::thread::id waiter = std::this_thread::get_id();
    std::atomic<int> ran_by_waiter{0};
    for (int i = 0; i < 8; ++i) {
      group.Run([&ran_by_waiter, waiter] {
        if (std::this_thread::get_id() == waiter) ran_by_waiter.fetch_add(1);
      });
    }
    group.Wait();
    EXPECT_EQ(ran_by_waiter.load(), 8);
    EXPECT_EQ(foreign_ran.load(), 0);
    release.set_value();
  }  // the groups drain, then ~ThreadPool drains what is left
  EXPECT_EQ(foreign_ran.load(), 2);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  ThreadPool& pool = ThreadPool::Global();
  EXPECT_GE(pool.num_threads(), 1u);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) group.Run([&ran] { ++ran; });
  group.Wait();
  EXPECT_EQ(ran.load(), 8);
}

TEST(SharedBound, RelaxOnlyTightens) {
  SharedBound bound;
  EXPECT_TRUE(std::isinf(bound.Load()));
  bound.RelaxTo(10.0);
  EXPECT_DOUBLE_EQ(bound.Load(), 10.0);
  bound.RelaxTo(25.0);  // looser: ignored
  EXPECT_DOUBLE_EQ(bound.Load(), 10.0);
  bound.RelaxTo(3.5);
  EXPECT_DOUBLE_EQ(bound.Load(), 3.5);
}

TEST(SharedBound, ConcurrentRelaxKeepsMinimum) {
  SharedBound bound;
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int t = 0; t < 4; ++t) {
    group.Run([&bound, t] {
      for (int i = 0; i < 1000; ++i) {
        bound.RelaxTo(static_cast<double>((i * 7 + t * 13) % 997) + 1.0);
      }
    });
  }
  group.Wait();
  EXPECT_DOUBLE_EQ(bound.Load(), 1.0);  // min of (x % 997) + 1 over all draws
}

}  // namespace
}  // namespace hydra
