// Stress tests for the work-stealing pool: many tiny tasks, exception
// propagation (deterministic: lowest submission index wins), reuse after
// failure, nested submission, and clean shutdown while busy — the properties
// annod's relink queue and the workload pass lean on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "src/support/work_queue.h"

namespace ivy {
namespace {

TEST(WorkQueue, TenThousandTinyTasks) {
  WorkQueue wq(4);
  EXPECT_EQ(wq.thread_count(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10000; ++i) {
    wq.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  wq.Wait();
  EXPECT_EQ(counter.load(), 10000);
  // The queue is reusable: a second burst on the same pool.
  for (int i = 0; i < 10000; ++i) {
    wq.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  wq.Wait();
  EXPECT_EQ(counter.load(), 20000);
}

TEST(WorkQueue, ExceptionPropagatesAndDoesNotDeadlock) {
  WorkQueue wq(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i) {
    wq.Submit([i, &ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i % 100 == 13) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
  }
  // Several tasks threw; Wait rethrows exactly one — the earliest-submitted
  // (task 13), matching what a serial loop would have hit first.
  try {
    wq.Wait();
    FAIL() << "Wait() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 13");
  }
  // Every task still ran: one bad task never wedges or starves the pool.
  EXPECT_EQ(ran.load(), 1000);

  // And the pool stays usable after a failure.
  std::atomic<int> after{0};
  for (int i = 0; i < 100; ++i) {
    wq.Submit([&after] { after.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_NO_THROW(wq.Wait());
  EXPECT_EQ(after.load(), 100);
}

TEST(WorkQueue, NestedSubmitIsCoveredByWait) {
  WorkQueue wq(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    wq.Submit([&wq, &counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      wq.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  wq.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(WorkQueue, ShutdownWhileBusyIsClean) {
  std::atomic<int> ran{0};
  {
    WorkQueue wq(2);
    for (int i = 0; i < 500; ++i) {
      wq.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): destruction must stop after the in-flight tasks, discard
    // the rest, and join without deadlocking.
  }
  EXPECT_LE(ran.load(), 500);
  // ran may legitimately be small; the assertion that matters is that we
  // reached this line at all (no hang) and ASan/TSan see no damage.
}

TEST(WorkQueue, ExplicitShutdownIsIdempotent) {
  WorkQueue wq(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    wq.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  wq.Wait();
  wq.Shutdown();
  wq.Shutdown();  // second call is a no-op
  EXPECT_EQ(counter.load(), 16);
}

TEST(WorkQueue, SubmitAfterShutdownIsDiscardedNotDeadlock) {
  WorkQueue wq(2);
  wq.Shutdown();
  std::atomic<int> counter{0};
  wq.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  wq.Wait();  // nothing pending: must return immediately, not hang forever
  EXPECT_EQ(counter.load(), 0);
}

TEST(TaskGroup, IsolatesCompletionAndErrorsPerGroup) {
  // Two groups sharing one pool: each Wait() observes only its own tasks,
  // and an exception in one group never surfaces in the other — the
  // property that lets independent callers share one pool.
  WorkQueue wq(4);
  TaskGroup good(wq);
  TaskGroup bad(wq);
  std::atomic<int> good_done{0};
  for (int i = 0; i < 64; ++i) {
    good.Submit([&good_done] { good_done.fetch_add(1); });
    bad.Submit([i] {
      if (i % 2 == 0) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
  }
  EXPECT_NO_THROW(good.Wait());
  EXPECT_EQ(good_done.load(), 64);
  // Lowest submission index in *this* group: i == 0.
  try {
    bad.Wait();
    FAIL() << "expected the group's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 0");
  }
  // Both groups stay usable after Wait.
  good.Submit([&good_done] { good_done.fetch_add(1); });
  good.Wait();
  EXPECT_EQ(good_done.load(), 65);
}

TEST(TaskGroup, RunsInlineAfterShutdown) {
  WorkQueue wq(2);
  wq.Shutdown();
  TaskGroup group(wq);
  std::atomic<int> ran{0};
  group.Submit([&ran] { ran.fetch_add(1); });
  group.Wait();  // degraded to inline execution — still completes
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGroup, ConcurrentGroupsStress) {
  WorkQueue wq(4);
  std::atomic<int64_t> total{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&wq, &total] {
      for (int round = 0; round < 20; ++round) {
        TaskGroup group(wq);
        for (int i = 0; i < 50; ++i) {
          group.Submit([&total] { total.fetch_add(1); });
        }
        group.Wait();
      }
    });
  }
  for (std::thread& t : drivers) {
    t.join();
  }
  EXPECT_EQ(total.load(), 4 * 20 * 50);
}

TEST(TaskGroup, TwoFailingKernelsRethrowLowestIndexDeterministically) {
  // Two callers share one pool and BOTH fail. Each group must rethrow the
  // exception its own serial loop would have hit first — the lowest
  // submission index within that group — on every repetition, no matter how
  // the workers interleave the two callers' tasks.
  WorkQueue wq(4);
  for (int iter = 0; iter < 200; ++iter) {
    TaskGroup kernel_a(wq);
    TaskGroup kernel_b(wq);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i) {
      kernel_a.Submit([i, &ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 7 == 3) {
          throw std::runtime_error("a" + std::to_string(i));
        }
      });
      kernel_b.Submit([i, &ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 5 == 2) {
          throw std::runtime_error("b" + std::to_string(i));
        }
      });
    }
    // Lowest throwing index in kernel_a is 3, in kernel_b is 2 — always.
    try {
      kernel_a.Wait();
      FAIL() << "kernel_a did not throw (iter " << iter << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "a3") << "iter " << iter;
    }
    try {
      kernel_b.Wait();
      FAIL() << "kernel_b did not throw (iter " << iter << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "b2") << "iter " << iter;
    }
    EXPECT_EQ(ran.load(), 128) << "iter " << iter;
    // Both groups drained and stay reusable: a clean second burst.
    std::atomic<int> again{0};
    kernel_a.Submit([&again] { again.fetch_add(1); });
    kernel_b.Submit([&again] { again.fetch_add(1); });
    kernel_a.Wait();
    kernel_b.Wait();
    EXPECT_EQ(again.load(), 2);
  }
}

TEST(TaskGroup, CancelSkipsQueuedPayloadsButStillDrains) {
  WorkQueue wq(1);  // one worker: everything behind the blocker stays queued
  TaskGroup group(wq);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  group.Submit([&started, &release] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // The blocker must hold the only worker before anything queues behind it.
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 16; ++i) {
    group.Submit([&ran] { ran.fetch_add(1); });
  }

  group.Cancel();
  EXPECT_TRUE(group.cancelled());
  release.store(true, std::memory_order_release);
  group.Wait();  // drains: skipped payloads still count as done

  EXPECT_EQ(ran.load(), 0) << "queued payload ran after Cancel()";

  // Submissions after the cancel are skipped outright too.
  group.Submit([&ran] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGroup, CancelDoesNotInterruptInFlightPayload) {
  WorkQueue wq(1);
  TaskGroup group(wq);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> finished{false};
  group.Submit([&] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    finished.store(true, std::memory_order_release);
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  group.Cancel();  // in-flight payload must run to completion
  release.store(true, std::memory_order_release);
  group.Wait();
  EXPECT_TRUE(finished.load());
}

TEST(TaskGroup, CancelOnDeadQueueSkipsInlineFallback) {
  WorkQueue wq(1);
  wq.Shutdown();
  TaskGroup group(wq);
  group.Cancel();
  std::atomic<int> ran{0};
  // Submit on a dead queue falls back to inline execution — which must also
  // honor the cancel.
  group.Submit([&ran] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 0);
}

}  // namespace
}  // namespace ivy
