// A fixed-size thread pool with per-worker deques and work stealing. Its
// users: annod's relink queue (one worker, so relinks are serialized) and
// the workload pass (one bytecode VM per workload function).
//
// Scope note: one mutex guards all deques. Stealing here buys scheduling
// (idle workers drain the busiest sibling's oldest tasks, own tasks run
// newest-first for locality), not lock-free throughput — the tasks are far
// too coarse for the lock to contend. If tasks ever become fine-grained,
// split the lock per deque before anything else.
//
// Determinism contract: WorkQueue never decides *what* a computation produces,
// only *when* it runs. Callers must write into pre-partitioned,
// index-addressed slots and reduce in index order after Wait() — then the
// merged result is byte-identical no matter how tasks interleave. Exceptions
// follow the same rule: if several tasks throw, Wait() rethrows the one with
// the lowest submission index, so a failing parallel run reports the same
// error the equivalent serial loop would have hit first.
//
// Sharing one pool: WorkQueue::Wait() is queue-global, so two callers
// waiting on the same queue would see each other's tasks (and worse, each
// other's exceptions). TaskGroup scopes submission: each group counts and
// waits for only its own tasks and rethrows only its own lowest-index
// exception, so independent callers can share one pool without cross-talk.
//
// Shutdown is clean by construction: the destructor (or Shutdown()) stops the
// workers after their current task, discards still-queued tasks, and joins —
// destroying a busy queue never deadlocks and never runs tasks on a
// half-destroyed object.
#ifndef SRC_SUPPORT_WORK_QUEUE_H_
#define SRC_SUPPORT_WORK_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/support/trace.h"

namespace ivy {

class WorkQueue {
 public:
  // `threads` == 0 means std::thread::hardware_concurrency() (min 1).
  explicit WorkQueue(int threads = 0) {
    int n = threads > 0 ? threads : ResolveHardware();
    workers_.reserve(static_cast<size_t>(n));
    queues_ = std::vector<Deque>(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  ~WorkQueue() { Shutdown(); }

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Scheduling counters, maintained under mu_ (the paths that bump them
  // already hold it, so they cost nothing extra). Steals = tasks drained
  // from a sibling's deque; idle waits = times a worker found every deque
  // empty and blocked. Shutdown() publishes both into the trace metrics
  // registry ("workqueue.steals" / "workqueue.idle_waits") when tracing is
  // enabled — the pool-lifetime totals the --metrics output reports.
  uint64_t steals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return steals_;
  }
  uint64_t idle_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_waits_;
  }

  static int ResolveHardware() {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  // Enqueues one task. Tasks may themselves Submit (the pool never blocks a
  // worker on the caller), but must not call Wait() from inside a task.
  // After Shutdown() the task is discarded and false is returned — there are
  // no workers left to run it, and counting it would wedge a later Wait()
  // forever. TaskGroup uses the return value to fall back to running the
  // task inline, so a group draining against a dying queue still completes.
  bool Submit(std::function<void()> task) {
    uint64_t seq;
    size_t home;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) {
        return false;
      }
      seq = next_seq_++;
      ++pending_;
      home = static_cast<size_t>(seq) % queues_.size();
      queues_[home].tasks.push_back(Task{std::move(task), seq});
    }
    cv_work_.notify_one();
    return true;
  }

  // Blocks until every submitted task has finished. If any task threw, the
  // exception with the lowest submission index is rethrown (once); the queue
  // stays usable for further Submit/Wait cycles.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      first_error_seq_ = UINT64_MAX;
      lock.unlock();
      std::rethrow_exception(err);
    }
  }

  // Stops the workers after their in-flight task, discards everything still
  // queued, and joins. Idempotent; called by the destructor.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) {
        return;
      }
      stopped_ = true;
      if (trace::Enabled()) {
        static trace::Counter* const steals = trace::GetCounter("workqueue.steals");
        static trace::Counter* const idle_waits = trace::GetCounter("workqueue.idle_waits");
        steals->Add(steals_);
        idle_waits->Add(idle_waits_);
      }
      // Discarded tasks still count as "done" so a racing Wait() cannot hang.
      for (Deque& q : queues_) {
        pending_ -= q.tasks.size();
        q.tasks.clear();
      }
    }
    cv_work_.notify_all();
    cv_idle_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
    workers_.clear();
  }

 private:
  struct Task {
    std::function<void()> fn;
    uint64_t seq = 0;
  };
  struct Deque {
    std::deque<Task> tasks;
  };

  void WorkerLoop(int self) {
    const size_t me = static_cast<size_t>(self);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Task task;
      bool have = false;
      // Own deque first (back = most recently submitted here, cache-warm)...
      if (!queues_[me].tasks.empty()) {
        task = std::move(queues_[me].tasks.back());
        queues_[me].tasks.pop_back();
        have = true;
      } else {
        // ...then steal the oldest task from the busiest sibling.
        size_t victim = queues_.size();
        size_t best = 0;
        for (size_t i = 0; i < queues_.size(); ++i) {
          if (i != me && queues_[i].tasks.size() > best) {
            best = queues_[i].tasks.size();
            victim = i;
          }
        }
        if (victim != queues_.size()) {
          task = std::move(queues_[victim].tasks.front());
          queues_[victim].tasks.pop_front();
          have = true;
          ++steals_;
        }
      }
      if (have) {
        lock.unlock();
        std::exception_ptr err;
        try {
          task.fn();
        } catch (...) {
          err = std::current_exception();
        }
        lock.lock();
        if (err && task.seq < first_error_seq_) {
          first_error_seq_ = task.seq;
          first_error_ = err;
        }
        if (--pending_ == 0) {
          cv_idle_.notify_all();
        }
        continue;
      }
      if (stopped_) {
        return;
      }
      ++idle_waits_;
      cv_work_.wait(lock);
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::vector<Deque> queues_;
  std::vector<std::thread> workers_;
  size_t pending_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t steals_ = 0;
  uint64_t idle_waits_ = 0;
  bool stopped_ = false;
  std::exception_ptr first_error_;
  uint64_t first_error_seq_ = UINT64_MAX;
};

// A submission scope over a shared WorkQueue. Wait() blocks on — and
// rethrows the lowest-submission-index exception of — only the tasks this
// group submitted, so concurrent callers on one pool cannot observe each
// other's completion or failures. If the queue was already shut down, the
// task runs inline on the submitting thread (degraded, still correct).
//
// Lifetime rule: the group (and the submitting code) must drain via Wait()
// before the queue's Shutdown() discards queued tasks; keep the queue alive
// for as long as any group built on it is in flight.
//
// Cancellation: Cancel() marks the group cancelled — tasks the queue has not
// started yet complete immediately without running their payload (they still
// count as done, so Wait() drains normally), and tasks submitted after the
// cancel are skipped outright. In-flight payloads finish; Cancel never
// interrupts running code. This is the drain path a shutting-down owner uses
// to abandon queued background work (e.g. a pending relink) without
// deadlocking on it — see AnalysisSession::RequestCancel for the
// cooperative in-flight half.
class TaskGroup {
 public:
  explicit TaskGroup(WorkQueue& wq) : wq_(wq) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() { Wait(/*rethrow=*/false); }

  void Submit(std::function<void()> task) {
    uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seq = next_seq_++;
      ++pending_;
    }
    auto wrapper = [this, seq, fn = std::move(task)] {
      std::exception_ptr err;
      if (!cancelled_.load(std::memory_order_acquire)) {
        try {
          fn();
        } catch (...) {
          err = std::current_exception();
        }
      }
      Done(seq, err);
    };
    if (!wq_.Submit(wrapper)) {
      wrapper();
    }
  }

  // Sticky: queued-but-unstarted payloads are skipped from here on. Safe to
  // call from any thread, including concurrently with Submit/Wait.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  // Blocks until every task submitted through this group finished. With
  // `rethrow` (the default), the lowest-submission-index exception — what a
  // serial loop would have hit first — is rethrown once; the group stays
  // usable for further Submit/Wait cycles.
  void Wait(bool rethrow = true) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
    if (!rethrow || !first_error_) {
      return;
    }
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    first_error_seq_ = UINT64_MAX;
    lock.unlock();
    std::rethrow_exception(err);
  }

 private:
  void Done(uint64_t seq, std::exception_ptr err) {
    std::lock_guard<std::mutex> lock(mu_);
    if (err && seq < first_error_seq_) {
      first_error_seq_ = seq;
      first_error_ = err;
    }
    if (--pending_ == 0) {
      cv_done_.notify_all();
    }
  }

  WorkQueue& wq_;
  std::mutex mu_;
  std::condition_variable cv_done_;
  std::atomic<bool> cancelled_{false};
  size_t pending_ = 0;
  uint64_t next_seq_ = 0;
  std::exception_ptr first_error_;
  uint64_t first_error_seq_ = UINT64_MAX;
};

}  // namespace ivy

#endif  // SRC_SUPPORT_WORK_QUEUE_H_
