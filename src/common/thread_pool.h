// A fixed-size work-stealing thread pool for the engine's hot paths.
//
// Design: each worker owns a deque; the owner pushes and pops at the back
// (LIFO keeps the working set of a fork/join tree cache-hot) while idle
// workers steal from the front (FIFO takes the oldest — typically largest —
// subtree). Tasks submitted from non-worker threads land in a shared
// injector queue. Fork/join is expressed with TaskGroup, whose Wait() helps
// execute queued tasks instead of blocking, so nested joins (a merge
// task that forks its own subtree merges) cannot starve the pool.
//
// Sizing: the process-wide pool is sized by $IMPATIENCE_THREADS (default
// hardware_concurrency()). A pool of size 1 spawns no workers and runs
// every task inline at submission, which makes all parallel code paths
// byte-for-byte identical to the sequential ones — the paper's
// single-thread evaluation and all existing bench numbers are reproduced
// by IMPATIENCE_THREADS=1.
//
// Strand adds serial execution on top: a FIFO of jobs drained one at a time
// by pool tasks, for pipeline stages that must keep their order but should
// not cost a thread of their own.

#ifndef IMPATIENCE_COMMON_THREAD_POOL_H_
#define IMPATIENCE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace impatience {

class LatencyHistogram;
class TaskGroup;

class ThreadPool {
 public:
  // A pool with `threads` degrees of parallelism: threads-1 workers plus
  // the submitting thread, which participates in TaskGroup::Wait().
  // threads == 1 spawns no workers and runs everything inline.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Degrees of parallelism (callers size their task fan-out by this).
  size_t thread_count() const { return workers_.size() + 1; }

  // The process-wide pool, created on first use and sized by
  // $IMPATIENCE_THREADS (default hardware_concurrency(), minimum 1).
  static ThreadPool& Global();

  // Replaces the global pool with one of `threads` threads. The global
  // pool must be idle (no in-flight TaskGroup). Benchmarks use this to
  // sweep thread counts within one process.
  static void SetGlobalThreads(size_t threads);

 private:
  friend class Strand;
  friend class TaskGroup;

  // A task with a null group is detached (a strand's drain task): nothing
  // joins it, so its owner must outlive it.
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  // One worker's deque. A mutex per deque is cheap at this pool's task
  // granularity (punctuation rounds, multi-hundred-KB merges).
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  // Enqueues a task: the back of the current worker's deque when called
  // from a worker of this pool, the injector queue otherwise.
  void Submit(Task task);

  // Pops or steals one task and runs it. Returns false if every queue was
  // empty. Used by workers and by TaskGroup::Wait() helpers.
  bool RunOneTask(size_t home);

  static void Execute(Task& task);
  void WorkerLoop(size_t index);
  bool PopFrom(WorkerQueue& q, bool back, Task* out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  WorkerQueue injector_;                              // external submissions
  std::vector<std::thread> workers_;

  std::atomic<size_t> pending_{0};  // queued (not yet running) tasks
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  bool stop_ = false;
};

// A fork/join scope: Run() schedules tasks on the pool, Wait() blocks until
// every task scheduled through this group — including tasks the tasks
// themselves add — has finished. With a 1-thread pool Run() executes the
// task inline, in submission order.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool = nullptr)
      : pool_(pool != nullptr ? pool : &ThreadPool::Global()) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup() { Wait(); }

  void Run(std::function<void()> fn) {
    if (pool_->thread_count() == 1) {
      fn();
      return;
    }
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    pool_->Submit(ThreadPool::Task{std::move(fn), this});
  }

  // Helps execute queued tasks while waiting; safe to call from inside a
  // task running on the same pool (nested fork/join).
  void Wait();

 private:
  friend class ThreadPool;

  // The decrement happens under mu_ so that a waiter that has observed
  // outstanding_ == 0 can synchronize with the final notifier by taking
  // mu_ once before returning from Wait() — otherwise the group could be
  // destroyed while the last task is still inside this critical section.
  void OnTaskDone() {
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cv_.notify_all();
    }
  }

  ThreadPool* pool_;
  std::atomic<size_t> outstanding_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

// A serial executor on a ThreadPool. Jobs posted to one strand run one at a
// time, in posting order, on whichever thread drains them; a strand creates
// no thread. At most one drain task per strand is in the pool at a time,
// and it runs only the jobs queued when it starts before handing the rest
// to a fresh task, so a thread that picks it up while helping in
// TaskGroup::Wait is released after bounded work.
//
// The queue holds at most kMaxQueued jobs. A Post that finds it full while
// no drain is running runs the queued jobs itself (caller-runs), so a
// strand never waits for a pool worker to become free and nothing on the
// pool blocks on it; when a drain is running, the poster waits for it to
// make room. With no pool or a 1-thread pool every job runs inline at Post:
// a strand-fed stage is then exactly the synchronous one. A job must not
// post to its own strand (a full queue would wait on the job itself).
class Strand {
 public:
  static constexpr size_t kMaxQueued = 8;

  // `job_ns`, when set, receives each job's wall-clock duration, and every
  // job records a trace span named `span` (a string literal).
  explicit Strand(ThreadPool* pool, LatencyHistogram* job_ns = nullptr,
                  const char* span = "strand.job");
  ~Strand() { Wait(); }

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  // True when Post runs each job before returning.
  bool runs_inline() const { return pool_ == nullptr; }

  void Post(std::function<void()> job);

  // Returns once every job posted before the call has run and no drain
  // task of this strand is left in the pool. Queued jobs that no drain is
  // running are run by the caller.
  void Wait();

 private:
  void RunJob(std::function<void()>& job);
  // Runs up to `max_jobs` queued jobs, with mu_ released around each.
  // Requires that no drain is running.
  void DrainLocked(std::unique_lock<std::mutex>& lock, size_t max_jobs);
  void SubmitDrainTask();
  void DrainTask();

  ThreadPool* const pool_;  // nullptr: jobs run inline.
  LatencyHistogram* const job_ns_;
  const char* const span_;
  std::mutex mu_;
  std::condition_variable cv_;  // Room in the queue, or a drain finished.
  std::deque<std::function<void()>> jobs_;
  bool draining_ = false;   // A thread is running this strand's jobs.
  bool scheduled_ = false;  // A drain task is queued or running.
};

// Runs fn(chunk_begin, chunk_end) over [begin, end) in parallel chunks of
// at least `grain` indices (the whole range inline when the pool is serial
// or the range is a single grain). Chunks are disjoint and cover the range
// exactly once; no ordering is guaranteed between chunks.
template <typename Fn>
void ParallelFor(size_t begin, size_t end, size_t grain, Fn&& fn,
                 ThreadPool* pool = nullptr) {
  if (begin >= end) return;
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Global();
  const size_t n = end - begin;
  if (grain == 0) grain = 1;
  if (tp.thread_count() == 1 || n <= grain) {
    fn(begin, end);
    return;
  }
  // Oversplit ~4x relative to the thread count so stealing can rebalance
  // uneven chunks, but never below the grain.
  size_t chunk = (n + tp.thread_count() * 4 - 1) / (tp.thread_count() * 4);
  if (chunk < grain) chunk = grain;
  TaskGroup group(&tp);
  for (size_t lo = begin; lo < end; lo += chunk) {
    const size_t hi = lo + chunk < end ? lo + chunk : end;
    group.Run([&fn, lo, hi] { fn(lo, hi); });
  }
  group.Wait();
}

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_THREAD_POOL_H_
