#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/trace.h"

namespace impatience {

namespace {

// Identifies the worker (and owning pool) the current thread belongs to,
// so Submit can push to the thread's own deque.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

// A misconfigured value (non-numeric, <= 0) falls back to the hardware's
// count instead of aborting in the pool constructor.
size_t DefaultThreadCount() {
  const std::optional<size_t> n =
      ParseThreadCount(std::getenv("IMPATIENCE_THREADS"));
  if (n.has_value() && *n > 0) return *n;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::mutex g_global_mu;
ThreadPool* g_global_pool = nullptr;

}  // namespace

std::optional<size_t> ParseThreadCount(const char* text) {
  if (text == nullptr) return std::nullopt;
  char* end = nullptr;
  const long long n = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || n < 0) return std::nullopt;
  return std::min(static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(kMaxThreads));
}

ThreadPool::ThreadPool(size_t threads) {
  IMPATIENCE_CHECK(threads >= 1);
  const size_t workers = threads - 1;
  queues_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Every TaskGroup waits before destruction, so nothing may be queued.
  IMPATIENCE_CHECK(pending_.load(std::memory_order_relaxed) == 0);
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool == nullptr) {
    // Leaked intentionally: outlives static-destruction order.
    g_global_pool = new ThreadPool(DefaultThreadCount());
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  delete g_global_pool;
  g_global_pool = new ThreadPool(threads);
}

void ThreadPool::Submit(Task task) {
  WorkerQueue& q = (tls_pool == this && tls_worker_index < queues_.size())
                       ? *queues_[tls_worker_index]
                       : injector_;
  {
    std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  // The empty critical section pairs with the sleep predicate check: a
  // worker is either before its check (and will see pending_ > 0) or
  // already waiting (and receives this notify).
  { std::lock_guard<std::mutex> lock(sleep_mu_); }
  sleep_cv_.notify_one();
}

bool ThreadPool::PopFrom(WorkerQueue& q, bool back, Task* out) {
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  if (back) {
    *out = std::move(q.tasks.back());
    q.tasks.pop_back();
  } else {
    *out = std::move(q.tasks.front());
    q.tasks.pop_front();
  }
  return true;
}

void ThreadPool::Execute(Task& task) {
  task.fn();
  if (task.group != nullptr) task.group->OnTaskDone();
}

bool ThreadPool::RunOneTask(size_t home) {
  Task task;
  // Own deque from the back (LIFO), then the injector, then steal from the
  // other workers' fronts (FIFO).
  if (home < queues_.size() && PopFrom(*queues_[home], /*back=*/true, &task)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    Execute(task);
    return true;
  }
  if (PopFrom(injector_, /*back=*/false, &task)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    Execute(task);
    return true;
  }
  for (size_t i = 1; i <= queues_.size() && !queues_.empty(); ++i) {
    const size_t victim = (home + i) % queues_.size();
    if (victim == home) continue;
    if (PopFrom(*queues_[victim], /*back=*/false, &task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      Execute(task);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_pool = this;
  tls_worker_index = index;
  for (;;) {
    if (RunOneTask(index)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void TaskGroup::Wait() {
  // Non-workers help from the injector/steal side; workers from their own
  // deque first. queues_.size() is "not a worker" for non-worker threads.
  const size_t home = (tls_pool == pool_) ? tls_worker_index
                                          : pool_->queues_.size();
  for (;;) {
    if (outstanding_.load(std::memory_order_acquire) == 0) break;
    if (pool_->RunOneTask(home)) continue;
    // Nothing runnable anywhere: the remaining tasks are being executed by
    // other threads. Block until this group drains; a task finishing may
    // also have enqueued new work, so re-poll after every wake.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return outstanding_.load(std::memory_order_acquire) == 0 ||
             pool_->pending_.load(std::memory_order_acquire) > 0;
    });
  }
  // The final OnTaskDone may still be inside its mu_ critical section
  // (decrements happen under mu_); take the lock once so it has fully
  // left before the caller is allowed to destroy this group.
  { std::lock_guard<std::mutex> lock(mu_); }
}

Strand::Strand(ThreadPool* pool, LatencyHistogram* job_ns, const char* span)
    : pool_(pool != nullptr && pool->thread_count() > 1 ? pool : nullptr),
      job_ns_(job_ns),
      span_(span) {}

void Strand::RunJob(std::function<void()>& job) {
  trace::Span span(span_);
  const uint64_t start_ns = job_ns_ != nullptr ? Clock::Nanos() : 0;
  job();
  if (job_ns_ != nullptr) job_ns_->Record(Clock::Nanos() - start_ns);
}

void Strand::Post(std::function<void()> job) {
  if (pool_ == nullptr) {
    RunJob(job);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  while (jobs_.size() >= kMaxQueued) {
    if (draining_) {
      cv_.wait(lock);
    } else {
      // Caller-runs: the drain task may still be waiting for a worker, so
      // run the backlog here instead of waiting for one.
      DrainLocked(lock, jobs_.size());
    }
  }
  jobs_.push_back(std::move(job));
  if (!draining_ && !scheduled_) {
    scheduled_ = true;
    SubmitDrainTask();
  }
}

void Strand::Wait() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!draining_ && !jobs_.empty()) {
      DrainLocked(lock, jobs_.size());
    } else if (draining_ || scheduled_) {
      cv_.wait(lock);
    } else {
      return;
    }
  }
}

void Strand::DrainLocked(std::unique_lock<std::mutex>& lock,
                         size_t max_jobs) {
  IMPATIENCE_DCHECK(!draining_);
  draining_ = true;
  for (size_t i = 0; i < max_jobs && !jobs_.empty(); ++i) {
    std::function<void()> job = std::move(jobs_.front());
    jobs_.pop_front();
    if (jobs_.size() + 1 == kMaxQueued) cv_.notify_all();  // Room to post.
    lock.unlock();
    RunJob(job);
    job = nullptr;  // Free the job's captures outside the lock.
    lock.lock();
  }
  draining_ = false;
  cv_.notify_all();
}

void Strand::SubmitDrainTask() {
  pool_->Submit(ThreadPool::Task{[this] { DrainTask(); }, nullptr});
}

void Strand::DrainTask() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!draining_) DrainLocked(lock, jobs_.size());
  if (!draining_ && !jobs_.empty()) {
    SubmitDrainTask();  // Stays scheduled; a fresh task takes the rest.
    return;
  }
  // A running drain (a caller-runs Post or Wait) owns what is left; the
  // next Post schedules again. This is the task's last touch of the
  // strand: a Wait that sees scheduled_ clear may destroy it.
  scheduled_ = false;
  cv_.notify_all();
}

}  // namespace impatience
