#include "storage/spill_flusher.h"

#include <cstdlib>

#include "common/trace.h"

namespace impatience {
namespace storage {

SpillFlusher::SpillFlusher(const Options& options) : options_(options) {
  threads_.reserve(options.threads);
  for (size_t i = 0; i < options.threads; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

SpillFlusher::~SpillFlusher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::shared_ptr<SpillFlusher::Channel> SpillFlusher::NewChannel() {
  return std::shared_ptr<Channel>(new Channel(this));
}

void SpillFlusher::Channel::Enqueue(std::function<bool()> fn,
                                    size_t bytes) {
  // The channel does not own the pool; pool_ outlives every channel user
  // by construction (runs are destroyed before their flusher).
  pool_->EnqueueOn(shared_from_this(), std::move(fn), bytes);
}

void SpillFlusher::EnqueueOn(const std::shared_ptr<Channel>& ch,
                             std::function<bool()> fn, size_t bytes) {
  std::unique_lock<std::mutex> lock(mu_);
  const size_t cap = options_.max_inflight_bytes;
  bool waited = false;
  while (cap != 0 &&
         inflight_bytes_.load(std::memory_order_relaxed) + bytes > cap &&
         inflight_bytes_.load(std::memory_order_relaxed) > 0) {
    // Counted when the wait starts, so stats() shows an enqueue that is
    // blocked right now, not only one that has already resumed.
    if (!waited) backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    waited = true;
    space_cv_.wait(lock);
  }
  inflight_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  TRACE_COUNTER("spill.flush_queue_bytes",
                inflight_bytes_.load(std::memory_order_relaxed));
  Channel::Job job{std::move(fn), bytes};
  if (threads_.empty()) {
    // Inline: the owner's jobs on one channel run in its call order, and
    // pending_ stays 0, so Wait returns at once.
    RunJob(ch.get(), &job, &lock);
    return;
  }
  ch->jobs_.push_back(std::move(job));
  ++ch->pending_;
  if (!ch->scheduled_) {
    ch->scheduled_ = true;
    ready_.push_back(ch);
    work_cv_.notify_one();
  }
}

void SpillFlusher::RunJob(Channel* ch, Channel::Job* job,
                          std::unique_lock<std::mutex>* lock) {
  const bool skip = ch->failed_.load(std::memory_order_relaxed);
  bool ok = false;
  if (!skip) {
    lock->unlock();
    ok = job->fn();
    lock->lock();
  }
  jobs_run_.fetch_add(1, std::memory_order_relaxed);
  if (!skip && ok) {
    async_flushes_.fetch_add(1, std::memory_order_relaxed);
  } else if (!skip) {
    ch->failed_.store(true, std::memory_order_release);
  }
  inflight_bytes_.fetch_sub(job->bytes, std::memory_order_relaxed);
  TRACE_COUNTER("spill.flush_queue_bytes",
                inflight_bytes_.load(std::memory_order_relaxed));
  space_cv_.notify_all();
}

void SpillFlusher::Channel::Wait() {
  std::unique_lock<std::mutex> lock(pool_->mu_);
  done_cv_.wait(lock, [this]() { return pending_ == 0; });
}

void SpillFlusher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (ready_.empty()) {
      if (stop_) return;
      work_cv_.wait(lock);
      continue;
    }
    std::shared_ptr<Channel> ch = std::move(ready_.front());
    ready_.pop_front();
    // Drain this channel's queue in order. Producers may append while a
    // job runs unlocked; scheduled_ stays set, so the channel is never
    // concurrently drained by a second worker.
    while (!ch->jobs_.empty()) {
      Channel::Job job = std::move(ch->jobs_.front());
      ch->jobs_.pop_front();
      RunJob(ch.get(), &job, &lock);
      if (--ch->pending_ == 0) ch->done_cv_.notify_all();
    }
    ch->scheduled_ = false;
  }
}

SpillFlusher::Stats SpillFlusher::stats() const {
  Stats s;
  s.jobs_run = jobs_run_.load(std::memory_order_relaxed);
  s.async_flushes = async_flushes_.load(std::memory_order_relaxed);
  s.backpressure_waits =
      backpressure_waits_.load(std::memory_order_relaxed);
  s.inflight_bytes = inflight_bytes_.load(std::memory_order_relaxed);
  return s;
}

SpillFlusher* DefaultFlusher(bool use_env) {
  static SpillFlusher* env_pool = []() -> SpillFlusher* {
    const char* env = std::getenv("IMPATIENCE_SPILL_FLUSHER_THREADS");
    const long n = env == nullptr ? 0 : std::atol(env);
    if (n <= 0) return nullptr;
    SpillFlusher::Options options;
    options.threads = static_cast<size_t>(n);
    return new SpillFlusher(options);  // Leaked; see header.
  }();
  static SpillFlusher* inline_flusher =
      new SpillFlusher(SpillFlusher::Options{.threads = 0});  // Leaked.
  return use_env && env_pool != nullptr ? env_pool : inline_flusher;
}

}  // namespace storage
}  // namespace impatience
