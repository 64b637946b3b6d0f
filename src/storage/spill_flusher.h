// Write-behind flusher pool for the spill tier.
//
// A SpillFlusher owns a small set of dedicated I/O threads (dedicated, not
// borrowed from the compute ThreadPool — flusher jobs block on write(2)
// and fsync(2), which must never stall a work-stealing compute worker).
// Producers hand it closures through per-run Channels:
//
//   - Jobs on one Channel execute in FIFO order, one at a time. A run
//     file's blocks are only ever appended through its own channel, which
//     is the per-run-file ordering guarantee: concurrent flusher threads
//     may interleave *different* runs' writes but never reorder one run's.
//   - Each job declares a byte weight counted against the pool-wide
//     in-flight cap. Enqueue blocks while the cap is exceeded —
//     backpressure stalls the appender; nothing is ever dropped.
//   - Channel::Wait() is the durability barrier: it returns once every
//     job enqueued so far has finished, after which the caller may fsync
//     and advance the manifest knowing the covered blocks were written.
//
// A job returning false (a real I/O error, not a WriteFault kill) poisons
// its channel: later jobs on that channel are skipped, never run, so a
// torn append can't be followed by writes at wrong file offsets. The
// caller observes `failed()` and keeps the affected blocks in RAM.
//
// With zero threads the pool is an inline flusher: Enqueue runs the job on
// the calling thread before returning (outside the pool mutex, so callers
// sharing it never serialize their writes on each other) and Wait has
// nothing to wait for. Poisoning, stats() and the in-flight cap are the
// same as with threads.

#ifndef IMPATIENCE_STORAGE_SPILL_FLUSHER_H_
#define IMPATIENCE_STORAGE_SPILL_FLUSHER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace impatience {
namespace storage {

class SpillFlusher {
 public:
  struct Options {
    size_t threads = 1;  // Flusher threads; 0 = run jobs inline.
    // Pool-wide cap on bytes queued or being written. Enqueue blocks
    // while exceeded (a single oversized job is still admitted when the
    // pool is empty, so progress is always possible). 0 = unbounded.
    size_t max_inflight_bytes = 8u << 20;
  };

  struct Stats {
    uint64_t jobs_run = 0;            // Jobs executed (incl. skipped).
    uint64_t async_flushes = 0;       // Jobs completed successfully.
    uint64_t backpressure_waits = 0;  // Enqueues that blocked on the cap.
    uint64_t inflight_bytes = 0;      // Currently queued + running bytes.
  };

  // FIFO job lane; one per run file (or per read-ahead cursor).
  class Channel : public std::enable_shared_from_this<Channel> {
   public:
    // Queues `fn` after all previously enqueued jobs of this channel.
    // Blocks while the pool's in-flight cap is exceeded.
    void Enqueue(std::function<bool()> fn, size_t bytes);

    // Returns once every job enqueued before this call has finished
    // (run or skipped after a poison).
    void Wait();

    // True once any job on this channel returned false. Later jobs are
    // skipped; the channel stays poisoned for its lifetime.
    bool failed() const {
      return failed_.load(std::memory_order_acquire);
    }

   private:
    friend class SpillFlusher;
    explicit Channel(SpillFlusher* pool) : pool_(pool) {}

    struct Job {
      std::function<bool()> fn;
      size_t bytes;
    };

    SpillFlusher* pool_;
    std::deque<Job> jobs_;       // Guarded by pool_->mu_.
    size_t pending_ = 0;         // Queued + running jobs.
    bool scheduled_ = false;     // In ready_ or being drained by a worker.
    std::condition_variable done_cv_;
    std::atomic<bool> failed_{false};
  };

  explicit SpillFlusher(const Options& options);
  // Drains every queued job, then joins the threads.
  ~SpillFlusher();

  SpillFlusher(const SpillFlusher&) = delete;
  SpillFlusher& operator=(const SpillFlusher&) = delete;

  std::shared_ptr<Channel> NewChannel();

  size_t threads() const { return threads_.size(); }  // 0 when inline.
  size_t max_inflight_bytes() const { return options_.max_inflight_bytes; }
  uint64_t inflight_bytes() const {
    return inflight_bytes_.load(std::memory_order_relaxed);
  }
  Stats stats() const;

 private:
  void WorkerLoop();
  void EnqueueOn(const std::shared_ptr<Channel>& ch,
                 std::function<bool()> fn, size_t bytes);
  // Runs `job` (skipped on a poisoned channel) with `lock` released and
  // settles its stats, poison flag and in-flight bytes under `lock`.
  void RunJob(Channel* ch, Channel::Job* job,
              std::unique_lock<std::mutex>* lock);

  const Options options_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // Workers wait for ready channels.
  std::condition_variable space_cv_;  // Producers wait for cap headroom.
  std::deque<std::shared_ptr<Channel>> ready_;
  bool stop_ = false;
  std::atomic<uint64_t> inflight_bytes_{0};
  std::atomic<uint64_t> jobs_run_{0};
  std::atomic<uint64_t> async_flushes_{0};
  std::atomic<uint64_t> backpressure_waits_{0};
  std::vector<std::thread> threads_;
};

// The flusher of a sorter that has none configured: with `use_env`, the
// process-wide pool sized by $IMPATIENCE_SPILL_FLUSHER_THREADS (the CI
// forced-async-spill pass sets it) when that is a positive count; else a
// process-wide inline flusher. Both are created on first use and
// intentionally leaked — runs owned by static-storage sorters may still
// flush during teardown.
SpillFlusher* DefaultFlusher(bool use_env);

}  // namespace storage
}  // namespace impatience

#endif  // IMPATIENCE_STORAGE_SPILL_FLUSHER_H_
