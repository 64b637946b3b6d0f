// Byte-accurate accounting of operator buffer usage.
//
// The paper's Figure 10(b)/(d) compares the memory footprint of query
// execution strategies. Instead of sampling process RSS (noisy, allocator-
// dependent), every buffering site in this library — sorter runs, adapter
// buffers, union synchronization buffers, ingress reorder buffers — reports
// its current byte count to a MemoryTracker, which maintains the running
// total and the high-watermark.

#ifndef IMPATIENCE_COMMON_MEMORY_TRACKER_H_
#define IMPATIENCE_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace impatience {

// Aggregates buffer sizes across many reporting sites.
//
// Usage: a buffering component holds a MemoryReservation tied to a tracker
// and calls Update(bytes) whenever its footprint changes; the reservation
// releases its bytes on destruction. Components without a tracker pass
// nullptr and all calls become no-ops.
//
// Add/Sub are lock-free so reservations may be updated from concurrent
// threads (a shard's sorters and the batches queued on its emit strand).
// The peak is a CAS-max over the post-Add total; with concurrent updates
// it is exact with respect to the interleaving the atomics observed, which
// is the same guarantee a sequential tracker gives for any one
// interleaving.
class MemoryTracker {
 public:
  MemoryTracker() = default;
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  // Current total across all live reservations, in bytes.
  size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }

  // Largest value current_bytes() has reached since construction/Reset.
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  // Clears both the running total contribution baseline and the peak.
  // Live reservations keep their bytes; the peak restarts from the current
  // total.
  void ResetPeak() {
    peak_.store(current_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

 private:
  friend class MemoryReservation;

  void Add(size_t bytes) {
    const size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    size_t seen = peak_.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  void Sub(size_t bytes) { current_.fetch_sub(bytes, std::memory_order_relaxed); }

  std::atomic<size_t> current_{0};
  std::atomic<size_t> peak_{0};
};

// One reporting site's stake in a MemoryTracker. Movable, not copyable.
class MemoryReservation {
 public:
  // A reservation with a null tracker is valid and ignores all updates.
  explicit MemoryReservation(MemoryTracker* tracker = nullptr)
      : tracker_(tracker) {}

  MemoryReservation(MemoryReservation&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      Release();
      tracker_ = other.tracker_;
      bytes_ = other.bytes_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  ~MemoryReservation() { Release(); }

  // Sets this site's current footprint to `bytes` (absolute, not delta).
  void Update(size_t bytes) {
    if (tracker_ == nullptr) {
      bytes_ = bytes;
      return;
    }
    if (bytes > bytes_) {
      tracker_->Add(bytes - bytes_);
    } else {
      tracker_->Sub(bytes_ - bytes);
    }
    bytes_ = bytes;
  }

  // This site's last reported footprint.
  size_t bytes() const { return bytes_; }

 private:
  void Release() {
    if (tracker_ != nullptr && bytes_ > 0) tracker_->Sub(bytes_);
    bytes_ = 0;
  }

  MemoryTracker* tracker_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace impatience

#endif  // IMPATIENCE_COMMON_MEMORY_TRACKER_H_
