// Spans recorded by bench_e2e's own code around each call it makes into the
// system (socket writes, flushes, result polls, scrapes, layer replays).
// Each thread records into its own lane, so recording takes no lock; the
// lanes are written out as one Chrome trace-event document at the end of a
// traced run (load it in chrome://tracing or Perfetto). Kept apart from
// common/trace.h, whose switch is process-wide: turning it on would also
// record the service's own spans inside the measured run.

#ifndef IMPATIENCE_BENCH_E2E_SPANS_H_
#define IMPATIENCE_BENCH_E2E_SPANS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"

namespace impatience::bench::e2e {

class SpanLog {
 public:
  struct Span {
    const char* name;  // A string literal.
    uint64_t start_ns;
    uint64_t end_ns;
  };
  struct Lane {
    std::string name;
    std::vector<Span> spans;
  };

  // Adds a lane for one thread. Call before the thread starts; the lane
  // lives as long as the log.
  Lane* AddLane(std::string name);

  // Nanoseconds `lane` spent inside spans named `name`.
  static uint64_t TotalNs(const Lane& lane, const char* name);

  // Writes every lane as Chrome "X" events, timestamps relative to
  // `origin_ns`. False (with the reason in *error) if the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path, uint64_t origin_ns,
                        std::string* error) const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// Records the enclosing scope into `lane`; a null lane records nothing, so
// untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog::Lane* lane, const char* name)
      : lane_(lane),
        name_(name),
        start_(lane != nullptr ? Clock::Nanos() : 0) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) {
      lane_->spans.push_back({name_, start_, Clock::Nanos()});
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog::Lane* lane_;
  const char* name_;
  uint64_t start_;
};

}  // namespace impatience::bench::e2e

#endif  // IMPATIENCE_BENCH_E2E_SPANS_H_
