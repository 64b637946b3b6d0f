#include "bench/e2e/spans.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace impatience::bench::e2e {

SpanLog::Lane* SpanLog::AddLane(std::string name) {
  auto lane = std::make_unique<Lane>();
  lane->name = std::move(name);
  // Sized for a closed-loop round's frame writes, so recording rarely
  // grows the vector mid-run.
  lane->spans.reserve(1 << 12);
  lanes_.push_back(std::move(lane));
  return lanes_.back().get();
}

uint64_t SpanLog::TotalNs(const Lane& lane, const char* name) {
  uint64_t total = 0;
  for (const Span& s : lane.spans) {
    if (std::strcmp(s.name, name) == 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path, uint64_t origin_ns,
                               std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (size_t tid = 0; tid < lanes_.size(); ++tid) {
    const Lane& lane = *lanes_[tid];
    // Lane names are fixed identifiers chosen by the benchmark (no
    // characters that need JSON escaping).
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", tid, lane.name.c_str());
    first = false;
    for (const Span& s : lane.spans) {
      const uint64_t start =
          s.start_ns >= origin_ns ? s.start_ns - origin_ns : 0;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   s.name, tid, static_cast<double>(start) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  const bool ok = std::fclose(f) == 0;
  if (!ok) *error = "write failed: " + path;
  return ok;
}

}  // namespace impatience::bench::e2e
