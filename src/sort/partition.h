// Patience partition pass 1: assigning every element a run.
//
// Pass 1 scans the timestamp column and gives each element the index of
// the first run whose tail is <= its timestamp (or a fresh run), leaving
// the actual data movement to the scatter in pass 2. Assignment depends
// only on timestamps and first-fit order: the speculative-run-selection
// fast path never changes the chosen run, only skips the search.

#ifndef IMPATIENCE_SORT_PARTITION_H_
#define IMPATIENCE_SORT_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cpu_features.h"
#include "common/timestamp.h"
#include "common/trace.h"
#include "sort/kernels.h"

namespace impatience {

// Pass-1 output: the run id of every element, the final tails array
// (strictly descending), and the element count of every run.
struct PartitionPass1 {
  std::vector<uint32_t> run_of;
  std::vector<Timestamp> tails;
  std::vector<size_t> run_sizes;
};

// First-fit scan of times[0, n) into `out`.
inline void AssignRuns(const Timestamp* times, size_t n,
                       bool speculative_run_selection, KernelLevel level,
                       PartitionPass1* out) {
  TRACE_SPAN("partition.pass1");
  out->run_of.resize(n);
  out->tails.clear();
  out->run_sizes.clear();
  std::vector<Timestamp>& ts = out->tails;
  std::vector<size_t>& sizes = out->run_sizes;
  uint32_t* run_of = out->run_of.data();
  size_t last_run = 0;
  for (size_t i = 0; i < n; ++i) {
    const Timestamp t = times[i];
    if (speculative_run_selection && last_run < ts.size()) {
      // §III-E2: the previous insertion's run is often right again. The
      // test certifies "first run whose tail <= t", so hitting it never
      // changes the assignment, only skips the search.
      const size_t r = last_run;
      if (ts[r] <= t && (r == 0 || t < ts[r - 1])) {
        run_of[i] = static_cast<uint32_t>(r);
        ts[r] = t;
        ++sizes[r];
        continue;
      }
    }
    const size_t lo = kernels::FindFirstLEDesc(ts.data(), ts.size(), t,
                                               level);
    if (lo == ts.size()) {
      ts.push_back(t);
      sizes.push_back(0);
    }
    run_of[i] = static_cast<uint32_t>(lo);
    ts[lo] = t;
    ++sizes[lo];
    last_run = lo;
  }
}

}  // namespace impatience

#endif  // IMPATIENCE_SORT_PARTITION_H_
