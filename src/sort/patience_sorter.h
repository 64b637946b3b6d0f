// Patience sort (paper §III-B) — the offline base algorithm.
//
// Partition phase: scan the input, appending each element to the first
// sorted run whose tail is <= the element (binary search over the strictly
// descending tails array), or opening a new run. Merge phase: merge the
// runs two at a time with binary merges.
//
// PatienceSorter replays the partition phase online without ever cleaning
// up runs — that is Impatience sort's addition — so its run count is
// monotonically non-decreasing (Figure 5's "Patience sort" curve).
// PatienceSortVector is the full offline sort; for the online experiments
// the paper wraps it (and the other offline algorithms) in
// IncrementalAdapter.

#ifndef IMPATIENCE_SORT_PATIENCE_SORTER_H_
#define IMPATIENCE_SORT_PATIENCE_SORTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/event.h"
#include "common/thread_pool.h"
#include "common/timestamp.h"
#include "sort/merge.h"
#include "sort/partition.h"
#include "sort/run_select.h"

namespace impatience {

// Patience sort's partition phase, one element at a time. Only the run
// tails are kept: the run count is all Figure 5 reads.
template <typename T, typename TimeOf = SyncTimeOf>
class PatienceSorter {
 public:
  // Partition-phase insertion of one element.
  void Push(const T& item) {
    const Timestamp t = time_of_(item);
    const size_t lo = FindRunIndex(tails_, t, level_);
    if (lo == tails_.size()) {
      tails_.push_back(t);
    } else {
      tails_[lo] = t;
    }
  }

  // Number of sorted runs created so far (monotone non-decreasing).
  size_t run_count() const { return tails_.size(); }

 private:
  TimeOf time_of_;
  const KernelLevel level_ = ActiveKernelLevel();
  std::vector<Timestamp> tails_;
};

namespace patience_internal {

// The offline sort works on (timestamp, original index) pairs: runs are
// built and merged over these 16-byte keys and the full records are
// gathered once at the end. For the wide events a streaming engine sorts,
// this cuts merge-phase memory traffic by ~3x; and because the input is
// nearly sorted, the final gather is nearly sequential — one more way the
// algorithm profits from pre-existing order. KeyRef IS the kernel layer's
// SortKey, so the final pass can use the dispatched permutation-gather
// kernel directly.
using KeyRef = kernels::SortKey;

}  // namespace patience_internal

// Sorts `items` in place by timestamp with Patience sort.
//
// The sort knows the whole input: it partitions (timestamp, index) keys
// into runs with a branch-free tails search, merges the key runs, and
// gathers the records once. `huffman_merge` merges smallest-two-first
// (§III-E1, on the pool above the parallel merge's gate); false merges in
// size-oblivious pairwise rounds, classic Patience sort and the "w/o HM"
// ablation. `speculative_run_selection` enables the §III-E2 fast path.
// Partitioning is one sequential scan; the timestamp column, the Huffman
// merge and the gather run on `thread_pool` (nullptr = the global pool).
template <typename T, typename TimeOf = SyncTimeOf>
void PatienceSortVector(std::vector<T>* items, bool huffman_merge = true,
                        bool speculative_run_selection = false,
                        ThreadPool* thread_pool = nullptr) {
  using patience_internal::KeyRef;
  const size_t n = items->size();
  if (n < 2) return;
  IMPATIENCE_CHECK(n < UINT32_MAX);
  TimeOf time_of;
  const KernelLevel level = ActiveKernelLevel();
  ThreadPool& pool =
      thread_pool != nullptr ? *thread_pool : ThreadPool::Global();

  // Extract the timestamp column once, on the pool: pass 1 and the pass-2
  // scatter both read timestamps only, and a packed column beats strided
  // event loads.
  std::vector<Timestamp> times(n);
  {
    std::vector<T>& in = *items;
    ParallelFor(
        0, n, size_t{1} << 14,
        [&times, &in, &time_of](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) times[i] = time_of(in[i]);
        },
        &pool);
  }

  // Partition pass 1: assign each key a run (see sort/partition.h).
  // Nothing is copied yet, so every run's offset in the key array is known
  // before the scatter.
  PartitionPass1 pass1;
  AssignRuns(times.data(), n, speculative_run_selection, level, &pass1);
  std::vector<uint32_t>& run_of = pass1.run_of;
  std::vector<size_t>& run_sizes = pass1.run_sizes;
  const size_t k = pass1.tails.size();
  if (k == 1) return;  // Single run: input was already sorted.

  // Partition pass 2: scatter the keys into one n-key array, run r at its
  // prefix offset first[r], each run in arrival order.
  std::vector<uint32_t> first(k);
  for (size_t r = 0, offset = 0; r < k; offset += run_sizes[r++]) {
    first[r] = static_cast<uint32_t>(offset);
  }
  std::unique_ptr<KeyRef[]> keys =
      std::make_unique_for_overwrite<KeyRef[]>(n);
  std::vector<uint32_t> next = first;
  for (size_t i = 0; i < n; ++i) {
    keys[next[run_of[i]]++] = KeyRef{times[i], static_cast<uint32_t>(i)};
  }
  run_of.clear();
  run_of.shrink_to_fit();
  times.clear();
  times.shrink_to_fit();
  std::vector<std::span<const KeyRef>> runs(k);
  for (size_t r = 0; r < k; ++r) {
    runs[r] = std::span<const KeyRef>(keys.get() + first[r], run_sizes[r]);
  }

  // Merge phase over keys, reading the runs in place. The Huffman order
  // runs as the parallel task-DAG merge (identical output; the sequential
  // cascade on a 1-thread pool or below the size thresholds).
  std::vector<KeyRef> order;
  order.reserve(n);
  auto key_less = [](const KeyRef& a, const KeyRef& b) {
    return a.time < b.time;
  };
  if (huffman_merge) {
    ParallelMergeRunsInto(runs, key_less, &order, &pool);
  } else {
    BalancedMergeInto(runs, key_less, &order);
  }
  keys.reset();

  // Gather the records in sorted order (near-sequential on nearly sorted
  // input). 8-byte trivially-copyable records route through the dispatched
  // permutation-gather kernel (AVX-512 hardware gather when available);
  // the permutation writes disjoint output chunks, so large gathers run on
  // the pool either way.
  std::vector<T> out;
  constexpr bool kKernelGather = sizeof(T) == 8 &&
                                 std::is_trivially_copyable_v<T> &&
                                 std::is_default_constructible_v<T>;
  if constexpr (std::is_default_constructible_v<T>) {
    if (pool.thread_count() > 1 && n >= (size_t{1} << 16)) {
      out.resize(n);
      std::vector<T>& in = *items;
      ParallelFor(
          0, n, size_t{1} << 14,
          [&out, &order, &in, level](size_t lo, size_t hi) {
            if constexpr (kKernelGather) {
              kernels::GatherByIndex(in.data(), order.data() + lo, hi - lo,
                                     out.data() + lo, level);
            } else {
              (void)level;
              for (size_t i = lo; i < hi; ++i) {
                out[i] = std::move(in[order[i].index]);
              }
            }
          },
          &pool);
      *items = std::move(out);
      return;
    }
  }
  if constexpr (kKernelGather) {
    out.resize(n);
    kernels::GatherByIndex(items->data(), order.data(), n, out.data(),
                           level);
  } else {
    out.reserve(n);
    for (const KeyRef& key : order) {
      out.push_back(std::move((*items)[key.index]));
    }
  }
  *items = std::move(out);
}

}  // namespace impatience

#endif  // IMPATIENCE_SORT_PATIENCE_SORTER_H_
