// Uniform construction of the paper's sorting algorithms.
//
// Two catalogues are provided, matching the two halves of the evaluation:
//  * OfflineAlgorithm (Figure 7): sort a complete vector by timestamp —
//    Impatience (with/without its optimizations), Quicksort, Timsort,
//    Heapsort. "Impatience w/o HM&SRS" is identical to Patience sort.
//  * OnlineAlgorithm (Figure 8): incremental sorters honouring the
//    punctuation contract — Impatience natively, Heapsort natively (it is
//    a priority queue), and Patience/Quicksort/Timsort through
//    IncrementalAdapter as in §VI-B.

#ifndef IMPATIENCE_SORT_SORT_ALGORITHMS_H_
#define IMPATIENCE_SORT_SORT_ALGORITHMS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/event.h"
#include "sort/heapsort.h"
#include "sort/impatience_sorter.h"
#include "sort/incremental_adapter.h"
#include "sort/patience_sorter.h"
#include "sort/quicksort.h"
#include "sort/sorter.h"
#include "sort/timsort.h"

namespace impatience {

// ---------------------------------------------------------------------------
// Offline catalogue (Figure 7).

enum class OfflineAlgorithm {
  kImpatience,          // Patience partition + SRS + Huffman merge.
  kImpatienceNoHM,      // "Impt w/o HM": SRS, balanced merge order.
  kImpatienceNoHMNoSRS,  // "Impt w/o HM&SRS" == plain Patience sort.
  kQuicksort,
  kTimsort,
  kHeapsort,
};

inline const char* OfflineAlgorithmName(OfflineAlgorithm a) {
  switch (a) {
    case OfflineAlgorithm::kImpatience:
      return "Impatience";
    case OfflineAlgorithm::kImpatienceNoHM:
      return "Impt w/o HM";
    case OfflineAlgorithm::kImpatienceNoHMNoSRS:
      return "Impt w/o HM&SRS";
    case OfflineAlgorithm::kQuicksort:
      return "Quicksort";
    case OfflineAlgorithm::kTimsort:
      return "Timsort";
    case OfflineAlgorithm::kHeapsort:
      return "Heapsort";
  }
  return "?";
}

inline constexpr OfflineAlgorithm kAllOfflineAlgorithms[] = {
    OfflineAlgorithm::kImpatience,         OfflineAlgorithm::kImpatienceNoHM,
    OfflineAlgorithm::kImpatienceNoHMNoSRS, OfflineAlgorithm::kQuicksort,
    OfflineAlgorithm::kTimsort,            OfflineAlgorithm::kHeapsort,
};

// Sorts `items` in place by timestamp using the selected algorithm.
template <typename T, typename TimeOf = SyncTimeOf>
void OfflineSort(OfflineAlgorithm algorithm, std::vector<T>* items) {
  TimeOf time_of;
  auto less = [&time_of](const T& a, const T& b) {
    return time_of(a) < time_of(b);
  };
  switch (algorithm) {
    case OfflineAlgorithm::kImpatience:
      PatienceSortVector<T, TimeOf>(items, /*huffman_merge=*/true,
                                    /*speculative_run_selection=*/true);
      return;
    case OfflineAlgorithm::kImpatienceNoHM:
      PatienceSortVector<T, TimeOf>(items, /*huffman_merge=*/false,
                                    /*speculative_run_selection=*/true);
      return;
    case OfflineAlgorithm::kImpatienceNoHMNoSRS:
      PatienceSortVector<T, TimeOf>(items, /*huffman_merge=*/false,
                                    /*speculative_run_selection=*/false);
      return;
    case OfflineAlgorithm::kQuicksort:
      Quicksort(items->begin(), items->end(), less);
      return;
    case OfflineAlgorithm::kTimsort:
      Timsort(items->begin(), items->end(), less);
      return;
    case OfflineAlgorithm::kHeapsort:
      Heapsort(items->begin(), items->end(), less);
      return;
  }
  IMPATIENCE_CHECK(false);
}

// ---------------------------------------------------------------------------
// Online catalogue (Figure 8).

enum class OnlineAlgorithm {
  kImpatience,
  kPatience,  // via IncrementalAdapter
  kQuicksort,  // via IncrementalAdapter
  kTimsort,    // via IncrementalAdapter
  kHeapsort,   // natively incremental
};

inline const char* OnlineAlgorithmName(OnlineAlgorithm a) {
  switch (a) {
    case OnlineAlgorithm::kImpatience:
      return "Impatience";
    case OnlineAlgorithm::kPatience:
      return "Patience";
    case OnlineAlgorithm::kQuicksort:
      return "Quicksort";
    case OnlineAlgorithm::kTimsort:
      return "Timsort";
    case OnlineAlgorithm::kHeapsort:
      return "Heapsort";
  }
  return "?";
}

inline constexpr OnlineAlgorithm kAllOnlineAlgorithms[] = {
    OnlineAlgorithm::kImpatience, OnlineAlgorithm::kPatience,
    OnlineAlgorithm::kQuicksort,  OnlineAlgorithm::kTimsort,
    OnlineAlgorithm::kHeapsort,
};

namespace sort_internal {

// Generic functors adapting the offline sorts to IncrementalAdapter's
// SortFn policy (callable with (first, last, less)).
struct QuicksortFn {
  template <typename It, typename Less>
  void operator()(It first, It last, Less less) const {
    Quicksort(first, last, less);
  }
};

struct TimsortFn {
  template <typename It, typename Less>
  void operator()(It first, It last, Less less) const {
    Timsort(first, last, less);
  }
};

template <typename T, typename TimeOf>
struct PatienceSortFn {
  template <typename It, typename Less>
  void operator()(It first, It last, Less /*less*/) const {
    std::vector<T> buf(first, last);
    PatienceSortVector<T, TimeOf>(&buf, /*huffman_merge=*/true,
                                  /*speculative_run_selection=*/true);
    std::move(buf.begin(), buf.end(), first);
  }
};

}  // namespace sort_internal

// Creates an incremental sorter honouring the punctuation contract.
template <typename T, typename TimeOf = SyncTimeOf>
std::unique_ptr<IncrementalSorter<T, TimeOf>> MakeOnlineSorter(
    OnlineAlgorithm algorithm, ImpatienceConfig config = {}) {
  using sort_internal::PatienceSortFn;
  using sort_internal::QuicksortFn;
  using sort_internal::TimsortFn;
  switch (algorithm) {
    case OnlineAlgorithm::kImpatience:
      return std::make_unique<ImpatienceSorter<T, TimeOf>>(config);
    case OnlineAlgorithm::kPatience:
      return std::make_unique<
          IncrementalAdapter<T, PatienceSortFn<T, TimeOf>, TimeOf>>(
          PatienceSortFn<T, TimeOf>{}, "Patience");
    case OnlineAlgorithm::kQuicksort:
      return std::make_unique<IncrementalAdapter<T, QuicksortFn, TimeOf>>(
          QuicksortFn{}, "Quicksort");
    case OnlineAlgorithm::kTimsort:
      return std::make_unique<IncrementalAdapter<T, TimsortFn, TimeOf>>(
          TimsortFn{}, "Timsort");
    case OnlineAlgorithm::kHeapsort:
      return std::make_unique<HeapSorter<T, TimeOf>>();
  }
  IMPATIENCE_CHECK(false);
  return nullptr;
}

}  // namespace impatience

#endif  // IMPATIENCE_SORT_SORT_ALGORITHMS_H_
