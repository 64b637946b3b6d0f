// Views a set of owned sorted runs as the span list the RAM merge
// executors read in place.

#ifndef IMPATIENCE_TESTS_TESTING_RUN_SPANS_H_
#define IMPATIENCE_TESTS_TESTING_RUN_SPANS_H_

#include <span>
#include <vector>

namespace impatience::testing {

template <typename T>
std::vector<std::span<const T>> RunSpans(
    const std::vector<std::vector<T>>& runs) {
  return std::vector<std::span<const T>>(runs.begin(), runs.end());
}

}  // namespace impatience::testing

#endif  // IMPATIENCE_TESTS_TESTING_RUN_SPANS_H_
