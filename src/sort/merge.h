// Merge kernels shared by the sorting algorithms.
//
// Patience/Impatience sort produce a set of sorted runs that must be merged
// into one sorted sequence. Following the paper (§III-B, §III-E1) runs
// merge two at a time, smallest two first ("Huffman merge"), which
// minimizes the total number of element moves exactly as in Huffman
// coding. That order is decided in one place, BuildHuffmanPlan, and the
// sorters' merges run it through one of three executors:
//
//   * HuffmanMergeInto runs it node by node as a binary cascade.
//   * ParallelMergeRunsInto runs it as a task DAG on the thread pool:
//     small subtrees collapse into k-way loser-tree leaves and the final
//     merge is split in two. Below its size gate it runs the cascade, so
//     it is the one call a sorter's RAM merge makes.
//   * HuffmanCursorMergeInto runs one LoserTreePass over chunked run
//     cursors (spilled runs), keyed by each run's position in the plan's
//     in-order leaf walk.
//
// Every executor breaks cross-run ties by that in-order position, which is
// exactly the order the cascade's stable binary merges produce, so their
// outputs are byte-identical by construction. A balanced (size-oblivious)
// order remains as the paper's "w/o HM" ablation baseline.
//
// Runs are read in place: the RAM executors take each run as a span they
// do not own (a punctuation's cut of a live run, a slice of the offline
// sort's key array) and leave it untouched. The only buffers a merge owns
// are its interior outputs, the cascade levels between the runs and the
// caller's output. Those come from the caller's MergeBufferPool and go back
// to it on the calling thread when the merge is done. The cursor merge has
// no interior and writes straight into the output; the parallel executor
// also allocates small per-call bookkeeping (plan, fan-in/parent/role/
// dependency arrays) and per-leaf cursor and loser-tree scratch, all
// O(runs), not O(events).

#ifndef IMPATIENCE_SORT_MERGE_H_
#define IMPATIENCE_SORT_MERGE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "sort/kernels.h"

namespace impatience {

// A free list of merge buffers, so repeated merges (one per punctuation,
// or a whole offline merge tree) do not thrash the allocator. MemoryBytes()
// counts only the buffers the pool holds: a buffer Acquire hands out
// belongs to its new owner, who counts it, and any vector may be Released
// into the pool, whether it came from Acquire or not.
template <typename T>
class MergeBufferPool {
 public:
  // Returns an empty vector with at least `capacity` reserved.
  std::vector<T> Acquire(size_t capacity) {
    std::vector<T> buf;
    if (!free_.empty()) {
      buf = std::move(free_.back());
      free_.pop_back();
      held_bytes_ -= buf.capacity() * sizeof(T);
      buf.clear();
    }
    buf.reserve(capacity);
    return buf;
  }

  void Release(std::vector<T>&& buf) {
    if (buf.capacity() == 0) return;
    held_bytes_ += buf.capacity() * sizeof(T);
    free_.push_back(std::move(buf));
  }

  // Bytes reserved by the held buffers.
  size_t MemoryBytes() const { return held_bytes_; }

  // Frees held buffers until at most `max_bytes` are retained, so a pool
  // sized by a burst does not hold that memory forever.
  void Trim(size_t max_bytes) {
    while (held_bytes_ > max_bytes && !free_.empty()) {
      held_bytes_ -= free_.back().capacity() * sizeof(T);
      free_.pop_back();
    }
  }

 private:
  std::vector<std::vector<T>> free_;
  size_t held_bytes_ = 0;
};

// Statistics describing the work a merge performed; used by ablation
// benchmarks to quantify the benefit of the Huffman order.
struct MergeStats {
  // Total elements moved across all merge steps (the quantity the Huffman
  // order minimizes). For the binary cascades this is the sum of both
  // input sizes per merge; for the single-pass cursor merge, and for a
  // lone run copied out, it is each element once. ParallelMergeRunsInto
  // reports the plan's binary-cascade figure even when it executes plan
  // subtrees as k-way leaf tasks, so the Huffman cost model stays
  // comparable across execution strategies.
  uint64_t elements_moved = 0;
  // Number of merge steps: binary merges for the cascades, one per call
  // for the cursor merge.
  uint64_t binary_merges = 0;
  // Merge steps resolved by a disjoint-run fast path. For binary merges:
  // the two ranges did not overlap and concatenated as two bulk copies.
  // For the parallel merge's k-way leaves: a run the loser tree emitted
  // start-to-end in a single bulk copy, i.e. it was disjoint from
  // everything still unmerged when it won (disjoint prefix runs each count
  // once). Unlike the fields above, this counter is execution-dependent:
  // the parallel merge splits the final merge in two and each half
  // classifies independently, a k-way leaf can see disjointness a binary
  // cascade of the same runs would not (and vice versa), and the tree's
  // adaptive gallop may emit a disjoint run element-by-element when
  // earlier short chunks raised its gallop threshold — so counts are only
  // comparable within one merge strategy.
  uint64_t disjoint_concats = 0;
};

// ---------------------------------------------------------------------------
// Merge plans.

// A binary merge tree over k runs, as a cascade runs it: the Huffman
// plan, or the balanced one of the "w/o HM" ablation. Ids [0, k) name the
// input runs; id k + j names merges[j]'s output.
struct MergePlan {
  struct Merge {
    uint32_t left;  // Input ids.
    uint32_t right;
    size_t size;  // Elements in the merged output.
  };
  size_t runs = 0;
  // The k - 1 binary merges in cascade order: every merge's inputs are
  // produced by earlier entries, and merges.back() is the root.
  std::vector<Merge> merges;

  uint32_t root() const {
    return static_cast<uint32_t>(runs + merges.size() - 1);
  }

  // The input runs under `id`, left to right. Over the whole tree this is
  // the cascade's tie order: run i's elements precede run j's equal ones
  // iff i comes first, because every binary merge keeps its left input's
  // equal elements first.
  std::vector<uint32_t> LeafOrder(uint32_t id) const {
    std::vector<uint32_t> leaves;
    std::vector<uint32_t> stack = {id};
    while (!stack.empty()) {
      const uint32_t n = stack.back();
      stack.pop_back();
      if (n < runs) {
        leaves.push_back(n);
        continue;
      }
      const Merge& m = merges[n - runs];
      stack.push_back(m.right);  // Left child on top: visited first.
      stack.push_back(m.left);
    }
    return leaves;
  }
};

// Plans the cascade over k >= 1 runs, run i holding size_of(i) elements:
// repeatedly merges the two smallest surviving runs, the first one popped
// on the left. This is the only place the size heap runs. It allocates
// just the heap and the plan, because it sits on every punctuation merge.
template <typename SizeOf>
MergePlan BuildHuffmanPlan(size_t k, SizeOf size_of) {
  MergePlan plan;
  plan.runs = k;
  if (k < 2) return plan;
  plan.merges.reserve(k - 1);
  struct Entry {
    size_t size;
    uint32_t id;
  };
  auto size_greater = [](const Entry& a, const Entry& b) {
    return a.size > b.size;
  };
  std::vector<Entry> storage;
  storage.reserve(k);
  std::priority_queue<Entry, std::vector<Entry>, decltype(size_greater)>
      heap(size_greater, std::move(storage));
  for (size_t i = 0; i < k; ++i) {
    const uint32_t run = static_cast<uint32_t>(i);
    heap.push(Entry{size_of(i), run});
  }
  for (;;) {
    const Entry a = heap.top();
    heap.pop();
    const Entry b = heap.top();
    heap.pop();
    plan.merges.push_back({a.id, b.id, a.size + b.size});
    if (heap.empty()) return plan;
    heap.push(Entry{a.size + b.size,
                    static_cast<uint32_t>(k + plan.merges.size() - 1)});
  }
}

namespace merge_internal {

// The non-empty runs of `runs`, in order: empty runs take no part in a
// plan. Reserves room for views of the plan's interior outputs too.
template <typename T>
std::vector<std::span<const T>> NonEmptyRuns(
    const std::vector<std::span<const T>>& runs) {
  std::vector<std::span<const T>> rs;
  rs.reserve(2 * runs.size());
  for (const std::span<const T> r : runs) {
    if (!r.empty()) rs.push_back(r);
  }
  return rs;
}

template <typename T>
MergePlan PlanRuns(const std::vector<std::span<const T>>& runs) {
  return BuildHuffmanPlan(runs.size(),
                          [&runs](size_t i) { return runs[i].size(); });
}

// Appends the stable merge of `a` and `b` to `out` (on ties, `a` first).
// Returns true when the disjoint fast path ran.
template <typename T, typename Less>
bool MergeTwo(std::span<const T> a, std::span<const T> b, Less less,
              std::vector<T>* out) {
  return kernels::MergeIntoVector(a.data(), a.data() + a.size(), b.data(),
                                  b.data() + b.size(), less, out);
}

// Runs `plan` over the non-empty runs `rs` merge by merge, appending the
// result to `out`. A lone run needs no merge: it is copied out, one move
// per element.
template <typename T, typename Less>
void RunCascade(const MergePlan& plan, std::vector<std::span<const T>> rs,
                Less less, std::vector<T>* out, MergeStats* stats,
                MergeBufferPool<T>* pool) {
  const size_t k = rs.size();
  if (k == 0) return;
  if (k == 1) {
    out->insert(out->end(), rs[0].begin(), rs[0].end());
    if (stats != nullptr) stats->elements_moved += rs[0].size();
    return;
  }
  MergeBufferPool<T> local_pool;
  if (pool == nullptr) pool = &local_pool;
  // rs[k + j] reads merges[j]'s output, which interior[j] holds until its
  // parent has read it; the root writes straight into `out`.
  rs.resize(2 * k - 1);
  std::vector<std::vector<T>> interior(k - 1);
  for (size_t j = 0; j + 1 < k; ++j) {
    const MergePlan::Merge& m = plan.merges[j];
    std::vector<T>* dst = j + 2 < k ? &interior[j] : out;
    if (dst != out) *dst = pool->Acquire(m.size);
    const bool disjoint = MergeTwo(rs[m.left], rs[m.right], less, dst);
    rs[k + j] = *dst;
    if (stats != nullptr) {
      stats->elements_moved += m.size;
      ++stats->binary_merges;
      if (disjoint) ++stats->disjoint_concats;
    }
    for (const uint32_t id : {m.left, m.right}) {
      if (id >= k) pool->Release(std::move(interior[id - k]));
    }
  }
}

}  // namespace merge_internal

// Merges `runs` (each sorted) into a single sorted sequence appended to
// `out`, merging the two smallest runs first (§III-E1). The runs are read
// in place; `pool` (optional) recycles the interior buffers.
template <typename T, typename Less>
void HuffmanMergeInto(const std::vector<std::span<const T>>& runs, Less less,
                      std::vector<T>* out, MergeStats* stats = nullptr,
                      MergeBufferPool<T>* pool = nullptr) {
  TRACE_SPAN("merge.huffman");
  std::vector<std::span<const T>> rs = merge_internal::NonEmptyRuns(runs);
  const MergePlan plan = merge_internal::PlanRuns(rs);
  merge_internal::RunCascade(plan, std::move(rs), less, out, stats, pool);
}

// ---------------------------------------------------------------------------
// Run cursors and the k-way loser-tree pass.
//
// A RunCursor yields one sorted run as a sequence of sorted chunks: a RAM
// run is a single chunk (VectorRunCursor), a spilled run one chunk per
// on-disk block. LoserTreePass merges k cursors with a tournament (loser)
// tree: tree[1..k-1] stores the cursor that lost each match, tree[0] the
// overall winner, and emitting the winner replays only its leaf-to-root
// path — one output pass with O(log k) comparisons per element, instead
// of the cascade's pass per tree level. Presented in plan leaf order, with
// ties to the lower slot, a k-way merge under that total order has exactly
// one valid output, so neither chunking nor the single pass can change a
// byte.

template <typename T>
class RunCursor {
 public:
  virtual ~RunCursor() = default;
  // Exact number of elements the cursor yields across all chunks; drives
  // the Huffman plan and output reservation.
  virtual size_t total() const = 0;
  // Next chunk [first, second), or {nullptr, nullptr} once exhausted.
  // Pointers from the previous chunk are invalidated.
  virtual std::pair<const T*, const T*> NextChunk() = 0;
};

// A RAM-resident sorted range as a single chunk. Does not own the range.
template <typename T>
class VectorRunCursor final : public RunCursor<T> {
 public:
  VectorRunCursor(const T* begin, const T* end) : begin_(begin), end_(end) {}
  size_t total() const override {
    return static_cast<size_t>(end_ - begin_);
  }
  std::pair<const T*, const T*> NextChunk() override {
    if (done_ || begin_ == end_) return {nullptr, nullptr};
    done_ = true;
    return {begin_, end_};
  }

 private:
  const T* begin_;
  const T* end_;
  bool done_ = false;
};

// Largest plan subtree the parallel merge collapses into one k-way leaf:
// beyond this the tree and the k run heads stop fitting in L1/L2 and
// comparisons start missing cache, so wider subtrees stay binary merges.
inline constexpr size_t kLoserTreeMaxFanIn = 64;

// Reusable loser-tree state: the loser array, the winner bracket used to
// (re)build it, and the per-cursor chunk positions. The sorter keeps one
// across its spilled-run cursor merges so steady-state merges allocate
// nothing; MemoryBytes() feeds the owner's memory accounting.
template <typename T>
struct LoserTreeScratch {
  std::vector<int32_t> tree;     // Losers; tree[0] holds the winner.
  std::vector<int32_t> winners;  // Winner bracket, build only.
  std::vector<const T*> begin;   // Current chunk starts (concat detection).
  std::vector<const T*> cur;     // Next unmerged element per cursor.
  std::vector<const T*> end;     // One past each current chunk.

  size_t MemoryBytes() const {
    return (tree.capacity() + winners.capacity()) * sizeof(int32_t) +
           (begin.capacity() + cur.capacity() + end.capacity()) *
               sizeof(const T*);
  }
};

// One loser-tree pass: merges `cursors[0..k)` into `out` (appended).
// Cross-run ties resolve to the lower slot, so the caller presents cursors
// in tie-break order. Counts a chunk emitted start-to-end in one bulk copy
// (disjoint from everything then unmerged) in `*disjoint_concats` when
// that is non-null; callers account moves and passes themselves.
template <typename T, typename Less>
void LoserTreePass(RunCursor<T>* const* cursors, size_t k, Less less,
                   std::vector<T>* out, uint64_t* disjoint_concats,
                   LoserTreeScratch<T>* scratch) {
  size_t total = 0;
  for (size_t i = 0; i < k; ++i) total += cursors[i]->total();
  out->reserve(out->size() + total);
  if (k == 0) return;
  LoserTreeScratch<T>& sc = *scratch;
  sc.begin.resize(k);
  sc.cur.resize(k);
  sc.end.resize(k);
  // Loads cursor i's next non-empty chunk; an exhausted cursor parks at
  // cur == end == nullptr.
  auto refill = [&sc, cursors](size_t i) {
    for (;;) {
      const std::pair<const T*, const T*> c = cursors[i]->NextChunk();
      if (c.first != c.second || c.first == nullptr) {
        sc.begin[i] = sc.cur[i] = c.first;
        sc.end[i] = c.second;
        return;
      }
    }
  };
  for (size_t i = 0; i < k; ++i) refill(i);
  // True when slot i's current element must be emitted before slot j's:
  // smaller element first, exhausted cursors last, ties to the lower slot.
  auto beats = [&sc, &less](int32_t i, int32_t j) {
    if (sc.cur[j] == sc.end[j]) return sc.cur[i] != sc.end[i];
    if (sc.cur[i] == sc.end[i]) return false;
    if (less(*sc.cur[i], *sc.cur[j])) return true;
    if (less(*sc.cur[j], *sc.cur[i])) return false;
    return i < j;
  };
  // Build: winner bracket over the implicit tree with leaves at
  // [k, 2k); each internal node keeps its loser, promotes its winner.
  sc.tree.resize(k);
  sc.winners.resize(2 * k);
  for (size_t i = 0; i < k; ++i) {
    sc.winners[k + i] = static_cast<int32_t>(i);
  }
  for (size_t n = k - 1; n >= 1; --n) {
    const int32_t a = sc.winners[2 * n];
    const int32_t b = sc.winners[2 * n + 1];
    if (beats(a, b)) {
      sc.winners[n] = a;
      sc.tree[n] = b;
    } else {
      sc.winners[n] = b;
      sc.tree[n] = a;
    }
  }
  int32_t w = sc.winners[1];
  sc.tree[0] = w;
  // Replays the winner's leaf-to-root path: the advanced (or exhausted)
  // cursor competes with each stored loser on the way up; returns the new
  // winner.
  auto replay = [&sc, &beats, k](int32_t c) {
    for (size_t t = (k + static_cast<size_t>(c)) >> 1; t >= 1; t >>= 1) {
      if (beats(sc.tree[t], c)) std::swap(sc.tree[t], c);
    }
    sc.tree[0] = c;
    return c;
  };
  // Adaptive main loop, timsort-style. The lean path emits one element
  // and replays the winner's leaf-to-root path — the textbook log2(k)
  // compares per element, which is all a finely interleaved input can
  // ever pay. A gallop attempt additionally walks the path for the
  // runner-up (the best cursor the winner defeated) and bulk-copies the
  // winner's entire lead over it in one chunk, which is how runs with
  // temporal locality — the punctuation-merge common case — move at
  // memcpy speed. `min_streak` prices the attempt: it starts optimistic
  // (gallop immediately, so a time-disjoint run is emitted start-to-end
  // in its first chunk), short chunks raise the bar until a cursor must
  // win that many single steps in a row to earn another attempt, and long
  // chunks lower it again.
  constexpr ptrdiff_t kGallopWin = 8;     // Chunk length that pays.
  constexpr int32_t kMaxMinStreak = 31;   // Attempt-rate floor, 1/31.
  int32_t min_streak = 0;
  int32_t streak = 0;
  while (sc.cur[w] != sc.end[w]) {
    if (streak < min_streak) {
      out->push_back(*sc.cur[w]);
      if (++sc.cur[w] == sc.end[w]) refill(w);
      const int32_t c = replay(w);
      streak = c == w ? streak + 1 : 0;
      w = c;
      continue;
    }
    // Runner-up: min over the losers stored on the winner's path.
    int32_t ru = -1;
    for (size_t t = (k + static_cast<size_t>(w)) >> 1; t >= 1; t >>= 1) {
      if (ru == -1 || beats(sc.tree[t], ru)) ru = sc.tree[t];
    }
    // Everything in the winner's chunk that precedes the runner-up's head
    // is safe to emit without touching the tree: gallop for the boundary
    // and bulk copy. Tie elements belong to whichever slot is lower.
    const T* p = sc.cur[w];
    const T* bound;
    if (ru == -1 || sc.cur[ru] == sc.end[ru]) {
      bound = sc.end[w];
    } else if (w < ru) {
      bound = kernels::GallopUpperBound(p, sc.end[w], *sc.cur[ru], less);
    } else {
      bound = kernels::GallopLowerBound(p, sc.end[w], *sc.cur[ru], less);
    }
    out->insert(out->end(), p, bound);
    if (disjoint_concats != nullptr && p == sc.begin[w] &&
        bound == sc.end[w]) {
      ++*disjoint_concats;
    }
    min_streak = bound - p >= kGallopWin
                     ? 0
                     : std::min(kMaxMinStreak, min_streak + 1);
    streak = 0;
    sc.cur[w] = bound;
    if (bound == sc.end[w]) refill(w);
    w = replay(w);
  }
}

// Merges `cursors` (each a sorted run) into `out` (appended), byte-
// identical to HuffmanMergeInto of the same runs in the same order: the
// plan is built over the cursors' exact totals and one LoserTreePass
// merges them in its leaf order, whatever the fan-in. A disk-backed merge
// is bandwidth-bound, and a second pass would re-stage spilled data. Peak
// transient memory is one chunk per cursor plus the tree (`scratch`,
// optional, recycles it).
//
// MergeStats: elements_moved counts each element once (single pass),
// binary_merges counts 1 per call, disjoint_concats is not tracked (chunk
// granularity hides whole-run copies).
template <typename T, typename Less>
void HuffmanCursorMergeInto(
    std::vector<RunCursor<T>*>* cursors, Less less, std::vector<T>* out,
    MergeStats* stats = nullptr,
    std::type_identity_t<LoserTreeScratch<T>*> scratch = nullptr) {
  TRACE_SPAN("merge.cursor");
  std::vector<RunCursor<T>*>& cs = *cursors;
  cs.erase(std::remove_if(
               cs.begin(), cs.end(),
               [](RunCursor<T>* c) { return c->total() == 0; }),
           cs.end());
  if (cs.empty()) return;
  const MergePlan plan = BuildHuffmanPlan(
      cs.size(), [&cs](size_t i) { return cs[i]->total(); });
  if (stats != nullptr) {
    stats->elements_moved += plan.merges.empty() ? cs[0]->total()
                                                 : plan.merges.back().size;
    ++stats->binary_merges;
  }
  LoserTreeScratch<T> local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  std::vector<RunCursor<T>*> slots;
  slots.reserve(cs.size());
  for (const uint32_t i : plan.LeafOrder(plan.root())) slots.push_back(cs[i]);
  LoserTreePass(slots.data(), slots.size(), less, out, nullptr, scratch);
}

// ---------------------------------------------------------------------------
// Parallel Huffman merge.

// The parallel executor runs only when the merge can pay for its tasks: at
// least this many runs totalling at least this many bytes, on a pool of
// two or more threads. Smaller merges run HuffmanMergeInto instead. Three
// runs already split the final merge in two next to the first merge.
inline constexpr size_t kParallelMergeMinRuns = 3;
inline constexpr size_t kParallelMergeMinBytes = size_t{1} << 20;

// Merges `runs` like HuffmanMergeInto, executing the plan as a task DAG on
// `threads` (nullptr = ThreadPool::Global()): maximal plan subtrees whose
// fan-in fits one loser tree collapse into single k-way leaf tasks that
// merge their input runs in one LoserTreePass (their leaf order is the
// plan's, so the bytes written are the cascade's), every surviving binary
// merge starts as soon as its two inputs are ready, and the final merge is
// split at a GallopLowerBound midpoint so both halves of the output are
// written in parallel into the pre-sized destination. Output is
// byte-identical to HuffmanMergeInto, and MergeStats (bar the
// execution-dependent disjoint_concats) reports the plan's binary cascade
// regardless of how leaves execute.
//
// Reads the runs in place. Every interior buffer comes from `pool` and
// goes back to it, on the calling thread: interior buffers are acquired
// before any task starts and released after the task group drains, so
// tasks never touch the (single-threaded) pool. Requires T
// default-constructible (the output is resized up front). Returns the
// number of pool tasks the merge used — 0 means HuffmanMergeInto ran.
template <typename T, typename Less>
size_t ParallelMergeRunsInto(const std::vector<std::span<const T>>& runs,
                             Less less, std::vector<T>* out,
                             MergeStats* stats = nullptr,
                             std::type_identity_t<MergeBufferPool<T>*> pool =
                                 nullptr,
                             ThreadPool* threads = nullptr) {
  static_assert(std::is_default_constructible_v<T>,
                "parallel merge resizes the output vector");
  size_t total = 0;
  size_t nonempty = 0;
  for (const std::span<const T> r : runs) {
    total += r.size();
    nonempty += r.empty() ? 0 : 1;
  }
  ThreadPool& tp = threads != nullptr ? *threads : ThreadPool::Global();
  if (tp.thread_count() < 2 || nonempty < kParallelMergeMinRuns ||
      total * sizeof(T) < kParallelMergeMinBytes) {
    HuffmanMergeInto(runs, less, out, stats, pool);
    return 0;
  }
  MergeBufferPool<T> local_pool;
  if (pool == nullptr) pool = &local_pool;

  std::vector<std::span<const T>> rs = merge_internal::NonEmptyRuns(runs);
  const MergePlan plan = merge_internal::PlanRuns(rs);
  const size_t k = plan.runs;
  const size_t root = k - 2;
  if (stats != nullptr) {
    for (const MergePlan::Merge& m : plan.merges) {
      stats->elements_moved += m.size;
    }
    stats->binary_merges += plan.merges.size();
  }
  // Fan-in and parent of every merge (children precede their parent in
  // plan order).
  std::vector<uint32_t> fanin(k - 1, 0);
  std::vector<size_t> parent(k - 1, root);
  for (size_t j = 0; j + 1 < k; ++j) {
    for (const uint32_t c : {plan.merges[j].left, plan.merges[j].right}) {
      if (c < k) {
        ++fanin[j];
      } else {
        fanin[j] += fanin[c - k];
        parent[c - k] = j;
      }
    }
  }
  // Roles, parents first: a merge below a k-way root is absorbed into it;
  // otherwise a non-root merge whose fan-in fits one tree (3+ runs)
  // becomes a k-way root; everything else stays a binary merge.
  enum : uint8_t { kBinary = 0, kKwayRoot = 1, kAbsorbed = 2 };
  std::vector<uint8_t> role(k - 1, kBinary);
  for (size_t j = root; j-- > 0;) {
    if (role[parent[j]] != kBinary) {
      role[j] = kAbsorbed;
    } else if (fanin[j] >= 3 && fanin[j] <= kLoserTreeMaxFanIn) {
      role[j] = kKwayRoot;
    }
  }
  // Ready set and dependency counters, fixed before any task runs: k-way
  // roots depend on nothing, binary merges wait on their merge children
  // (never absorbed ones). Interior buffers come from the pool here, on
  // the calling thread; interior[j] holds merges[j]'s output, which its
  // task publishes as rs[k + j] before its parent can start.
  rs.resize(2 * k - 1);
  std::vector<std::vector<T>> interior(k - 1);
  std::vector<std::atomic<int>> missing(k - 1);
  std::vector<size_t> ready;
  size_t task_nodes = 0;
  for (size_t j = 0; j + 1 < k; ++j) {
    if (role[j] == kAbsorbed) continue;
    ++task_nodes;
    if (j != root) interior[j] = pool->Acquire(plan.merges[j].size);
    const int deps = role[j] == kKwayRoot
                         ? 0
                         : (plan.merges[j].left >= k ? 1 : 0) +
                               (plan.merges[j].right >= k ? 1 : 0);
    missing[j].store(deps, std::memory_order_relaxed);
    if (deps == 0) ready.push_back(j);
  }
  // Split the final merge in two whenever the left side has a midpoint to
  // pivot on (both thresholds already passed for the run set as a whole).
  const uint32_t root_left = plan.merges[root].left;
  const bool split_final =
      (root_left < k ? rs[root_left].size()
                     : plan.merges[root_left - k].size) >= 2;

  const size_t out0 = out->size();
  out->resize(out0 + total);  // Pre-sized so halves can write in place.

  // Tasks record disjoint-concat fast paths here; folded into `stats`
  // after the group drains (the other MergeStats fields come from the
  // plan and are already exact).
  std::atomic<uint64_t> disjoint_concats{0};
  auto merge_to = [&less, &disjoint_concats](const T* pa, const T* ea,
                                            const T* pb, const T* eb,
                                            T* dst) {
    bool disjoint = false;
    kernels::MergeToPtr(pa, ea, pb, eb, less, dst, &disjoint);
    if (disjoint) disjoint_concats.fetch_add(1, std::memory_order_relaxed);
  };
  TaskGroup group(&tp);
  std::function<void(size_t)> exec_node = [&](size_t j) {
    TRACE_SPAN("merge.task");
    const MergePlan::Merge& m = plan.merges[j];
    const std::span<const T> a = rs[m.left];
    const std::span<const T> b = rs[m.right];
    if (j == root) {
      T* dst = out->data() + out0;
      const T* pa = a.data();
      const T* ea = pa + a.size();
      const T* pb = b.data();
      const T* eb = pb + b.size();
      if (!split_final) {
        merge_to(pa, ea, pb, eb, dst);
        return;
      }
      // Everything strictly below the left midpoint forms the first half;
      // ties sit at the boundary exactly as the stable sequential merge
      // would place them (left's equals first).
      const T* ma = pa + a.size() / 2;
      const T* mb = kernels::GallopLowerBound(pb, eb, *ma, less);
      T* mid = dst + (ma - pa) + (mb - pb);
      group.Run([&merge_to, pa, ma, pb, mb, dst] {
        TRACE_SPAN("merge.final_half");
        merge_to(pa, ma, pb, mb, dst);
      });
      group.Run([&merge_to, ma, ea, mb, eb, mid] {
        TRACE_SPAN("merge.final_half");
        merge_to(ma, ea, mb, eb, mid);
      });
      return;
    }
    std::vector<T>& dst = interior[j];
    if (role[j] == kKwayRoot) {
      TRACE_SPAN("merge.kway_leaf");
      std::vector<VectorRunCursor<T>> cursors;
      for (const uint32_t i : plan.LeafOrder(static_cast<uint32_t>(k + j))) {
        cursors.emplace_back(rs[i].data(), rs[i].data() + rs[i].size());
      }
      std::vector<RunCursor<T>*> slots;
      for (VectorRunCursor<T>& c : cursors) slots.push_back(&c);
      uint64_t disjoint = 0;
      LoserTreeScratch<T> scratch;
      LoserTreePass(slots.data(), slots.size(), less, &dst, &disjoint,
                    &scratch);
      disjoint_concats.fetch_add(disjoint, std::memory_order_relaxed);
    } else if (merge_internal::MergeTwo(a, b, less, &dst)) {
      disjoint_concats.fetch_add(1, std::memory_order_relaxed);
    }
    rs[k + j] = dst;
    const size_t p = parent[j];
    if (missing[p].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group.Run([&exec_node, p] { exec_node(p); });
    }
  };
  for (const size_t j : ready) {
    group.Run([&exec_node, j] { exec_node(j); });
  }
  group.Wait();
  if (stats != nullptr) {
    stats->disjoint_concats +=
        disjoint_concats.load(std::memory_order_relaxed);
  }
  // The group has drained: hand every interior buffer back to the pool,
  // last acquired first, so the same merge run again finds each buffer it
  // needs on top of the free list.
  for (size_t j = interior.size(); j-- > 0;) {
    pool->Release(std::move(interior[j]));
  }
  return task_nodes + (split_final ? 2 : 0);
}

// Merges `runs` pairwise in rounds (run 0 with run 1, run 2 with run 3,
// ..., an odd run out carried to the next round) regardless of size — the
// baseline order used by "Impatience w/o HM" in Figure 7. Reads the runs
// in place, like HuffmanMergeInto.
template <typename T, typename Less>
void BalancedMergeInto(const std::vector<std::span<const T>>& runs,
                       Less less, std::vector<T>* out,
                       MergeStats* stats = nullptr,
                       MergeBufferPool<T>* pool = nullptr) {
  std::vector<std::span<const T>> rs = merge_internal::NonEmptyRuns(runs);
  MergePlan plan;
  plan.runs = rs.size();
  // The ids left in the current round, and every id's size.
  std::vector<uint32_t> round(rs.size());
  std::vector<size_t> size(rs.size());
  for (uint32_t i = 0; i < rs.size(); ++i) {
    round[i] = i;
    size[i] = rs[i].size();
  }
  while (round.size() > 1) {
    size_t w = 0;
    for (size_t i = 0; i + 1 < round.size(); i += 2) {
      size.push_back(size[round[i]] + size[round[i + 1]]);
      plan.merges.push_back({round[i], round[i + 1], size.back()});
      round[w++] = static_cast<uint32_t>(size.size() - 1);
    }
    if (round.size() % 2 == 1) round[w++] = round.back();
    round.resize(w);
  }
  merge_internal::RunCascade(plan, std::move(rs), less, out, stats, pool);
}

}  // namespace impatience

#endif  // IMPATIENCE_SORT_MERGE_H_
