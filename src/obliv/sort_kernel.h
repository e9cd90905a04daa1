// SortPolicy dispatch: one call site, any execution of the same logical
// sort.  The policy vocabulary itself lives in obliv/sort_policy.h (see its
// header comment for the per-algorithm contract); this header composes the
// kernels — reference network, blocked bitonic network, tag sort, each of
// the last two sequential or pool-parallel — and resolves SortPolicy::kAuto
// through a small measured cost model.
//
// A sort's algorithm comes from the policy; its worker count comes only
// from the pool it is handed (nullptr = ThreadPool::Global(), sized by
// OBLIVDB_THREADS).  kBlocked and kTagSort run their pool-parallel kernels
// when the pool has more than one worker and the range holds at least
// kSortFanOutMinLen elements, and their sequential kernels otherwise.  Both
// kernels of an algorithm produce the same element order, comparison count
// and traced event stream, so a 1-worker pool reproduces the sequential
// kernels exactly and the worker count changes only wall time.
//
// The kAuto model prices an (algorithm, workers) pair per element from
// four public quantities — element width, tag width (0 when the comparator
// has no faithful SortKey projection), range length, and pool worker count
// — and dispatches the cheaper algorithm.  All four inputs are public
// configuration or revealed sizes, so the resolution is itself a public
// function and traced runs stay input-independent.  The constants are
// fitted to BENCH_sort.json (see README "Sort architecture"):
//
//   * the blocked kernel costs ~1 ns per word per compare-exchange while an
//     element fits the cache line budget, ~2.4 ns once wide elements turn
//     the network DRAM-bandwidth-bound;
//   * a Beneš payload gate moves the same words with no comparator at
//     ~4 ns/word (one conditional swap, (2 log n - 1)/2 gates per element);
//   * switch planning walks permutation cycles at DRAM latency,
//     ~25 ns per element per network level.
//
// With these constants the model reproduces the measured crossovers: tag
// sort overtakes the blocked network on 72-byte entries between 2^13 and
// 2^14 and never wins on 16-byte items; the parallel kernels need both a
// multi-worker pool and >= kSortFanOutMinLen (2^16) elements to engage.
//
// Every policy preserves level II obliviousness; the policy choice and the
// worker count are public configuration.  tests/sort_kernel_test.cc and
// tests/tag_sort_test.cc pin the equivalences.

#ifndef OBLIVDB_OBLIV_SORT_KERNEL_H_
#define OBLIVDB_OBLIV_SORT_KERNEL_H_

#include <cstdint>

#include "common/bits.h"
#include "common/cancel.h"
#include "common/fault.h"
#include "memtrace/oarray.h"
#include "obliv/bitonic_sort.h"
#include "obliv/parallel_sort.h"
#include "obliv/sort_block.h"
#include "obliv/sort_policy.h"
#include "obliv/tag_sort.h"

namespace oblivdb::obliv {

// SortRange fans a sort out onto a multi-worker pool only from this many
// elements on; shorter sorts run their algorithm's sequential kernel.
// (internal::kParallelCutoff is the parallel kernel's own leaf size, not
// this floor.)  Measured on a 4-vCPU VM, 72-byte entries, 4 workers vs the
// sequential blocked kernel: no speedup from 2^12 to 2^15 (0.98-1.14x)
// against 3.0-3.7x at 2^16 and 2.8-3.0x at 2^17.  Below the floor the
// fork-join barriers also cost more than the work they split whenever
// other threads compete for the cores: two query sessions fanning out
// 12288-row sorts onto one 4-worker pool slowed 74% under three busy
// competing threads, the sequential kernels 12%.  A public constant, so
// the choice leaks nothing.
inline constexpr size_t kSortFanOutMinLen = size_t{1} << 16;

namespace internal {

// Measured model constants (ns; see the header comment for provenance).
inline constexpr double kCachedWordCmpNs = 1.0;   // elements <= 32 bytes
inline constexpr double kWideWordCmpNs = 2.4;     // elements > 32 bytes
inline constexpr double kBenesWordSwapNs = 4.0;   // per word per gate
inline constexpr double kPlanLevelNs = 25.0;      // per element per level
inline constexpr double kForkJoinNs = 50000.0;    // fixed per parallel sort
inline constexpr size_t kCachedCmpMaxBytes = 32;

// The parallel-scaling constants of the model.  The defaults are the
// fitted guesses from the single-core bench container (a wide pass is
// DRAM-bandwidth-bound, so its speedup saturates around 3 workers; the
// Beneš switch planner is only per-level parallel, so it caps earlier);
// CalibrateSortCostModel replaces them with values measured on the actual
// hardware.  Public configuration either way — the model's inputs and
// constants never depend on data.
struct SortCostModel {
  double parallel_efficiency = 0.6;  // per-extra-worker fraction of linear
  double wide_speedup_cap = 3.0;     // bandwidth ceiling, wide elements
  double plan_speedup_cap = 2.0;     // Beneš planning fan-out ceiling
  bool calibrated = false;           // set by CalibrateSortCostModel
};

// The process-wide model the kAuto resolution uses: the fitted defaults,
// or — when OBLIVDB_CALIBRATE=1 — the startup micro-probe's measurements
// (run once, on first use; see CalibrateSortCostModel in sort_kernel.cc).
const SortCostModel& CostModel();

inline double WordCmpNs(size_t elem_bytes) {
  return elem_bytes <= kCachedCmpMaxBytes ? kCachedWordCmpNs : kWideWordCmpNs;
}

// ~log2^2(n)/4 compare-exchanges per element over elem_bytes/8 words.
inline double NetworkNsPerElement(size_t elem_bytes, double levels) {
  return WordCmpNs(elem_bytes) * static_cast<double>(elem_bytes / 8) *
         levels * levels / 4.0;
}

inline double ParallelSpeedup(unsigned workers, double cap) {
  const double linear =
      1.0 +
      CostModel().parallel_efficiency * static_cast<double>(workers - 1);
  return linear < cap ? linear : cap;
}

// Speedup of a pass moving elem_bytes-wide elements: compute-bound while
// the element is cache-line-sized, bandwidth-capped beyond.
inline double PassSpeedup(size_t elem_bytes, unsigned workers) {
  return ParallelSpeedup(
      workers, elem_bytes <= kCachedCmpMaxBytes
                   ? static_cast<double>(workers)
                   : CostModel().wide_speedup_cap);
}

}  // namespace internal

// Startup micro-probe: times a few tiny sorts (narrow and wide elements,
// blocked vs. pool-parallel) and one Beneš switch-planning pass
// (sequential vs. pool-parallel), and derives measured values for the
// model's parallel-scaling constants.  With a single-worker pool there is
// nothing to measure and the fitted defaults are returned (marked
// calibrated).  Runs in a few milliseconds; everything it touches is
// synthetic local data, so it leaks nothing.  `pool` = nullptr means
// ThreadPool::Global().
//
// Invoked automatically (once) by internal::CostModel() when the
// OBLIVDB_CALIBRATE=1 environment variable is set; also callable directly
// (benches, tests).
internal::SortCostModel CalibrateSortCostModel(ThreadPool* pool = nullptr);

// Memoizing wrapper: one calibration per pool worker count, shared
// process-wide behind a mutex, so a service start pays the micro-probe
// once and every session (and every later QueryService instance) reuses
// the measurement.  The lock is taken only here — never on the sort hot
// path, where CostModel() remains a function-local static.  Hit/miss
// telemetry lands in the artifact cache's calibration counters
// (obliv/artifact_cache.h, ArtifactCache::Global().stats()).  This is what
// internal::CostModel() invokes under OBLIVDB_CALIBRATE=1.
internal::SortCostModel CalibrateSortCostModelShared(ThreadPool* pool =
                                                         nullptr);

// Estimated per-element cost of running algorithm `policy` on n elements
// of elem_bytes, with tags of tag_bytes (0 = comparator not
// TagProjectable), on a `workers`-thread pool.  The worker count only
// matters where SortRange actually fans out (workers > 1 and n >=
// kSortFanOutMinLen).  Exposed for the bench and tests; the absolute numbers
// only matter insofar as they rank the algorithms correctly at the
// decision boundaries.
inline double EstimateSortNsPerElement(SortPolicy policy, size_t elem_bytes,
                                       size_t tag_bytes, size_t n,
                                       unsigned workers) {
  using namespace internal;
  if (n < 2) return 0.0;
  const double levels = static_cast<double>(Log2Floor(CeilPow2(n)));
  const double inv_n = 1.0 / static_cast<double>(n);
  const double full_network = NetworkNsPerElement(elem_bytes, levels);
  const double tag_network = NetworkNsPerElement(tag_bytes, levels);
  // One Beneš pass: (2 log n - 1)/2 full-width gates per element, plus the
  // cycle-walking switch planner at kPlanLevelNs per element per level.
  const double benes_gates = kBenesWordSwapNs *
                             static_cast<double>(elem_bytes / 8) *
                             (2.0 * levels - 1.0) / 2.0;
  const double benes_plan = kPlanLevelNs * levels;
  // SortRange's fan-out condition: below it the sequential kernel runs
  // outright — no speedup, no fork-join cost.
  const bool fan_out = workers > 1 && n >= kSortFanOutMinLen;
  switch (policy) {
    case SortPolicy::kReference:
      // Four sink-tested by-value accesses per exchange: ~2x the blocked
      // kernel at every width (BENCH_sort.json); never the argmin, present
      // for completeness.  Always single-threaded.
      return 2.0 * full_network;
    case SortPolicy::kBlocked:
      if (!fan_out) return full_network;
      return full_network / PassSpeedup(elem_bytes, workers) +
             kForkJoinNs * inv_n;
    case SortPolicy::kTagSort: {
      if (!fan_out) return tag_network + benes_gates + benes_plan;
      // The narrow network fans out compute-bound, the Beneš columns
      // bandwidth-capped, and the planner per-level (plan_speedup_cap).
      // The columns are only credited with a speedup above the network
      // size floor where ApplyParallel actually fans out.
      const double gate_speedup =
          CeilPow2(n) >= BenesNetwork::kMinParallelApplySize
              ? PassSpeedup(elem_bytes, workers)
              : 1.0;
      return tag_network / PassSpeedup(tag_bytes, workers) +
             benes_gates / gate_speedup +
             benes_plan /
                 ParallelSpeedup(workers, CostModel().plan_speedup_cap) +
             kForkJoinNs * inv_n;
    }
    case SortPolicy::kAuto:
      break;
  }
  OBLIVDB_CHECK(false);
  return 0.0;
}

// Resolves kAuto to the cheaper eligible algorithm — kBlocked or kTagSort
// — for a sort of n elements of elem_bytes width on a `workers`-thread
// pool (tag_bytes = 0 when the comparator has no faithful projection).
// Non-kAuto policies pass through unchanged.  The inputs are all public,
// so the resolution leaks nothing.
inline SortPolicy ResolveSortPolicy(SortPolicy policy, size_t elem_bytes,
                                    size_t tag_bytes, size_t n,
                                    unsigned workers) {
  if (policy != SortPolicy::kAuto) return policy;
  if (tag_bytes != 0 && n >= kTagSortMinLen &&
      EstimateSortNsPerElement(SortPolicy::kTagSort, elem_bytes, tag_bytes, n,
                               workers) <
          EstimateSortNsPerElement(SortPolicy::kBlocked, elem_bytes,
                                   tag_bytes, n, workers)) {
    return SortPolicy::kTagSort;
  }
  return SortPolicy::kBlocked;
}

// Cost-model arbiter for the run-merge elision (core/order.h): given two
// adjacent runs of n1 and n2 elements where coveredX says run X already
// satisfies the target order, is [sort the uncovered runs, then one
// O(n log n) bitonic merge] estimated cheaper than one full O(n log^2 n)
// sort of the concatenation under `policy`?  Ties keep the merge (the
// pre-cost-model behaviour).  Every input is public — sizes, coverage
// flags derived from plan shape, the policy — so the decision is a pure
// function of public state; and because the merge's per-element cost is
// levels/2 compare-exchanges against the full sort's levels^2/4, the merge
// wins everywhere the older unconditional elision fired, keeping elision
// counts stable.  Both sides are priced at one worker, whatever the pool:
// the merge path in core/order.h runs single-threaded, crediting only the
// full sort with the pool's speedup did not make the plans it flipped any
// faster (bench_join_pipeline's star join), and a pool-independent
// decision keeps a plan's elisions — and so its trace — the same on every
// worker count.
template <typename T, typename Less>
  requires CtLess<Less, T>
bool RunMergePays(SortPolicy policy, size_t n1, bool covered1, size_t n2,
                  bool covered2) {
  const size_t n = n1 + n2;
  if (n < 2) return true;
  size_t tag_bytes = 0;
  if constexpr (TagProjectable<Less, T>) {
    tag_bytes = 8 * (Less::kSortKeyWords + 1);
  }
  auto sort_ns = [&](size_t len) -> double {
    if (len < 2) return 0.0;
    const SortPolicy resolved =
        ResolveSortPolicy(policy, sizeof(T), tag_bytes, len, /*workers=*/1);
    return static_cast<double>(len) *
           EstimateSortNsPerElement(resolved, sizeof(T), tag_bytes, len,
                                    /*workers=*/1);
  };
  const double full_ns = sort_ns(n);
  // One bitonic merge stage: log2(ceil_pow2(n)) levels of n/2
  // compare-exchanges, full-width, sequential.
  const double levels = static_cast<double>(Log2Floor(CeilPow2(n)));
  double merge_ns = static_cast<double>(n) * internal::WordCmpNs(sizeof(T)) *
                    static_cast<double>(sizeof(T) / 8) * levels / 2.0;
  if (!covered1) merge_ns += sort_ns(n1);
  if (!covered2) merge_ns += sort_ns(n2);
  return merge_ns <= full_ns;
}

// Policy dispatchers: one call site, any implementation.  `pool` supplies
// the workers (kBlocked's task fan-out, kTagSort's tag network, Beneš
// switch planning and column fan-out); nullptr means the process-wide
// ThreadPool::Global().  The relational layer passes ExecContext::pool.
// `chosen` (optional) receives the algorithm that ran — interesting under
// kAuto; operators record it in JoinStats::op_sort_policy_chosen.  It does
// not depend on the worker count.
template <typename T, typename Less>
  requires CtLess<Less, T>
void SortRange(memtrace::OArray<T>& a, size_t lo, size_t len,
               const Less& less, SortPolicy policy,
               uint64_t* comparisons = nullptr, ThreadPool* pool = nullptr,
               SortPolicy* chosen = nullptr) {
  // Cancellation checkpoint: one per operator sort.  The sort's position
  // and length are public, so the poll is oblivious-safe (common/cancel.h).
  Checkpoint("sort");
  // Below the fan-out floor nothing fans out, so don't touch the pool at
  // all — ThreadPool::Global() spawns its workers on first use, and a small
  // sort should not pay that side effect.
  unsigned workers = 1;
  if (policy != SortPolicy::kReference && len >= kSortFanOutMinLen) {
    workers = (pool != nullptr ? *pool : ThreadPool::Global()).worker_count();
  }
  size_t tag_bytes = 0;
  if constexpr (TagProjectable<Less, T>) {
    tag_bytes = 8 * (Less::kSortKeyWords + 1);
  }
  policy = ResolveSortPolicy(policy, sizeof(T), tag_bytes, len, workers);
  // Resolve every whole-path fallback *before* recording, so `chosen`
  // reports the algorithm that actually executes (the contract of
  // op_sort_policy_chosen and the annotated ExplainPlan).  Comparators
  // without a faithful projection cannot tag-sort, and below the tag
  // floor the blocked kernel runs outright (the mirror of the condition
  // inside BitonicSortRangeTaggedImpl).
  if (policy == SortPolicy::kTagSort &&
      (!TagProjectable<Less, T> || len < kTagSortMinLen)) {
    policy = SortPolicy::kBlocked;
  }
  if (chosen != nullptr) *chosen = policy;
  // Graceful degradation (common/fault.h): before fanning out, probe for a
  // failed task spawn (fault site "pool_spawn") and fall back to the
  // algorithm's sequential kernel.  Both kernels sort to the same element
  // order with a byte-identical trace, so a degraded run's output and
  // trace are unchanged; only wall time moves.  The probe consults only
  // the injector (spec, seed, arrival count) — never the data.
  bool parallel = workers > 1;
  if (parallel &&
      !(pool != nullptr ? *pool : ThreadPool::Global()).TrySpawnProbe()) {
    parallel = false;
    FaultInjector::Global().RecordDegradation();
  }
  switch (policy) {
    case SortPolicy::kBlocked:
      if (parallel) {
        BitonicSortRangeParallel(a, lo, len, less, /*threads=*/0, comparisons,
                                 internal::kCrossPassChunk, pool);
      } else {
        BitonicSortRangeBlocked(a, lo, len, less, comparisons);
      }
      break;
    case SortPolicy::kTagSort:
      if constexpr (TagProjectable<Less, T>) {
        if (parallel) {
          BitonicSortRangeTaggedParallel(a, lo, len, less, comparisons,
                                         kSortBlockBytes, pool);
        } else {
          BitonicSortRangeTagged(a, lo, len, less, comparisons,
                                 kSortBlockBytes, pool);
        }
      }
      break;
    case SortPolicy::kReference:
      BitonicSortRange(a, lo, len, less, comparisons);
      break;
    case SortPolicy::kAuto:
      OBLIVDB_CHECK(false);  // resolved above
      break;
  }
}

template <typename T, typename Less>
  requires CtLess<Less, T>
void Sort(memtrace::OArray<T>& a, const Less& less, SortPolicy policy,
          uint64_t* comparisons = nullptr, ThreadPool* pool = nullptr,
          SortPolicy* chosen = nullptr) {
  SortRange(a, 0, a.size(), less, policy, comparisons, pool, chosen);
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_SORT_KERNEL_H_
