// Key/payload-separated oblivious sort ("tag sort").
//
// The blocked kernel (obliv/sort_block.h) narrowed the gap to the hardware
// but a compare-exchange over a 72-byte Entry is still a 9-word CondSwap —
// the L2 bandwidth floor.  The comparator, however, only ever consults a
// few words.  Tag sort exploits that:
//
//   1. extract an 8(W+1)-byte tag — the comparator's faithful SortKey<W>
//      projection (obliv/sort_key.h) plus the element's range-relative
//      index — with one linear pass;
//   2. run the ordinary blocked bitonic kernel on the narrow tags.  A
//      faithful projection makes every swap decision identical to what the
//      network would decide on the full elements, so the sorted tags carry
//      the *exact* reference permutation, ties included;
//   3. route the wide payloads to their slots with one Beneš pass
//      (obliv/permute.h): ~(2 log n - 1)/2 comparator-free conditional
//      swaps per element instead of ~log^2(n)/4 full compare-exchanges.
//
// Every phase's public access sequence is a function of the range length
// alone, so level II obliviousness is preserved deterministically; the
// permutation and switch plan stay in local memory (see permute.h for the
// working-set note).  tests/tag_sort_test.cc proves output equality with
// the reference network for all pipeline comparators and trace
// data-independence of the whole composite.
//
// The multi-core kernel (BitonicSortRangeTaggedParallel, what
// SortPolicy::kTagSort runs on a multi-worker pool) runs the same three
// phases with the narrow sort on the pool-parallel kernel and the Beneš
// columns fanned out per level; both replay their traces in deterministic
// order, so the traced event stream stays byte-identical to the sequential
// tag sort's.

#ifndef OBLIVDB_OBLIV_TAG_SORT_H_
#define OBLIVDB_OBLIV_TAG_SORT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "memtrace/oarray.h"
#include "obliv/parallel_sort.h"
#include "obliv/permute.h"
#include "obliv/sort_block.h"
#include "obliv/sort_key.h"

namespace oblivdb::obliv {

// Below this length the fixed per-sort overhead (tag array, switch plan)
// outweighs the width saving and the blocked kernel runs directly.  Public
// constant, so the choice leaks nothing.
inline constexpr size_t kTagSortMinLen = 32;

namespace internal {

// The unit that actually moves through the narrow network: key words plus
// the element's range-relative index riding along (never compared, so ties
// resolve exactly as the wide network would resolve them).
template <size_t W>
struct SortTag {
  SortKey<W> key;
  uint64_t idx;
};

template <size_t W>
struct SortTagKeyLess {
  uint64_t operator()(const SortTag<W>& a, const SortTag<W>& b) const {
    return SortKeyLess(a.key, b.key);
  }
};

// Span-staging chunk walk shared by the tag extraction and permutation
// readback passes: one place defines the chunk granularity, so the two
// phases' access patterns cannot silently diverge.
inline constexpr size_t kTagSortChunk = 256;

template <typename Fn>
void ForSpanChunks(size_t len, const Fn& fn) {
  for (size_t done = 0; done < len;) {
    const size_t c = std::min(kTagSortChunk, len - done);
    fn(done, c);
    done += c;
  }
}

// Shared body of the sequential and pool-parallel tag sorts.  `parallel`
// swaps the execution strategy of phases 2 and 3 only — the tag network
// runs on the pool-parallel kernel (deterministic per-task trace replay)
// and the Beneš payload columns are applied gate-chunk-parallel (column
// replay in gate order) — so the traced event stream is byte-identical
// either way.
template <typename T, typename Less>
  requires CtLess<Less, T> && TagProjectable<Less, T>
void BitonicSortRangeTaggedImpl(memtrace::OArray<T>& a, size_t lo, size_t len,
                                const Less& less, uint64_t* comparisons,
                                size_t block_bytes, ThreadPool* pool,
                                bool parallel) {
  OBLIVDB_CHECK_LE(lo, a.size());
  OBLIVDB_CHECK_LE(len, a.size() - lo);
  if (len < kTagSortMinLen) {
    BitonicSortRangeBlocked(a, lo, len, less, comparisons, block_bytes);
    return;
  }
  OBLIVDB_CHECK_LE(len, uint64_t{1} << 32);

  constexpr size_t W = Less::kSortKeyWords;
  using Tag = SortTag<W>;

  // The tag array (8(W+1) bytes per element) lives only until the
  // permutation is read off it, so it is freed before the switch planner
  // and the payload routing allocate theirs.  Freeing an OArray emits no
  // trace event, so the scope changes memory, not the trace.
  std::vector<uint32_t> perm(len);
  {
    // Phase 1: project, span-batched.  Events: R a[lo..lo+len),
    // W tags[0..len).
    memtrace::OArray<Tag> tags(len, "tags");
    {
      T staged[kTagSortChunk];
      Tag tag_chunk[kTagSortChunk];
      ForSpanChunks(len, [&](size_t done, size_t c) {
        a.ReadSpan(lo + done, c, staged);
        for (size_t k = 0; k < c; ++k) {
          tag_chunk[k] = Tag{Less::SortKeyOf(staged[k]), done + k};
        }
        tags.WriteSpan(done, c, tag_chunk);
      });
    }

    // Phase 2: the narrow network.  Identical comparator schedule, so the
    // comparison count matches the wide sort's BitonicComparisonCount(len).
    if (parallel) {
      BitonicSortRangeParallel(tags, 0, len, SortTagKeyLess<W>{},
                               /*threads=*/0, comparisons, kCrossPassChunk,
                               pool);
    } else {
      BitonicSortRangeBlocked(tags, 0, len, SortTagKeyLess<W>{}, comparisons,
                              block_bytes);
    }

    // Phase 3a: read off the permutation (sequential span reads).
    Tag staged[kTagSortChunk];
    ForSpanChunks(len, [&](size_t done, size_t c) {
      tags.ReadSpan(done, c, staged);
      for (size_t k = 0; k < c; ++k) {
        perm[done + k] = static_cast<uint32_t>(staged[k].idx);
      }
    });
  }
  // Phase 3b: route the payloads through the permutation once.
  // Through the artifact-cache seam (obliv/artifact_cache.h): repeated
  // identical queries re-derive identical permutations, so a served system
  // pays the cycle-walking planner once per distinct permutation.  Planning
  // is trace-silent, so hit vs. miss changes only wall time.
  const std::shared_ptr<const BenesNetwork> net =
      PlanBenesNetwork(std::move(perm), pool);
  if (parallel) {
    ObliviousPermuteRangeParallel(a, lo, *net, pool);
  } else {
    ObliviousPermuteRange(a, lo, *net);
  }
}

}  // namespace internal

// Sorts a[lo, lo+len) ascending under `less` via the tag-sort path.  Same
// element order as BitonicSortRange under any faithful projection; same
// comparison count (the tag network runs the identical schedule).  `pool`
// feeds the Beneš switch-planning fan-out (nullptr = global pool).
template <typename T, typename Less>
  requires CtLess<Less, T> && TagProjectable<Less, T>
void BitonicSortRangeTagged(memtrace::OArray<T>& a, size_t lo, size_t len,
                            const Less& less,
                            uint64_t* comparisons = nullptr,
                            size_t block_bytes = kSortBlockBytes,
                            ThreadPool* pool = nullptr) {
  internal::BitonicSortRangeTaggedImpl(a, lo, len, less, comparisons,
                                       block_bytes, pool, /*parallel=*/false);
}

// The multi-core tag sort (SortPolicy::kTagSort on a multi-worker pool):
// the narrow tag sort runs task-parallel on `pool` and the Beneš payload
// columns are applied gate-chunk-parallel.  Same element order,
// comparison count, and — because both parallel phases replay their
// traces in deterministic sequential order — byte-identical traced event
// stream as the sequential tag sort (tests/tag_sort_test.cc pins all
// three).
template <typename T, typename Less>
  requires CtLess<Less, T> && TagProjectable<Less, T>
void BitonicSortRangeTaggedParallel(memtrace::OArray<T>& a, size_t lo,
                                    size_t len, const Less& less,
                                    uint64_t* comparisons = nullptr,
                                    size_t block_bytes = kSortBlockBytes,
                                    ThreadPool* pool = nullptr) {
  internal::BitonicSortRangeTaggedImpl(a, lo, len, less, comparisons,
                                       block_bytes, pool, /*parallel=*/true);
}

// Whole-array convenience.
template <typename T, typename Less>
  requires CtLess<Less, T> && TagProjectable<Less, T>
void BitonicSortTagged(memtrace::OArray<T>& a, const Less& less,
                       uint64_t* comparisons = nullptr,
                       size_t block_bytes = kSortBlockBytes) {
  BitonicSortRangeTagged(a, 0, a.size(), less, comparisons, block_bytes);
}

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_TAG_SORT_H_
