// Oblivious application of an arbitrary (secret) permutation: the payload
// half of the key/payload-separated sort (obliv/tag_sort.h).
//
// A Beneš network routes any permutation of m = 2^k elements through
// 2k - 1 columns of conditional exchanges at hop distances
//
//     m/2, m/4, ..., 2, 1, 2, ..., m/4, m/2
//
// — i.e. the RouteForward hop schedule (obliv/routing.h) followed by its
// RouteToFront mirror, with the data-dependent *comparisons* of those
// networks replaced by precomputed switch bits.  The gate topology is a
// function of m alone, every gate reads and rewrites both endpoints whether
// or not it swaps, and the switch bits never reach public memory, so the
// access trace is input-independent — the same level II guarantee as the
// sorting networks, at (2 log m - 1) / 2 conditional swaps per element
// instead of the sort's ~log^2(m)/4 compare-exchanges.
//
// Switch configuration runs the classic Beneš looping (cycle 2-coloring)
// algorithm on the permutation.  The permutation and the O(m log m) switch
// bits live in *local* memory for the duration of the pass.  This relaxes
// the paper's constant-size working set in the same spirit as the blocked
// sort kernel's staging block (obliv/sort_block.h): local memory is
// invisible to the adversary by the model of §3.1, and nothing
// data-dependent ever surfaces in the public access sequence.  The
// trade-off is documented in README.md ("Sort architecture").

#ifndef OBLIVDB_OBLIV_PERMUTE_H_
#define OBLIVDB_OBLIV_PERMUTE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/cancel.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "memtrace/oarray.h"
#include "obliv/ct.h"

namespace oblivdb::obliv {

// Switch plan for routing one fixed permutation.  Build once per
// permutation, apply to any array of matching length.
class BenesNetwork {
 public:
  // Plans the network that transforms an input array `in` into `out` with
  //
  //     out[p] = in[perm[p]]      for p in [0, perm.size())
  //
  // perm must be a permutation of {0, ..., perm.size() - 1}.  Non-power-of-
  // two sizes are padded internally with fixed points; callers route
  // through a scratch array of network_size() slots in that case
  // (ObliviousPermuteRange below handles both shapes).  `pool` is the
  // worker pool for the parallel switch-planning fan-out (see Route);
  // nullptr means ThreadPool::Global().
  explicit BenesNetwork(std::vector<uint32_t> perm, ThreadPool* pool = nullptr)
      : n_(perm.size()), m_(n_ <= 1 ? n_ : CeilPow2(n_)) {
    if (m_ < 2) return;
    perm.resize(m_);
    for (size_t p = n_; p < m_; ++p) perm[p] = static_cast<uint32_t>(p);
    // Reject non-permutations up front: a duplicate or out-of-range value
    // would leave stale entries in the routing scratch's per-block inverse
    // and corrupt memory instead of failing loudly.  O(m), negligible next
    // to the switch-planning pass itself.
    std::vector<uint8_t> seen(m_, 0);
    for (size_t p = 0; p < m_; ++p) {
      OBLIVDB_CHECK_LT(perm[p], m_);
      OBLIVDB_CHECK_EQ(seen[perm[p]], 0);
      seen[perm[p]] = 1;
    }
    const size_t k = Log2Floor(m_);
    switches_.assign(2 * k - 1, std::vector<uint64_t>((m_ + 63) / 64, 0));
    Route(std::move(perm), pool);
  }

  size_t input_size() const { return n_; }    // permutation length n
  size_t network_size() const { return m_; }  // padded length, CeilPow2(n)
  size_t depth() const { return switches_.size(); }

  // Fan-out gates for ApplyParallel: below kMinParallelApplySize the whole
  // pass is one cache-resident sweep and fork-join overhead dominates, so
  // ApplyParallel runs the sequential Apply; kMinApplyChunkGates keeps
  // each task's slice big enough to amortize the queue round-trip.
  // Public so the kAuto cost model (obliv/sort_kernel.h) can refuse to
  // credit a Beneš speedup that ApplyParallel would not deliver.
  static constexpr size_t kMinParallelApplySize = size_t{1} << 14;  // m_
  static constexpr size_t kMinApplyChunkGates = size_t{1} << 11;

  // Hop distance of column `level` (descending then ascending powers of 2).
  size_t Hop(size_t level) const {
    const size_t k = (depth() + 1) / 2;
    return level < k ? (m_ >> (level + 1)) : (size_t{1} << (level - k + 1));
  }

  // Applies the network in place to d[0, network_size()).  The gate
  // sequence — and therefore the emitted trace — depends only on
  // network_size().  kTraced mirrors the sort kernel's compile-time split;
  // the emitter must provide EmitRead/EmitWrite (e.g.
  // OArray<T>::EventEmitter) and receives network-local indices through
  // the caller-supplied adapter.
  template <bool kTraced, typename T, typename Emitter>
  void Apply(T* d, Emitter* emitter) const {
    for (size_t level = 0; level < depth(); ++level) {
      // Cancellation checkpoint: once per network level.  depth() is a
      // function of network_size() — public — so the poll schedule is
      // size-determined (common/cancel.h).  No-op on pool worker threads.
      Checkpoint("benes_level");
      const size_t h = Hop(level);
      const std::vector<uint64_t>& bits = switches_[level];
      for (size_t base = 0; base < m_; base += 2 * h) {
        for (size_t i = base; i < base + h; ++i) {
          if constexpr (kTraced) {
            emitter->EmitRead(i);
            emitter->EmitRead(i + h);
          }
          const uint64_t mask = ct::ToMask((bits[i >> 6] >> (i & 63)) & 1);
          ct::CondSwap(mask, d[i], d[i + h]);
          if constexpr (kTraced) {
            emitter->EmitWrite(i);
            emitter->EmitWrite(i + h);
          }
        }
      }
    }
  }

  // Column-parallel Apply: within one column every gate touches a disjoint
  // (i, i + h) pair, so a column splits into independent contiguous chunks
  // of the gate enumeration; columns are separated by TaskGroup barriers.
  // The switch bitmaps are read-only here, so unlike the planning fan-out
  // no word-alignment gate is needed.  Traced runs emit each column's
  // <R,i> <R,i+h> <W,i> <W,i+h> events sequentially in gate order *after*
  // the column's swaps complete — the event stream is a pure function of
  // network_size() and column index, so the emitted trace is byte-identical
  // to the sequential Apply's (the same deterministic-replay contract as
  // parallel_sort.h, without needing per-task buffers).  Pass emitter ==
  // nullptr (memtrace::kNoEmitter) for untraced runs.
  template <typename T, typename Emitter>
  void ApplyParallel(T* d, Emitter* emitter, ThreadPool& pool) const {
    const size_t gates = m_ / 2;
    if (m_ < kMinParallelApplySize || pool.worker_count() <= 1) {
      if (emitter != nullptr) {
        Apply<true>(d, emitter);
      } else {
        Apply<false>(d, memtrace::kNoEmitter);
      }
      return;
    }
    // A few chunks per worker smooths the (tiny) load imbalance from cache
    // effects; the floor keeps per-task work large enough to amortize the
    // queue round-trip.
    const size_t chunks =
        std::max<size_t>(1, std::min(gates / kMinApplyChunkGates,
                                     size_t{4} * pool.worker_count()));
    const size_t per_chunk = (gates + chunks - 1) / chunks;
    for (size_t level = 0; level < depth(); ++level) {
      // Same per-level checkpoint as the sequential Apply, polled on the
      // driver before the column fans out.
      Checkpoint("benes_level");
      const size_t h = Hop(level);
      const std::vector<uint64_t>& bits = switches_[level];
      TaskGroup group(pool);
      for (size_t g0 = 0; g0 < gates; g0 += per_chunk) {
        const size_t g1 = std::min(gates, g0 + per_chunk);
        group.Run([d, &bits, h, g0, g1] {
          // Gate g of the column sits at i = (g / h) * 2h + g % h.
          for (size_t g = g0; g < g1; ++g) {
            const size_t i = (g / h) * 2 * h + g % h;
            const uint64_t mask = ct::ToMask((bits[i >> 6] >> (i & 63)) & 1);
            ct::CondSwap(mask, d[i], d[i + h]);
          }
        });
      }
      group.Wait();
      if (emitter != nullptr) {
        for (size_t base = 0; base < m_; base += 2 * h) {
          for (size_t i = base; i < base + h; ++i) {
            emitter->EmitRead(i);
            emitter->EmitRead(i + h);
            emitter->EmitWrite(i);
            emitter->EmitWrite(i + h);
          }
        }
      }
    }
  }

 private:
  void Set(size_t level, size_t i, bool bit) {
    if (bit) switches_[level][i >> 6] |= uint64_t{1} << (i & 63);
  }

  // Fan-out gates for the per-level block parallelism in Route.  Blocks at
  // the same depth are fully independent (disjoint slices of cur/next/
  // inv/color), but Set's read-modify-write on the switch bitmaps is only
  // race-free across blocks when every block's bit range covers whole
  // 64-bit words — i.e. when the block size s is a multiple of 128 (half
  // >= 64 and base a multiple of 128).  Smaller blocks run sequentially;
  // they sit at the deep, loop-overhead-bound end of the planner where
  // fan-out would not pay anyway.
  static constexpr size_t kMinParallelPlanSize = size_t{1} << 14;  // m_
  static constexpr size_t kMinParallelBlocks = 8;
  static constexpr size_t kMinParallelBlockSize = 128;  // s

  // Configures the whole network level-synchronously: at depth d, `cur`
  // holds the concatenated local permutations of every size-(m >> d) block.
  // For each block the loop 2-colors the constraint cycles so that partner
  // inputs and partner outputs land in different halves, sets the block's
  // entry/exit columns, and writes the two induced half-permutations into
  // the ping-pong buffer for the next depth.  All scratch (inverse, colors,
  // both permutation buffers) is allocated once — the routing pass is the
  // fixed cost in front of the O(n log n) payload swaps, so it stays
  // allocation-free.  For large networks the independent blocks of a level
  // are fanned out on the persistent ThreadPool (cycle walking is
  // DRAM-latency-bound, so independent walks overlap their misses); the
  // computed switch plan is bit-identical to the sequential one, and the
  // planning happens entirely in local memory, so the public trace is
  // untouched either way.
  void Route(std::vector<uint32_t> perm, ThreadPool* pool_override) {
    const size_t k = Log2Floor(m_);
    std::vector<uint32_t> cur = std::move(perm);
    std::vector<uint32_t> next(m_);
    std::vector<uint32_t> inv(m_);
    std::vector<int8_t> color(m_);
    for (size_t d = 0; d + 1 < k; ++d) {
      const size_t s = m_ >> d;
      const size_t half = s / 2;
      const size_t in_level = d;
      const size_t out_level = depth() - 1 - d;

      auto plan_block = [&](size_t base) {
        const uint32_t* pm = cur.data() + base;
        uint32_t* iv = inv.data() + base;
        int8_t* cl = color.data() + base;
        for (size_t x = 0; x < s; ++x) iv[pm[x]] = static_cast<uint32_t>(x);
        std::memset(cl, -1, s);

        // cl[p]: which half-network carries the element exiting at local
        // output p (0 = top).  Constraints: outputs p and p^half differ;
        // outputs fed by inputs q and q^half differ.  The constraint graph
        // is a disjoint union of even cycles, walked one cycle at a time.
        for (size_t p0 = 0; p0 < s; ++p0) {
          if (cl[p0] != -1) continue;
          size_t p = p0;
          while (cl[p] == -1) {
            cl[p] = 0;
            const size_t po = p ^ half;
            if (cl[po] == -1) cl[po] = 1;
            p = iv[pm[po] ^ half];  // the partner input rides the top too
          }
        }

        // Entry column: input q crosses to the bottom half iff the output
        // it feeds is colored bottom.  Exit column: final output p takes
        // the bottom half's candidate iff p is colored bottom.
        for (size_t q = 0; q < half; ++q) {
          Set(in_level, base + q, cl[iv[q]] == 1);
        }
        for (size_t p = 0; p < half; ++p) {
          Set(out_level, base + p, cl[p] == 1);
        }

        // Half-permutations: the top half's local output j carries the
        // element for final output j (if j stayed top) or j + half (if the
        // exit column swaps the pair); symmetrically for the bottom half.
        // Local input slots are the global slots reduced mod half.
        uint32_t* nx = next.data() + base;
        for (size_t j = 0; j < half; ++j) {
          const size_t ft = cl[j] == 0 ? j : j + half;
          const size_t fb = cl[j] == 1 ? j : j + half;
          nx[j] = pm[ft] & static_cast<uint32_t>(half - 1);
          nx[j + half] = pm[fb] & static_cast<uint32_t>(half - 1);
        }
      };

      const size_t num_blocks = m_ / s;
      if (m_ >= kMinParallelPlanSize && num_blocks >= kMinParallelBlocks &&
          s >= kMinParallelBlockSize) {
        ThreadPool& pool =
            pool_override != nullptr ? *pool_override : ThreadPool::Global();
        TaskGroup group(pool);
        // A few chunks per worker keeps the queue contention negligible
        // while smoothing out uneven cycle structures across blocks.
        const size_t chunks =
            std::min(num_blocks, size_t{4} * pool.worker_count());
        const size_t per_chunk = (num_blocks + chunks - 1) / chunks;
        for (size_t b0 = 0; b0 < num_blocks; b0 += per_chunk) {
          const size_t b1 = std::min(num_blocks, b0 + per_chunk);
          group.Run([&plan_block, b0, b1, s] {
            for (size_t b = b0; b < b1; ++b) plan_block(b * s);
          });
        }
        group.Wait();
      } else {
        for (size_t base = 0; base < m_; base += s) plan_block(base);
      }
      std::swap(cur, next);
    }
    // Depth k-1: size-2 blocks, one switch each at the middle column.
    for (size_t base = 0; base < m_; base += 2) {
      Set(k - 1, base, cur[base] == 1);
    }
  }

  size_t n_;
  size_t m_;
  std::vector<std::vector<uint64_t>> switches_;
};

namespace internal {

// Emitter adapter translating network-local gate indices to absolute
// positions of the routed subrange.
template <typename T>
struct ShiftedEmitter {
  typename memtrace::OArray<T>::EventEmitter em;
  size_t offset;
  void EmitRead(size_t i) { em.EmitRead(offset + i); }
  void EmitWrite(size_t i) { em.EmitWrite(offset + i); }
};

// Shared body of the sequential and pool-parallel range permutes: one
// place owns the in-place-vs-padded-scratch staging (and therefore the
// trace shape); `pool == nullptr` selects the sequential Apply, non-null
// the column-parallel ApplyParallel (whose gate-order replay keeps the
// emitted trace byte-identical).
template <typename T, typename Emitter>
void ApplyNetwork(const BenesNetwork& net, T* d, Emitter* emitter,
                  ThreadPool* pool) {
  if (pool != nullptr) {
    net.ApplyParallel(d, emitter, *pool);
  } else if (emitter != nullptr) {
    net.template Apply<true>(d, emitter);
  } else {
    net.template Apply<false>(d, memtrace::kNoEmitter);
  }
}

template <typename T>
void PermuteRangeImpl(memtrace::OArray<T>& a, size_t lo,
                      const BenesNetwork& net, ThreadPool* pool) {
  const size_t n = net.input_size();
  OBLIVDB_CHECK_LE(lo, a.size());
  OBLIVDB_CHECK_LE(n, a.size() - lo);
  if (n < 2) return;
  if (net.network_size() == n) {
    ShiftedEmitter<T> shifted{typename memtrace::OArray<T>::EventEmitter(a),
                              lo};
    ApplyNetwork(net, a.UntracedData() + lo,
                 shifted.em.traced() ? &shifted : nullptr, pool);
    return;
  }
  // Ragged length: stage through a padded scratch array (its allocation
  // and linear copies are functions of n alone, so the trace stays
  // input-independent).
  memtrace::OArray<T> scratch(net.network_size(), "benes");
  memtrace::CopySpan(a, lo, scratch, 0, n);
  typename memtrace::OArray<T>::EventEmitter em(scratch);
  ApplyNetwork(net, scratch.UntracedData(), em.traced() ? &em : nullptr,
               pool);
  memtrace::CopySpan(scratch, 0, a, lo, n);
}

}  // namespace internal

// Routes a[lo, lo+len) through `net` so that, on return,
// a[lo + p] = old a[lo + net_perm[p]].  len must equal net.input_size().
// Power-of-two lengths run in place; ragged lengths stage through a padded
// scratch array.
template <typename T>
void ObliviousPermuteRange(memtrace::OArray<T>& a, size_t lo,
                           const BenesNetwork& net) {
  internal::PermuteRangeImpl(a, lo, net, /*pool=*/nullptr);
}

// ObliviousPermuteRange with the payload columns fanned out on `pool`
// (nullptr = ThreadPool::Global()) via BenesNetwork::ApplyParallel.  Same
// result, and — because traced columns replay their events in gate order —
// the same byte-identical trace as the sequential routing.
template <typename T>
void ObliviousPermuteRangeParallel(memtrace::OArray<T>& a, size_t lo,
                                   const BenesNetwork& net,
                                   ThreadPool* pool = nullptr) {
  ThreadPool& workers = pool != nullptr ? *pool : ThreadPool::Global();
  internal::PermuteRangeImpl(a, lo, net, &workers);
}

// Whole-array convenience: a becomes a[perm[0]], a[perm[1]], ...
template <typename T>
void ObliviousPermute(memtrace::OArray<T>& a, std::vector<uint32_t> perm) {
  OBLIVDB_CHECK_EQ(perm.size(), a.size());
  const BenesNetwork net(std::move(perm));
  ObliviousPermuteRange(a, 0, net);
}

// The artifact-cache seam (obliv/artifact_cache.h): returns the switch
// plan for `perm` — from this thread's artifact cache when one is
// installed and holds it, freshly planned otherwise.  Planning emits zero
// public trace events either way, so a hit changes only wall time.  The
// tag sort (obliv/tag_sort.h) constructs every pipeline network through
// this seam; callers that need an uncached network keep using the
// BenesNetwork constructor directly.  Defined in artifact_cache.cc.
std::shared_ptr<const BenesNetwork> PlanBenesNetwork(
    std::vector<uint32_t> perm, ThreadPool* pool = nullptr);

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_PERMUTE_H_
