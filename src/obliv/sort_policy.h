// SortPolicy: which sorting algorithm runs a logical sort.  How many
// workers run it is not part of the policy: that comes only from the
// ThreadPool the sort is handed (ExecContext::pool, else
// ThreadPool::Global(), sized by OBLIVDB_THREADS).
//
// The enum lives in its own header (rather than obliv/sort_kernel.h, which
// holds the dispatcher) so that lightweight consumers — core/stats.h records
// the algorithm an operator actually ran, core/exec_context.h parses the
// OBLIVDB_SORT_POLICY default — can name policies without pulling in the
// sorting-network templates.
//
//   kReference — the recursive network of bitonic_sort.h; four
//                individually sink-tested OArray accesses per
//                compare-exchange.  The semantic baseline and test oracle;
//                always single-threaded.
//   kBlocked   — the bitonic network on the cache-blocked kernel of
//                sort_block.h.  With a multi-worker pool and a range of at
//                least kSortFanOutMinLen elements (sort_kernel.h) it runs
//                task-parallel (parallel_sort.h); traced runs replay
//                per-task buffers in deterministic order.  Either way:
//                identical comparator schedule, element order, comparison
//                count and (when traced) bit-identical access trace to
//                kReference.
//   kTagSort   — the key/payload-separated path of tag_sort.h: sort narrow
//                (key, index) tags, then route the wide payloads through
//                one Beneš pass (permute.h).  With a multi-worker pool the
//                tag network fans out like kBlocked's and the Beneš
//                columns are applied gate-chunk-parallel, replayed in gate
//                order, so the trace is byte-identical for every worker
//                count.  Same element order and comparison count as
//                kReference; the access trace is a *different* — but still
//                input-independent — function of the range length.
//                Requires a faithful SortKey projection (sort_key.h);
//                comparators without one fall back to kBlocked.
//   kAuto      — not an algorithm: SortRange resolves it to kBlocked or
//                kTagSort via the measured cost model in sort_kernel.h
//                (element width, tag width, n, pool size — all public, so
//                the resolution leaks nothing).  The resolved algorithm is
//                recorded per operator (JoinStats::op_sort_policy_chosen)
//                and shows up in the annotated ExplainPlan.
//
// Every policy preserves level II obliviousness; the policy choice and the
// worker count are public configuration.  tests/sort_kernel_test.cc and
// tests/tag_sort_test.cc pin the equivalences.

#ifndef OBLIVDB_OBLIV_SORT_POLICY_H_
#define OBLIVDB_OBLIV_SORT_POLICY_H_

#include <cstdint>
#include <string_view>

namespace oblivdb::obliv {

enum class SortPolicy : uint8_t {
  kReference,  // recursive network, four OArray accesses per exchange
  kBlocked,    // cache-blocked bitonic network, pool-parallel when possible
  kTagSort,    // narrow tag network + one Beneš payload permutation
  kAuto,       // resolved per sort by the cost model in sort_kernel.h
};

// Stable lowercase names ("reference", "blocked", "tag", "auto") — the
// vocabulary of OBLIVDB_SORT_POLICY, the bench JSON, and the annotated
// ExplainPlan.
const char* SortPolicyName(SortPolicy policy);

// Inverse of SortPolicyName.  Returns `fallback` for anything else
// (including the empty string), so env parsing cannot abort a run.
SortPolicy SortPolicyFromName(std::string_view name, SortPolicy fallback);

}  // namespace oblivdb::obliv

#endif  // OBLIVDB_OBLIV_SORT_POLICY_H_
