#include "core/aggregate.h"

#include "common/timer.h"
#include "core/comparators.h"
#include "memtrace/oarray.h"
#include "obliv/compact.h"
#include "obliv/ct.h"
#include "obliv/merge.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"

namespace oblivdb::core {
namespace {

// Keep exactly the group-boundary entries of groups matched on both sides.
struct KeepMarkedBoundary {
  uint64_t operator()(const Entry& e) const {
    return ct::EqMask(e.flags & kEntryFlagDummy, 0) &
           ct::NeqMask(e.alpha1, 0) & ct::NeqMask(e.alpha2, 0);
  }
};

}  // namespace

std::vector<JoinGroupAggregate> ObliviousJoinAggregate(
    const Table& table1, const Table& table2, const ExecContext& ctx,
    const OrderHints& hints) {
  JoinStats stats;
  stats.n1 = table1.size();
  stats.n2 = table2.size();
  const FaultCounters fault_start = FaultInjector::Global().Snapshot();
  Checkpoint("join_phase");
  Timer timer;
  const size_t n1 = table1.size();
  const size_t n2 = table2.size();
  const size_t n = n1 + n2;

  memtrace::OArray<Entry> tc(n, "AGG_TC");
  for (size_t i = 0; i < n1; ++i) {
    tc.Write(i, MakeEntry(table1.rows()[i], /*tid=*/1));
  }
  for (size_t i = 0; i < n2; ++i) {
    tc.Write(n1 + i, MakeEntry(table2.rows()[i], /*tid=*/2));
  }
  // Entry sort by (j, tid).  The forward/backward group passes and the
  // order-preserving compaction only need j-groups contiguous — every
  // extracted field is a commutative group total — so within-run key
  // order is enough: a by-key-covered input elides the union sort into a
  // run merge (tid is constant per run; see core/augment.cc for the same
  // pattern on the join's entry sort).
  // Like the join's entry sort, the elision is cost-arbitrated: merge only
  // when the model says [per-run sorts + one merge] beats the full union
  // sort under the current policy and worker count (RunMergePays).
  const bool cov_left = hints.left.Covers(OrderSpec::ByKey());
  const bool cov_right = hints.right.Covers(OrderSpec::ByKey());
  const bool merge_entry =
      ctx.sort_elision && (cov_left || cov_right) &&
      obliv::RunMergePays<Entry, ByJoinKeyThenTidLess>(
          ctx.sort_policy, n1, cov_left, n2, cov_right, ctx.pool);
  if (merge_entry) {
    if (!hints.left.Covers(OrderSpec::ByKey())) {
      obliv::SortRange(tc, 0, n1, ByJoinKeyThenTidLess{}, ctx.sort_policy,
                       &stats.op_sort_comparisons, ctx.pool,
                       &stats.op_sort_policy_chosen);
    }
    if (!hints.right.Covers(OrderSpec::ByKey())) {
      obliv::SortRange(tc, n1, n2, ByJoinKeyThenTidLess{}, ctx.sort_policy,
                       &stats.op_sort_comparisons, ctx.pool,
                       &stats.op_sort_policy_chosen);
    }
    obliv::ObliviousMergeRuns(tc, 0, n1, n2, ByJoinKeyThenTidLess{},
                              &stats.op_sort_comparisons);
    ++stats.op_sorts_elided;
  } else {
    obliv::Sort(tc, ByJoinKeyThenTidLess{}, ctx.sort_policy,
                &stats.op_sort_comparisons, ctx.pool,
                &stats.op_sort_policy_chosen);
  }

  // Forward pass: per-group counters and payload-word-0 sums.  The sums are
  // stashed in the fields the aggregate does not otherwise need
  // (align_ii <- running sum over T1, payload1 <- running sum over T2).
  // The group's last entry ends up carrying the complete totals.
  uint64_t count1 = 0, count2 = 0, sum1 = 0, sum2 = 0;
  uint64_t prev_key = 0;
  for (size_t i = 0; i < n; ++i) {
    Entry e = tc.Read(i);
    const uint64_t same_group =
        ct::EqMask(e.join_key, prev_key) & ct::ToMask(i != 0);
    count1 = ct::Select(same_group, count1, 0);
    count2 = ct::Select(same_group, count2, 0);
    sum1 = ct::Select(same_group, sum1, 0);
    sum2 = ct::Select(same_group, sum2, 0);
    const uint64_t from_t1 = ct::EqMask(e.tid, 1);
    count1 += ct::MaskToBit(from_t1);
    count2 += ct::MaskToBit(~from_t1);
    sum1 += ct::Select(from_t1, e.payload0, 0);
    sum2 += ct::Select(from_t1, 0, e.payload0);
    e.alpha1 = count1;
    e.alpha2 = count2;
    e.align_ii = sum1;
    e.payload1 = sum2;
    prev_key = e.join_key;
    tc.Write(i, e);
  }

  // Backward pass: flag everything except group boundaries as dummy.
  uint64_t next_key = 0;
  for (size_t i = n; i-- > 0;) {
    Entry e = tc.Read(i);
    const uint64_t boundary =
        ct::ToMask(i == n - 1) | ct::NeqMask(e.join_key, next_key);
    e.flags = ct::Select(boundary, e.flags & ~kEntryFlagDummy,
                         e.flags | kEntryFlagDummy);
    next_key = e.join_key;
    tc.Write(i, e);
  }

  // Compact the surviving boundaries to the front (order-preserving, so the
  // result stays sorted by key); the survivor count is the revealed output
  // length, the aggregate analogue of m.
  obliv::PrimitiveStats compact_stats;
  const uint64_t groups =
      obliv::ObliviousCompact(tc, KeepMarkedBoundary{}, &compact_stats);
  stats.op_route_ops += compact_stats.route_ops;

  std::vector<JoinGroupAggregate> result;
  result.reserve(groups);
  for (uint64_t i = 0; i < groups; ++i) {
    const Entry e = tc.Read(i);
    result.push_back(JoinGroupAggregate{e.join_key, e.alpha1 * e.alpha2,
                                        e.alpha2 * e.align_ii,
                                        e.alpha1 * e.payload1});
  }
  stats.m = groups;
  stats.total_seconds = timer.ElapsedSeconds();
  RecordFaultDelta(fault_start, stats);
  ctx.ReportStats("aggregate", stats);
  return result;
}

}  // namespace oblivdb::core
