// Grouped aggregations over a join, computed *without* expansion — the
// second extension sketched in §7: "grouping aggregations over joins could
// be computed using fewer sorting steps than a full join would require".
//
// For every join value j appearing in both tables, the join contributes
// alpha1(j) * alpha2(j) rows, each pairing a T1 data value with a T2 data
// value.  COUNT / SUM aggregates over those rows factor through the group
// dimensions:
//
//     COUNT(j)    = alpha1 * alpha2
//     SUM(d1 | j) = alpha2 * sum of d1 over T1's group   (each d1 appears
//                                                          alpha2 times)
//     SUM(d2 | j) = alpha1 * sum of d2 over T2's group
//
// so one Augment-style pass plus an oblivious compaction computes them in
// O(n log^2 n) — no O(m) expansion.  The number of matching groups is
// revealed, exactly as m is revealed by the full join.

#ifndef OBLIVDB_CORE_AGGREGATE_H_
#define OBLIVDB_CORE_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "core/exec_context.h"
#include "core/order.h"
#include "table/table.h"

namespace oblivdb::core {

struct JoinGroupAggregate {
  uint64_t key = 0;      // the join value j
  uint64_t count = 0;    // number of join output rows for j
  uint64_t sum_d1 = 0;   // sum of the first T1 payload word over those rows
  uint64_t sum_d2 = 0;   // sum of the first T2 payload word over those rows

  friend bool operator==(const JoinGroupAggregate&,
                         const JoinGroupAggregate&) = default;
};

// One aggregate row per join value present in both tables, in ascending key
// order.  Access pattern depends only on (n1, n2) and the result count.
// ctx.sort_policy picks the execution strategy of the single bitonic sort
// (obliv/sort_kernel.h) — identical output for every policy; phase counters
// are reported through ctx.ReportStats as "aggregate".
//
// Order-aware elision (core/order.h): the entry sort groups the tagged
// union by (j, tid), and every later pass (group counters, boundary
// flagging, order-preserving compaction) is insensitive to the
// within-group arrangement — so a by-key-covered input turns the union
// sort into a run merge under ctx.sort_elision, counted in
// JoinStats::op_sorts_elided.  Output identical either way.
std::vector<JoinGroupAggregate> ObliviousJoinAggregate(
    const Table& table1, const Table& table2, const ExecContext& ctx = {},
    const OrderHints& hints = {});

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_AGGREGATE_H_
