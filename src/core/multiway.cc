#include "core/multiway.h"

#include "common/check.h"

namespace oblivdb::core {
namespace {

// Folds one cascade step into the running total: counters and timings sum;
// the size triple (n1, n2, m) tracks the most recent step, so the final
// total carries the cascade's last input/output sizes.
void AccumulateJoinStats(JoinStats& total, const JoinStats& step) {
  const JoinStats previous = total;
  total = step;
  total.augment_sort_comparisons += previous.augment_sort_comparisons;
  total.expand_sort_comparisons += previous.expand_sort_comparisons;
  total.expand_route_ops += previous.expand_route_ops;
  total.align_sort_comparisons += previous.align_sort_comparisons;
  total.op_sort_comparisons += previous.op_sort_comparisons;
  total.op_route_ops += previous.op_route_ops;
  total.op_sorts_elided += previous.op_sorts_elided;
  total.augment_seconds += previous.augment_seconds;
  total.expand_seconds += previous.expand_seconds;
  total.align_seconds += previous.align_seconds;
  total.zip_seconds += previous.zip_seconds;
  total.total_seconds += previous.total_seconds;
}

}  // namespace

Table ObliviousMultiwayJoin(const std::vector<Table>& tables,
                            const ExecContext& ctx,
                            const std::vector<OrderSpec>& input_orders) {
  OBLIVDB_CHECK_GE(tables.size(), 1u);
  OBLIVDB_CHECK(input_orders.empty() || input_orders.size() == tables.size());
  JoinStats total;
  ExecContext step_ctx = ctx;
  JoinStats step_stats;
  step_ctx.stats = &step_stats;
  auto order_of = [&](size_t t) {
    return input_orders.empty() ? OrderSpec::None() : input_orders[t];
  };
  Table accumulated = tables[0];
  // The running intermediate's order: the caller's promise for table 0,
  // then — after each step — the join postcondition (key-sorted, and
  // key-unique iff both sides were).  Plan-shape-derived, never data.
  OrderSpec accumulated_order = order_of(0);
  for (size_t t = 1; t < tables.size(); ++t) {
    const std::vector<JoinedRecord> joined = ObliviousJoin(
        accumulated, tables[t], step_ctx,
        OrderHints{accumulated_order, order_of(t)});
    AccumulateJoinStats(total, step_stats);
    accumulated_order = OrderSpec::ByKey(accumulated_order.key_unique &&
                                         order_of(t).key_unique);
    Table next("join");
    next.rows().reserve(joined.size());
    for (const JoinedRecord& r : joined) {
      // Pack the first payload word of each side (see header).
      next.rows().push_back(Record{r.key, {r.payload1[0], r.payload2[0]}});
    }
    accumulated = std::move(next);
  }
  // With a single table no join ran: leave the caller's stats untouched
  // rather than zeroing them.
  if (tables.size() > 1 && ctx.stats != nullptr) *ctx.stats = total;
  return accumulated;
}

std::vector<ThreeWayRow> ObliviousThreeWayJoin(const Table& t1,
                                               const Table& t2,
                                               const Table& t3,
                                               const ExecContext& ctx) {
  JoinStats total;
  ExecContext step_ctx = ctx;
  JoinStats step_stats;
  step_ctx.stats = &step_stats;

  // First join: intermediate rows carry (d1, d2) in the two payload words.
  const std::vector<JoinedRecord> first = ObliviousJoin(t1, t2, step_ctx);
  AccumulateJoinStats(total, step_stats);
  Table intermediate("t1_t2");
  intermediate.rows().reserve(first.size());
  for (const JoinedRecord& r : first) {
    intermediate.rows().push_back(Record{r.key, {r.payload1[0], r.payload2[0]}});
  }

  // The intermediate is a join output, hence key-sorted: the second step's
  // Augment entry sort merges instead of sorting under ctx.sort_elision.
  const std::vector<JoinedRecord> second = ObliviousJoin(
      intermediate, t3, step_ctx, OrderHints{OrderSpec::ByKey(), {}});
  AccumulateJoinStats(total, step_stats);
  if (ctx.stats != nullptr) *ctx.stats = total;

  std::vector<ThreeWayRow> rows;
  rows.reserve(second.size());
  for (const JoinedRecord& r : second) {
    rows.push_back(
        ThreeWayRow{r.key, r.payload1[0], r.payload1[1], r.payload2[0]});
  }
  return rows;
}

}  // namespace oblivdb::core
