#include "core/join.h"

#include <algorithm>

#include "common/timer.h"
#include "core/align.h"
#include "core/augment.h"
#include "memtrace/oarray.h"
#include "obliv/expand.h"
#include "table/entry.h"

namespace oblivdb::core {
namespace {

// g(x) for the two expansions: every T1 entry is copied once per matching
// T2 entry and vice versa.
struct CountAlpha2 {
  uint64_t operator()(const Entry& e) const { return e.alpha2; }
};
struct CountAlpha1 {
  uint64_t operator()(const Entry& e) const { return e.alpha1; }
};

// Expands `source` (the augmented T_i) into an array whose prefix of length
// m is S_i.  `expected_m` comes from Augment-Tables; the cumulative-sum
// pass must agree with it.
template <typename CountFn>
memtrace::OArray<Entry> ExpandTable(memtrace::OArray<Entry>& source,
                                    uint64_t expected_m, const char* name,
                                    const CountFn& g,
                                    obliv::PrimitiveStats* stats,
                                    const ExecContext& ctx,
                                    obliv::SortPolicy* sort_chosen) {
  const uint64_t m = obliv::AssignExpandDestinations(source, g);
  OBLIVDB_CHECK_EQ(m, expected_m);
  memtrace::OArray<Entry> expanded(
      std::max<uint64_t>(source.size(), m), name);
  obliv::ExpandToDestinations(source, expanded, m, stats, ctx.sort_policy,
                              ctx.pool, sort_chosen);
  return expanded;
}

}  // namespace

std::vector<JoinedRecord> ObliviousJoin(const Table& table1,
                                        const Table& table2,
                                        const ExecContext& ctx,
                                        const OrderHints& hints) {
  JoinStats local_stats;
  JoinStats* stats = ctx.stats != nullptr ? ctx.stats : &local_stats;
  *stats = JoinStats{};
  stats->n1 = table1.size();
  stats->n2 = table2.size();

  const FaultCounters fault_start = FaultInjector::Global().Snapshot();
  Timer total_timer;
  Timer phase_timer;

  // (1) Group dimensions (Algorithm 2).
  Checkpoint("join_phase");
  AugmentResult augmented =
      AugmentTables(table1, table2, ctx, &stats->augment_sort_comparisons,
                    hints, &stats->op_sorts_elided,
                    &stats->op_sort_policy_chosen);
  const uint64_t m = augmented.output_size;
  stats->m = m;
  stats->augment_seconds = phase_timer.ElapsedSeconds();

  // (2)+(3) Oblivious expansion of both tables (Algorithms 3 and 4).
  Checkpoint("join_phase");
  phase_timer.Start();
  obliv::PrimitiveStats expand_stats;
  memtrace::OArray<Entry> s1 = ExpandTable(
      augmented.t1, m, "S1", CountAlpha2{}, &expand_stats, ctx,
      &stats->op_sort_policy_chosen);
  memtrace::OArray<Entry> s2 = ExpandTable(
      augmented.t2, m, "S2", CountAlpha1{}, &expand_stats, ctx,
      &stats->op_sort_policy_chosen);
  stats->expand_sort_comparisons = expand_stats.sort_comparisons;
  stats->expand_route_ops = expand_stats.route_ops;
  stats->expand_seconds = phase_timer.ElapsedSeconds();

  // (4) Align S2 with S1 (Algorithm 5).  The align sort covers the full
  // output size m — the join's dominant sort — so its resolved tier is the
  // one op_sort_policy_chosen ends up reporting (the expansions wrote the
  // smaller prefix sorts' resolutions first; same model inputs except n).
  // With a key-unique input the sort is skipped entirely (align.h) and the
  // last recorded tier stays the expansion's.
  Checkpoint("join_phase");
  phase_timer.Start();
  AlignTable(s2, m, ctx, &stats->align_sort_comparisons,
             &stats->op_sort_policy_chosen, hints, &stats->op_sorts_elided);
  stats->align_seconds = phase_timer.ElapsedSeconds();

  // (5) Zip the aligned rows into the output (Algorithm 1, lines 6-9),
  // span-batched: reads of S1/S2 and writes of TD stay per-element events.
  Checkpoint("join_phase");
  phase_timer.Start();
  memtrace::OArray<JoinedEntry> output(m, "TD");
  constexpr uint64_t kChunk = 256;
  Entry left[kChunk];
  Entry right[kChunk];
  JoinedEntry zipped[kChunk];
  for (uint64_t i = 0; i < m;) {
    const uint64_t c = std::min(kChunk, m - i);
    s1.ReadSpan(i, c, left);
    s2.ReadSpan(i, c, right);
    for (uint64_t k = 0; k < c; ++k) {
      zipped[k] = JoinedEntry{left[k].join_key, left[k].payload0,
                              left[k].payload1, right[k].payload0,
                              right[k].payload1, 0};
    }
    output.WriteSpan(i, c, zipped);
    i += c;
  }

  // Crossing the trust boundary: the output (of public length m) is handed
  // back to the client.  One batched conversion pass over the raw storage
  // — no per-element accessor call or capacity check in the loop.
  std::vector<JoinedRecord> rows(m);
  const JoinedEntry* out_data = output.UntracedData();
  for (uint64_t i = 0; i < m; ++i) {
    rows[i] = ToJoinedRecord(out_data[i]);
  }
  stats->zip_seconds = phase_timer.ElapsedSeconds();
  stats->total_seconds = total_timer.ElapsedSeconds();
  RecordFaultDelta(fault_start, *stats);
  // ReportStats' copy into ctx.stats is a no-op self-assign here (stats
  // already aliases it when set); the sink dispatch is what matters.
  ctx.ReportStats("join", *stats);
  return rows;
}

uint64_t ObliviousJoinSize(const Table& table1, const Table& table2) {
  return AugmentTables(table1, table2).output_size;
}

std::vector<JoinedRowIds> ObliviousJoinRowIds(const Table& table1,
                                              const Table& table2) {
  // Run the pipeline on shadow tables whose payload word 1 carries the
  // original row position (word 0 keeps the data value so the output order
  // stays the usual lexicographic (j, d1, d2)).
  auto shadow = [](const Table& t) {
    Table s(t.name());
    s.rows().reserve(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      s.rows().push_back(Record{t.rows()[i].key, {t.rows()[i].payload[0], i}});
    }
    return s;
  };
  const std::vector<JoinedRecord> joined =
      ObliviousJoin(shadow(table1), shadow(table2));
  std::vector<JoinedRowIds> ids;
  ids.reserve(joined.size());
  for (const JoinedRecord& r : joined) {
    ids.push_back(JoinedRowIds{r.key, r.payload1[1], r.payload2[1]});
  }
  return ids;
}

}  // namespace oblivdb::core
