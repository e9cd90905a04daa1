// Per-layer probes: each times calls into one layer's public functions.

#include <algorithm>

#include "bench.h"
#include "common/bits.h"
#include "core/aggregate.h"
#include "core/align.h"
#include "core/augment.h"
#include "core/comparators.h"
#include "core/join.h"
#include "core/multiway.h"
#include "core/operators.h"
#include "core/optimizer.h"
#include "core/shard.h"
#include "obliv/expand.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"

namespace perfbench {
namespace {

using oblivdb::Entry;
using oblivdb::Record;
using oblivdb::Table;
using oblivdb::memtrace::OArray;
namespace core = oblivdb::core;
namespace obliv = oblivdb::obliv;

// Oblivious-Expand of one augmented table, as Algorithm 1 runs it: the
// destination pass, then distribute + fill-down into max(n, m) slots.
template <typename CountFn>
OArray<Entry> Expand(OArray<Entry>& source, uint64_t m, const CountFn& count,
                     const core::ExecContext& ctx,
                     obliv::PrimitiveStats* stats) {
  obliv::AssignExpandDestinations(source, count);
  OArray<Entry> expanded(std::max<uint64_t>(source.size(), m), "S");
  obliv::ExpandToDestinations(source, expanded, m, stats, ctx.sort_policy,
                              ctx.pool);
  return expanded;
}

uint64_t KeyLowBit(const Record& r) { return uint64_t{0} - (r.key & 1); }

}  // namespace

JoinPhases TimeJoinPhases(const Table& t1, const Table& t2) {
  const core::ExecContext ctx;
  JoinPhases p;
  double t0 = Now();
  core::AugmentResult aug = core::AugmentTables(t1, t2, ctx, &p.augment_cmps);
  const uint64_t m = aug.output_size;
  p.augment_s = Now() - t0;

  t0 = Now();
  obliv::PrimitiveStats expand_stats;
  OArray<Entry> s1 = Expand(
      aug.t1, m, [](const Entry& e) { return e.alpha2; }, ctx, &expand_stats);
  OArray<Entry> s2 = Expand(
      aug.t2, m, [](const Entry& e) { return e.alpha1; }, ctx, &expand_stats);
  p.expand_s = Now() - t0;
  p.expand_cmps = expand_stats.sort_comparisons;
  p.expand_route_ops = expand_stats.route_ops;

  t0 = Now();
  core::AlignTable(s2, m, ctx, &p.align_cmps);
  p.align_s = Now() - t0;
  return p;
}

void ReportJoinPhases(const std::vector<JoinPhases>& runs, Outcome& out) {
  std::vector<double> augment, expand, align, overhead;
  for (const JoinPhases& p : runs) {
    augment.push_back(p.augment_s);
    expand.push_back(p.expand_s);
    align.push_back(p.align_s);
    overhead.push_back(p.execute_s - p.total());
  }
  const JoinPhases& first = runs.front();
  out.Metric("core.augment_s", Median(augment), "s");
  out.Metric("core.augment_sort_cmps", first.augment_cmps, "count");
  out.Metric("obliv.expand_s", Median(expand), "s");
  out.Metric("obliv.expand_sort_cmps", first.expand_cmps, "count");
  out.Metric("obliv.expand_route_ops", first.expand_route_ops, "count");
  out.Metric("core.align_s", Median(align), "s");
  out.Metric("core.align_sort_cmps", first.align_cmps, "count");
  out.Metric("core.executor_overhead_s", Median(overhead), "s");
}

void ProbeSorts(uint64_t seed, Outcome& out) {
  const core::ExecContext ctx;
  struct Probe {
    const char* metric;
    size_t n;
    int reps;
  };
  for (const Probe& probe : {Probe{"obliv.sort_ns_per_elem_large", 1u << 20, 1},
                             Probe{"obliv.sort_ns_per_elem_small", 12288, 9}}) {
    std::vector<double> ns_per_elem;
    uint64_t state = oblivdb::MixSeed(seed, probe.n);
    for (int rep = 0; rep < probe.reps; ++rep) {
      OArray<Entry> a(probe.n, "probe");
      Entry* data = a.UntracedData();
      for (size_t i = 0; i < probe.n; ++i) {
        data[i] = oblivdb::MakeEntry(
            Record{oblivdb::SplitMix64(state) >> 8, {state, i}}, 1 + (i & 1));
      }
      obliv::SortPolicy chosen = ctx.sort_policy;
      const double t0 = Now();
      obliv::Sort(a, core::ByJoinKeyThenTidLess{}, ctx.sort_policy, nullptr,
                  ctx.pool, &chosen);
      ns_per_elem.push_back((Now() - t0) * 1e9 / static_cast<double>(probe.n));
      if (rep == 0) {
        out.ProvString(std::string(probe.metric) + ".policy",
                       obliv::SortPolicyName(chosen));
      }
    }
    out.Metric(probe.metric, Median(ns_per_elem), "ns");
  }
}

void ProbeShards(const Table& t1, const Table& t2, Outcome& out) {
  const core::ExecContext ctx;
  const uint32_t resolved = core::ResolveShardCount(t1, t2, ctx);
  out.Metric("core.shards", resolved, "count");

  core::ExecContext forced = ctx;
  forced.shards = std::max<uint32_t>(2, resolved);
  const uint32_t k = core::ResolveShardCount(t1, t2, forced);
  if (k < 2) {
    out.Fail("shard partition probe: the inputs cannot be sharded");
    return;
  }
  const double t0 = Now();
  core::ObliviousShardPartition(t1, k, 1, forced);
  core::ObliviousShardPartition(t2, k, 2, forced);
  out.Metric("core.shard_partition_s", Now() - t0, "s");
  out.Prov("core.shard_partition_k", std::to_string(k));
}

void TimeOperators(const core::PlanPtr& node, const core::ExecContext& ctx,
                   OperatorTimes& times) {
  if (node->op == core::PlanOp::kScan) return;
  std::vector<Table> inputs;
  std::vector<core::OrderSpec> orders;
  for (const core::PlanPtr& child : node->inputs) {
    TimeOperators(child, ctx, times);
    inputs.push_back(child->op == core::PlanOp::kScan
                         ? child->table
                         : core::Executor(ctx).Execute(child).table);
    orders.push_back(core::ProducedOrder(child));
  }
  core::OrderHints hints;
  hints.left = orders[0];
  if (orders.size() >= 2) hints.right = orders[1];

  const double t0 = Now();
  const char* name = nullptr;
  switch (node->op) {
    case core::PlanOp::kSelect:
      core::ObliviousSelect(inputs[0], node->predicate, ctx);
      name = "select";
      break;
    case core::PlanOp::kDistinct:
      core::ObliviousDistinct(inputs[0], ctx, hints);
      name = "distinct";
      break;
    case core::PlanOp::kJoin:
      core::ObliviousJoin(inputs[0], inputs[1], ctx, hints);
      name = "join";
      break;
    case core::PlanOp::kSemiJoin:
      core::ObliviousSemiJoin(inputs[0], inputs[1], ctx, hints);
      name = "semijoin";
      break;
    case core::PlanOp::kAggregate:
      core::ObliviousJoinAggregate(inputs[0], inputs[1], ctx, hints);
      name = "aggregate";
      break;
    case core::PlanOp::kMultiwayJoin:
      core::ObliviousMultiwayJoin(inputs, ctx, orders);
      name = "multiway";
      break;
    default:
      return;  // not in the workloads' shapes
  }
  times[name].push_back((Now() - t0) * 1e3);
}

void ReportOperators(OperatorTimes& times, const Table& t1, const Table& t2,
                     Outcome& out) {
  const core::ExecContext ctx;
  for (const char* op : {"join", "distinct", "aggregate", "semijoin",
                         "select", "multiway"}) {
    const std::string name = op;
    std::vector<double>& calls = times[name];
    if (calls.empty()) {
      const double t0 = Now();
      if (name == "join") core::ObliviousJoin(t1, t2, ctx);
      if (name == "distinct") core::ObliviousDistinct(t1, ctx);
      if (name == "aggregate") core::ObliviousJoinAggregate(t1, t2, ctx);
      if (name == "semijoin") core::ObliviousSemiJoin(t1, t2, ctx);
      if (name == "select") core::ObliviousSelect(t1, KeyLowBit, ctx);
      if (name == "multiway") core::ObliviousMultiwayJoin({t1, t2}, ctx);
      calls.push_back((Now() - t0) * 1e3);
    }
    out.Metric("core." + name + "_ms", Mean(calls), "ms");
  }
}

double TimeOptimize(const core::PlanPtr& plan, const core::ExecContext& ctx) {
  std::vector<double> us;
  for (int rep = 0; rep < 21; ++rep) {
    const double t0 = Now();
    core::OptimizePlan(plan, ctx);
    us.push_back((Now() - t0) * 1e6);
  }
  return Median(us);
}

}  // namespace perfbench
