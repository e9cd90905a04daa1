// join_large: the paper's Table 3 / Figure 8 input (n = 2^20, n1 = n2 =
// 2^19) as a one-Join plan through core::Executor, one client, queries
// back to back.

#include "baselines/sort_merge.h"
#include "bench.h"
#include "common/bits.h"
#include "obliv/sort_policy.h"
#include "service/query_service.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

namespace core = oblivdb::core;
namespace obliv = oblivdb::obliv;
namespace service = oblivdb::service;
namespace workload = oblivdb::workload;

constexpr uint64_t kRows = uint64_t{1} << 20;
constexpr uint64_t kWarmRows = uint64_t{1} << 14;
constexpr uint64_t kGateRows = uint64_t{1} << 12;
constexpr uint64_t kOperatorRows = uint64_t{1} << 16;

core::PlanPtr JoinPlan(const workload::TestCase& tc) {
  return core::Join(core::Scan(tc.t1), core::Scan(tc.t2));
}

// What Executor::Execute must return for the join: the sort-merge
// baseline's rows, narrowed to the plan's uniform Table shape as well.
Digest ExpectedDigest(const workload::TestCase& tc) {
  core::PlanResult expected;
  expected.join_rows = oblivdb::baselines::SortMergeJoin(tc.t1, tc.t2);
  for (const oblivdb::JoinedRecord& r : expected.join_rows) {
    expected.table.Add(r.key, r.payload1[0], r.payload2[0]);
  }
  Digest d;
  d.AddPlanResult(expected);
  return d;
}

}  // namespace

Outcome RunJoinLarge(const Args& args) {
  Outcome out;

  // Set-up, three times (median reported): data generation, plan and
  // executor construction, and one small warm-up join.
  std::vector<double> setup;
  workload::TestCase tc;
  core::PlanPtr plan;
  for (int rep = 0; rep < 3; ++rep) {
    plan.reset();
    const double t0 = Now();
    tc = workload::Figure8Workload(kRows, args.seed);
    plan = JoinPlan(tc);
    core::Executor warm{core::ExecContext{}};
    warm.Execute(JoinPlan(workload::Figure8Workload(kWarmRows, args.seed)));
    setup.push_back(Now() - t0);
  }

  // The measured window: Executor::Execute back to back.  Each result is
  // folded into a digest between queries, outside the latency timer.
  core::Executor ex{core::ExecContext{}};
  std::vector<double> latencies;
  std::vector<Digest> digests;
  std::vector<JoinPhases> phases;
  std::string policy = "none";
  uint64_t shards = 0;
  const double start = Now();
  while (latencies.empty() || Now() - start < args.seconds) {
    const double q0 = Now();
    const core::PlanResult result = ex.Execute(plan);
    latencies.push_back(Now() - q0);
    digests.emplace_back();
    digests.back().AddPlanResult(result);
    const core::JoinStats& join = ex.node_stats().back().stats;
    policy = obliv::SortPolicyName(join.op_sort_policy_chosen);
    shards = join.op_shards;
    if (args.trace) {
      phases.push_back(TimeJoinPhases(tc.t1, tc.t2));
      phases.back().execute_s = latencies.back();
    }
  }
  const double window = Now() - start;
  const double peak_rss = PeakRssMb();

  // Output check, after the window.
  const Digest expected = ExpectedDigest(tc);
  for (const Digest& d : digests) {
    ++out.attempted;
    if (!(d == expected)) ++out.failed;
  }
  if (out.failed > 0) {
    out.Fail(std::to_string(out.failed) + " of " +
             std::to_string(out.attempted) +
             " joins differed from the sort-merge baseline");
  }

  // Obliviousness gate at n = 2^12: two seeds, equal (n1, n2, m), equal
  // trace digests.
  const workload::TestCase a =
      workload::Figure8Workload(kGateRows, oblivdb::MixSeed(args.seed, 1));
  const workload::TestCase b =
      workload::Figure8Workload(kGateRows, oblivdb::MixSeed(args.seed, 2));
  if (a.expected_m != b.expected_m ||
      TraceDigest(JoinPlan(a)) != TraceDigest(JoinPlan(b))) {
    out.Fail("join trace digests differ between equal-size datasets");
  }

  out.Prov("rows", "{\"n1\":" + std::to_string(tc.t1.size()) +
                       ",\"n2\":" + std::to_string(tc.t2.size()) +
                       ",\"m\":" + std::to_string(tc.expected_m) + "}");
  out.Prov("clients", "1");
  out.ProvString("resolved_sort_policy", policy);
  out.Prov("resolved_shards", std::to_string(shards));
  out.Prov("window_s", std::to_string(window));
  std::string latency_list;
  for (double s : latencies) {
    latency_list += (latency_list.empty() ? "" : ",") + std::to_string(s * 1e3);
  }
  out.Prov("latencies_ms", "[" + latency_list + "]");

  const double good = static_cast<double>(out.attempted - out.failed);
  if (!args.trace) {
    out.Metric("latency_p50_ms", Median(latencies) * 1e3, "ms");
    out.Metric("latency_p95_ms", Percentile(latencies, 0.95) * 1e3, "ms");
    out.Metric("qps", good / window, "1/s");
    out.Metric("setup_s", Median(setup), "s");
    out.Metric("peak_rss_mb", peak_rss, "MB");
    return out;
  }

  // ------------------------------------------------ traced run: layers ---
  const double execute_s = Median(latencies);
  out.Metric("trace.latency_p50_ms", execute_s * 1e3, "ms");
  out.Metric("failed_frac", (out.attempted - good) / out.attempted, "ratio");
  ReportJoinPhases(phases, out);

  const core::ExecContext ctx;
  out.Metric("core.optimize_us", TimeOptimize(plan, ctx), "us");
  double rewrites = 0, elided = 0;
  for (const core::PlanNodeStats& n : ex.node_stats()) {
    rewrites += static_cast<double>(n.stats.op_rewrites);
    elided += static_cast<double>(n.stats.op_sorts_elided);
  }
  out.Metric("core.rewrites", rewrites, "count");
  out.Metric("core.sorts_elided", elided, "count");

  // The same plan once through a default QueryService: Submit cost and
  // the service's overhead over the solo Execute.
  {
    service::QueryService svc{core::ExecContext{}, service::ServiceOptions{}};
    const ServiceSnapshot before = Snapshot(svc);
    const double q0 = Now();
    auto submitted = svc.Submit(plan);
    const double submit_us = (Now() - q0) * 1e6;
    double service_ms = 0;
    if (!submitted.ok()) {
      out.Fail("service submit failed: " + submitted.status().ToString());
    } else {
      const auto& response = (*submitted)->Wait();
      service_ms = (Now() - q0) * 1e3;
      Digest d;
      if (response.ok()) d.AddPlanResult(response->result);
      if (!response.ok() || !(d == expected)) {
        out.Fail("service response differed from the sort-merge baseline");
      }
    }
    out.Metric("service.submit_us", submit_us, "us");
    out.Metric("service.exec_ms", execute_s * 1e3, "ms");
    out.Metric("service.queue_wait_ms", service_ms - execute_s * 1e3, "ms");
    ReportServiceCounters(before, Snapshot(svc), out);
  }

  // The operators run directly on the same input shape at 2^16 rows: at
  // 2^20 the six calls would add a minute to the run.  The full-size join
  // is what the phase metrics above split.
  OperatorTimes operators;
  const workload::TestCase small =
      workload::Figure8Workload(kOperatorRows, args.seed);
  ReportOperators(operators, small.t1, small.t2, out);
  ProbeShards(tc.t1, tc.t2, out);
  ProbeSorts(args.seed, out);
  return out;
}

}  // namespace perfbench
