// Query plans end to end: build a plan tree, explain it, execute it with
// one shared ExecContext, and read the per-node statistics.
//
//   build/examples/plan_demo
//
// The query: "departments with at least one employee, excluding retired
// employees, without duplicates" —
//
//   distinct(semijoin(dept, select_{status != retired}(emp)))
//
// Exits nonzero if plan execution disagrees with the direct operator calls,
// so the build can use it as a smoke check (`plan_smoke` target).

#include <cstdio>

#include "core/exec_context.h"
#include "core/operators.h"
#include "core/plan.h"
#include "obliv/ct.h"

int main() {
  using namespace oblivdb;

  // Employees: key = department id, payload = {employee id, status}.
  // status word: 0 = active, 1 = retired.
  Table employees("employees");
  employees.Add(/*dept=*/1, /*emp=*/101, /*status=*/0);
  employees.Add(1, 102, 1);  // retired
  employees.Add(2, 201, 0);
  employees.Add(3, 301, 1);  // retired: dept 3 has no active employees
  employees.Add(2, 202, 0);

  Table departments("departments");
  departments.Add(/*dept=*/1, /*site=*/7001);
  departments.Add(2, 7002);
  departments.Add(2, 7002);  // duplicate row: dropped by distinct
  departments.Add(4, 7004);  // no employees at all

  const auto active = [](const Record& r) {
    return ct::EqMask(r.payload[1], 0);
  };

  // --- Build and explain the plan ----------------------------------------
  const core::PlanPtr plan = core::Distinct(core::SemiJoin(
      core::Scan(departments), core::Select(core::Scan(employees), active)));
  std::printf("plan:\n%s\n", core::ExplainPlan(plan).c_str());

  // --- Execute under one context, collecting per-operator telemetry ------
  core::CollectingStatsSink sink;
  core::ExecContext ctx;
  ctx.stats_sink = &sink;
  core::Executor executor(ctx);
  const core::PlanResult result = executor.Execute(plan);

  std::printf("departments with active employees (%zu rows)\n",
              result.table.size());
  for (const Record& r : result.table.rows()) {
    std::printf("  dept %llu  site %llu\n", (unsigned long long)r.key,
                (unsigned long long)r.payload[0]);
  }

  std::printf("\nper-node work (post-order):\n");
  std::printf("  %-10s %-10s %-14s %-12s\n", "node", "out rows",
              "sort cmp-exch", "route steps");
  for (const core::PlanNodeStats& node : executor.node_stats()) {
    std::printf("  %-10s %-10llu %-14llu %-12llu\n", node.label.c_str(),
                (unsigned long long)node.output_rows,
                (unsigned long long)(node.stats.op_sort_comparisons +
                                     node.stats.augment_sort_comparisons),
                (unsigned long long)node.stats.op_route_ops);
  }
  std::printf("  operator reports through the stats sink: %zu\n",
              sink.reports().size());

  // --- Cross-check: plan output == direct operator calls -----------------
  const Table direct = core::ObliviousDistinct(core::ObliviousSemiJoin(
      departments, core::ObliviousSelect(employees, active)));
  const bool plan_ok = result.table.rows() == direct.rows();
  std::printf("\nplan output matches direct calls: %s\n",
              plan_ok ? "yes" : "NO (bug!)");

  return plan_ok ? 0 : 1;
}
