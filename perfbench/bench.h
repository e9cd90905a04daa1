// Shared pieces of the repository benchmark: arguments, the result record,
// timing and percentile helpers, the output digest, and the per-layer
// probes.  See run.py for the command line and BENCHMARK.json for the
// workloads and metrics.

#ifndef OBLIVDB_PERFBENCH_BENCH_H_
#define OBLIVDB_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/plan.h"
#include "obliv/artifact_cache.h"
#include "service/query_service.h"
#include "table/table.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// What one run hands back to main: the pass/fail verdict, the query
// counts, the metrics (printed in insertion order) and the provenance
// record (key -> JSON value text).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Prov(const std::string& key, const std::string& json_value) {
    provenance.push_back({key, json_value});
  }
  void ProvString(const std::string& key, const std::string& value);
  void Fail(const std::string& message);
};

Outcome RunJoinLarge(const Args& args);
Outcome RunServiceMix(const Args& args, bool hot);

// ------------------------------------------------------------- helpers ---

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// Nearest-rank percentile (q in (0, 1]): the smallest sample with at least
// q of the samples at or below it.
double Percentile(std::vector<double> values, double q);
// How many samples lie strictly beyond the nearest-rank q-th percentile.
size_t SamplesBeyond(size_t n, double q);

double PeakRssMb();

// 128-bit fold of a result's bytes.  A response is folded when it
// arrives and compared with the reference's fold after the measured
// window, so no response has to be kept alive until then.
class Digest {
 public:
  void Add(uint64_t word);
  void AddTable(const oblivdb::Table& table);
  void AddPlanResult(const oblivdb::core::PlanResult& result);
  bool operator==(const Digest& other) const {
    return a_ == other.a_ && b_ == other.b_;
  }

 private:
  uint64_t a_ = 0x243f6a8885a308d3ULL;
  uint64_t b_ = 0x13198a2e03707344ULL;
  uint64_t n_ = 0;
};

// The level-II check: runs `plan` under a memtrace::HashTraceSink and
// returns the hex digest of its complete public-memory trace.
std::string TraceDigest(const oblivdb::core::PlanPtr& plan);

// ------------------------------------------------------ per-layer probes ---
//
// Each probe times calls into one layer's public functions from here, in
// the benchmark, and adds its metrics to `out`.  None of them runs inside
// a measured window.

// The paper's Table 3 split of one join of t1 and t2, each phase called
// directly: core.augment_s, obliv.expand_s, core.align_s (+ their counts).
struct JoinPhases {
  double augment_s = 0, expand_s = 0, align_s = 0;
  // The paired Executor::Execute of the same join, set by the caller.
  double execute_s = 0;
  uint64_t augment_cmps = 0, expand_cmps = 0, expand_route_ops = 0,
           align_cmps = 0;
  double total() const { return augment_s + expand_s + align_s; }
};
JoinPhases TimeJoinPhases(const oblivdb::Table& t1, const oblivdb::Table& t2);
// Medians over `runs`; core.executor_overhead_s is the median of each
// run's Execute time minus its three phases (zip, plan and shard dispatch).
void ReportJoinPhases(const std::vector<JoinPhases>& runs, Outcome& out);

// obliv.sort_ns_per_elem_large (2^20 Entries) and _small (12288 Entries)
// at the default context's policy.
void ProbeSorts(uint64_t seed, Outcome& out);

// core.shards (ResolveShardCount at the default context) and
// core.shard_partition_s (ObliviousShardPartition of both inputs at the
// resolved count, or at 2 when the executor resolved 1).
void ProbeShards(const oblivdb::Table& t1, const oblivdb::Table& t2,
                 Outcome& out);

// ms per call, keyed by operator metric name ("join", "distinct", ...).
using OperatorTimes = std::map<std::string, std::vector<double>>;
// Per-operator direct calls: walks an executed plan and times the
// core::Oblivious* call of every operator node on that node's inputs.
void TimeOperators(const oblivdb::core::PlanPtr& executed,
                   const oblivdb::core::ExecContext& ctx, OperatorTimes& times);
// Emits core.<op>_ms for the six operators of the workloads (mean ms per
// call).  Operators the sampled plans did not contain are timed directly
// on `t1`/`t2`.
void ReportOperators(OperatorTimes& times, const oblivdb::Table& t1,
                     const oblivdb::Table& t2, Outcome& out);

// The service layer's counters at one instant.
struct ServiceSnapshot {
  oblivdb::service::QueryService::Counters service;
  oblivdb::service::PlanCache::Stats plan_cache;
  oblivdb::obliv::ArtifactCache::Stats artifact_cache;
};
ServiceSnapshot Snapshot(const oblivdb::service::QueryService& svc);
// The counters over a window: service.batch_mean, service.coalesced_frac,
// both caches' hit rates and evictions, retries, sheds and rejections.
void ReportServiceCounters(const ServiceSnapshot& before,
                           const ServiceSnapshot& after, Outcome& out);

// core.optimize_us: median wall time of core::OptimizePlan on `plan`.
double TimeOptimize(const oblivdb::core::PlanPtr& plan,
                    const oblivdb::core::ExecContext& ctx);

}  // namespace perfbench

#endif  // OBLIVDB_PERFBENCH_BENCH_H_
