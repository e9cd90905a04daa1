// Resilience-cost benchmark: what fault tolerance costs when nothing
// goes wrong, and what recovery costs when something does.
//
// Three measurement families, emitted as JSON to stdout
// (bench/run_benches.sh captures it as BENCH_faults.json):
//
//   * checkpoint_overhead — ObliviousJoin vs the same call wrapped in
//     core::RunRecoverable on a 2^20-total-row one-to-one join.  The
//     wrapped path installs the recovery/cancel scope and polls
//     Checkpoint() at every public phase boundary; the bar is <= 2%
//     overhead (checkpoints are per-phase, not per-element, so the poll
//     count is logarithmic in the work);
//   * recovery — the cost of each graceful-degradation path against its
//     clean twin, with the fault counters that window recorded:
//       mac_retry           decrypt_mac:0.01 over a full encrypted read
//                           pass (bounded in-place retries),
//       pool_spawn_degrade  pool_spawn:1 forcing every kParallelTag sort
//                           down to its sequential kTagSort twin,
//       epc_degrade         epc_evict:once halving a forced 4-shard join
//                           to 2 shards;
//   * cancellation (smoke) — a pre-cancelled token must surface
//     kCancelled, and the wrapped path's output must be byte-identical to
//     the plain call's.
//
//   bench_faults [--smoke]
//
// --smoke: tiny sizes; verifies byte-equality of every faulty/clean run
// pair plus the cancellation contract, and exits nonzero on any mismatch
// (bench/smoke.sh runs this under sanitizers with injection enabled).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/exec_context.h"
#include "core/join.h"
#include "core/shard.h"
#include "memtrace/encrypted_oarray.h"
#include "workload/generators.h"

namespace {

using namespace oblivdb;

// Counts checkpoint polls so the overhead row can report how many fired.
class CountingCheckpointSink : public CheckpointSink {
 public:
  void OnCheckpoint(const char* /*phase*/, uint64_t seq) override {
    last_seq_ = seq;
  }
  uint64_t count() const { return last_seq_; }

 private:
  uint64_t last_seq_ = 0;
};

template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct RecoveryRow {
  const char* path;
  double clean_seconds;
  double faulty_seconds;
  FaultCounters delta;  // counter movement inside the faulty window
  bool ok;              // smoke: faulty output matched the clean output
};

FaultCounters Delta(const FaultCounters& a, const FaultCounters& b) {
  FaultCounters d;
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    d.arrivals[i] = b.arrivals[i] - a.arrivals[i];
    d.fired[i] = b.fired[i] - a.fired[i];
  }
  d.degradations = b.degradations - a.degradations;
  d.retries = b.retries - a.retries;
  return d;
}

struct EncCell {
  uint64_t a = 0;
  uint64_t b = 0;
  friend bool operator==(const EncCell&, const EncCell&) = default;
};

// mac_retry: a full authenticated read pass, clean vs. 1%-transient MAC
// failures absorbed by DecryptCell's bounded retry loop.
RecoveryRow BenchMacRetry(size_t cells, int reps) {
  memtrace::EncryptedOArray<EncCell> arr(cells, /*key=*/17, "bench_mac");
  for (size_t i = 0; i < cells; ++i) arr.Write(i, EncCell{i, ~i});

  std::vector<EncCell> clean_vals(cells), faulty_vals(cells);
  const double clean = BestOf(reps, [&] {
    for (size_t i = 0; i < cells; ++i) clean_vals[i] = arr.Read(i);
  });

  ScopedFaultInjection scoped("decrypt_mac:0.01");
  const FaultCounters start = FaultInjector::Global().Snapshot();
  const double faulty = BestOf(reps, [&] {
    for (size_t i = 0; i < cells; ++i) faulty_vals[i] = arr.Read(i);
  });
  const FaultCounters end = FaultInjector::Global().Snapshot();
  return {"mac_retry", clean, faulty, Delta(start, end),
          clean_vals == faulty_vals};
}

// pool_spawn_degrade: every parallel-sort spawn probe refused, so each
// kParallelTag sort runs its sequential kTagSort twin in place.
RecoveryRow BenchPoolSpawnDegrade(size_t n, int reps) {
  const workload::TestCase tc = workload::PowerLaw(n, 2.0, 7);
  core::ExecContext ctx;
  ctx.sort_policy = obliv::SortPolicy::kParallelTag;

  std::vector<JoinedRecord> clean_rows, faulty_rows;
  const double clean =
      BestOf(reps, [&] { clean_rows = core::ObliviousJoin(tc.t1, tc.t2, ctx); });

  ScopedFaultInjection scoped("pool_spawn:1");
  const FaultCounters start = FaultInjector::Global().Snapshot();
  const double faulty =
      BestOf(reps, [&] { faulty_rows = core::ObliviousJoin(tc.t1, tc.t2, ctx); });
  const FaultCounters end = FaultInjector::Global().Snapshot();
  return {"pool_spawn_degrade", clean, faulty, Delta(start, end),
          clean_rows == faulty_rows};
}

// epc_degrade: the first EPC reservation refused, halving a forced
// 4-shard join to 2 shards.
RecoveryRow BenchEpcDegrade(size_t n, int reps) {
  const workload::TestCase tc = workload::OneToOne(n, 3);
  core::ExecContext ctx;
  ctx.shards = 4;

  std::vector<JoinedRecord> clean_rows, faulty_rows;
  const double clean =
      BestOf(reps, [&] { clean_rows = core::ShardedJoin(tc.t1, tc.t2, ctx); });

  ScopedFaultInjection scoped("epc_evict:once");
  const FaultCounters start = FaultInjector::Global().Snapshot();
  const double faulty =
      BestOf(reps, [&] { faulty_rows = core::ShardedJoin(tc.t1, tc.t2, ctx); });
  const FaultCounters end = FaultInjector::Global().Snapshot();
  return {"epc_degrade", clean, faulty, Delta(start, end),
          clean_rows == faulty_rows};
}

void PrintRecoveryRow(const RecoveryRow& row, bool last) {
  const double pct = row.clean_seconds > 0
                         ? 100.0 * (row.faulty_seconds - row.clean_seconds) /
                               row.clean_seconds
                         : 0.0;
  std::printf("    {\"path\": \"%s\", \"clean_seconds\": %.6f, "
              "\"faulty_seconds\": %.6f, \"overhead_pct\": %.2f, "
              "\"faults_injected\": %" PRIu64 ", \"retries\": %" PRIu64
              ", \"degradations\": %" PRIu64 ", \"output_matches\": %s}%s\n",
              row.path, row.clean_seconds, row.faulty_seconds, pct,
              row.delta.TotalFired(), row.delta.retries,
              row.delta.degradations, row.ok ? "true" : "false",
              last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int reps = smoke ? 1 : 3;
  bool ok = true;

  // --- checkpoint overhead: plain vs. RunRecoverable on a 2^20-total-row
  // join (OneToOne(n) splits n rows evenly across the two tables). ---
  const size_t total = smoke ? 256 : (size_t{1} << 20);
  const workload::TestCase big = workload::OneToOne(total, 5);

  std::vector<JoinedRecord> legacy_rows;
  const double legacy_s = BestOf(
      reps, [&] { legacy_rows = core::ObliviousJoin(big.t1, big.t2); });

  CountingCheckpointSink sink;
  core::ExecContext try_ctx;
  try_ctx.checkpoint_sink = &sink;
  std::vector<JoinedRecord> try_rows;
  const double try_s = BestOf(reps, [&] {
    StatusOr<std::vector<JoinedRecord>> r = core::RunRecoverable(
        try_ctx, [&] { return core::ObliviousJoin(big.t1, big.t2, try_ctx); });
    if (!r.ok()) {
      std::fprintf(stderr, "FAIL: clean RunRecoverable join returned %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    try_rows = std::move(r).value();
  });
  if (try_rows != legacy_rows) {
    std::fprintf(stderr, "FAIL: wrapped and plain join outputs differ\n");
    ok = false;
  }
  const double overhead_pct =
      legacy_s > 0 ? 100.0 * (try_s - legacy_s) / legacy_s : 0.0;

  // --- cancellation contract (cheap; always checked). ---
  {
    CancelToken token;
    token.Cancel();
    core::ExecContext ctx;
    ctx.cancel_token = &token;
    const workload::TestCase tiny = workload::OneToOne(64, 9);
    const StatusOr<std::vector<JoinedRecord>> r = core::RunRecoverable(
        ctx, [&] { return core::ObliviousJoin(tiny.t1, tiny.t2, ctx); });
    if (r.ok() || r.status().code() != StatusCode::kCancelled) {
      std::fprintf(stderr, "FAIL: pre-cancelled join did not report "
                           "CANCELLED\n");
      ok = false;
    }
  }

  // --- recovery paths. ---
  const RecoveryRow rows[] = {
      BenchMacRetry(smoke ? 256 : (size_t{1} << 15), reps),
      BenchPoolSpawnDegrade(smoke ? 64 : (size_t{1} << 13), reps),
      BenchEpcDegrade(smoke ? 256 : (size_t{1} << 13), reps),
  };
  for (const RecoveryRow& row : rows) {
    if (!row.ok) {
      std::fprintf(stderr, "FAIL: %s: faulty output differs from clean\n",
                   row.path);
      ok = false;
    }
    if (row.delta.TotalFired() == 0) {
      std::fprintf(stderr, "FAIL: %s: no faults fired in the faulty run\n",
                   row.path);
      ok = false;
    }
  }

  std::printf("{\n  \"bench\": \"faults\",\n  \"threads\": %u,\n"
              "  \"smoke\": %s,\n",
              ThreadPool::Global().worker_count(), smoke ? "true" : "false");
  std::printf("  \"checkpoint_overhead\": {\"total_rows\": %zu, "
              "\"join_seconds\": %.6f, \"try_join_seconds\": %.6f, "
              "\"overhead_pct\": %.2f, \"checkpoints\": %" PRIu64 "},\n",
              total, legacy_s, try_s, overhead_pct, sink.count());
  std::printf("  \"recovery\": [\n");
  for (size_t i = 0; i < 3; ++i) {
    PrintRecoveryRow(rows[i], i == 2);
  }
  std::printf("  ]\n}\n");

  if (smoke) {
    std::fprintf(stderr, ok ? "faults smoke OK\n" : "faults smoke FAILED\n");
  }
  return ok ? 0 : 1;
}
