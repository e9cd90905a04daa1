// Failure-injection and contract-enforcement tests: the library aborts
// loudly on broken preconditions instead of silently de-obliviating.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/comparators.h"
#include "core/join.h"
#include "core/plan.h"
#include "core/shard.h"
#include "memtrace/encrypted_oarray.h"
#include "memtrace/oarray.h"
#include "memtrace/sinks.h"
#include "obliv/bitonic_sort.h"
#include "obliv/ct.h"
#include "obliv/expand.h"
#include "sgx_sim/epc_simulator.h"
#include "table/entry.h"
#include "workload/generators.h"

namespace oblivdb {
namespace {

struct Pod {
  uint64_t v = 0;
};

TEST(OArrayDeathTest, ReadOutOfBoundsAborts) {
  memtrace::OArray<Pod> arr(4, "b");
  EXPECT_DEATH((void)arr.Read(4), "OBLIVDB_CHECK");
}

TEST(OArrayDeathTest, WriteOutOfBoundsAborts) {
  memtrace::OArray<Pod> arr(4, "b");
  EXPECT_DEATH(arr.Write(100, Pod{}), "OBLIVDB_CHECK");
}

TEST(OArrayDeathTest, EmptyArrayAnyAccessAborts) {
  memtrace::OArray<Pod> arr(0, "b");
  EXPECT_DEATH((void)arr.Read(0), "OBLIVDB_CHECK");
}

struct Item {
  uint64_t key = 0;
  uint64_t dest = 0;
};
uint64_t GetRouteDest(const Item& e) { return e.dest; }
void SetRouteDest(Item& e, uint64_t d) { e.dest = d; }

TEST(ContractDeathTest, SortRangeBeyondArrayAborts) {
  memtrace::OArray<Item> arr(4, "b");
  struct Less {
    uint64_t operator()(const Item& a, const Item& b) const {
      return ct::LessMask(a.key, b.key);
    }
  };
  EXPECT_DEATH(obliv::BitonicSortRange(arr, 2, 3, Less{}), "OBLIVDB_CHECK");
}

TEST(ContractDeathTest, UndersizedExpandOutputAborts) {
  memtrace::OArray<Item> input(2, "in");
  input.Write(0, Item{1, 0});
  input.Write(1, Item{2, 0});
  struct Count {
    uint64_t operator()(const Item&) const { return 5; }
  };
  const uint64_t m = obliv::AssignExpandDestinations(input, Count{});
  EXPECT_EQ(m, 10u);
  memtrace::OArray<Item> too_small(4, "out");
  EXPECT_DEATH(obliv::ExpandToDestinations(input, too_small, m),
               "OBLIVDB_CHECK");
}

TEST(ContractDeathTest, WorkloadInfeasibleOutputSizeAborts) {
  // WithOutputSize requires target_m <= floor(n/2).
  EXPECT_DEATH((void)workload::WithOutputSize(8, 5, 0, 1), "OBLIVDB_CHECK");
}

// ---------------------------------------------------------------------------
// Determinism / idempotence under repetition (no hidden global state).

TEST(RobustnessTest, JoinIsPure) {
  const auto tc = workload::PowerLaw(32, 2.0, 4);
  const auto first = core::ObliviousJoin(tc.t1, tc.t2);
  const auto second = core::ObliviousJoin(tc.t1, tc.t2);
  EXPECT_EQ(first, second);
}

TEST(RobustnessTest, InterleavedTracedAndUntracedRunsAgree) {
  const auto tc = workload::PowerLaw(24, 2.0, 5);
  const auto plain = core::ObliviousJoin(tc.t1, tc.t2);
  memtrace::HashTraceSink sink;
  std::vector<JoinedRecord> traced;
  {
    memtrace::TraceScope scope(&sink);
    traced = core::ObliviousJoin(tc.t1, tc.t2);
  }
  EXPECT_EQ(plain, traced);
  EXPECT_EQ(core::ObliviousJoin(tc.t1, tc.t2), plain);
}

TEST(RobustnessTest, ExtremeKeyAndPayloadValues) {
  // Max-value keys/payloads stress the branch-free comparisons (borrow /
  // carry edge cases) through the whole pipeline.
  const uint64_t maxv = ~uint64_t{0};
  Table t1("a"), t2("b");
  t1.Add(maxv, maxv, maxv);
  t1.Add(maxv, maxv - 1, 0);
  t1.Add(0, 0, 0);
  t2.Add(maxv, maxv, 1);
  t2.Add(0, maxv, maxv);
  t2.Add(maxv - 1, 3, 3);
  const auto rows = core::ObliviousJoin(t1, t2);
  ASSERT_EQ(rows.size(), 3u);  // two maxv pairs + one zero pair
  EXPECT_EQ(rows[0].key, 0u);
  EXPECT_EQ(rows[1].key, maxv);
  EXPECT_EQ(rows[2].key, maxv);
}

TEST(RobustnessTest, EpcSimulatorLruEvictsColdestPage) {
  sgx_sim::SgxCostModel model;
  model.epc_bytes = 2 * 4096;  // two resident pages
  sgx_sim::EpcSimulator sim(model);
  memtrace::TraceScope scope(&sim);
  struct Page {
    uint8_t bytes[4096];
  };
  memtrace::OArray<Page> arr(3, "pages");
  (void)arr.Read(0);  // fault 1
  (void)arr.Read(1);  // fault 2
  (void)arr.Read(0);  // hit, refreshes page 0
  (void)arr.Read(2);  // fault 3, evicts page 1 (coldest)
  EXPECT_EQ(sim.page_faults(), 3u);
  (void)arr.Read(0);  // still resident -> no fault
  EXPECT_EQ(sim.page_faults(), 3u);
  (void)arr.Read(1);  // was evicted -> fault 4
  EXPECT_EQ(sim.page_faults(), 4u);
}

// ---------------------------------------------------------------------------
// Fault injection, site by site (common/fault.h).

struct EncCell {
  uint64_t a = 0;
  uint64_t b = 0;
  friend bool operator==(const EncCell&, const EncCell&) = default;
};

TEST(FaultSiteTest, TransientMacFaultRetriesAndRecovers) {
  ScopedFaultInjection scoped("decrypt_mac:once");
  memtrace::EncryptedOArray<EncCell> arr(2, /*key=*/7);
  arr.Write(0, EncCell{11, 22});
  // The first decryption arrival fires; the retry's re-derived arrival does
  // not, so the read succeeds and the fault stays invisible to the caller.
  const EncCell got = arr.Read(0);
  EXPECT_EQ(got, (EncCell{11, 22}));
  const FaultCounters counters = FaultInjector::Global().Snapshot();
  EXPECT_EQ(counters.fired[0], 1u);
  EXPECT_EQ(counters.retries, 1u);
}

TEST(FaultSiteTest, TransientMacFaultPreservesValuesAndTrace) {
  auto run = [](const char* spec) {
    memtrace::VectorTraceSink sink;
    std::vector<EncCell> values;
    {
      ScopedFaultInjection scoped(spec, /*seed=*/5);
      // Constructed inside the scope so the array id comes from the
      // scope-reset counter and the two runs' events are comparable.
      memtrace::TraceScope scope(&sink);
      memtrace::EncryptedOArray<EncCell> arr(8, /*key=*/3, "enc_faulty");
      for (size_t i = 0; i < 8; ++i) {
        arr.Write(i, EncCell{i, 100 + i});
      }
      for (size_t i = 0; i < 8; ++i) values.push_back(arr.Read(i));
    }
    return std::make_pair(std::move(values), sink.events());
  };
  // 20% per-attempt failures are absorbed by the retry budget: the values
  // and the adversary-visible access sequence are byte-identical to the
  // fault-free run (retries re-touch already-fetched ciphertexts).
  const auto clean = run("");
  const auto faulty = run("decrypt_mac:0.2");
  EXPECT_EQ(clean.first, faulty.first);
  EXPECT_EQ(clean.second.size(), faulty.second.size());
  for (size_t i = 0; i < clean.second.size(); ++i) {
    EXPECT_EQ(clean.second[i], faulty.second[i]) << "event " << i;
  }
}

TEST(FaultSiteTest, PersistentCorruptionTryReadReturnsIntegrityViolation) {
  memtrace::EncryptedOArray<EncCell> arr(4, /*key=*/9, "tampered");
  arr.Write(2, EncCell{1, 2});
  arr.MutableCiphertextAt(2).bytes[0] ^= 0x80;  // single bit flip
  const StatusOr<EncCell> r = arr.TryRead(2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIntegrityViolation);
  EXPECT_NE(r.status().message().find("cell 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("tampered"), std::string::npos);
  // The untampered neighbour still authenticates.
  EXPECT_TRUE(arr.TryRead(1).ok());
}

TEST(FaultSiteDeathTest, PersistentCorruptionLegacyReadAborts) {
  memtrace::EncryptedOArray<EncCell> arr(4, /*key=*/9);
  arr.Write(1, EncCell{1, 2});
  arr.MutableCiphertextAt(1).bytes[5] ^= 0x01;
  EXPECT_DEATH((void)arr.Read(1),
               "OBLIVDB fault \\(no recovery scope\\).*INTEGRITY_VIOLATION");
}

TEST(FaultSiteTest, CorruptionUnderRecoveryScopeUnwindsToStatus) {
  memtrace::EncryptedOArray<EncCell> arr(4, /*key=*/9);
  arr.Write(1, EncCell{1, 2});
  arr.MutableCiphertextAt(1).bytes[5] ^= 0x01;
  core::ExecContext ctx;
  const StatusOr<EncCell> r =
      core::RunRecoverable(ctx, [&] { return arr.Read(1); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIntegrityViolation);
}

TEST(FaultSiteDeathTest, AllocFaultAbortsWithoutRecoveryScope) {
  ScopedFaultInjection scoped("alloc:once");
  EXPECT_DEATH({ memtrace::OArray<Pod> victim(4, "victim"); },
               "RESOURCE_EXHAUSTED: injected allocation failure");
}

TEST(FaultSiteTest, AllocFaultReturnsResourceExhaustedUnderScope) {
  ScopedFaultInjection scoped("alloc:once");
  core::ExecContext ctx;
  const StatusOr<uint64_t> r = core::RunRecoverable(ctx, [] {
    memtrace::OArray<Pod> victim(4, "victim");
    return victim.Read(0).v;
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("victim"), std::string::npos);
  // The injector is one-shot: the next allocation succeeds.
  const StatusOr<uint64_t> again = core::RunRecoverable(ctx, [] {
    memtrace::OArray<Pod> fine(4, "fine");
    return fine.Read(0).v;
  });
  EXPECT_TRUE(again.ok());
}

TEST(FaultSiteTest, PoolSpawnFaultDegradesParallelTagToTagSort) {
  const auto tc = workload::PowerLaw(64, 2.0, 7);
  core::JoinStats clean_stats;
  core::ExecContext clean_ctx;
  clean_ctx.sort_policy = obliv::SortPolicy::kParallelTag;
  clean_ctx.stats = &clean_stats;
  std::vector<JoinedRecord> clean;
  {
    // Pin injection off so an ambient OBLIVDB_FAULT_SPEC (smoke pass 5)
    // can't degrade the clean baseline.
    ScopedFaultInjection off("");
    clean = core::ObliviousJoin(tc.t1, tc.t2, clean_ctx);
  }

  core::JoinStats faulty_stats;
  core::ExecContext faulty_ctx = clean_ctx;
  faulty_ctx.stats = &faulty_stats;
  std::vector<JoinedRecord> faulty;
  {
    ScopedFaultInjection scoped("pool_spawn:1");  // every fan-out refused
    faulty = core::ObliviousJoin(tc.t1, tc.t2, faulty_ctx);
  }
  // Degradation preserves the output bytes (kParallelTag and kTagSort sort
  // to the same order with the same trace contract); the stats record both
  // the downgraded tier and the degradation count.
  EXPECT_EQ(clean, faulty);
  EXPECT_NE(faulty_stats.op_sort_policy_chosen,
            obliv::SortPolicy::kParallelTag);
  EXPECT_GT(faulty_stats.op_degradations, 0u);
  EXPECT_GT(faulty_stats.op_faults_injected, 0u);
  EXPECT_EQ(clean_stats.op_degradations, 0u);
}

TEST(FaultSiteTest, PoolSpawnFaultDowngradesSortTierInPlace) {
  auto fill = [](memtrace::OArray<Entry>& a) {
    for (size_t i = 0; i < a.size(); ++i) {
      a.Write(i, MakeEntry(Record{(i * 37) % 64, {i, i + 1}}, /*tid=*/1));
    }
  };
  memtrace::OArray<Entry> clean(64, "deg_clean");
  fill(clean);
  obliv::SortPolicy clean_chosen = obliv::SortPolicy::kAuto;
  obliv::SortRange(clean, 0, clean.size(), core::ByJoinKeyThenTidLess{},
                   obliv::SortPolicy::kParallelTag, nullptr, nullptr,
                   &clean_chosen);
  EXPECT_EQ(clean_chosen, obliv::SortPolicy::kParallelTag);

  memtrace::OArray<Entry> faulty(64, "deg_faulty");
  fill(faulty);
  obliv::SortPolicy faulty_chosen = obliv::SortPolicy::kAuto;
  {
    ScopedFaultInjection scoped("pool_spawn:once");
    obliv::SortRange(faulty, 0, faulty.size(), core::ByJoinKeyThenTidLess{},
                     obliv::SortPolicy::kParallelTag, nullptr, nullptr,
                     &faulty_chosen);
    EXPECT_EQ(FaultInjector::Global().Snapshot().degradations, 1u);
  }
  EXPECT_EQ(faulty_chosen, obliv::SortPolicy::kTagSort);
  for (size_t i = 0; i < clean.size(); ++i) {
    const Entry a = clean.Read(i);
    const Entry b = faulty.Read(i);
    EXPECT_EQ(a.join_key, b.join_key);
    EXPECT_EQ(a.payload0, b.payload0);
  }
}

TEST(FaultSiteTest, EpcFaultHalvesShardCount) {
  const auto tc = workload::OneToOne(256, 3);
  core::ExecContext ctx;
  ctx.shards = 4;
  core::JoinStats stats;
  ctx.stats = &stats;
  const auto unsharded = core::ObliviousJoin(tc.t1, tc.t2);
  std::vector<JoinedRecord> rows;
  {
    // First EPC reservation (k=4) refused, the retry at k=2 admitted.
    ScopedFaultInjection scoped("epc_evict:once");
    rows = core::ShardedJoin(tc.t1, tc.t2, ctx);
  }
  EXPECT_EQ(rows, unsharded);
  EXPECT_EQ(stats.op_shards, 2u);
  EXPECT_EQ(stats.op_degradations, 1u);
  EXPECT_GE(stats.op_faults_injected, 1u);
}

TEST(FaultSiteTest, EpcExhaustionDowngradesToUnsharded) {
  const auto tc = workload::OneToOne(256, 3);
  core::ExecContext ctx;
  ctx.shards = 4;
  core::JoinStats stats;
  ctx.stats = &stats;
  const auto unsharded = core::ObliviousJoin(tc.t1, tc.t2);
  std::vector<JoinedRecord> rows;
  {
    ScopedFaultInjection scoped("epc_evict:1");  // every reservation refused
    rows = core::ShardedJoin(tc.t1, tc.t2, ctx);
  }
  EXPECT_EQ(rows, unsharded);
  EXPECT_EQ(stats.op_shards, 1u);  // the unsharded fallback reported
  EXPECT_EQ(stats.op_degradations, 2u);  // 4 -> 2 -> 1
}

TEST(FaultSiteTest, EpcBudgetLimitDowngradesWithoutInjection) {
  const auto tc = workload::OneToOne(256, 3);
  core::ExecContext ctx;
  ctx.shards = 4;
  sgx_sim::SetEpcLimitBytes(1);  // no shard footprint fits one byte
  const uint32_t k = core::ResolveShardCount(tc.t1, tc.t2, ctx);
  sgx_sim::SetEpcLimitBytes(0);
  EXPECT_EQ(k, 1u);
}

TEST(FaultSiteTest, PoolSpawnFaultRunsShardPipelinesSequentially) {
  const auto tc = workload::OneToOne(256, 3);
  core::ExecContext ctx;
  ctx.shards = 2;
  const auto clean = core::ShardedJoin(tc.t1, tc.t2, ctx);
  core::JoinStats stats;
  ctx.stats = &stats;
  std::vector<JoinedRecord> faulty;
  {
    ScopedFaultInjection scoped("pool_spawn:1");
    faulty = core::ShardedJoin(tc.t1, tc.t2, ctx);
  }
  // The shard fan-out degrades to the sequential driver loop; outputs are
  // unchanged and the degradation is visible in the operator's window.
  EXPECT_EQ(clean, faulty);
  EXPECT_EQ(stats.op_shards, 2u);
  EXPECT_GT(stats.op_degradations, 0u);
}

TEST(FaultInjectorTest, InjectedFaultSequenceAndStatusAreDeterministic) {
  auto run = [] {
    ScopedFaultInjection scoped("decrypt_mac:0.9", /*seed=*/1234);
    memtrace::EncryptedOArray<EncCell> arr(4, /*key=*/3);
    core::ExecContext ctx;
    std::vector<StatusCode> codes;
    for (int i = 0; i < 8; ++i) {
      const StatusOr<EncCell> r = core::RunRecoverable(
          ctx, [&] { return arr.Read(static_cast<size_t>(i) % 4); });
      codes.push_back(r.ok() ? StatusCode::kOk : r.status().code());
    }
    auto counters = FaultInjector::Global().Snapshot();
    return std::make_pair(std::move(codes), counters.fired);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // At 90% per-attempt failure some read must have exhausted its retries.
  bool any_fault = false;
  for (StatusCode c : first.first) {
    any_fault = any_fault || c == StatusCode::kIntegrityViolation;
  }
  EXPECT_TRUE(any_fault);
}

// ---------------------------------------------------------------------------
// Oblivious-safe cancellation and deadlines (common/cancel.h).

class RecordingCheckpointSink : public CheckpointSink {
 public:
  void OnCheckpoint(const char* phase, uint64_t seq) override {
    checkpoints_.emplace_back(phase, seq);
  }
  const std::vector<std::pair<std::string, uint64_t>>& checkpoints() const {
    return checkpoints_;
  }

 private:
  std::vector<std::pair<std::string, uint64_t>> checkpoints_;
};

// Cancels the token when the poll sequence reaches `cancel_at`.
class CancelAtCheckpointSink : public CheckpointSink {
 public:
  CancelAtCheckpointSink(CancelToken* token, uint64_t cancel_at)
      : token_(token), cancel_at_(cancel_at) {}
  void OnCheckpoint(const char*, uint64_t seq) override {
    last_seq_ = seq;
    if (seq == cancel_at_) token_->Cancel();
  }
  uint64_t last_seq() const { return last_seq_; }

 private:
  CancelToken* token_;
  uint64_t cancel_at_;
  uint64_t last_seq_ = 0;
};

TEST(CancellationTest, PreCancelledTokenReturnsCancelled) {
  const auto tc = workload::PowerLaw(32, 2.0, 4);
  CancelToken token;
  token.Cancel();
  core::ExecContext ctx;
  ctx.cancel_token = &token;
  const auto r = core::RunRecoverable(
      ctx, [&] { return core::ObliviousJoin(tc.t1, tc.t2, ctx); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_NE(r.status().message().find("cancelled at checkpoint"),
            std::string::npos);
}

TEST(CancellationTest, PreCancelledTokenCancelsShardedJoin) {
  const auto tc = workload::OneToOne(256, 3);
  CancelToken token;
  token.Cancel();
  core::ExecContext ctx;
  ctx.shards = 2;
  ctx.cancel_token = &token;
  const auto r = core::RunRecoverable(
      ctx, [&] { return core::ShardedJoin(tc.t1, tc.t2, ctx); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, TinyDeadlineReturnsDeadlineExceeded) {
  const auto tc = workload::PowerLaw(32, 2.0, 4);
  core::ExecContext ctx;
  ctx.deadline_seconds = 1e-9;  // expired by the first checkpoint
  const auto r = core::RunRecoverable(
      ctx, [&] { return core::ObliviousJoin(tc.t1, tc.t2, ctx); });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("deadline exceeded at checkpoint"),
            std::string::npos);
}

TEST(CancellationTest, UnfiredTokenLeavesResultIdentical) {
  const auto tc = workload::PowerLaw(32, 2.0, 4);
  const auto legacy = core::ObliviousJoin(tc.t1, tc.t2);
  CancelToken token;  // never cancelled
  core::ExecContext ctx;
  ctx.cancel_token = &token;
  const auto r = core::RunRecoverable(
      ctx, [&] { return core::ObliviousJoin(tc.t1, tc.t2, ctx); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), legacy);
}

TEST(CancellationTest, CheckpointSequenceIsSizeDetermined) {
  // Two datasets with identical public sizes (n1 = n2 = 64, m = 64 for
  // one-to-one workloads) but different contents: the checkpoint sequence —
  // phases and sequence numbers — and the memory trace must be identical.
  auto run = [](uint64_t seed, RecordingCheckpointSink* sink,
                memtrace::VectorTraceSink* trace) {
    const auto tc = workload::OneToOne(64, seed);
    core::ExecContext ctx;
    ctx.checkpoint_sink = sink;
    memtrace::TraceScope scope(trace);
    const auto r = core::RunRecoverable(
        ctx, [&] { return core::ObliviousJoin(tc.t1, tc.t2, ctx); });
    ASSERT_TRUE(r.ok());
  };
  RecordingCheckpointSink sink_a, sink_b;
  memtrace::VectorTraceSink trace_a, trace_b;
  run(1, &sink_a, &trace_a);
  run(2, &sink_b, &trace_b);
  ASSERT_GT(sink_a.checkpoints().size(), 0u);
  EXPECT_EQ(sink_a.checkpoints(), sink_b.checkpoints());
  EXPECT_TRUE(trace_a.SameTraceAs(trace_b));
}

TEST(CancellationTest, CancelledRunIsTruncatedPrefixOfUncancelledRun) {
  const auto tc = workload::OneToOne(64, 5);

  // Full run: record the complete trace and the total checkpoint count.
  RecordingCheckpointSink full_sink;
  memtrace::VectorTraceSink full_trace;
  {
    core::ExecContext ctx;
    ctx.checkpoint_sink = &full_sink;
    memtrace::TraceScope scope(&full_trace);
    ASSERT_TRUE(core::RunRecoverable(ctx, [&] {
                  return core::ObliviousJoin(tc.t1, tc.t2, ctx);
                }).ok());
  }
  const uint64_t total = full_sink.checkpoints().size();
  ASSERT_GT(total, 2u);

  // Cancelled run: fire the token mid-pipeline, at a public checkpoint.
  const uint64_t cancel_at = total / 2;
  CancelToken token;
  CancelAtCheckpointSink cancel_sink(&token, cancel_at);
  memtrace::VectorTraceSink cancelled_trace;
  {
    core::ExecContext ctx;
    ctx.cancel_token = &token;
    ctx.checkpoint_sink = &cancel_sink;
    memtrace::TraceScope scope(&cancelled_trace);
    const auto r = core::RunRecoverable(
        ctx, [&] { return core::ObliviousJoin(tc.t1, tc.t2, ctx); });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
  // Observed exactly through the cancellation checkpoint, not beyond.
  EXPECT_EQ(cancel_sink.last_seq(), cancel_at);

  // The cancelled run's access trace is a byte-identical prefix of the
  // uncancelled run's: between checkpoints the pipeline is
  // non-interruptible, and the poll schedule is a function of public sizes.
  const auto& full = full_trace.events();
  const auto& part = cancelled_trace.events();
  ASSERT_LT(part.size(), full.size());
  for (size_t i = 0; i < part.size(); ++i) {
    ASSERT_EQ(part[i], full[i]) << "trace diverged at event " << i;
  }
}

// ---------------------------------------------------------------------------
// Fallible plan execution and fault-annotated explains (core/plan.h).

TEST(TryRunTest, NullPlanIsInvalidArgument) {
  core::Executor executor(core::ExecContext{});
  const auto r = executor.TryRun(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TryRunTest, MatchesExecuteOnCleanRuns) {
  const auto tc = workload::PowerLaw(32, 2.0, 4);
  const auto plan =
      core::Distinct(core::Join(core::Scan(tc.t1), core::Scan(tc.t2)));
  core::Executor plain(core::ExecContext{});
  const core::PlanResult expected = plain.Execute(plan);
  core::Executor fallible(core::ExecContext{});
  const auto r = fallible.TryRun(plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().table.rows(), expected.table.rows());
}

TEST(TryRunTest, CancellationSurfacesThroughExecutor) {
  const auto tc = workload::PowerLaw(32, 2.0, 4);
  const auto plan = core::Join(core::Scan(tc.t1), core::Scan(tc.t2));
  CancelToken token;
  token.Cancel();
  core::ExecContext ctx;
  ctx.cancel_token = &token;
  core::Executor executor(ctx);
  const auto r = executor.TryRun(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(TryRunTest, ExplainPlanAnnotatesFaultCounters) {
  const auto tc = workload::OneToOne(256, 3);
  const auto plan =
      core::Join(core::Scan(tc.t1), core::Scan(tc.t2), /*shards=*/4);
  core::Executor executor(core::ExecContext{});
  core::PlanResult result;
  {
    ScopedFaultInjection scoped("epc_evict:once");
    const auto r = executor.TryRun(plan);
    ASSERT_TRUE(r.ok());
    result = r.value();
  }
  const std::string annotated = core::ExplainPlan(plan, executor.node_stats());
  EXPECT_NE(annotated.find("shards=2"), std::string::npos) << annotated;
  EXPECT_NE(annotated.find("degraded=1"), std::string::npos) << annotated;
  EXPECT_NE(annotated.find("faults=1"), std::string::npos) << annotated;
  // A clean run renders no resilience markers at all (injection pinned
  // off so an ambient OBLIVDB_FAULT_SPEC can't dirty the baseline).
  ScopedFaultInjection off("");
  core::Executor clean(core::ExecContext{});
  ASSERT_TRUE(clean.TryRun(plan).ok());
  const std::string plain = core::ExplainPlan(plan, clean.node_stats());
  EXPECT_EQ(plain.find("faults="), std::string::npos) << plain;
  EXPECT_EQ(plain.find("degraded="), std::string::npos) << plain;
}

// ---------------------------------------------------------------------------
// ThreadPool no-throw contract (common/thread_pool.h).

TEST(ThreadPoolDeathTest, ThrowingTaskAbortsNamingTheTask) {
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        TaskGroup group(pool);
        group.Run([] { throw std::runtime_error("kaboom"); }, "explode");
        group.Wait();
      },
      "ThreadPool task 'explode' violated the no-throw contract.*kaboom");
}

}  // namespace
}  // namespace oblivdb
