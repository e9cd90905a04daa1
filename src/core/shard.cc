#include "core/shard.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/bits.h"
#include "common/cancel.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/timer.h"
#include "sgx_sim/epc_simulator.h"
#include "core/comparators.h"
#include "memtrace/oarray.h"
#include "memtrace/trace.h"
#include "obliv/artifact_cache.h"
#include "obliv/ct.h"
#include "obliv/distribute.h"
#include "obliv/merge.h"
#include "obliv/routing.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"

namespace oblivdb::core {
namespace {

// Full-width lexicographic order of the join's output rows — the exact
// (j, d1, d2) order ObliviousJoin emits, so merging shard runs under it
// reproduces the unsharded output byte for byte (remaining ties are
// bytewise-identical rows; dest is uniformly zero here).
struct JoinedEntryLexLess {
  uint64_t operator()(const JoinedEntry& a, const JoinedEntry& b) const {
    const uint64_t eq_j = ct::EqMask(a.join_key, b.join_key);
    const uint64_t eq_l0 = ct::EqMask(a.left0, b.left0);
    const uint64_t eq_l1 = ct::EqMask(a.left1, b.left1);
    const uint64_t eq_r0 = ct::EqMask(a.right0, b.right0);
    return ct::LessMask(a.join_key, b.join_key) |
           (eq_j & ct::LessMask(a.left0, b.left0)) |
           (eq_j & eq_l0 & ct::LessMask(a.left1, b.left1)) |
           (eq_j & eq_l0 & eq_l1 & ct::LessMask(a.right0, b.right0)) |
           (eq_j & eq_l0 & eq_l1 & eq_r0 & ct::LessMask(a.right1, b.right1));
  }
};

// Aggregate rows carry one group per key, and the key-to-shard map makes
// the shards' group keys disjoint, so the key alone is a total order across
// the merged runs.
struct AggregateKeyLess {
  uint64_t operator()(const JoinGroupAggregate& a,
                      const JoinGroupAggregate& b) const {
    return ct::LessMask(a.key, b.key);
  }
};

// The pool a shard pipeline runs on when the partitioned budget is a
// single worker: sharing one serial pool keeps the k concurrent pipelines
// from spawning k short-lived pools just to run their (then strictly
// sequential) sorts.  ThreadPool is a thread-safe queue and the helping
// discipline keeps independent TaskGroups from blocking each other.
ThreadPool& SerialShardPool() {
  static ThreadPool pool(1);
  return pool;
}

// Runs `job(s, shard_ctx)` for every shard s in [0, k), returning each
// job's wall time in shard order.  Untraced runs execute concurrently, one
// driver thread per shard, each under a worker budget of
// max(1, workers / k) so the shards cannot oversubscribe the machine the
// caller's pool was sized for.  Traced runs execute sequentially in shard
// order on the calling thread — concurrency would interleave the shards'
// access streams nondeterministically, and the whole point of a trace is a
// deterministic function of the public sizes.  Whether a sink is installed
// is public configuration, so the sequential/concurrent split leaks
// nothing.
std::vector<double> RunShardJobs(
    uint32_t k, const ExecContext& ctx,
    const std::function<void(uint32_t, const ExecContext&)>& job) {
  std::vector<double> seconds(k, 0.0);
  // Sequential driver-thread execution: traced runs always (concurrency
  // would interleave the shards' access streams nondeterministically), and
  // untraced runs whose spawn probe reports thread exhaustion (fault site
  // "pool_spawn") — the concurrency degradation path.  Shard order and
  // count are public, so the per-shard checkpoint schedule is
  // size-determined.
  const bool concurrent = memtrace::GetTraceSink() == nullptr &&
                          ctx.pool_or_global().TrySpawnProbe();
  if (!concurrent) {
    if (memtrace::GetTraceSink() == nullptr) {
      FaultInjector::Global().RecordDegradation();
    }
    for (uint32_t s = 0; s < k; ++s) {
      Checkpoint("shard_pipeline");
      Timer timer;
      job(s, ctx.ForShard(s, ctx.pool));
      seconds[s] = timer.ElapsedSeconds();
    }
    return seconds;
  }

  const unsigned workers = ctx.pool_or_global().worker_count();
  const unsigned budget = std::max(1u, workers / k);
  std::vector<std::unique_ptr<ThreadPool>> pools(k);
  std::vector<ThreadPool*> shard_pool(k, nullptr);
  for (uint32_t s = 0; s < k; ++s) {
    if (budget > 1) {
      pools[s] = std::make_unique<ThreadPool>(budget);
      shard_pool[s] = pools[s].get();
    } else {
      shard_pool[s] = &SerialShardPool();
    }
  }

  // Fault propagation: when the driver sits under a fallible entry point,
  // each shard thread re-installs a recovery scope so a per-shard
  // environmental fault unwinds to here instead of aborting the process;
  // the first shard's Status is re-raised on the driver after the join.
  // Cancellation scopes are deliberately NOT propagated — checkpoints poll
  // only on the driver thread, keeping the checkpoint sequence a
  // deterministic, single-threaded function of the public sizes.
  const bool recover = RecoveryScope::Active();
  std::mutex error_mu;
  Status first_error;
  std::vector<std::thread> threads;
  threads.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    Checkpoint("shard_pipeline");
    threads.emplace_back([&, s] {
      std::optional<RecoveryScope> scope;
      if (recover) scope.emplace();
      // Re-install the context's artifact cache: the Executor's scope is
      // thread-local to the driver, and a shard pipeline's tag sorts
      // should hit (or honour the disabling of) the same cache.
      obliv::ArtifactCacheScope cache_scope(ctx.artifact_cache);
      try {
        Timer timer;
        job(s, ctx.ForShard(s, shard_pool[s]));
        seconds[s] = timer.ElapsedSeconds();
      } catch (const oblivdb::internal::StatusError& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          // Name the failing pipeline: chaos-test failures should read
          // "join: shard[2]: ..." without a debugger.
          first_error =
              e.status.Annotate("shard[" + std::to_string(s) + "]");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!first_error.ok()) {
    RaiseOrAbort(std::move(first_error), __FILE__, __LINE__);
  }
  return seconds;
}

// Collapses k consecutive sorted runs into one sorted range by rounds of
// adjacent pairwise ObliviousMergeRuns — ceil(log2 k) rounds of
// O(len log len) merges, every round's schedule a function of the run
// lengths alone.  Returns the merges' compare-exchange count.
template <typename T, typename Less>
uint64_t MergeSortedRuns(memtrace::OArray<T>& a, std::vector<size_t> runs,
                         const Less& less) {
  uint64_t comparisons = 0;
  while (runs.size() > 1) {
    std::vector<size_t> next;
    next.reserve((runs.size() + 1) / 2);
    size_t lo = 0;
    size_t i = 0;
    for (; i + 1 < runs.size(); i += 2) {
      obliv::ObliviousMergeRuns(a, lo, runs[i], runs[i + 1], less,
                                &comparisons);
      next.push_back(runs[i] + runs[i + 1]);
      lo += runs[i] + runs[i + 1];
    }
    if (i < runs.size()) next.push_back(runs[i]);
    runs = std::move(next);
  }
  return comparisons;
}

// Accumulates one shard pipeline's counters into the sharded operator's
// aggregate record (phase counters and times sum; the resolved sort tier
// is last-writer-wins, like the unsharded pipeline's own phases).  The
// fault counters (op_faults_injected / op_degradations / op_retries) are
// deliberately NOT summed: each shard's RecordFaultDelta measured its own
// global-counter window, and those windows overlap when shards run
// concurrently — the sharded operator reports one RecordFaultDelta over
// its whole execution window instead.
void FoldShardStats(const JoinStats& shard, JoinStats& agg) {
  agg.augment_sort_comparisons += shard.augment_sort_comparisons;
  agg.expand_sort_comparisons += shard.expand_sort_comparisons;
  agg.expand_route_ops += shard.expand_route_ops;
  agg.align_sort_comparisons += shard.align_sort_comparisons;
  agg.op_sort_comparisons += shard.op_sort_comparisons;
  agg.op_route_ops += shard.op_route_ops;
  agg.op_sorts_elided += shard.op_sorts_elided;
  agg.augment_seconds += shard.augment_seconds;
  agg.expand_seconds += shard.expand_seconds;
  agg.align_seconds += shard.align_seconds;
  agg.zip_seconds += shard.zip_seconds;
  if (shard.op_sort_policy_chosen != obliv::SortPolicy::kAuto) {
    agg.op_sort_policy_chosen = shard.op_sort_policy_chosen;
  }
}

// The per-shard input-order promise: ObliviousShardPartition leaves every
// shard (j, d)-sorted with an ascending reserved-key padding tail, so the
// ByKeyData cover holds for *any* input order; keyness survives sharding
// (each shard's real keys are a subset of the table's, and the padding
// keys are unique and disjoint from them), so the incoming hints' keyness
// carries over.
OrderHints ShardHints(const OrderHints& hints) {
  OrderHints h;
  h.left = OrderSpec::ByKeyData(hints.left.key_unique);
  h.right = OrderSpec::ByKeyData(hints.right.key_unique);
  return h;
}

}  // namespace

size_t ShardCapacity(size_t n, uint32_t k) {
  if (k <= 1) return n;
  const size_t avg = (n + k - 1) / k;
  // 25% headroom over the even split, floor 64.  The map balls-in-bins
  // whole *key groups*, not rows, so occupancy variance scales with the
  // (hidden) key multiplicities; a relative slack keeps the overflow
  // fallback rare across realistic multiplicity profiles while bounding
  // the padding overhead at a quarter of the shard.
  const size_t slack = std::max<size_t>(64, avg / 4);
  return avg + slack;
}

uint64_t ShardDummyKeyFloor(size_t n, uint32_t k) {
  // One reserved key per padded slot, two parities (one per table): the
  // top 2 * k * capacity values of the key space.  Everything below stays
  // usable as a real join key.
  const uint64_t window =
      2 * static_cast<uint64_t>(k) * ShardCapacity(n, k);
  return ~uint64_t{0} - window + 1;
}

uint32_t ShardOfKey(uint64_t key, uint64_t seed, uint32_t k) {
  // DeriveSeed is a splitmix64 finalizer of seed ^ spread(key): a keyed
  // pseudorandom map, deterministic per (seed, k) so both inputs and the
  // ResolveShardCount precheck agree on every row's shard.
  return static_cast<uint32_t>(ExecContext::DeriveSeed(seed, key) % k);
}

namespace {

// Modeled cost (ns) of one unsharded Join/Aggregate pipeline over inputs
// of n1 + n2 rows on w workers: the pipeline is dominated by ~4 full
// Entry-width sorts of the union (entry sort, two expansion prefix sorts,
// the align sort), each running whatever tier the kAuto resolution would
// pick at that size.  The absolute number only matters insofar as it ranks
// shard counts correctly, exactly like the sort model it builds on.
double JoinPipelineNs(size_t n, unsigned w) {
  if (n < 2) return 0.0;
  constexpr size_t kTagBytes = 8 * (ByJoinKeyThenTidLess::kSortKeyWords + 1);
  const obliv::SortPolicy tier = obliv::ResolveSortPolicy(
      obliv::SortPolicy::kAuto, sizeof(Entry), kTagBytes, n, w);
  return 4.0 * static_cast<double>(n) *
         obliv::EstimateSortNsPerElement(tier, sizeof(Entry), kTagBytes, n, w);
}

}  // namespace

double EstimateShardedJoinNs(size_t n1, size_t n2, uint32_t k,
                             unsigned workers) {
  workers = std::max(workers, 1u);
  if (k <= 1) return JoinPipelineNs(n1 + n2, workers);
  // Partition: each table pays roughly two full sorts of its padded array
  // (the (shard, j, d) grouping sort and the distribute's routing sort).
  const size_t cap1 = ShardCapacity(n1, k);
  const size_t cap2 = ShardCapacity(n2, k);
  const size_t padded1 = static_cast<size_t>(k) * cap1;
  const size_t padded2 = static_cast<size_t>(k) * cap2;
  auto partition_ns = [&](size_t padded) {
    if (padded < 2) return 0.0;
    constexpr size_t kTagBytes =
        8 * (ByJoinKeyThenTidLess::kSortKeyWords + 1);
    const obliv::SortPolicy tier = obliv::ResolveSortPolicy(
        obliv::SortPolicy::kAuto, sizeof(Entry), kTagBytes, padded, workers);
    return 2.0 * static_cast<double>(padded) *
           obliv::EstimateSortNsPerElement(tier, sizeof(Entry), kTagBytes,
                                           padded, workers);
  };
  double total = partition_ns(padded1) + partition_ns(padded2);
  // Per-shard pipelines: k runs over (cap1 + cap2)-row inputs, overlapped
  // across min(k, workers) concurrent drivers, each with a workers/k-way
  // split of the pool (floor 1).
  const unsigned per_shard_workers = std::max(workers / k, 1u);
  const double concurrency =
      static_cast<double>(std::min<uint32_t>(k, workers));
  total += static_cast<double>(k) *
           JoinPipelineNs(cap1 + cap2, per_shard_workers) / concurrency;
  // Recombine: ceil(log2 k) sequential merge rounds, each one full-width
  // pass over the combined padded rows (an upper bound on the output).
  const double rounds = static_cast<double>(Log2Floor(CeilPow2(k)));
  total += rounds * static_cast<double>(padded1 + padded2) *
           obliv::internal::WordCmpNs(sizeof(Entry)) *
           static_cast<double>(sizeof(Entry) / 8);
  return total;
}

uint32_t ResolveShardCount(const Table& t1, const Table& t2,
                           const ExecContext& ctx) {
  uint32_t k = 0;
  if (ctx.shards == 1) return 1;
  if (ctx.shards >= 2) {
    k = std::min(ctx.shards, ExecContext::kMaxShards);
  } else {
    // kAuto: cost-model argmin over candidate shard counts.  The size
    // floors come first — as hard lower bounds — so small operators never
    // touch the pool (ThreadPool::Global() spawns its workers on first use
    // — the same hygiene as the sort kernel's kAuto path) and never pay
    // partition overhead on inputs too small for the model's asymptotics
    // to be trustworthy.
    const size_t n_total = t1.size() + t2.size();
    if (n_total < kAutoShardMinRows) return 1;
    const unsigned workers = ctx.pool_or_global().worker_count();
    if (workers < 2) return 1;
    const uint32_t ceiling = std::min<uint32_t>(workers, kMaxAutoShards);
    uint32_t best = 1;
    double best_ns = EstimateShardedJoinNs(t1.size(), t2.size(), 1, workers);
    for (uint32_t cand = 2; cand <= ceiling; cand *= 2) {
      if (n_total / cand < kAutoShardMinRowsPerShard) break;
      const double ns =
          EstimateShardedJoinNs(t1.size(), t2.size(), cand, workers);
      if (ns < best_ns) {
        best = cand;
        best_ns = ns;
      }
    }
    if (best < 2) return 1;
    k = best;
  }

  // Public fallbacks (header comment: one revealed bit).  An empty input
  // makes every shard pure padding — nothing to parallelize.
  if (t1.empty() || t2.empty()) return 1;

  // Enclave-heap admission: the sharded pipeline's dominant resident
  // footprint is the two padded partitions plus the per-shard pipelines'
  // working entries — roughly four Entry copies per padded slot.  If the
  // EPC budget (or the injected "epc_evict" fault) refuses the reservation,
  // halve the shard count and retry: fewer shards mean less padding, so the
  // footprint shrinks monotonically.  Each halving is a recorded
  // degradation; the shard count was already public, so degrading on a
  // public budget leaks nothing new.
  while (k >= 2) {
    const uint64_t bytes =
        4 * static_cast<uint64_t>(sizeof(Entry)) * k *
        (ShardCapacity(t1.size(), k) + ShardCapacity(t2.size(), k));
    if (sgx_sim::TryReserveEpc(bytes).ok()) break;
    k /= 2;
    FaultInjector::Global().RecordDegradation();
  }
  if (k < 2) return 1;

  // Client-side prechecks at the trust boundary: keys inside the reserved
  // padding window would collide with either table's padding, and a shard
  // occupancy beyond the padded capacity (pathological skew under the
  // derived map) cannot be hidden — both downgrade to the unsharded
  // pipeline.  The floor is taken over the larger table so neither input's
  // real keys can meet the other's dummies.
  const uint64_t map_seed = ExecContext::DeriveSeed(ctx.rng_seed, 0);
  const uint64_t floor =
      ShardDummyKeyFloor(std::max(t1.size(), t2.size()), k);
  for (const Table* t : {&t1, &t2}) {
    const size_t cap = ShardCapacity(t->size(), k);
    std::vector<size_t> occupancy(k, 0);
    for (const Record& r : t->rows()) {
      if (r.key >= floor) return 1;
      if (++occupancy[ShardOfKey(r.key, map_seed, k)] > cap) return 1;
    }
  }
  return k;
}

ShardSet ObliviousShardPartition(const Table& table, uint32_t k,
                                 uint64_t table_tag, const ExecContext& ctx) {
  OBLIVDB_CHECK_GE(k, 2u);
  OBLIVDB_CHECK_GE(table_tag, 1u);
  OBLIVDB_CHECK_LE(table_tag, 2u);
  const size_t n = table.size();
  const size_t cap = ShardCapacity(n, k);
  const size_t m = static_cast<size_t>(k) * cap;
  const uint64_t map_seed = ExecContext::DeriveSeed(ctx.rng_seed, 0);
  const uint64_t dummy_floor = ShardDummyKeyFloor(n, k);

  ShardSet out;
  out.capacity = cap;

  // Load (trust boundary), staging each row's shard id in align_ii — free
  // until Align-Table, and the pipeline never sees it (the extraction below
  // drops everything but (j, d)).
  memtrace::OArray<Entry> a(m, "shard_part");
  for (size_t i = 0; i < n; ++i) {
    const Record& r = table.rows()[i];
    OBLIVDB_CHECK_LT(r.key, dummy_floor);
    Entry e = MakeEntry(r, table_tag);
    e.align_ii = ShardOfKey(r.key, map_seed, k);
    a.Write(i, e);
  }

  // Group the occupied prefix by (shard, j, d) — one O(n log^2 n) sort
  // under the caller's policy.  This both makes the running-offset pass
  // below a single sequential scan and leaves every shard's rows in the
  // (j, d) order the pipelines' ByKeyData hint promises.
  obliv::SortRange(a, 0, n, ByShardThenKeyThenDataLess{}, ctx.sort_policy,
                   &out.sort_comparisons, ctx.pool, &out.sort_chosen);

  // Branchless running offset within the current shard group: row i of
  // shard s gets the 1-based destination s*cap + i + 1.  The offset update
  // is mask-selected, never branched, so the scan's trace is the fixed
  // read-modify-write sequence whatever the shard ids are.  The bound
  // check is the partition's contract (ResolveShardCount prechecked it).
  uint64_t prev_shard = ~uint64_t{0};
  uint64_t offset = 0;
  for (size_t i = 0; i < n; ++i) {
    Entry e = a.Read(i);
    const uint64_t same = ct::EqMask(e.align_ii, prev_shard);
    offset = ct::Select(same, offset + 1, 0);
    OBLIVDB_CHECK_LT(offset, cap);
    e.dest = e.align_ii * cap + offset + 1;
    prev_shard = e.align_ii;
    a.Write(i, e);
  }

  // Scatter every row to its padded slot.  The PRP key comes from the
  // reserved seed streams (< kShardSeedStreamBase), distinct per table.
  obliv::PrimitiveStats distribute_stats{};
  obliv::ObliviousDistributeProbabilistic(
      a, n, ExecContext::DeriveSeed(ctx.rng_seed, table_tag),
      &distribute_stats, ctx.sort_policy, ctx.pool,
      obliv::DistributeUndo::kAuto);
  out.sort_comparisons += distribute_stats.sort_comparisons;
  out.route_ops += distribute_stats.route_ops;

  // Extraction: one sequential scan; slot i belongs to shard i / cap.
  // Unoccupied slots come back as zero entries (tid == 0, zero payloads);
  // they get this slot's reserved key — unique, ascending within each
  // shard's tail, above every real key, and parity-split by table so the
  // two inputs' padding can never join.  The select is a mask blend, so
  // real and padding slots cost the same.
  out.shards.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    Table shard(table.name() + "/s" + std::to_string(s));
    shard.rows().resize(cap);
    out.shards.push_back(std::move(shard));
  }
  for (size_t i = 0; i < m; ++i) {
    const Entry e = a.Read(i);
    const uint64_t pad = ct::EqMask(e.tid, 0);
    const uint64_t dummy_key =
        dummy_floor + 2 * static_cast<uint64_t>(i) + (table_tag - 1);
    const uint64_t key = ct::Select(pad, dummy_key, e.join_key);
    out.shards[i / cap].rows()[i % cap] =
        Record{key, {e.payload0, e.payload1}};
  }
  return out;
}

namespace {

// Folds the fault-counter deltas accrued while resolving the shard count
// (EPC-driven downgrades) into the stats record the unsharded fallback
// already filled — its own RecordFaultDelta window started after resolve.
void AddResolveFaultDelta(const FaultCounters& start, const FaultCounters& end,
                          const ExecContext& ctx) {
  if (ctx.stats == nullptr) return;
  ctx.stats->op_faults_injected += end.TotalFired() - start.TotalFired();
  ctx.stats->op_degradations += end.degradations - start.degradations;
  ctx.stats->op_retries += end.retries - start.retries;
}

}  // namespace

std::vector<JoinedRecord> ShardedJoin(const Table& t1, const Table& t2,
                                      const ExecContext& ctx,
                                      const OrderHints& hints) {
  const FaultCounters fault_start = FaultInjector::Global().Snapshot();
  const uint32_t k = ResolveShardCount(t1, t2, ctx);
  if (k <= 1) {
    const FaultCounters resolve_end = FaultInjector::Global().Snapshot();
    std::vector<JoinedRecord> rows = ObliviousJoin(t1, t2, ctx, hints);
    AddResolveFaultDelta(fault_start, resolve_end, ctx);
    return rows;
  }

  JoinStats stats;
  stats.n1 = t1.size();
  stats.n2 = t2.size();
  stats.op_shards = k;
  Timer total_timer;

  ShardSet p1 = ObliviousShardPartition(t1, k, 1, ctx);
  ShardSet p2 = ObliviousShardPartition(t2, k, 2, ctx);
  stats.op_sort_comparisons = p1.sort_comparisons + p2.sort_comparisons;
  stats.op_route_ops = p1.route_ops + p2.route_ops;
  stats.op_sort_policy_chosen = p2.sort_chosen != obliv::SortPolicy::kAuto
                                    ? p2.sort_chosen
                                    : p1.sort_chosen;

  const OrderHints shard_hints = ShardHints(hints);
  std::vector<std::vector<JoinedRecord>> outputs(k);
  std::vector<JoinStats> shard_stats(k);
  stats.shard_seconds = RunShardJobs(
      k, ctx, [&](uint32_t s, const ExecContext& shard_ctx_in) {
        ExecContext shard_ctx = shard_ctx_in;
        shard_ctx.stats = &shard_stats[s];
        outputs[s] =
            ObliviousJoin(p1.shards[s], p2.shards[s], shard_ctx, shard_hints);
      });

  size_t total_m = 0;
  for (uint32_t s = 0; s < k; ++s) {
    FoldShardStats(shard_stats[s], stats);
    total_m += outputs[s].size();
  }
  stats.m = total_m;

  // Recombine: load the k sorted runs back to back (public run lengths —
  // the per-shard output sizes, see the leakage note in shard.h) and merge
  // them pairwise into the global (j, d1, d2) order.
  memtrace::OArray<JoinedEntry> merged(total_m, "shard_runs");
  std::vector<size_t> runs(k);
  constexpr size_t kChunk = 256;
  JoinedEntry staged[kChunk];
  size_t base = 0;
  for (uint32_t s = 0; s < k; ++s) {
    runs[s] = outputs[s].size();
    for (size_t i = 0; i < runs[s];) {
      const size_t c = std::min(kChunk, runs[s] - i);
      for (size_t j = 0; j < c; ++j) {
        const JoinedRecord& r = outputs[s][i + j];
        staged[j] = JoinedEntry{r.key,        r.payload1[0], r.payload1[1],
                                r.payload2[0], r.payload2[1], 0};
      }
      merged.WriteSpan(base + i, c, staged);
      i += c;
    }
    base += runs[s];
  }
  stats.op_sort_comparisons +=
      MergeSortedRuns(merged, std::move(runs), JoinedEntryLexLess{});

  std::vector<JoinedRecord> rows(total_m);
  const JoinedEntry* data = merged.UntracedData();
  for (size_t i = 0; i < total_m; ++i) rows[i] = ToJoinedRecord(data[i]);

  stats.total_seconds = total_timer.ElapsedSeconds();
  RecordFaultDelta(fault_start, stats);
  ctx.ReportStats("join", stats);
  return rows;
}

std::vector<JoinGroupAggregate> ShardedJoinAggregate(const Table& t1,
                                                     const Table& t2,
                                                     const ExecContext& ctx,
                                                     const OrderHints& hints) {
  const FaultCounters fault_start = FaultInjector::Global().Snapshot();
  const uint32_t k = ResolveShardCount(t1, t2, ctx);
  if (k <= 1) {
    const FaultCounters resolve_end = FaultInjector::Global().Snapshot();
    std::vector<JoinGroupAggregate> groups =
        ObliviousJoinAggregate(t1, t2, ctx, hints);
    AddResolveFaultDelta(fault_start, resolve_end, ctx);
    return groups;
  }

  JoinStats stats;
  stats.n1 = t1.size();
  stats.n2 = t2.size();
  stats.op_shards = k;
  Timer total_timer;

  ShardSet p1 = ObliviousShardPartition(t1, k, 1, ctx);
  ShardSet p2 = ObliviousShardPartition(t2, k, 2, ctx);
  stats.op_sort_comparisons = p1.sort_comparisons + p2.sort_comparisons;
  stats.op_route_ops = p1.route_ops + p2.route_ops;
  stats.op_sort_policy_chosen = p2.sort_chosen != obliv::SortPolicy::kAuto
                                    ? p2.sort_chosen
                                    : p1.sort_chosen;

  const OrderHints shard_hints = ShardHints(hints);
  std::vector<std::vector<JoinGroupAggregate>> outputs(k);
  std::vector<JoinStats> shard_stats(k);
  stats.shard_seconds = RunShardJobs(
      k, ctx, [&](uint32_t s, const ExecContext& shard_ctx_in) {
        ExecContext shard_ctx = shard_ctx_in;
        shard_ctx.stats = &shard_stats[s];
        outputs[s] = ObliviousJoinAggregate(p1.shards[s], p2.shards[s],
                                            shard_ctx, shard_hints);
      });

  size_t total_groups = 0;
  for (uint32_t s = 0; s < k; ++s) {
    FoldShardStats(shard_stats[s], stats);
    total_groups += outputs[s].size();
  }
  stats.m = total_groups;

  // Recombine: group keys are disjoint across shards (each key maps to one
  // shard; padding keys never form groups), so pairwise key-merges of the
  // runs yield the global ascending-key output.
  memtrace::OArray<JoinGroupAggregate> merged(total_groups, "shard_agg_runs");
  std::vector<size_t> runs(k);
  size_t base = 0;
  for (uint32_t s = 0; s < k; ++s) {
    runs[s] = outputs[s].size();
    if (runs[s] > 0) merged.WriteSpan(base, runs[s], outputs[s].data());
    base += runs[s];
  }
  stats.op_sort_comparisons +=
      MergeSortedRuns(merged, std::move(runs), AggregateKeyLess{});

  std::vector<JoinGroupAggregate> groups(total_groups);
  const JoinGroupAggregate* data = merged.UntracedData();
  for (size_t i = 0; i < total_groups; ++i) groups[i] = data[i];

  stats.total_seconds = total_timer.ElapsedSeconds();
  RecordFaultDelta(fault_start, stats);
  ctx.ReportStats("aggregate", stats);
  return groups;
}

}  // namespace oblivdb::core
