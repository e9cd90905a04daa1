// Sharded oblivious execution: PRP partition -> k independent per-shard
// pipelines -> run-merge recombine.
//
// The scale-out layer over the paper's O(n log^2 n) join.  A Join or
// Aggregate of public sizes (n1, n2) splits into k shards:
//
//   1. *Partition* (ObliviousShardPartition): every row is mapped to a
//      shard by a keyed pseudorandom function of its join key (both inputs
//      use the same key-to-shard map, so matching keys always meet in the
//      same shard).  Rows are grouped obliviously — a bitonic sort by
//      (shard, j, d), a fixed-pattern destination pass, then the paper's
//      probabilistic Oblivious-Distribute (tag-sort-backed,
//      obliv/distribute.h) routing each row to its public padded slot.
//      Every shard is padded to the *public* capacity ShardCapacity(n, k);
//      the padding slots become inert rows with unique reserved keys from
//      the top of the key space (>= ShardDummyKeyFloor, odd/even-split by
//      table so T1 and T2 padding can never match each other).
//   2. *Per-shard pipelines*: k standard ObliviousJoin /
//      ObliviousJoinAggregate runs over the padded shard tables, each under
//      an isolated ExecContext clone (ExecContext::ForShard: private stats,
//      derived rng stream, partitioned worker budget).  Untraced runs
//      execute the pipelines concurrently, one driver thread per shard;
//      traced runs execute them sequentially in shard order, so the trace
//      stays a deterministic function of the public sizes.  The partition
//      sort leaves every shard (j, d)-sorted, so the per-shard pipelines
//      always receive a covered ByKeyData order hint and the PR 5 sort
//      elision fires inside each shard regardless of the input's declared
//      order.
//   3. *Recombine* (run merge): each pipeline emits its rows in the
//      operator's canonical sorted order, and the key-to-shard map makes
//      the shards' key sets disjoint — so the global result is obtained by
//      O(m log m) oblivious merges of the k sorted runs (obliv/merge.h),
//      never a full O(m log^2 m) re-sort.  The merged output is
//      byte-identical to the unsharded operator's (tests/shard_test.cc pins
//      this for every SortPolicy and both sort_elision settings).
//
// Leakage: the shard count, the padded per-shard capacities, and every
// decision below are functions of (public sizes, ExecContext knobs) only.
// Each per-shard pipeline additionally reveals its own output size m_s —
// the k-way refinement of the output length the paper already reveals
// (§3.2); this is the "local/public split" the partition's padding exists
// to protect: *input* shard occupancies stay hidden behind the public
// capacity, only output sizes surface.  Two data-dependent *fallbacks* are
// revealed as a single public bit (sharded or not): a table carrying a key
// inside the narrow reserved padding window (>= ShardDummyKeyFloor) or a
// shard occupancy exceeding the padded capacity (pathological key skew)
// downgrades the operator to the unsharded pipeline — the same event class
// as revealing m.
//
// Knobs: ExecContext::shards (OBLIVDB_SHARDS) forces a count or leaves the
// kAuto-style crossover to shard only when the sizes and the worker count
// make the partition + merge overhead pay.

#ifndef OBLIVDB_CORE_SHARD_H_
#define OBLIVDB_CORE_SHARD_H_

#include <cstdint>
#include <vector>

#include "core/aggregate.h"
#include "core/exec_context.h"
#include "core/join.h"
#include "core/order.h"
#include "obliv/sort_policy.h"
#include "table/table.h"

namespace oblivdb::core {

// Padding rows take the 2 * k * capacity largest keys of the key space
// (ShardDummyKeyFloor upward): above every real key, so a padded shard is
// still globally (j, d)-sorted and the per-shard ByKeyData hint stays
// honest.  The window is a few thousand values wide — a table whose keys
// land inside it (vanishing for hashed keys, deterministic for adversarial
// ones) is never sharded (public fallback, see header comment).
uint64_t ShardDummyKeyFloor(size_t n, uint32_t k);

// kAuto sharding crossover: shard only when the combined input is at least
// kAutoShardMinRows and each shard keeps at least kAutoShardMinRowsPerShard
// rows — below that the partition sort + distribute + merge overhead
// exceeds what the per-shard log-factor shrink and the cross-shard
// parallelism return.  Public constants, like the sort cost model's.
inline constexpr size_t kAutoShardMinRows = size_t{1} << 17;
inline constexpr size_t kAutoShardMinRowsPerShard = size_t{1} << 15;
inline constexpr uint32_t kMaxAutoShards = 16;

// Public padded per-shard capacity for an n-row table split k ways:
// ceil(n/k) plus a 25% balls-into-bins slack (floor 64).  A pure function
// of (n, k).
size_t ShardCapacity(size_t n, uint32_t k);

// The keyed pseudorandom key-to-shard map (splitmix64 finalizer of
// key ^ seed, reduced mod k).  Both join inputs are partitioned with the
// same (seed, k), so rows that can match are co-sharded.
uint32_t ShardOfKey(uint64_t key, uint64_t seed, uint32_t k);

// Modeled wall time (ns) of a Join/Aggregate of public input sizes
// (n1, n2) executed as k shards on a `workers`-thread pool; k = 1 is the
// unsharded pipeline.  Built from the sort cost model
// (obliv/sort_kernel.h): the pipeline's four Entry-width sorts dominate,
// the partition adds two sorts per table, the recombine adds
// ceil(log2 k) merge rounds, and the k pipelines overlap across
// min(k, workers) drivers with a workers/k-way pool split each.  A pure
// function of public values — ResolveShardCount's auto path picks the
// argmin over candidate k, so the decision (and every test pinning it) is
// a function of (sizes, workers) only.  Exposed for the optimizer's cost
// column (core/optimizer.h) and the shard tests.
double EstimateShardedJoinNs(size_t n1, size_t n2, uint32_t k,
                             unsigned workers);

// The shard count a Join/Aggregate of these two inputs actually runs with
// under `ctx`: ctx.shards when forced (>= 2), the cost-model argmin over
// EstimateShardedJoinNs when 0 (auto; the kAutoShardMinRows /
// kAutoShardMinRowsPerShard floors remain lower bounds so small operators
// never pay partition overhead or spawn the pool), downgraded to 1 by the
// public fallbacks (empty input, reserved keys, capacity overflow under
// the derived key-to-shard map).  Every caller of the sharded operators
// resolves through this one function, so tests can pin the decision.
uint32_t ResolveShardCount(const Table& t1, const Table& t2,
                           const ExecContext& ctx);

// One table's oblivious PRP partition into k padded shards (step 1 of the
// header comment).  `table_tag` is 1 or 2 (which join input this is): it
// selects the scatter PRP stream and the dummy-key parity.  Requires
// ResolveShardCount-style preconditions (no reserved keys, occupancies fit
// the capacity) — callers go through ResolveShardCount first; a violation
// aborts.
struct ShardSet {
  std::vector<Table> shards;  // k tables, each exactly `capacity` rows
  size_t capacity = 0;        // public padded per-shard size
  // Partition-pass telemetry, folded into the sharded operator's JoinStats.
  uint64_t sort_comparisons = 0;
  uint64_t route_ops = 0;
  obliv::SortPolicy sort_chosen = obliv::SortPolicy::kAuto;
};
ShardSet ObliviousShardPartition(const Table& table, uint32_t k,
                                 uint64_t table_tag, const ExecContext& ctx);

// The sharded join: byte-identical output to ObliviousJoin(t1, t2, ctx,
// hints) — including when the resolved shard count is 1, in which case it
// *is* that call.  Reports one "join" JoinStats through ctx with
// op_shards = k and per-shard wall times in shard_seconds; the per-shard
// pipelines themselves report only into their isolated contexts.
std::vector<JoinedRecord> ShardedJoin(const Table& t1, const Table& t2,
                                      const ExecContext& ctx = {},
                                      const OrderHints& hints = {});

// The sharded grouped aggregation: byte-identical to
// ObliviousJoinAggregate, same contract as ShardedJoin (reports as
// "aggregate").
std::vector<JoinGroupAggregate> ShardedJoinAggregate(
    const Table& t1, const Table& t2, const ExecContext& ctx = {},
    const OrderHints& hints = {});

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_SHARD_H_
