// ExecContext: the one execution-context object shared by every relational
// operator and by the plan Executor (core/plan.h).  It carries the public
// configuration of a query execution; each field is documented where it is
// declared below:
//
//   * speed knobs — byte-identical outputs for every value, and traces
//     that stay functions of public sizes: sort_policy, sort_elision,
//     optimize, shards, pool, artifact_cache;
//   * telemetry: stats, stats_sink, trace_sink;
//   * fallible-run controls, honoured under RunRecoverable (below):
//     cancel_token, secondary_cancel_token, deadline_seconds,
//     checkpoint_sink;
//   * rng_seed — deterministic seed, re-derived per shard (ForShard) and
//     per retry attempt (ForAttempt) so concurrent and retried pipelines
//     draw from independent, reproducible streams.
//
// Everything in the context is *public* configuration in the paper's model
// (§3.1): none of it depends on table contents, so carrying it around — or
// logging it — leaks nothing.

#ifndef OBLIVDB_CORE_EXEC_CONTEXT_H_
#define OBLIVDB_CORE_EXEC_CONTEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/stats.h"
#include "memtrace/trace.h"
#include "obliv/artifact_cache.h"
#include "obliv/sort_kernel.h"

namespace oblivdb::core {

// Receiver for per-operator telemetry.  `op` names the operator ("join",
// "distinct", "semijoin", "antijoin", "aggregate", "select", "union",
// "scan"); `stats` carries its phase counters (core/stats.h).
class StatsSink {
 public:
  virtual ~StatsSink() = default;
  virtual void OnOperatorStats(std::string_view op, const JoinStats& stats) = 0;
};

// Stores every report in order — the plan tests and the examples use it to
// show per-operator work for a whole query.
class CollectingStatsSink : public StatsSink {
 public:
  struct Report {
    std::string op;
    JoinStats stats;
  };

  void OnOperatorStats(std::string_view op, const JoinStats& stats) override {
    reports_.push_back(Report{std::string(op), stats});
  }

  const std::vector<Report>& reports() const { return reports_; }

  uint64_t TotalComparisons() const {
    uint64_t total = 0;
    for (const Report& r : reports_) total += r.stats.TotalComparisons();
    return total;
  }

 private:
  std::vector<Report> reports_;
};

struct ExecContext {
  // The single source of truth for the library-wide default sort tier
  // (previously copied into every operator signature).  This is the
  // compile-time fallback; a freshly constructed context actually starts
  // from DefaultSortPolicy(), which honours the OBLIVDB_SORT_POLICY
  // environment override.
  static constexpr obliv::SortPolicy kDefaultSortPolicy =
      obliv::SortPolicy::kBlocked;

  // The process-wide default sort tier: OBLIVDB_SORT_POLICY (one of
  // "reference", "blocked", "parallel", "tag", "parallel_tag", "auto" —
  // obliv::SortPolicyName's vocabulary) when set to a recognized name,
  // kDefaultSortPolicy otherwise.  Read once and cached; CI uses it to run
  // the whole test suite under SortPolicy::kAuto without code changes
  // (bench/smoke.sh).  Public configuration, like everything in here.
  static obliv::SortPolicy DefaultSortPolicy();

  // The process-wide default for `sort_elision`: OBLIVDB_SORT_ELISION set
  // to "off"/"0"/"false" disables it, "on"/"1"/"true" enables it, anything
  // else (including unset) leaves the compiled-in default of *on*.  Read
  // once and cached; CI uses it to run the whole suite with elision pinned
  // off (bench/smoke.sh).
  static bool DefaultSortElision();

  // The process-wide default for `optimize`: OBLIVDB_OPTIMIZE set to
  // "off"/"0"/"false" disables the plan rewrite pass (core/optimizer.h),
  // anything else (including unset) leaves the compiled-in default of
  // *on*.  Read once and cached; CI uses it to run the whole suite with
  // the optimizer pinned off (bench/smoke.sh).
  static bool DefaultOptimize();

  // The process-wide default for `deadline_seconds`: OBLIVDB_DEADLINE_MS
  // set to a positive number of milliseconds bounds every fallible entry
  // point's wall time; unset or <= 0 means no deadline.  Read once and
  // cached, like the other env defaults.
  static double DefaultDeadlineSeconds();

  // The process-wide default for `shards`: OBLIVDB_SHARDS set to a positive
  // integer forces that shard count on every Join/Aggregate (clamped to
  // kMaxShards; 1 = sharding off); unset, "0" or "auto" leaves the
  // cost-model crossover (core/shard.h) to pick per operator.  Read once
  // and cached; CI uses it to run the whole suite force-sharded
  // (bench/smoke.sh).
  static uint32_t DefaultShards();

  // Upper bound on the shard count, forced or auto (a public constant; the
  // partition pads each shard, so far more shards than workers only adds
  // padding).
  static constexpr uint32_t kMaxShards = 64;

  obliv::SortPolicy sort_policy = DefaultSortPolicy();

  // Order-aware sort elision (core/order.h): when true, operators may skip
  // or shrink an entry sort whose required order is covered by the caller's
  // OrderHints (and the Executor derives those hints from plan shape).
  // Every elision decision is a function of the hints, the flag, and the
  // public sizes — never of row contents — so traces stay input-
  // independent for either flag value; outputs are byte-identical across
  // the flag (tests/plan_test.cc pins both).  Direct operator calls that
  // pass no hints never elide, whatever this flag says.
  bool sort_elision = DefaultSortElision();

  // Cost-based plan optimization (core/optimizer.h): when true, the
  // Executor rewrites the plan tree before running it — multiway join
  // reordering, key-only select pushdown, redundant-distinct removal.
  // Every rewrite decision is a pure function of (plan shape, public
  // sizes, public flags) — never of row contents — and every rewritten
  // plan's root Table output is byte-identical to the original's
  // (tests/optimizer_test.cc pins both across all policy/elision/shard
  // settings).
  bool optimize = DefaultOptimize();

  // Worker pool for the operators' parallel phases (kParallel /
  // kParallelTag sorts, Beneš switch planning and column fan-out);
  // forwarded to obliv::SortRange by every operator.  nullptr means
  // ThreadPool::Global(), whose size honours the OBLIVDB_THREADS
  // environment override — the worker count also feeds the kAuto cost
  // model, so pinning it pins the policy resolution.
  ThreadPool* pool = nullptr;

  // Out-parameter: filled by the most recent operator executed under this
  // context (for ObliviousJoin this is the familiar Table 3 breakdown).
  JoinStats* stats = nullptr;

  // Streaming per-operator telemetry; see StatsSink.
  StatsSink* stats_sink = nullptr;

  // Trace sink the plan Executor installs around a whole query run.
  // Operators themselves never touch this — they emit through whatever
  // sink is installed (memtrace::GetTraceSink()).
  memtrace::TraceSink* trace_sink = nullptr;

  // Cooperative cancellation (common/cancel.h).  Non-owning; honoured only
  // under RunRecoverable (Executor::TryRun uses it), which installs the
  // scope the pipeline's Checkpoint() polls read.  Polls fire only at
  // public-size-determined phase boundaries, so cancellation cannot leak
  // row contents: a cancelled run's trace is a byte-identical prefix of the
  // uncancelled run's.
  const CancelToken* cancel_token = nullptr;

  // Second cancellation token, observed alongside cancel_token at the same
  // public checkpoints — either firing cancels the run.  The query
  // service's graceful drain (service/query_service.h Drain) owns this one:
  // the caller keeps their token, the service keeps its drain token, and
  // neither can mask the other.  Non-owning, like cancel_token.
  const CancelToken* secondary_cancel_token = nullptr;

  // Wall-clock budget in seconds for a fallible run, anchored when
  // RunRecoverable installs its scope; <= 0 = none.  Enforced at the same
  // public checkpoints as cancellation (kDeadlineExceeded).
  double deadline_seconds = DefaultDeadlineSeconds();

  // Observer of checkpoint polls; tests use it to pin the checkpoint
  // sequence as a function of public sizes (and to cancel at an exact
  // checkpoint).  Like the token, only RunRecoverable installs it.
  CheckpointSink* checkpoint_sink = nullptr;

  // Sharded execution (core/shard.h): how many independent per-shard
  // pipelines a Join/Aggregate splits into.  1 = never shard; k >= 2 =
  // force k (subject to the public fallbacks of ResolveShardCount); 0 =
  // kAuto-style crossover — shard only when the public sizes and the pool's
  // worker count make the partition + merge overhead pay.  Public
  // configuration, like the SortPolicy.
  uint32_t shards = DefaultShards();

  // Deterministic seed; public configuration.  Consumed by the sharded
  // executor (core/shard.h) to derive the partition PRPs and, through
  // ForShard / ForAttempt, the per-shard and per-retry seeds.
  uint64_t rng_seed = 0x0b11da7aba5e5eedULL;

  // Artifact cache for query-independent expensive byproducts — Beneš
  // switch plans today (obliv/artifact_cache.h).  The Executor installs it
  // (ArtifactCacheScope) around each run and the sharded executor
  // re-installs it on its worker threads; nullptr disables caching for
  // runs under this context.  Defaults to the process-wide cache unless
  // OBLIVDB_PLAN_CACHE says off.  A hit changes only wall time — planning
  // is trace-silent — so this is a pure speed knob, like the SortPolicy.
  obliv::ArtifactCache* artifact_cache = obliv::ArtifactCache::DefaultForProcess();

  ThreadPool& pool_or_global() const {
    return pool != nullptr ? *pool : ThreadPool::Global();
  }

  // Deterministic per-stream seed derivation (splitmix64 of seed ^ stream):
  // shard i of a sharded operator runs under DeriveSeed(rng_seed, i), so
  // concurrent pipelines draw from independent, reproducible streams.
  static uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

  // The context a shard pipeline runs under: same public knobs, but with
  // the telemetry fully isolated (stats / stats_sink / trace_sink cleared —
  // concurrent pipelines must not interleave writes into shared sinks; the
  // sharded executor aggregates per-shard stats itself), recursive
  // sharding disabled, and the rng seed re-derived per shard.  `shard_pool`
  // (may be null = global) carries this shard's partitioned worker budget.
  ExecContext ForShard(uint32_t shard_index, ThreadPool* shard_pool) const {
    ExecContext c = *this;
    c.stats = nullptr;
    c.stats_sink = nullptr;
    c.trace_sink = nullptr;
    c.shards = 1;
    c.pool = shard_pool;
    // Streams [0, kShardSeedStreamBase) are reserved for the sharded
    // executor's own PRPs (partition scatter keys, the key-to-shard map).
    c.rng_seed = DeriveSeed(rng_seed, kShardSeedStreamBase + shard_index);
    return c;
  }

  static constexpr uint64_t kShardSeedStreamBase = 16;

  // The context a *retry* of a failed execution runs under: identical
  // public knobs, but with the rng stream re-derived per attempt so a
  // retried run never replays the exact pseudorandom draws of the attempt
  // that died mid-flight.  Attempt 0 is the original execution (identity —
  // a solo reference run and a first service attempt share the seed
  // exactly).  Because outputs and oblivious traces are functions of the
  // public shape alone — the seed steers only PRP contents, never an
  // access position (core/shard.h's byte-equality pins) — a retried run
  // stays byte-identical to a fresh fault-free run of the same plan.
  ExecContext ForAttempt(uint32_t attempt) const {
    ExecContext c = *this;
    if (attempt > 0) {
      c.rng_seed = DeriveSeed(rng_seed, kRetrySeedStreamBase + attempt);
    }
    return c;
  }

  // Retry streams live well above the sharded executor's reserved band
  // ([0, kShardSeedStreamBase + kMaxShards)) so an attempt-derived seed
  // never collides with a shard stream derived from the same seed.
  static constexpr uint64_t kRetrySeedStreamBase = 1024;

  // Operators call this once on completion; also copies into `stats` so
  // direct (plan-free) callers keep the old out-parameter behaviour.
  void ReportStats(std::string_view op, const JoinStats& s) const {
    if (stats != nullptr) *stats = s;
    if (stats_sink != nullptr) stats_sink->OnOperatorStats(op, s);
  }
};

// Runs `fn` as a fallible call under `ctx`: installs the context's
// cancellation scope (token + deadline + checkpoint sink) and a recovery
// scope, catches the internal fault unwind, and returns the result — or the
// fault — as a StatusOr.  This is the one fallible wrapper for direct
// operator calls, e.g.
//   RunRecoverable(ctx, [&] { return ObliviousJoin(t1, t2, ctx); })
// and Executor::TryRun is built on it.  The wrapped computation is
// unchanged, so traces and outputs stay byte-identical to the aborting
// call.  Environmental faults come back as their Status (kCancelled,
// kDeadlineExceeded, kIntegrityViolation, kResourceExhausted, ...);
// programming errors (OBLIVDB_CHECK) still abort.
template <typename Fn>
auto RunRecoverable(const ExecContext& ctx, Fn&& fn)
    -> StatusOr<decltype(fn())> {
  using Result = decltype(fn());
  RecoveryScope recovery;
  CancelScope cancel(ctx.cancel_token, ctx.secondary_cancel_token,
                     ctx.deadline_seconds, ctx.checkpoint_sink);
  try {
    return StatusOr<Result>(fn());
  } catch (const internal::StatusError& e) {
    return StatusOr<Result>(e.status);
  }
}

}  // namespace oblivdb::core

#endif  // OBLIVDB_CORE_EXEC_CONTEXT_H_
