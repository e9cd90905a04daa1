// Startup micro-probe calibration for the kAuto sort cost model.
//
// The model's per-word costs are stable across machines (they track cache
// and DRAM latencies the same order everywhere), but its *parallel
// scaling* constants are not: worker efficiency and the bandwidth ceiling
// of wide passes depend on core count, memory channels and whether the
// "cores" share them.  Those three constants started life as fitted
// guesses from a single-core container (ROADMAP).  CalibrateSortCostModel
// replaces them with values measured on the running machine: a few tiny
// timed sorts (narrow / wide, blocked vs. pool-parallel) and one Beneš
// switch-planning pass, minimum of three repetitions each, a few
// milliseconds total.  The probes run on synthetic local data and the
// sorting networks do identical work whatever the data holds, so the
// timings are stable and nothing about any query is involved.

#include "obliv/sort_kernel.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "common/timer.h"
#include "memtrace/trace.h"
#include "obliv/artifact_cache.h"
#include "obliv/permute.h"

namespace oblivdb::obliv {

namespace {

// Probe elements: a two-word (16-byte, cache-resident) and a nine-word
// (72-byte, Entry-sized) POD, compared on their first word.
struct ProbeNarrow {
  uint64_t key;
  uint64_t pad;
};

struct ProbeWide {
  uint64_t key;
  uint64_t pad[8];
};

struct ProbeLess {
  template <typename T>
  uint64_t operator()(const T& a, const T& b) const {
    return ct::LessMask(a.key, b.key);
  }
};

template <typename T>
memtrace::OArray<T> MakeProbeArray(size_t n) {
  memtrace::OArray<T> a(n, "calibrate");
  // Deterministic probe fill; the network's work is data-independent, so
  // the fill only needs to be non-degenerate.
  uint64_t state = 0xca11b7a7e5ULL;
  T* d = a.UntracedData();
  for (size_t i = 0; i < n; ++i) d[i].key = SplitMix64(state);
  return a;
}

// Minimum of `reps` timed runs of `fn` (seconds).  The bitonic schedule
// performs the same work on any input, so re-sorting the now-sorted array
// is an equally representative run.
template <typename Fn>
double MinSeconds(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

template <typename T>
double MeasuredSortSpeedup(size_t n, ThreadPool& pool) {
  memtrace::OArray<T> a = MakeProbeArray<T>(n);
  const double blocked = MinSeconds(3, [&] {
    BitonicSortRangeBlocked(a, 0, n, ProbeLess{});
  });
  const double parallel = MinSeconds(3, [&] {
    BitonicSortRangeParallel(a, 0, n, ProbeLess{}, /*threads=*/0,
                             /*comparisons=*/nullptr,
                             internal::kCrossPassChunk, &pool);
  });
  return parallel > 0.0 ? blocked / parallel : 1.0;
}

}  // namespace

internal::SortCostModel CalibrateSortCostModel(ThreadPool* pool_override) {
  // The probes are synthetic and must stay invisible: CostModel() can be
  // first reached lazily from a kAuto resolution *inside* a traced query
  // run, and without this the probe sorts would both emit their events
  // into that query's trace (breaking trace determinism for the first
  // traced query of the process) and time the traced staging path instead
  // of the raw one.  TracePause — not TraceScope(nullptr) — so the ambient
  // session's array-id counter is left untouched.
  memtrace::TracePause untraced;
  ThreadPool& pool =
      pool_override != nullptr ? *pool_override : ThreadPool::Global();
  const unsigned workers = pool.worker_count();
  internal::SortCostModel model;
  model.calibrated = true;
  // One worker: the parallel kernels never engage and there is no scaling
  // to measure — keep the fitted defaults.
  if (workers <= 1) return model;

  // Narrow elements scale compute-bound: the measured speedup divided by
  // the extra workers is the per-worker efficiency.  The probe size sits
  // above the parallel cutoff but small enough to finish in ~a millisecond.
  constexpr size_t kProbeN = size_t{1} << 13;
  const double narrow_speedup =
      MeasuredSortSpeedup<ProbeNarrow>(kProbeN, pool);
  model.parallel_efficiency =
      Clamp((narrow_speedup - 1.0) / static_cast<double>(workers - 1),
            0.05, 1.0);

  // Wide elements hit the memory system's ceiling; the measured speedup
  // *is* the cap (never below 1 — a slower parallel path must not make
  // the model prefer it by inverting the division).
  model.wide_speedup_cap =
      Clamp(MeasuredSortSpeedup<ProbeWide>(kProbeN, pool), 1.0,
            static_cast<double>(workers));

  // Beneš switch planning: time the network construction for one
  // reversal permutation at the planner's parallel fan-out floor (2^14,
  // BenesNetwork::kMinParallelPlanSize), sequential (1-worker pool) vs.
  // on the probed pool.
  constexpr size_t kPlanN = size_t{1} << 14;
  std::vector<uint32_t> perm(kPlanN);
  for (size_t i = 0; i < kPlanN; ++i) {
    perm[i] = static_cast<uint32_t>(kPlanN - 1 - i);
  }
  ThreadPool sequential(1);
  const double plan_seq = MinSeconds(3, [&] {
    BenesNetwork net(perm, &sequential);
    (void)net;
  });
  const double plan_par = MinSeconds(3, [&] {
    BenesNetwork net(perm, &pool);
    (void)net;
  });
  model.plan_speedup_cap =
      Clamp(plan_par > 0.0 ? plan_seq / plan_par : 1.0, 1.0,
            static_cast<double>(workers));
  return model;
}

internal::SortCostModel CalibrateSortCostModelShared(
    ThreadPool* pool_override) {
  ThreadPool& pool =
      pool_override != nullptr ? *pool_override : ThreadPool::Global();
  const unsigned workers = pool.worker_count();
  // The store outlives every caller (leaked intentionally, like the global
  // pools): calibration results are per-worker-count measurements, valid
  // for the process lifetime.
  static std::mutex mu;
  static auto* store = new std::map<unsigned, internal::SortCostModel>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = store->find(workers);
    if (it != store->end()) {
      ArtifactCache::Global().RecordCalibration(/*hit=*/true);
      return it->second;
    }
  }
  // Probe outside the lock: two racing first-callers both measure (a few
  // milliseconds each) and the first insert wins — cheaper than holding
  // every other worker count's lookup hostage to a running probe.
  const internal::SortCostModel model = CalibrateSortCostModel(&pool);
  std::lock_guard<std::mutex> lock(mu);
  ArtifactCache::Global().RecordCalibration(/*hit=*/false);
  return store->emplace(workers, model).first->second;
}

namespace internal {

const SortCostModel& CostModel() {
  static const SortCostModel model = [] {
    const char* env = std::getenv("OBLIVDB_CALIBRATE");
    if (env != nullptr && std::string_view(env) == "1") {
      return CalibrateSortCostModelShared();
    }
    return SortCostModel{};
  }();
  return model;
}

}  // namespace internal

}  // namespace oblivdb::obliv
