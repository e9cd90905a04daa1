// Sort-kernel perf trajectory: ns/element for each sort algorithm — the
// reference network, the blocked bitonic network and the key/payload-
// separated tag sort — on a 1-worker pool (the sequential kernels) and on
// the global pool (the pool-parallel kernels), at the element widths that
// matter: the 16-byte (key, tag) microbenchmark shape AND the pipeline's
// 72-byte Entry, where tag sort earns its keep (the 9-word CondSwap is
// bandwidth-bound, so narrowing the network to 24-byte tags plus one Beneš
// payload pass wins).  An "auto" row records both the cost model's pick
// (the "resolved" field) and its measured time, so the JSON shows whether
// kAuto chose the winning column.
//
//   build/bench_sort_kernel            # JSON to stdout
//   build/bench_sort_kernel --smoke    # small-n sanity run (CI smoke target)
//
// bench/run_benches.sh records the full run in BENCH_sort.json.  Rows are
// keyed by ("algorithm", "workers"): the policy name and the worker count
// of the pool the sort ran on.  OBLIVDB_THREADS pins the global pool's
// size; with a 1-worker global pool only the 1-worker rows are emitted.
// "seconds" is the median of three runs (one under --smoke): single runs
// of the pool-parallel rows swing by 3x on a shared VM.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/timer.h"
#include "core/comparators.h"
#include "crypto/chacha20.h"
#include "memtrace/oarray.h"
#include "obliv/sort_kernel.h"
#include "table/entry.h"

namespace {

using namespace oblivdb;

struct Item {
  uint64_t key = 0;
  uint64_t tag = 0;
};

struct ItemKeyLess {
  uint64_t operator()(const Item& a, const Item& b) const {
    return ct::LessMask(a.key, b.key);
  }

  static constexpr size_t kSortKeyWords = 1;
  static obliv::SortKey<1> SortKeyOf(const Item& it) {
    return obliv::SortKey<1>{{it.key}};
  }
};

memtrace::OArray<Item> MakeItems(size_t n) {
  memtrace::OArray<Item> arr(n, "bench");
  crypto::ChaCha20Rng rng(n);
  for (size_t i = 0; i < n; ++i) arr.Write(i, Item{rng(), i});
  return arr;
}

memtrace::OArray<Entry> MakeEntries(size_t n) {
  memtrace::OArray<Entry> arr(n, "bench_e");
  crypto::ChaCha20Rng rng(n + 1);
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    e.join_key = rng.Uniform(n / 2 + 1);
    e.payload0 = rng();
    e.payload1 = rng();
    e.tid = 1 + rng.Uniform(2);
    arr.Write(i, e);
  }
  return arr;
}

double NsPerElement(double seconds, size_t n) {
  return seconds * 1e9 / static_cast<double>(n);
}

bool g_first = true;

// `resolved` (optional): the algorithm a kAuto run dispatched to.
void Emit(const char* algorithm, unsigned workers, size_t elem_bytes,
          size_t n, double seconds, const char* resolved = nullptr) {
  std::printf("%s    {\"algorithm\": \"%s\", \"workers\": %u, "
              "\"elem_bytes\": %zu, \"n\": %zu, \"seconds\": %.6f, "
              "\"ns_per_element\": %.2f",
              g_first ? "" : ",\n", algorithm, workers, elem_bytes, n,
              seconds, NsPerElement(seconds, n));
  if (resolved != nullptr) std::printf(", \"resolved\": \"%s\"", resolved);
  std::printf("}");
  g_first = false;
}

template <typename T, typename Less, typename MakeFn>
void BenchWidth(size_t n, int reps, const Less& less, const MakeFn& make) {
  ThreadPool sequential(1);
  ThreadPool& global = ThreadPool::Global();
  auto run = [&](obliv::SortPolicy policy, ThreadPool& pool) {
    obliv::SortPolicy chosen = obliv::SortPolicy::kAuto;
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
      auto arr = make(n);
      Timer timer;
      obliv::SortRange(arr, 0, n, less, policy, /*comparisons=*/nullptr,
                       &pool, &chosen);
      seconds.push_back(timer.ElapsedSeconds());
    }
    std::sort(seconds.begin(), seconds.end());
    Emit(obliv::SortPolicyName(policy), pool.worker_count(), sizeof(T), n,
         seconds[seconds.size() / 2],
         policy == obliv::SortPolicy::kAuto ? obliv::SortPolicyName(chosen)
                                            : nullptr);
  };
  run(obliv::SortPolicy::kReference, sequential);
  for (ThreadPool* pool : {&sequential, &global}) {
    if (pool == &global && global.worker_count() == 1) break;
    run(obliv::SortPolicy::kBlocked, *pool);
    run(obliv::SortPolicy::kTagSort, *pool);
  }
  run(obliv::SortPolicy::kAuto, global);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const size_t full_sizes[] = {size_t{1} << 14, size_t{1} << 18,
                               size_t{1} << 20};
  const size_t smoke_sizes[] = {size_t{1} << 10};
  const size_t* sizes = smoke ? smoke_sizes : full_sizes;
  const size_t size_count = smoke ? 1 : 3;
  const int reps = smoke ? 1 : 3;

  std::printf("{\n");
  std::printf("  \"bench\": \"bitonic_sort\",\n");
  std::printf("  \"threads\": %u,\n", ThreadPool::Global().worker_count());
  std::printf("  \"results\": [\n");

  for (size_t s = 0; s < size_count; ++s) {
    const size_t n = sizes[s];
    BenchWidth<Item>(n, reps, ItemKeyLess{}, MakeItems);
    BenchWidth<Entry>(n, reps, core::ByJoinKeyThenTidLess{}, MakeEntries);
  }

  std::printf("\n  ]\n}\n");
  return 0;
}
