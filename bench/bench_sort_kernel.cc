// Sort-kernel perf trajectory: ns/element for every SortPolicy — reference
// network, cache-blocked kernel, pool-parallel kernel, the key/payload-
// separated tag sort, and the pool-parallel tag sort — at the element
// widths that matter: the 16-byte (key, tag) microbenchmark shape AND the
// pipeline's 72-byte Entry, where tag sort earns its keep (the 9-word
// CondSwap is bandwidth-bound, so narrowing the network to 24-byte tags
// plus one Beneš payload pass wins).  An "auto" row records both the cost
// model's pick (the "resolved" field) and its measured time, so the JSON
// shows whether kAuto chose the winning column.
//
//   build/bench_sort_kernel            # JSON to stdout
//   build/bench_sort_kernel --smoke    # small-n sanity run (CI smoke target)
//
// bench/run_benches.sh records the full run in BENCH_sort.json.  The
// parallel rows use the global pool (OBLIVDB_THREADS pins its size).  Each
// row reports "tasks", the concurrent sort tasks requested, and "workers",
// the pool workers they ran on; the sequential rows run as one task on the
// calling thread (1, 1).

#include <cstdint>
#include <cstdio>
#include <cstring>

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

// `resolved` (optional): the concrete tier a kAuto run dispatched to.
void Emit(const char* policy, unsigned tasks, unsigned workers,
          size_t elem_bytes, size_t n, double seconds,
          const char* resolved = nullptr) {
  std::printf("%s    {\"policy\": \"%s\", \"tasks\": %u, \"workers\": %u, "
              "\"elem_bytes\": %zu, \"n\": %zu, \"seconds\": %.6f, "
              "\"ns_per_element\": %.2f",
              g_first ? "" : ",\n", policy, tasks, workers, elem_bytes, n,
              seconds, NsPerElement(seconds, n));
  if (resolved != nullptr) std::printf(", \"resolved\": \"%s\"", resolved);
  std::printf("}");
  g_first = false;
}

template <typename T, typename Less, typename MakeFn>
void BenchWidth(size_t n, const Less& less, const MakeFn& make) {
  const unsigned pool_threads = ThreadPool::Global().worker_count();
  Timer timer;
  {
    auto arr = make(n);
    timer.Start();
    obliv::BitonicSortRange(arr, 0, n, less);
    Emit("reference", 1, 1, sizeof(T), n, timer.ElapsedSeconds());
  }
  {
    auto arr = make(n);
    timer.Start();
    obliv::BitonicSortBlocked(arr, less);
    Emit("blocked", 1, 1, sizeof(T), n, timer.ElapsedSeconds());
  }
  for (const unsigned tasks : {1u, 8u}) {
    auto arr = make(n);
    timer.Start();
    obliv::BitonicSortParallel(arr, less, tasks);
    Emit("blocked_parallel", tasks, pool_threads, sizeof(T), n,
         timer.ElapsedSeconds());
  }
  {
    auto arr = make(n);
    timer.Start();
    obliv::BitonicSortTagged(arr, less);
    Emit("tag", 1, 1, sizeof(T), n, timer.ElapsedSeconds());
  }
  {
    auto arr = make(n);
    timer.Start();
    obliv::BitonicSortRangeTaggedParallel(arr, 0, n, less);
    Emit("tag_parallel", pool_threads, pool_threads, sizeof(T), n,
         timer.ElapsedSeconds());
  }
  {
    auto arr = make(n);
    obliv::SortPolicy chosen = obliv::SortPolicy::kAuto;
    timer.Start();
    obliv::SortRange(arr, 0, n, less, obliv::SortPolicy::kAuto,
                     /*comparisons=*/nullptr, /*pool=*/nullptr, &chosen);
    Emit("auto", pool_threads, pool_threads, sizeof(T), n,
         timer.ElapsedSeconds(), obliv::SortPolicyName(chosen));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const size_t full_sizes[] = {size_t{1} << 14, size_t{1} << 18,
                               size_t{1} << 20};
  const size_t smoke_sizes[] = {size_t{1} << 10};
  const size_t* sizes = smoke ? smoke_sizes : full_sizes;
  const size_t size_count = smoke ? 1 : 3;

  std::printf("{\n");
  std::printf("  \"bench\": \"bitonic_sort\",\n");
  std::printf("  \"threads\": %u,\n", ThreadPool::Global().worker_count());
  std::printf("  \"results\": [\n");

  for (size_t s = 0; s < size_count; ++s) {
    const size_t n = sizes[s];
    BenchWidth<Item>(n, ItemKeyLess{}, MakeItems);
    BenchWidth<Entry>(n, core::ByJoinKeyThenTidLess{}, MakeEntries);
  }

  std::printf("\n  ]\n}\n");
  return 0;
}
