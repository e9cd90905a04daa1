#include "mix.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/bits.h"

namespace perfbench {
namespace {

using oblivdb::MixSeed;
using oblivdb::Record;
using oblivdb::SplitMix64;
using oblivdb::Table;
namespace core = oblivdb::core;

// Fixed, seed-independent stream for the structure (which key a row
// carries): public sizes must not move with the seed.
constexpr uint64_t kStructureSeed = 0x5eedf00dcafe1234ULL;

// Keys a key-only select keeps: one in four.
bool KeptBySelect(uint64_t id) { return id % 4 == 0; }

class Generator {
 public:
  Generator(MixSizes sizes, uint64_t seed) : sizes_(sizes), seed_(seed) {}

  // Injective relabeling of logical key id -> key value: the splitmix
  // finalizer is a bijection, the shift keeps keys far below the shard
  // padding window, and the low bit carries KeptBySelect so the
  // select's predicate reads only the key.
  uint64_t Label(uint64_t id) const {
    return ((MixSeed(seed_, id) >> 4) << 1) | (KeptBySelect(id) ? 1 : 0);
  }

  // `stream` picks which structural key assignment the rows follow;
  // `tag` keeps payload streams of different tables apart.  With `dups`,
  // every fourth row repeats the previous row exactly.
  Table Fact(const char* name, size_t rows, uint64_t stream, uint64_t tag,
             bool dups) const {
    Table t(name);
    t.rows().reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t slot = (dups && r % 4 == 3) ? r - 1 : r;
      const uint64_t id =
          MixSeed(kStructureSeed + stream, slot) % sizes_.dim_rows;
      t.rows().push_back(Record{Label(id), {Payload(tag, slot, 0),
                                            Payload(tag, slot, 1)}});
    }
    uint64_t state = MixSeed(seed_, 1000 + tag);
    for (size_t i = rows; i > 1; --i) {
      std::swap(t.rows()[i - 1], t.rows()[SplitMix64(state) % i]);
    }
    return t;
  }

  // A key-unique dimension over the key ids `keep` admits, sorted by key
  // (its declared order).
  Table Dim(const char* name, uint64_t tag,
            const std::function<bool(uint64_t)>& keep) const {
    Table t(name);
    for (uint64_t id = 0; id < sizes_.dim_rows; ++id) {
      if (!keep(id)) continue;
      t.rows().push_back(
          Record{Label(id), {Payload(tag, id, 0), Payload(tag, id, 1)}});
    }
    std::sort(t.rows().begin(), t.rows().end());
    for (size_t i = 1; i < t.size(); ++i) {
      if (t.rows()[i].key == t.rows()[i - 1].key) {
        std::fprintf(stderr, "perfbench: key relabeling collided\n");
        std::abort();
      }
    }
    return t;
  }

  core::PlanPtr DimScan(const char* name, uint64_t tag,
                        const std::function<bool(uint64_t)>& keep) const {
    return core::Scan(Dim(name, tag, keep), core::OrderSpec::ByKey(true));
  }

  const MixSizes& sizes() const { return sizes_; }

 private:
  uint64_t Payload(uint64_t tag, uint64_t slot, uint64_t word) const {
    return MixSeed(MixSeed(seed_, 2 * tag + word), slot);
  }

  MixSizes sizes_;
  uint64_t seed_;
};

bool All(uint64_t) { return true; }

}  // namespace

const char* ShapeName(int shape) {
  switch (shape) {
    case kStarJoin: return "star_join";
    case kChain: return "distinct_join_aggregate";
    case kSelectFactJoin: return "select_fact_join";
    case kSemiJoin: return "semijoin";
    case kMultiway: return "multiway4";
  }
  return "unknown";
}

core::PlanPtr BuildPlan(int shape, MixSizes sizes, uint64_t seed) {
  const Generator g(sizes, seed);
  const size_t f = sizes.fact_rows;
  switch (shape) {
    case kStarJoin:
      return core::Join(core::Scan(g.Fact("fact", f, 0, 1, false)),
                        g.DimScan("dim", 2, All));
    case kChain:
      return core::Aggregate(
          core::Join(core::Distinct(core::Scan(g.Fact("fact", f, 1, 3, true))),
                     g.DimScan("dim", 4, All)),
          g.DimScan("dim_even", 5, [](uint64_t id) { return id % 2 == 0; }));
    case kSelectFactJoin:
      return core::Select(
          core::Join(core::Scan(g.Fact("fact", f, 2, 6, false)),
                     core::Scan(g.Fact("fact_b", f / 2, 3, 7, false))),
          [](const Record& r) { return uint64_t{0} - (r.key & 1); },
          /*key_only=*/true);
    case kSemiJoin:
      return core::SemiJoin(
          core::Scan(g.Fact("fact", f, 4, 8, false)),
          g.DimScan("dim_odd", 9, [](uint64_t id) { return id % 2 == 1; }));
    case kMultiway:
      return core::MultiwayJoin(
          {core::Scan(g.Fact("fact", f, 5, 10, false)),
           g.DimScan("dim", 11, All),
           g.DimScan("dim_3", 12, [](uint64_t id) { return id % 3 != 0; }),
           g.DimScan("dim_5", 13, [](uint64_t id) { return id % 5 != 0; })});
  }
  std::fprintf(stderr, "perfbench: unknown shape %d\n", shape);
  std::abort();
}

std::pair<Table, Table> StarJoinInputs(MixSizes sizes, uint64_t seed) {
  const Generator g(sizes, seed);
  return {g.Fact("fact", sizes.fact_rows, 0, 1, false), g.Dim("dim", 2, All)};
}

ColdSchedule::ColdSchedule(uint64_t seed) {
  for (int32_t off = -2048; off < 2048; ++off) {
    if (off != 0) offsets_.push_back(off);
  }
  uint64_t state = MixSeed(seed, 77);
  for (size_t i = offsets_.size(); i > 1; --i) {
    std::swap(offsets_[i - 1], offsets_[SplitMix64(state) % i]);
  }
}

MixSizes ColdSchedule::At(size_t index) const {
  const size_t fact =
      static_cast<size_t>(static_cast<int64_t>(kHotSizes.fact_rows) +
                          offsets_.at(index));
  return MixSizes{fact, fact / 3};
}

}  // namespace perfbench
