// The five plan shapes of the service workloads, generated from a seed.
//
// Every public size of a shape (input rows, and every intermediate and
// output size the executor reveals) is a function of (fact_rows,
// dim_rows) alone: which rows share a key, which rows duplicate each
// other and which keys a key-only select keeps are fixed by the row
// index.  The seed chooses only the key values (an injective relabeling),
// the payload words and the row order.  So two seeds at equal sizes give
// two datasets with equal public sizes, which is exactly the pair the
// obliviousness gate needs, and a query's work does not drift with the
// seed.

#ifndef OBLIVDB_PERFBENCH_MIX_H_
#define OBLIVDB_PERFBENCH_MIX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "table/table.h"

namespace perfbench {

enum Shape : int {
  kStarJoin = 0,     // Join(fact, key-unique sorted dim)
  kChain,            // Aggregate(Join(Distinct(fact), dim), half dim)
  kSelectFactJoin,   // key-only Select over Join(fact, fact')
  kSemiJoin,         // SemiJoin(fact, half dim)
  kMultiway,         // MultiwayJoin(fact, dim, dim', dim'')
  kNumShapes
};

const char* ShapeName(int shape);

struct MixSizes {
  size_t fact_rows = 12288;
  size_t dim_rows = 4096;
};

// service_hot's sizes.
inline constexpr MixSizes kHotSizes{12288, 4096};

oblivdb::core::PlanPtr BuildPlan(int shape, MixSizes sizes, uint64_t seed);

// The two inputs of the star join: the fact and dim tables the join
// phases and the shard partition are probed on.
std::pair<oblivdb::Table, oblivdb::Table> StarJoinInputs(MixSizes sizes,
                                                         uint64_t seed);

// service_cold's size schedule: submission i gets fact_rows = 12288 +
// offset(i) with the offsets a seeded permutation of [-2048, 2048) minus
// {0}, so every submission's sizes are unique within a run, none equals
// service_hot's, and mean work matches.  dim_rows = fact_rows / 3.
class ColdSchedule {
 public:
  static constexpr size_t kMaxSubmissions = 4095;
  explicit ColdSchedule(uint64_t seed);
  MixSizes At(size_t index) const;

 private:
  std::vector<int32_t> offsets_;
};

}  // namespace perfbench

#endif  // OBLIVDB_PERFBENCH_MIX_H_
