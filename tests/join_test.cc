#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/sort_merge.h"
#include "core/join.h"
#include "obliv/bitonic_sort.h"
#include "workload/generators.h"

namespace oblivdb::core {
namespace {

void ExpectJoinMatchesReference(const Table& t1, const Table& t2,
                                const std::string& label) {
  const std::vector<JoinedRecord> ours = ObliviousJoin(t1, t2);
  const std::vector<JoinedRecord> reference =
      baselines::SortMergeJoin(t1, t2);
  ASSERT_EQ(ours.size(), reference.size()) << label;
  EXPECT_EQ(ours, reference) << label;  // both lexicographic
}

TEST(JoinTest, PaperFigure1Example) {
  // T1 = x:a1 a2, y:b1 b2 b3; T2 = x:u1 u2 u3, y:v1 v2 (Figure 1's tables).
  const Table t1("T1", {{10, 1}, {10, 2}, {20, 1}, {20, 2}, {20, 3}});
  const Table t2("T2", {{10, 1}, {10, 2}, {10, 3}, {20, 1}, {20, 2}});
  const auto rows = ObliviousJoin(t1, t2);
  ASSERT_EQ(rows.size(), 2 * 3 + 3 * 2u);
  ExpectJoinMatchesReference(t1, t2, "figure1");
  // Spot-check the zip order: first row pairs (x, a1) with (x, u1).
  EXPECT_EQ(rows[0].key, 10u);
  EXPECT_EQ(rows[0].payload1[0], 1u);
  EXPECT_EQ(rows[0].payload2[0], 1u);
  EXPECT_EQ(rows[1].payload2[0], 2u);
}

TEST(JoinTest, EmptyInputs) {
  EXPECT_TRUE(ObliviousJoin(Table("a"), Table("b")).empty());
  EXPECT_TRUE(ObliviousJoin(Table("a", {{1, 1}}), Table("b")).empty());
  EXPECT_TRUE(ObliviousJoin(Table("a"), Table("b", {{1, 1}})).empty());
}

TEST(JoinTest, NoMatches) {
  const Table t1("a", {{1, 1}, {2, 2}});
  const Table t2("b", {{3, 3}, {4, 4}});
  EXPECT_TRUE(ObliviousJoin(t1, t2).empty());
}

TEST(JoinTest, SingleRowEachMatching) {
  const Table t1("a", {{5, 100}});
  const Table t2("b", {{5, 200}});
  const auto rows = ObliviousJoin(t1, t2);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, 5u);
  EXPECT_EQ(rows[0].payload1[0], 100u);
  EXPECT_EQ(rows[0].payload2[0], 200u);
}

TEST(JoinTest, CartesianSingleGroup) {
  Table t1("a"), t2("b");
  for (uint64_t i = 0; i < 7; ++i) t1.Add(9, i);
  for (uint64_t i = 0; i < 5; ++i) t2.Add(9, 100 + i);
  const auto rows = ObliviousJoin(t1, t2);
  EXPECT_EQ(rows.size(), 35u);
  ExpectJoinMatchesReference(t1, t2, "cartesian");
}

TEST(JoinTest, AsymmetricSizes) {
  Table t1("a"), t2("b");
  t1.Add(1, 10);
  for (uint64_t i = 0; i < 40; ++i) t2.Add(i % 3, 100 + i);
  ExpectJoinMatchesReference(t1, t2, "asymmetric");
}

TEST(JoinTest, DuplicateRowsMultiplicity) {
  // Identical (j, d) rows are distinct tuples; output multiplicity must
  // reflect the product of multiplicities.
  const Table t1("a", {{1, 5}, {1, 5}});
  const Table t2("b", {{1, 6}, {1, 6}, {1, 6}});
  const auto rows = ObliviousJoin(t1, t2);
  EXPECT_EQ(rows.size(), 6u);
  for (const auto& r : rows) {
    EXPECT_EQ(r.payload1[0], 5u);
    EXPECT_EQ(r.payload2[0], 6u);
  }
}

TEST(JoinTest, OutputIsLexicographicallySorted) {
  const auto tc = workload::PowerLaw(60, 2.0, 17);
  const auto rows = ObliviousJoin(tc.t1, tc.t2);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
}

TEST(JoinTest, StatsArePopulated) {
  const auto tc = workload::OneToOne(32, 4);
  JoinStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  const auto rows = ObliviousJoin(tc.t1, tc.t2, ctx);
  EXPECT_EQ(stats.n1, tc.t1.size());
  EXPECT_EQ(stats.n2, tc.t2.size());
  EXPECT_EQ(stats.m, rows.size());
  EXPECT_GT(stats.augment_sort_comparisons, 0u);
  EXPECT_GT(stats.expand_sort_comparisons, 0u);
  EXPECT_GT(stats.expand_route_ops, 0u);
  EXPECT_GT(stats.align_sort_comparisons, 0u);
  EXPECT_GE(stats.total_seconds, 0.0);
}

TEST(JoinTest, JoinSizeAgreesWithFullJoin) {
  for (uint64_t n : {8u, 20u, 33u}) {
    const auto tc = workload::PowerLaw(n, 2.5, n);
    EXPECT_EQ(ObliviousJoinSize(tc.t1, tc.t2),
              ObliviousJoin(tc.t1, tc.t2).size())
        << tc.name;
  }
}

// The paper's §6 battery: "for each n ... 20 tests consisting of various
// different inputs of size n"; outputs were correct in all cases.
class JoinSuiteTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinSuiteTest, AllSuiteCasesMatchReference) {
  const uint64_t n = GetParam();
  for (const auto& tc : workload::GenerateTestSuite(n, /*seed=*/n * 7)) {
    ExpectJoinMatchesReference(tc.t1, tc.t2, tc.name);
    EXPECT_EQ(baselines::SortMergeJoinSize(tc.t1, tc.t2), tc.expected_m)
        << tc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(InputSizes, JoinSuiteTest,
                         ::testing::Values(4, 10, 16, 33, 64, 100));

// Exact operation-count identities: every sort/route in the pipeline is a
// fixed-size network, so JoinStats must equal the closed-form schedule for
// (n1, n2, m) — the precise statement behind Table 3's model column (and
// another way of seeing that the work depends only on the sizes).
TEST(JoinTest, StatsMatchNetworkSizeModelExactly) {
  auto route_ops = [](uint64_t array_len) {
    uint64_t total = 0;
    if (array_len < 2) return total;
    uint64_t p = 1;
    while (p < array_len) p <<= 1;  // CeilPow2
    for (uint64_t j = p / 2; j >= 1; j /= 2) total += array_len - j;
    return total;
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const auto tc = workload::PowerLaw(48, 2.0, seed);
    JoinStats stats;
    ExecContext ctx;
    ctx.stats = &stats;
    (void)ObliviousJoin(tc.t1, tc.t2, ctx);
    const uint64_t n = stats.n1 + stats.n2;
    const uint64_t m = stats.m;
    using obliv::BitonicComparisonCount;
    EXPECT_EQ(stats.augment_sort_comparisons, 2 * BitonicComparisonCount(n));
    EXPECT_EQ(stats.expand_sort_comparisons,
              BitonicComparisonCount(stats.n1) +
                  BitonicComparisonCount(stats.n2));
    EXPECT_EQ(stats.align_sort_comparisons, BitonicComparisonCount(m));
    EXPECT_EQ(stats.expand_route_ops,
              route_ops(std::max(stats.n1, m)) +
                  route_ops(std::max(stats.n2, m)));
  }
}

}  // namespace
}  // namespace oblivdb::core
