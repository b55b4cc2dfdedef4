// Tests of the parallel execution layer: the ParallelFor primitives, the
// thread-count plumbing, and the load-bearing guarantee that every
// parallel path (cube materialization, comparator fan-out, all-pairs
// sweep, CAR mining) is bit-identical to the serial path for any thread
// count.

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "opmap/car/miner.h"
#include "opmap/common/parallel.h"
#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::AppendRows;
using test::MakeSchema;

ParallelOptions Threads(int n) {
  ParallelOptions options;
  options.num_threads = n;
  return options;
}

// ---------------------------------------------------------------------------
// ParseThreadCount / EffectiveThreads
// ---------------------------------------------------------------------------

TEST(ParseThreadCount, AcceptsNonNegativeIntegers) {
  ASSERT_OK_AND_ASSIGN(int zero, ParseThreadCount("0"));
  EXPECT_EQ(zero, 0);
  ASSERT_OK_AND_ASSIGN(int one, ParseThreadCount("1"));
  EXPECT_EQ(one, 1);
  ASSERT_OK_AND_ASSIGN(int big, ParseThreadCount("1024"));
  EXPECT_EQ(big, 1024);
}

TEST(ParseThreadCount, RejectsGarbage) {
  EXPECT_FALSE(ParseThreadCount("").ok());
  EXPECT_FALSE(ParseThreadCount("-1").ok());
  EXPECT_FALSE(ParseThreadCount("abc").ok());
  EXPECT_FALSE(ParseThreadCount("4x").ok());
  EXPECT_FALSE(ParseThreadCount(" 4").ok());
  EXPECT_FALSE(ParseThreadCount("1025").ok());
  EXPECT_FALSE(ParseThreadCount("99999999999999999999").ok());
  EXPECT_EQ(ParseThreadCount("-1").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EffectiveThreads, ExplicitCountsAreClampedToTheCap) {
  EXPECT_EQ(EffectiveThreads(Threads(1)), 1);
  EXPECT_EQ(EffectiveThreads(Threads(5)), 5);
  EXPECT_EQ(EffectiveThreads(Threads(1000)), kMaxThreads);
  EXPECT_GE(EffectiveThreads(Threads(0)), 1);  // auto resolves to >= 1
}

// ---------------------------------------------------------------------------
// ParallelFor / ParallelForShards
// ---------------------------------------------------------------------------

TEST(ParallelFor, EmptyAndReversedRangesCallNothing) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](int64_t) { ++calls; }, Threads(4));
  ParallelFor(7, 3, 1, [&](int64_t) { ++calls; }, Threads(4));
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    for (int64_t n : {1, 2, 7, 100, 1000}) {
      for (int64_t grain : {0, 1, 3, 5000}) {
        std::vector<std::atomic<int>> visits(static_cast<size_t>(n));
        for (auto& v : visits) v.store(0);
        ParallelFor(
            0, n, grain,
            [&](int64_t i) { ++visits[static_cast<size_t>(i)]; },
            Threads(threads));
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelFor, OffsetRangeUsesAbsoluteIndices) {
  std::vector<std::atomic<int>> visits(10);
  for (auto& v : visits) v.store(0);
  ParallelFor(100, 110, 1,
              [&](int64_t i) {
                ASSERT_GE(i, 100);
                ASSERT_LT(i, 110);
                ++visits[static_cast<size_t>(i - 100)];
              },
              Threads(4));
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInOrder) {
  std::vector<int64_t> order;
  ParallelFor(0, 50, 1, [&](int64_t i) { order.push_back(i); }, Threads(1));
  ASSERT_EQ(order.size(), 50u);
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ParallelFor, SerialPathStopsAtFirstException) {
  int calls = 0;
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [&](int64_t i) {
                             ++calls;
                             if (i == 37) throw std::runtime_error("boom");
                           },
                           Threads(1)),
               std::runtime_error);
  EXPECT_EQ(calls, 38);
}

TEST(ParallelFor, ParallelPathRethrowsLowestIndexException) {
  // Everything from 50 on throws its own index; the documented guarantee
  // (lowest task index wins, elements within a task run in order) makes
  // the first throwing element the one that is rethrown.
  try {
    ParallelFor(0, 100, 1,
                [&](int64_t i) {
                  if (i >= 50) {
                    throw std::runtime_error(std::to_string(i));
                  }
                },
                Threads(8));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "50");
  }
}

TEST(ParallelFor, NestedSectionsRunInlineWithoutDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(0, 8, 1,
              [&](int64_t) {
                ParallelFor(0, 100, 1, [&](int64_t) { ++total; },
                            Threads(4));
              },
              Threads(4));
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelForShards, PartitionsTheRangeExactly) {
  for (int shards : {1, 2, 3, 7, 16}) {
    for (int64_t n : {0, 1, 5, 100}) {
      std::vector<std::pair<int64_t, int64_t>> ranges(
          static_cast<size_t>(shards));
      ParallelForShards(10, 10 + n, shards,
                        [&](int shard, int64_t lo, int64_t hi) {
                          ranges[static_cast<size_t>(shard)] = {lo, hi};
                        });
      int64_t expected_lo = 10;
      int64_t covered = 0;
      for (const auto& [lo, hi] : ranges) {
        EXPECT_EQ(lo, expected_lo) << "shards=" << shards << " n=" << n;
        EXPECT_LE(lo, hi);
        covered += hi - lo;
        expected_lo = hi;
      }
      EXPECT_EQ(expected_lo, 10 + n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelForShards, BoundariesDependOnlyOnShardCount) {
  // The shard split is a pure function of (range, shard count); recompute
  // twice and expect identical boundaries. Each shard writes only its own
  // slot, so pool threads never share a write target.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> runs;
  for (int run = 0; run < 2; ++run) {
    std::vector<std::pair<int64_t, int64_t>> bounds(7, {-1, -1});
    ParallelForShards(0, 1000, 7, [&](int shard, int64_t lo, int64_t hi) {
      bounds[static_cast<size_t>(shard)] = {lo, hi};
    });
    runs.push_back(std::move(bounds));
  }
  EXPECT_EQ(runs[0], runs[1]);
  // The 7 shards tile [0, 1000) in order, with no gap or overlap.
  int64_t expected_lo = 0;
  for (const auto& [lo, hi] : runs[0]) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_LE(lo, hi);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 1000);
}

// ---------------------------------------------------------------------------
// Serial-vs-parallel bit equality of the analysis paths
// ---------------------------------------------------------------------------

Schema EqualitySchema() {
  return MakeSchema({{"A", {"a0", "a1", "a2", "a3"}},
                     {"B", {"b0", "b1", "b2"}},
                     {"C", {"c0", "c1", "c2", "c3", "c4"}},
                     {"D", {"d0", "d1"}},
                     {"E", {"e0", "e1", "e2"}},
                     {"Y", {"y0", "y1", "y2"}}});
}

// Deterministic pseudo-random dataset, large enough that the sharded
// counting paths actually engage (they stay serial below ~2k rows).
Dataset PseudoRandomDataset(int64_t rows) {
  Dataset d(EqualitySchema());
  const int domains[] = {4, 3, 5, 2, 3, 3};
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<ValueCode> codes;
    for (int domain : domains) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      codes.push_back(static_cast<ValueCode>((x >> 33) %
                                             static_cast<uint64_t>(domain)));
    }
    AppendRows(&d, codes, 1);
  }
  return d;
}

std::string SerializeStore(const CubeStore& store) {
  std::ostringstream out;
  EXPECT_OK(store.Save(&out));
  return out.str();
}

TEST(ParallelEquality, CubeBuildIsBitIdenticalForAnyThreadCount) {
  const Dataset data = PseudoRandomDataset(6000);
  CubeStoreOptions serial;
  serial.parallel = Threads(1);
  ASSERT_OK_AND_ASSIGN(CubeStore reference,
                       CubeBuilder::FromDataset(data, serial));
  const std::string reference_bytes = SerializeStore(reference);
  for (int threads : {2, 3, 8}) {
    CubeStoreOptions options;
    options.parallel = Threads(threads);
    ASSERT_OK_AND_ASSIGN(CubeStore store,
                         CubeBuilder::FromDataset(data, options));
    EXPECT_EQ(store.num_records(), reference.num_records());
    EXPECT_EQ(SerializeStore(store), reference_bytes)
        << "threads=" << threads;
  }
}

TEST(ParallelEquality, CubeBuildHandlesAdversarialRowCounts) {
  // Fewer rows than threads, empty datasets, single rows: the parallel
  // configuration must degrade to the serial result, never crash.
  for (int64_t rows : {0, 1, 3, 7}) {
    const Dataset data = PseudoRandomDataset(rows);
    CubeStoreOptions serial;
    serial.parallel = Threads(1);
    ASSERT_OK_AND_ASSIGN(CubeStore reference,
                         CubeBuilder::FromDataset(data, serial));
    CubeStoreOptions parallel;
    parallel.parallel = Threads(8);
    ASSERT_OK_AND_ASSIGN(CubeStore store,
                         CubeBuilder::FromDataset(data, parallel));
    EXPECT_EQ(SerializeStore(store), SerializeStore(reference))
        << "rows=" << rows;
  }
}

TEST(ParallelEquality, StreamingAddRowMatchesShardedAddDataset) {
  const Dataset data = PseudoRandomDataset(4000);
  CubeStoreOptions options;
  options.parallel = Threads(4);
  ASSERT_OK_AND_ASSIGN(CubeBuilder sharded,
                       CubeBuilder::Make(data.schema(), options));
  ASSERT_OK(sharded.AddDataset(data));
  ASSERT_OK_AND_ASSIGN(CubeBuilder streamed,
                       CubeBuilder::Make(data.schema(), {}));
  std::vector<ValueCode> row(static_cast<size_t>(data.num_attributes()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    for (int a = 0; a < data.num_attributes(); ++a) {
      row[static_cast<size_t>(a)] = data.code(r, a);
    }
    streamed.AddRow(row.data());
  }
  EXPECT_EQ(SerializeStore(std::move(sharded).Finish()),
            SerializeStore(std::move(streamed).Finish()));
}

TEST(ParallelEquality, MemoryBudgetClampsShardsWithoutChangingResults) {
  const Dataset data = PseudoRandomDataset(6000);
  CubeStoreOptions serial;
  serial.parallel = Threads(1);
  ASSERT_OK_AND_ASSIGN(CubeStore reference,
                       CubeBuilder::FromDataset(data, serial));
  // A budget with no headroom for shard copies forces the parallel build
  // back to serial counting; the result must not change.
  CubeStoreOptions tight;
  tight.parallel = Threads(8);
  tight.max_memory_bytes = reference.MemoryUsageBytes();
  ASSERT_OK_AND_ASSIGN(CubeStore clamped,
                       CubeBuilder::FromDataset(data, tight));
  EXPECT_EQ(SerializeStore(clamped), SerializeStore(reference));
  // Roomier budget: shards allowed, result still identical.
  CubeStoreOptions roomy;
  roomy.parallel = Threads(8);
  roomy.max_memory_bytes = reference.MemoryUsageBytes() * 4;
  ASSERT_OK_AND_ASSIGN(CubeStore sharded,
                       CubeBuilder::FromDataset(data, roomy));
  EXPECT_EQ(SerializeStore(sharded), SerializeStore(reference));
}

void ExpectSameComparison(const ComparisonResult& a,
                          const ComparisonResult& b) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  ASSERT_EQ(a.properties.size(), b.properties.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].attribute, b.ranked[i].attribute) << "rank " << i;
    EXPECT_EQ(a.ranked[i].interestingness, b.ranked[i].interestingness);
    EXPECT_EQ(a.ranked[i].normalized, b.ranked[i].normalized);
  }
  for (size_t i = 0; i < a.properties.size(); ++i) {
    EXPECT_EQ(a.properties[i].attribute, b.properties[i].attribute);
    EXPECT_EQ(a.properties[i].interestingness,
              b.properties[i].interestingness);
  }
  EXPECT_EQ(a.rank_index, b.rank_index);
}

TEST(ParallelEquality, ComparatorRankingIsIdenticalForAnyThreadCount) {
  const Dataset data = PseudoRandomDataset(6000);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(data, {}));
  ComparisonSpec spec;
  spec.attribute = 0;
  spec.value_a = 0;
  spec.value_b = 1;
  spec.target_class = 0;
  Comparator serial(&store, Threads(1));
  ASSERT_OK_AND_ASSIGN(ComparisonResult reference, serial.Compare(spec));
  for (int threads : {2, 8}) {
    Comparator comparator(&store, Threads(threads));
    ASSERT_OK_AND_ASSIGN(ComparisonResult result, comparator.Compare(spec));
    ExpectSameComparison(reference, result);
  }
  // A spec-level override beats the comparator default.
  ComparisonSpec override_spec = spec;
  override_spec.parallel = Threads(8);
  ASSERT_OK_AND_ASSIGN(ComparisonResult overridden,
                       serial.Compare(override_spec));
  ExpectSameComparison(reference, overridden);
}

TEST(ParallelEquality, AllPairsSweepIsIdenticalForAnyThreadCount) {
  const Dataset data = PseudoRandomDataset(6000);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(data, {}));
  Comparator serial(&store, Threads(1));
  ASSERT_OK_AND_ASSIGN(std::vector<PairSummary> reference,
                       serial.CompareAllPairs(2, 0, /*min_population=*/1));
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 8}) {
    Comparator comparator(&store, Threads(threads));
    ASSERT_OK_AND_ASSIGN(std::vector<PairSummary> pairs,
                         comparator.CompareAllPairs(2, 0, 1));
    ASSERT_EQ(pairs.size(), reference.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].value_a, reference[i].value_a);
      EXPECT_EQ(pairs[i].value_b, reference[i].value_b);
      EXPECT_EQ(pairs[i].top_attribute, reference[i].top_attribute);
      EXPECT_EQ(pairs[i].top_interestingness,
                reference[i].top_interestingness);
      EXPECT_EQ(pairs[i].skipped, reference[i].skipped);
    }
  }
}

void ExpectSameRules(const RuleSet& a, const RuleSet& b) {
  ASSERT_EQ(a.rules().size(), b.rules().size());
  for (size_t i = 0; i < a.rules().size(); ++i) {
    const ClassRule& x = a.rules()[i];
    const ClassRule& y = b.rules()[i];
    ASSERT_EQ(x.conditions.size(), y.conditions.size()) << "rule " << i;
    for (size_t c = 0; c < x.conditions.size(); ++c) {
      EXPECT_EQ(x.conditions[c].attribute, y.conditions[c].attribute);
      EXPECT_EQ(x.conditions[c].value, y.conditions[c].value);
    }
    EXPECT_EQ(x.class_value, y.class_value);
    EXPECT_EQ(x.support_count, y.support_count);
    EXPECT_EQ(x.body_count, y.body_count);
  }
}

TEST(ParallelEquality, CarMiningIsIdenticalForAnyThreadCount) {
  const Dataset data = PseudoRandomDataset(6000);
  for (double min_support : {0.0, 0.01}) {
    CarMinerOptions serial;
    serial.min_support = min_support;
    serial.max_conditions = 2;
    serial.parallel = Threads(1);
    ASSERT_OK_AND_ASSIGN(RuleSet reference,
                         MineClassAssociationRules(data, serial));
    ASSERT_FALSE(reference.empty());
    for (int threads : {2, 3, 8}) {
      CarMinerOptions options = serial;
      options.parallel = Threads(threads);
      ASSERT_OK_AND_ASSIGN(RuleSet rules,
                           MineClassAssociationRules(data, options));
      ExpectSameRules(reference, rules);
    }
  }
}

TEST(ParallelEquality, CarMiningHandlesAdversarialRowCounts) {
  for (int64_t rows : {0, 1, 3, 7}) {
    const Dataset data = PseudoRandomDataset(rows);
    CarMinerOptions serial;
    serial.min_support = 0.0;
    serial.parallel = Threads(1);
    ASSERT_OK_AND_ASSIGN(RuleSet reference,
                         MineClassAssociationRules(data, serial));
    CarMinerOptions parallel = serial;
    parallel.parallel = Threads(8);
    ASSERT_OK_AND_ASSIGN(RuleSet rules,
                         MineClassAssociationRules(data, parallel));
    ExpectSameRules(reference, rules);
  }
}

// ---------------------------------------------------------------------------
// RankOf index
// ---------------------------------------------------------------------------

TEST(RankIndex, ComparatorResultsAnswerRankOfInConstantTime) {
  const Dataset data = PseudoRandomDataset(3000);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(data, {}));
  Comparator comparator(&store, Threads(1));
  ComparisonSpec spec;
  spec.attribute = 0;
  spec.value_a = 0;
  spec.value_b = 1;
  spec.target_class = 0;
  ASSERT_OK_AND_ASSIGN(ComparisonResult result, comparator.Compare(spec));
  ASSERT_FALSE(result.ranked.empty());
  EXPECT_FALSE(result.rank_index.empty());
  for (size_t i = 0; i < result.ranked.size(); ++i) {
    EXPECT_EQ(result.RankOf(result.ranked[i].attribute),
              static_cast<int>(i));
  }
  EXPECT_EQ(result.RankOf(spec.attribute), -1);  // base attr never ranked
  EXPECT_EQ(result.RankOf(-1), -1);
  EXPECT_EQ(result.RankOf(10000), -1);
}

TEST(RankIndex, HandAssembledResultsFallBackToLinearScan) {
  ComparisonResult result;
  AttributeComparison first;
  first.attribute = 7;
  AttributeComparison second;
  second.attribute = 2;
  result.ranked.push_back(first);
  result.ranked.push_back(second);
  // No rank_index: linear fallback.
  EXPECT_TRUE(result.rank_index.empty());
  EXPECT_EQ(result.RankOf(7), 0);
  EXPECT_EQ(result.RankOf(2), 1);
  EXPECT_EQ(result.RankOf(3), -1);
  // After rebuilding, the O(1) path answers identically.
  result.RebuildRankIndex();
  ASSERT_EQ(result.rank_index.size(), 8u);
  EXPECT_EQ(result.RankOf(7), 0);
  EXPECT_EQ(result.RankOf(2), 1);
  EXPECT_EQ(result.RankOf(3), -1);
  EXPECT_EQ(result.RankOf(100), -1);
}

}  // namespace
}  // namespace opmap
