// Property-style parameterized tests: invariants that must hold across
// randomized workloads and configuration sweeps, exercised with
// TEST_P / INSTANTIATE_TEST_SUITE_P.

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include <sstream>

#include "gtest/gtest.h"
#include "opmap/car/miner.h"
#include "opmap/common/random.h"
#include "opmap/compare/comparator.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/call_log.h"
#include "opmap/data/csv.h"
#include "opmap/data/dataset_io.h"
#include "opmap/data/sampling.h"
#include "opmap/discretize/methods.h"
#include "opmap/stats/confidence_interval.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::MakeSchema;

// Random all-categorical dataset with the last attribute as class.
Dataset RandomDataset(uint64_t seed, int num_attrs, int domain,
                      int64_t records, double null_fraction = 0.0) {
  std::vector<std::pair<std::string, std::vector<std::string>>> spec;
  for (int a = 0; a < num_attrs; ++a) {
    std::vector<std::string> labels;
    for (int v = 0; v < domain; ++v) {
      labels.push_back(test::NumberedLabel("v", v));
    }
    spec.emplace_back(test::NumberedLabel("A", a), labels);
  }
  spec.emplace_back("Class", std::vector<std::string>{"c0", "c1", "c2"});
  Schema schema = MakeSchema(spec);

  Dataset d(schema);
  Rng rng(seed);
  std::vector<Cell> row(static_cast<size_t>(num_attrs) + 1);
  for (int64_t r = 0; r < records; ++r) {
    for (int a = 0; a < num_attrs; ++a) {
      if (null_fraction > 0 && rng.NextBernoulli(null_fraction)) {
        row[static_cast<size_t>(a)] = Cell::Categorical(kNullCode);
      } else {
        row[static_cast<size_t>(a)] = Cell::Categorical(
            static_cast<ValueCode>(rng.NextBounded(
                static_cast<uint64_t>(domain))));
      }
    }
    row[static_cast<size_t>(num_attrs)] = Cell::Categorical(
        static_cast<ValueCode>(rng.NextBounded(3)));
    auto st = d.AppendRow(row);
    EXPECT_TRUE(st.ok());
  }
  return d;
}

// ---------------------------------------------------------------------
// OLAP invariants over randomized cubes.
// ---------------------------------------------------------------------

class CubeOlapProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(CubeOlapProperty, MarginalizeConservesTotal) {
  const auto [seed, domain, records] = GetParam();
  Dataset d = RandomDataset(seed, 3, domain, records);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  ASSERT_OK_AND_ASSIGN(const RuleCube* pair, store.PairCube(0, 1));
  for (int dim = 0; dim < pair->num_dims(); ++dim) {
    ASSERT_OK_AND_ASSIGN(RuleCube rolled, pair->Marginalize(dim));
    EXPECT_EQ(rolled.Total(), pair->Total());
  }
}

TEST_P(CubeOlapProperty, SlicesPartitionTheCube) {
  const auto [seed, domain, records] = GetParam();
  Dataset d = RandomDataset(seed, 3, domain, records);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  ASSERT_OK_AND_ASSIGN(const RuleCube* pair, store.PairCube(0, 2));
  // Summing slice totals over every value of a dimension gives the total.
  for (int dim = 0; dim < pair->num_dims(); ++dim) {
    int64_t sum = 0;
    for (ValueCode v = 0; v < pair->dim_size(dim); ++v) {
      ASSERT_OK_AND_ASSIGN(RuleCube slice, pair->Slice(dim, v));
      sum += slice.Total();
    }
    EXPECT_EQ(sum, pair->Total());
  }
}

TEST_P(CubeOlapProperty, DiceWithFullDomainIsIdentity) {
  const auto [seed, domain, records] = GetParam();
  Dataset d = RandomDataset(seed, 2, domain, records);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  ASSERT_OK_AND_ASSIGN(const RuleCube* pair, store.PairCube(0, 1));
  std::vector<ValueCode> all;
  for (ValueCode v = 0; v < pair->dim_size(0); ++v) all.push_back(v);
  ASSERT_OK_AND_ASSIGN(RuleCube diced, pair->Dice(0, all));
  ASSERT_EQ(diced.num_cells(), pair->num_cells());
  for (int64_t i = 0; i < diced.num_cells(); ++i) {
    EXPECT_EQ(diced.raw_counts()[i], pair->raw_counts()[i]);
  }
}

TEST_P(CubeOlapProperty, ConfidencesSumToOneOverClasses) {
  const auto [seed, domain, records] = GetParam();
  Dataset d = RandomDataset(seed, 2, domain, records);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  ASSERT_OK_AND_ASSIGN(const RuleCube* cube, store.AttrCube(0));
  for (ValueCode v = 0; v < cube->dim_size(0); ++v) {
    const int64_t body = cube->MarginCount({v, 0}, 1);
    double sum = 0;
    for (ValueCode c = 0; c < cube->dim_size(1); ++c) {
      const double cf = cube->Confidence({v, c}, 1);
      EXPECT_GE(cf, 0.0);
      EXPECT_LE(cf, 1.0);
      sum += cf;
    }
    if (body > 0) {
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST_P(CubeOlapProperty, CubeCellsMatchBruteForceCounts) {
  const auto [seed, domain, records] = GetParam();
  Dataset d = RandomDataset(seed, 3, domain, records, /*null_fraction=*/0.05);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  ASSERT_OK_AND_ASSIGN(const RuleCube* pair, store.PairCube(1, 2));
  Rng rng(seed ^ 0xabc);
  for (int probe = 0; probe < 20; ++probe) {
    const ValueCode v1 =
        static_cast<ValueCode>(rng.NextBounded(static_cast<uint64_t>(domain)));
    const ValueCode v2 =
        static_cast<ValueCode>(rng.NextBounded(static_cast<uint64_t>(domain)));
    const ValueCode y = static_cast<ValueCode>(rng.NextBounded(3));
    int64_t expected = 0;
    for (int64_t r = 0; r < d.num_rows(); ++r) {
      if (d.code(r, 1) == v1 && d.code(r, 2) == v2 && d.class_code(r) == y) {
        ++expected;
      }
    }
    EXPECT_EQ(pair->count({v1, v2, y}), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeOlapProperty,
    ::testing::Combine(::testing::Values(1u, 7u, 42u),
                       ::testing::Values(2, 5, 9),
                       ::testing::Values(200, 2000)));

// ---------------------------------------------------------------------
// Comparator invariants across workloads and CI settings.
// ---------------------------------------------------------------------

struct ComparatorCase {
  uint64_t seed;
  int64_t records;
  int attrs;
  bool use_ci;
  ConfidenceLevel level;
};

class ComparatorProperty : public ::testing::TestWithParam<ComparatorCase> {
 protected:
  static Dataset MakeData(const ComparatorCase& c) {
    CallLogConfig config;
    config.num_records = c.records;
    config.num_attributes = c.attrs;
    config.num_phone_models = 5;
    config.seed = c.seed;
    config.phone_drop_multiplier = {1.0, 2.0};
    config.effects.push_back(PlantedEffect{
        "TimeOfCall", "morning", 1, kDroppedWhileInProgress, 4.0});
    auto gen = CallLogGenerator::Make(config);
    EXPECT_TRUE(gen.ok());
    return gen->Generate();
  }

  static ComparisonSpec MakeSpec(const ComparatorCase& c) {
    ComparisonSpec spec;
    spec.attribute = 0;
    spec.value_a = 0;
    spec.value_b = 1;
    spec.target_class = kDroppedWhileInProgress;
    spec.use_confidence_intervals = c.use_ci;
    spec.confidence_level = c.level;
    spec.min_population = 0;
    return spec;
  }
};

TEST_P(ComparatorProperty, ScoresAreWellFormed) {
  const ComparatorCase c = GetParam();
  Dataset d = MakeData(c);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  Comparator comparator(&store);
  ASSERT_OK_AND_ASSIGN(ComparisonResult r, comparator.Compare(MakeSpec(c)));

  EXPECT_LE(r.cf1, r.cf2);
  EXPECT_GT(r.n_d1, 0);
  EXPECT_GT(r.n_d2, 0);
  double prev = std::numeric_limits<double>::infinity();
  for (const AttributeComparison& cmp : r.ranked) {
    // Ranking is by non-increasing interestingness.
    EXPECT_LE(cmp.interestingness, prev);
    prev = cmp.interestingness;
    EXPECT_GE(cmp.interestingness, 0.0);
    EXPECT_GE(cmp.normalized, 0.0);
    EXPECT_LE(cmp.normalized, 1.0 + 1e-9);
    double sum_w = 0;
    for (const ValueComparison& v : cmp.values) {
      EXPECT_GE(v.w, 0.0);
      EXPECT_GE(v.rcf1, 0.0);
      EXPECT_LE(v.rcf1, 1.0);
      EXPECT_GE(v.rcf2, 0.0);
      EXPECT_LE(v.rcf2, 1.0);
      EXPECT_EQ(v.n1 >= v.n1_target, true);
      EXPECT_EQ(v.n2 >= v.n2_target, true);
      sum_w += v.w;
    }
    // M is exactly the sum of value contributions (formula (3)).
    EXPECT_NEAR(cmp.interestingness, sum_w, 1e-9);
  }
}

TEST_P(ComparatorProperty, CubePathMatchesScanPath) {
  const ComparatorCase c = GetParam();
  Dataset d = MakeData(c);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  Comparator comparator(&store);
  ASSERT_OK_AND_ASSIGN(ComparisonResult from_cube,
                       comparator.Compare(MakeSpec(c)));
  ASSERT_OK_AND_ASSIGN(ComparisonResult from_scan,
                       CompareFromDataset(d, MakeSpec(c)));
  ASSERT_EQ(from_cube.ranked.size(), from_scan.ranked.size());
  for (size_t i = 0; i < from_cube.ranked.size(); ++i) {
    EXPECT_EQ(from_cube.ranked[i].attribute, from_scan.ranked[i].attribute);
    EXPECT_DOUBLE_EQ(from_cube.ranked[i].interestingness,
                     from_scan.ranked[i].interestingness);
  }
}

TEST_P(ComparatorProperty, OrderOfRulesIsIrrelevant) {
  const ComparatorCase c = GetParam();
  Dataset d = MakeData(c);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  Comparator comparator(&store);
  ComparisonSpec forward = MakeSpec(c);
  ComparisonSpec backward = forward;
  std::swap(backward.value_a, backward.value_b);
  ASSERT_OK_AND_ASSIGN(ComparisonResult rf, comparator.Compare(forward));
  ASSERT_OK_AND_ASSIGN(ComparisonResult rb, comparator.Compare(backward));
  EXPECT_DOUBLE_EQ(rf.cf1, rb.cf1);
  EXPECT_DOUBLE_EQ(rf.cf2, rb.cf2);
  ASSERT_EQ(rf.ranked.size(), rb.ranked.size());
  for (size_t i = 0; i < rf.ranked.size(); ++i) {
    EXPECT_EQ(rf.ranked[i].attribute, rb.ranked[i].attribute);
    EXPECT_DOUBLE_EQ(rf.ranked[i].interestingness,
                     rb.ranked[i].interestingness);
  }
}

TEST_P(ComparatorProperty, UnrelatedRowsDoNotChangeTheResult) {
  // Rows whose base-attribute value is neither compared value must not
  // influence the comparison (the sub-populations are fixed).
  const ComparatorCase c = GetParam();
  Dataset d = MakeData(c);
  ASSERT_OK_AND_ASSIGN(ComparisonResult before,
                       CompareFromDataset(d, MakeSpec(c)));
  // Append rows for phone model 3 only.
  Rng rng(c.seed ^ 0x5a5a);
  std::vector<Cell> row(static_cast<size_t>(d.num_attributes()));
  for (int extra = 0; extra < 500; ++extra) {
    for (int a = 0; a < d.num_attributes(); ++a) {
      const int domain = d.schema().attribute(a).domain();
      row[static_cast<size_t>(a)] = Cell::Categorical(
          static_cast<ValueCode>(rng.NextBounded(
              static_cast<uint64_t>(domain))));
    }
    row[0] = Cell::Categorical(3);
    ASSERT_OK(d.AppendRow(row));
  }
  ASSERT_OK_AND_ASSIGN(ComparisonResult after,
                       CompareFromDataset(d, MakeSpec(c)));
  EXPECT_DOUBLE_EQ(before.cf1, after.cf1);
  EXPECT_DOUBLE_EQ(before.cf2, after.cf2);
  ASSERT_EQ(before.ranked.size(), after.ranked.size());
  for (size_t i = 0; i < before.ranked.size(); ++i) {
    EXPECT_DOUBLE_EQ(before.ranked[i].interestingness,
                     after.ranked[i].interestingness);
  }
}

TEST_P(ComparatorProperty, CiShrinksOrKeepsScores) {
  // The revised confidences only shrink per-value contributions
  // (rcf2 <= cf2, rcf1 >= cf1), so M with CI <= M without CI.
  const ComparatorCase c = GetParam();
  Dataset d = MakeData(c);
  ComparisonSpec with_ci = MakeSpec(c);
  with_ci.use_confidence_intervals = true;
  ComparisonSpec without_ci = MakeSpec(c);
  without_ci.use_confidence_intervals = false;
  ASSERT_OK_AND_ASSIGN(ComparisonResult rc, CompareFromDataset(d, with_ci));
  ASSERT_OK_AND_ASSIGN(ComparisonResult rn,
                       CompareFromDataset(d, without_ci));
  for (const AttributeComparison& cmp : rc.ranked) {
    // Find the same attribute in the no-CI result (it may be ranked
    // elsewhere).
    for (const AttributeComparison& other : rn.ranked) {
      if (other.attribute == cmp.attribute) {
        EXPECT_LE(cmp.interestingness, other.interestingness + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComparatorProperty,
    ::testing::Values(
        ComparatorCase{3, 5000, 8, true, ConfidenceLevel::k95},
        ComparatorCase{3, 5000, 8, false, ConfidenceLevel::k95},
        ComparatorCase{11, 20000, 12, true, ConfidenceLevel::k90},
        ComparatorCase{11, 20000, 12, true, ConfidenceLevel::k99},
        ComparatorCase{29, 2000, 6, true, ConfidenceLevel::k95},
        ComparatorCase{71, 40000, 16, false, ConfidenceLevel::k95}));

// ---------------------------------------------------------------------
// Discretizer invariants.
// ---------------------------------------------------------------------

class DiscretizerProperty
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(DiscretizerProperty, CutsAreSortedUniqueAndLabelsMatch) {
  const auto [method, bins, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> values;
  std::vector<ValueCode> classes;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(rng.NextGaussian() * 10 + (i % 3) * 5);
    classes.push_back(static_cast<ValueCode>(
        rng.NextBernoulli(values.back() > 5 ? 0.6 : 0.1) ? 1 : 0));
  }
  EqualWidthDiscretizer ew(bins);
  EqualFrequencyDiscretizer ef(bins);
  EntropyMdlDiscretizer mdl;
  const Discretizer* d = method == 0
                             ? static_cast<const Discretizer*>(&ew)
                             : method == 1
                                   ? static_cast<const Discretizer*>(&ef)
                                   : static_cast<const Discretizer*>(&mdl);
  ASSERT_OK_AND_ASSIGN(auto cuts, d->ComputeCuts(values, classes, 2));
  for (size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
  }
  const auto labels = IntervalLabels(cuts);
  EXPECT_EQ(labels.size(), cuts.size() + 1);
  // Every value maps into a valid interval.
  for (double v : values) {
    const ValueCode code = IntervalOf(v, cuts);
    EXPECT_GE(code, 0);
    EXPECT_LT(code, static_cast<ValueCode>(labels.size()));
  }
  // Boundary semantics: a cut value maps to the interval it closes.
  for (double cut : cuts) {
    const ValueCode at = IntervalOf(cut, cuts);
    const ValueCode above = IntervalOf(std::nextafter(cut, 1e30), cuts);
    EXPECT_EQ(above, at + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiscretizerProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(13u, 17u)));

// ---------------------------------------------------------------------
// CAR miner invariants.
// ---------------------------------------------------------------------

class CarMinerProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(CarMinerProperty, RulesSatisfyThresholdsAndCounts) {
  const auto [seed, minsup] = GetParam();
  Dataset d = RandomDataset(seed, 4, 4, 500);
  CarMinerOptions opts;
  opts.min_support = minsup;
  opts.min_confidence = 0.2;
  opts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  const int64_t minsup_count = static_cast<int64_t>(
      std::ceil(minsup * static_cast<double>(d.num_rows())));
  for (const ClassRule& r : rules.rules()) {
    EXPECT_GE(r.support_count, minsup_count);
    EXPECT_GE(r.Confidence(), 0.2);
    // Conditions use distinct attributes, sorted.
    for (size_t i = 1; i < r.conditions.size(); ++i) {
      EXPECT_LT(r.conditions[i - 1].attribute, r.conditions[i].attribute);
    }
    // Counts match a dataset scan.
    int64_t sup = 0, body = 0;
    for (int64_t row = 0; row < d.num_rows(); ++row) {
      bool match = true;
      for (const Condition& cond : r.conditions) {
        if (d.code(row, cond.attribute) != cond.value) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      if (d.class_code(row) != kNullCode) ++body;
      if (d.class_code(row) == r.class_value) ++sup;
    }
    EXPECT_EQ(r.support_count, sup);
    EXPECT_EQ(r.body_count, body);
  }
}

TEST_P(CarMinerProperty, HigherSupportIsSubset) {
  const auto [seed, minsup] = GetParam();
  Dataset d = RandomDataset(seed, 4, 4, 500);
  CarMinerOptions low;
  low.min_support = minsup;
  low.max_conditions = 2;
  CarMinerOptions high = low;
  high.min_support = std::min(1.0, minsup * 2 + 0.05);
  ASSERT_OK_AND_ASSIGN(RuleSet low_rules, MineClassAssociationRules(d, low));
  ASSERT_OK_AND_ASSIGN(RuleSet high_rules,
                       MineClassAssociationRules(d, high));
  EXPECT_LE(high_rules.size(), low_rules.size());
  // Every high-threshold rule appears among the low-threshold rules.
  std::set<std::string> low_keys;
  for (const ClassRule& r : low_rules.rules()) {
    low_keys.insert(r.ToString(d.schema(), d.num_rows()));
  }
  for (const ClassRule& r : high_rules.rules()) {
    EXPECT_TRUE(low_keys.count(r.ToString(d.schema(), d.num_rows())) > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CarMinerProperty,
    ::testing::Combine(::testing::Values(5u, 23u, 99u),
                       ::testing::Values(0.01, 0.05, 0.2)));

// ---------------------------------------------------------------------
// Confidence interval invariants.
// ---------------------------------------------------------------------

class CiProperty : public ::testing::TestWithParam<ConfidenceLevel> {};

TEST_P(CiProperty, IntervalsAreValidAndMonotone) {
  const ConfidenceLevel level = GetParam();
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t n = static_cast<int64_t>(rng.NextBounded(10000)) + 1;
    const int64_t k = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(n + 1)));
    const ProportionInterval wald = WaldInterval(k, n, level);
    const ProportionInterval wilson = WilsonInterval(k, n, level);
    for (const auto& ci : {wald, wilson}) {
      EXPECT_GE(ci.low, 0.0);
      EXPECT_LE(ci.high, 1.0);
      EXPECT_LE(ci.low, ci.high);
      EXPECT_GE(ci.margin, 0.0);
    }
    // Larger samples with the same proportion shrink the Wald margin.
    if (n >= 2 && k % 2 == 0 && (n * 2) > 0) {
      const ProportionInterval bigger = WaldInterval(k * 2, n * 2, level);
      EXPECT_LE(bigger.margin, wald.margin + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CiProperty,
                         ::testing::Values(ConfidenceLevel::k90,
                                           ConfidenceLevel::k95,
                                           ConfidenceLevel::k99));

// ---------------------------------------------------------------------
// Sampling invariants.
// ---------------------------------------------------------------------

class SamplingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplingProperty, UnbalancedSamplingRespectsCapAndMinority) {
  const uint64_t seed = GetParam();
  CallLogConfig config;
  config.num_records = 30000;
  config.num_attributes = 6;
  config.seed = seed;
  auto gen = CallLogGenerator::Make(config);
  ASSERT_TRUE(gen.ok());
  Dataset d = gen->Generate();
  const auto before = d.ClassCounts();
  Rng rng(seed);
  ASSERT_OK_AND_ASSIGN(Dataset sampled, UnbalancedSample(d, 10.0, rng));
  const auto after = sampled.ClassCounts();
  int64_t smallest = std::numeric_limits<int64_t>::max();
  for (int64_t c : before) {
    if (c > 0) smallest = std::min(smallest, c);
  }
  for (size_t c = 0; c < after.size(); ++c) {
    // Minority classes are kept in full.
    if (before[c] <= smallest * 10) {
      EXPECT_EQ(after[c], before[c]);
    } else {
      // Majority capped near 10x the smallest class (binomial noise).
      EXPECT_LT(static_cast<double>(after[c]),
                11.5 * static_cast<double>(smallest));
    }
  }
}

TEST_P(SamplingProperty, UniformSampleIsExactSizeWithoutReplacement) {
  const uint64_t seed = GetParam();
  Schema schema = MakeSchema({{"id", [] {
                                 std::vector<std::string> v;
                                 for (int i = 0; i < 1000; ++i) {
                                   v.push_back(std::to_string(i));
                                 }
                                 return v;
                               }()},
                              {"c", {"x", "y"}}});
  Dataset d(schema);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK(d.AppendRow({Cell::Categorical(static_cast<ValueCode>(i)),
                           Cell::Categorical(static_cast<ValueCode>(i % 2))}));
  }
  Rng rng(seed);
  Dataset sampled = UniformSample(d, 100, rng);
  ASSERT_EQ(sampled.num_rows(), 100);
  std::set<ValueCode> seen;
  for (int64_t r = 0; r < sampled.num_rows(); ++r) {
    EXPECT_TRUE(seen.insert(sampled.code(r, 0)).second)
        << "duplicate row in without-replacement sample";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SamplingProperty,
                         ::testing::Values(1u, 12u, 123u, 1234u));

// ---------------------------------------------------------------------
// Serialization robustness: random datasets round-trip exactly, and any
// truncation of the byte stream fails cleanly instead of crashing or
// returning garbage.
// ---------------------------------------------------------------------

class SerdeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeProperty, DatasetRoundTripIsExact) {
  const uint64_t seed = GetParam();
  Dataset d = RandomDataset(seed, 4, 5, 300, /*null_fraction=*/0.1);
  std::ostringstream buf;
  ASSERT_OK(SaveDataset(d, &buf));
  ASSERT_OK_AND_ASSIGN(Dataset loaded, LoadDatasetFromBytes(buf.str()));
  ASSERT_EQ(loaded.num_rows(), d.num_rows());
  for (int64_t r = 0; r < d.num_rows(); ++r) {
    for (int a = 0; a < d.num_attributes(); ++a) {
      ASSERT_EQ(loaded.code(r, a), d.code(r, a));
    }
  }
}

TEST_P(SerdeProperty, TruncationAlwaysFailsCleanly) {
  const uint64_t seed = GetParam();
  Dataset d = RandomDataset(seed, 3, 4, 50);
  std::ostringstream buf;
  ASSERT_OK(SaveDataset(d, &buf));
  const std::string bytes = buf.str();
  Rng rng(seed ^ 0xfeed);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t cut = static_cast<size_t>(
        rng.NextBounded(static_cast<uint64_t>(bytes.size())));
    auto result = LoadDatasetFromBytes(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " succeeded";
  }
  // Cube stores: same property.
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  std::ostringstream cube_buf;
  ASSERT_OK(store.Save(&cube_buf));
  const std::string cube_bytes = cube_buf.str();
  for (int trial = 0; trial < 40; ++trial) {
    const size_t cut = static_cast<size_t>(
        rng.NextBounded(static_cast<uint64_t>(cube_bytes.size())));
    auto result = CubeStore::LoadFromBytes(cube_bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " succeeded";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerdeProperty,
                         ::testing::Values(2u, 31u, 444u));

// ---------------------------------------------------------------------
// Group comparison equivalence: the cube-based group path must agree with
// a brute-force scan over a dataset whose base attribute is recoded to
// {group A, group B, other} and compared with the plain single-value
// comparator.
// ---------------------------------------------------------------------

class GroupEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GroupEquivalenceProperty, CubeGroupsMatchRecodedScan) {
  const uint64_t seed = GetParam();
  CallLogConfig config;
  config.num_records = 15000;
  config.num_attributes = 8;
  config.num_phone_models = 6;
  config.seed = seed;
  config.phone_drop_multiplier = {1.0, 2.0, 0.7, 1.5};
  ASSERT_OK_AND_ASSIGN(CallLogGenerator gen, CallLogGenerator::Make(config));
  Dataset d = gen.Generate();
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));

  // Random disjoint groups over the phone models.
  Rng rng(seed ^ 0x9999);
  std::vector<ValueCode> group_a, group_b;
  for (ValueCode v = 0; v < 6; ++v) {
    const uint64_t pick = rng.NextBounded(3);
    if (pick == 0) group_a.push_back(v);
    if (pick == 1) group_b.push_back(v);
  }
  if (group_a.empty()) group_a.push_back(0);
  if (group_b.empty() || group_b == group_a) {
    group_b.clear();
    for (ValueCode v = 0; v < 6; ++v) {
      if (std::find(group_a.begin(), group_a.end(), v) == group_a.end()) {
        group_b.push_back(v);
        break;
      }
    }
  }
  ASSERT_FALSE(group_b.empty());

  GroupComparisonSpec gspec;
  gspec.attribute = 0;
  gspec.group_a = ValueGroup{group_a, false};
  gspec.group_b = ValueGroup{group_b, false};
  gspec.target_class = kDroppedWhileInProgress;
  gspec.min_population = 0;
  Comparator comparator(&store);
  auto from_cubes = comparator.CompareGroups(gspec);

  // Brute force: recode the phone attribute to {A=0, B=1, other=2} and run
  // the plain scan comparator.
  std::vector<Attribute> attrs;
  for (int a = 0; a < d.num_attributes(); ++a) {
    if (a == 0) {
      attrs.push_back(Attribute::Categorical("Grouped", {"A", "B", "other"}));
    } else {
      attrs.push_back(d.schema().attribute(a));
    }
  }
  ASSERT_OK_AND_ASSIGN(
      Schema recoded_schema,
      Schema::Make(std::move(attrs), d.schema().class_index()));
  Dataset recoded(recoded_schema);
  std::vector<Cell> row(static_cast<size_t>(d.num_attributes()));
  for (int64_t r = 0; r < d.num_rows(); ++r) {
    const ValueCode phone = d.code(r, 0);
    ValueCode g = 2;
    if (std::find(group_a.begin(), group_a.end(), phone) != group_a.end()) {
      g = 0;
    } else if (std::find(group_b.begin(), group_b.end(), phone) !=
               group_b.end()) {
      g = 1;
    }
    row[0] = Cell::Categorical(g);
    for (int a = 1; a < d.num_attributes(); ++a) {
      row[static_cast<size_t>(a)] = Cell::Categorical(d.code(r, a));
    }
    ASSERT_OK(recoded.AppendRow(row));
  }
  ComparisonSpec sspec;
  sspec.attribute = 0;
  sspec.value_a = 0;
  sspec.value_b = 1;
  sspec.target_class = kDroppedWhileInProgress;
  sspec.min_population = 0;
  auto from_scan = CompareFromDataset(recoded, sspec);

  ASSERT_EQ(from_cubes.ok(), from_scan.ok());
  if (!from_cubes.ok()) return;  // both undefined (zero confidence)
  EXPECT_DOUBLE_EQ(from_cubes->cf1, from_scan->cf1);
  EXPECT_DOUBLE_EQ(from_cubes->cf2, from_scan->cf2);
  EXPECT_EQ(from_cubes->n_d1, from_scan->n_d1);
  EXPECT_EQ(from_cubes->n_d2, from_scan->n_d2);
  ASSERT_EQ(from_cubes->ranked.size(), from_scan->ranked.size());
  for (size_t i = 0; i < from_cubes->ranked.size(); ++i) {
    EXPECT_EQ(from_cubes->ranked[i].attribute,
              from_scan->ranked[i].attribute);
    EXPECT_DOUBLE_EQ(from_cubes->ranked[i].interestingness,
                     from_scan->ranked[i].interestingness);
  }
  ASSERT_EQ(from_cubes->properties.size(), from_scan->properties.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupEquivalenceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------
// CSV robustness: random byte mutations of a valid CSV must either parse
// (possibly into different values) or fail cleanly — never crash.
// ---------------------------------------------------------------------

class CsvFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzProperty, MutatedCsvNeverCrashes) {
  const uint64_t seed = GetParam();
  std::string csv = "phone,rssi,result\n";
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    csv += "ph" + std::to_string(rng.NextBounded(3)) + "," +
           std::to_string(-60.0 - static_cast<double>(rng.NextBounded(40))) +
           "," + (rng.NextBernoulli(0.1) ? "bad" : "ok") + "\n";
  }
  CsvReadOptions opts;
  opts.class_column = "result";
  const char kJunk[] = {',', '\n', '"', '\0', 'x', '-', '.', '?'};
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = csv;
    const int edits = 1 + static_cast<int>(rng.NextBounded(5));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.NextBounded(static_cast<uint64_t>(mutated.size())));
      mutated[pos] = kJunk[rng.NextBounded(sizeof(kJunk))];
    }
    std::istringstream in(mutated);
    auto result = ReadCsvStream(in, opts);
    if (result.ok()) {
      // Whatever parsed must be internally consistent.
      EXPECT_GE(result->num_rows(), 0);
      EXPECT_EQ(result->schema().class_attribute().name(), "result");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsvFuzzProperty,
                         ::testing::Values(5u, 55u, 555u));

// ---------------------------------------------------------------------
// OLAP session equivalence: a session's navigation must match the same
// operations applied directly to cubes.
// ---------------------------------------------------------------------

class SessionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionProperty, RandomNavigationMatchesDirectOps) {
  const uint64_t seed = GetParam();
  Dataset d = RandomDataset(seed, 4, 4, 1500);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  const Schema& schema = store.schema();

  ExplorationSession session(&store);
  ASSERT_OK(session.OpenAttribute(schema.attribute(0).name()));
  ASSERT_OK(session.DrillDown(schema.attribute(1).name()));

  // Mirror: the direct pair cube.
  ASSERT_OK_AND_ASSIGN(const RuleCube* pair, store.PairCube(0, 1));
  RuleCube mirror = *pair;

  Rng rng(seed);
  for (int step = 0; step < 6; ++step) {
    const RuleCube& cur = session.current();
    if (cur.num_dims() <= 1) break;
    // Pick a random non-class dimension and randomly slice or roll up.
    std::vector<int> dims;
    for (int dim = 0; dim < cur.num_dims(); ++dim) {
      if (cur.dim_attribute(dim) != schema.class_index()) dims.push_back(dim);
    }
    if (dims.empty()) break;
    const int dim = dims[static_cast<size_t>(
        rng.NextBounded(dims.size()))];
    const std::string attr_name = cur.dim_name(dim);
    if (rng.NextBernoulli(0.5)) {
      const ValueCode v = static_cast<ValueCode>(
          rng.NextBounded(static_cast<uint64_t>(cur.dim_size(dim))));
      ASSERT_OK(session.Slice(attr_name, cur.label(dim, v)));
      ASSERT_OK_AND_ASSIGN(mirror, mirror.Slice(dim, v));
    } else {
      ASSERT_OK(session.RollUp(attr_name));
      ASSERT_OK_AND_ASSIGN(mirror, mirror.Marginalize(dim));
    }
    const RuleCube& after = session.current();
    ASSERT_EQ(after.num_cells(), mirror.num_cells());
    for (int64_t i = 0; i < after.num_cells(); ++i) {
      ASSERT_EQ(after.raw_counts()[i], mirror.raw_counts()[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SessionProperty,
                         ::testing::Values(3u, 17u, 99u, 256u));

}  // namespace
}  // namespace opmap
