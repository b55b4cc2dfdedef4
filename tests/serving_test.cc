// Serving-path equivalence suite: the same queries must produce
// byte-identical output whether the store file was loaded eagerly or
// through the lazy mapping, at any thread count, with the shared result
// cache on or off. Each configuration runs every query twice so the cached
// second pass is compared against the baseline too.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "opmap/compare/comparator.h"
#include "opmap/compare/report.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/call_log.h"
#include "test_util.h"

namespace opmap {
namespace {

Dataset ServingDataset() {
  CallLogConfig config;
  config.num_records = 4000;
  config.num_attributes = 6;
  config.values_per_attribute = 4;
  config.num_phone_models = 5;
  config.seed = 7;
  auto generator = CallLogGenerator::Make(config);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  return generator->Generate();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ServingEquivalence, ByteIdenticalAcrossFormatsThreadsAndCache) {
  const Dataset data = ServingDataset();
  ASSERT_OK_AND_ASSIGN(CubeStore built, CubeBuilder::FromDataset(data));
  const Schema& schema = built.schema();
  const std::string attr0 = schema.attribute(0).name();
  const std::string attr1 = schema.attribute(1).name();

  ComparisonSpec spec;
  spec.attribute = 0;
  spec.value_a = 0;
  spec.value_b = 1;
  spec.target_class = 1;

  // Baseline answers from the freshly built store: serial, uncached.
  Comparator baseline(&built);
  ASSERT_OK_AND_ASSIGN(ComparisonResult base_result, baseline.Compare(spec));
  const std::string base_report = FormatComparisonReport(base_result, schema);
  ASSERT_OK_AND_ASSIGN(std::vector<PairSummary> base_pairs,
                       baseline.CompareAllPairs(0, spec.target_class));
  const std::string base_table = FormatPairSummaries(base_pairs, schema, 0);
  ExplorationSession base_session(&built);
  ASSERT_OK(base_session.OpenAttribute(attr0));
  ASSERT_OK(base_session.DrillDown(attr1));
  ASSERT_OK_AND_ASSIGN(std::string base_view, base_session.Render());

  const std::string path = TempPath("serving.opmc");
  ASSERT_OK(built.SaveToFile(path));

  CubeLoadOptions eager;
  eager.use_mmap = false;
  std::vector<std::pair<std::string, CubeStore>> variants;
  {
    ASSERT_OK_AND_ASSIGN(CubeStore s,
                         CubeStore::LoadFromFile(path, nullptr, eager));
    variants.emplace_back("eager", std::move(s));
  }
  {
    ASSERT_OK_AND_ASSIGN(CubeStore s, CubeStore::LoadFromFile(path));
    ASSERT_TRUE(s.GetMappingStats().mapped);
    variants.emplace_back("mmap", std::move(s));
  }

  for (const auto& [name, store] : variants) {
    for (int threads : {1, 2, 8}) {
      for (int64_t cache_bytes : {int64_t{0}, int64_t{8} << 20}) {
        SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                     " cache_bytes=" + std::to_string(cache_bytes));
        ParallelOptions parallel;
        parallel.num_threads = threads;
        QueryEngine engine(&store, cache_bytes, parallel);

        // Twice: the second pass is a cache hit when the cache is on, and
        // must still be byte-identical.
        for (int rep = 0; rep < 2; ++rep) {
          ASSERT_OK_AND_ASSIGN(auto result, engine.Compare(spec));
          EXPECT_EQ(FormatComparisonReport(*result, schema), base_report);
        }
        ASSERT_OK_AND_ASSIGN(std::vector<PairSummary> pairs,
                             engine.CompareAllPairs(0, spec.target_class));
        EXPECT_EQ(FormatPairSummaries(pairs, schema, 0), base_table);

        QueryCache view_cache(cache_bytes);
        ExplorationSession session(&store);
        if (cache_bytes > 0) session.set_cache(&view_cache);
        ASSERT_OK(session.OpenAttribute(attr0));
        ASSERT_OK(session.DrillDown(attr1));
        for (int rep = 0; rep < 2; ++rep) {
          ASSERT_OK_AND_ASSIGN(std::string view, session.Render());
          EXPECT_EQ(view, base_view);
        }
      }
    }
  }

  // The mapped variant answered every query above, so its lazy
  // verification must have covered the cubes the queries touched.
  EXPECT_GT(variants.back().second.GetMappingStats().cubes_verified, 0);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace opmap
