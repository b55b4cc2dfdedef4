#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>

#include "gtest/gtest.h"
#include "opmap/common/io.h"
#include "opmap/common/serde.h"
#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/call_log.h"
#include "opmap/data/dataset_io.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::AppendRows;
using test::MakeSchema;

TEST(Serde, ScalarRoundTrip) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteU64(1ULL << 40);
  w.WriteI32(-42);
  w.WriteI64(-(1LL << 40));
  w.WriteDouble(3.14159);
  w.WriteString("hello");
  ASSERT_TRUE(w.ok());

  BinaryReader r(&buf);
  ASSERT_OK_AND_ASSIGN(uint8_t u8, r.ReadU8());
  EXPECT_EQ(u8, 7);
  ASSERT_OK_AND_ASSIGN(uint32_t u32, r.ReadU32());
  EXPECT_EQ(u32, 123456u);
  ASSERT_OK_AND_ASSIGN(uint64_t u64, r.ReadU64());
  EXPECT_EQ(u64, 1ULL << 40);
  ASSERT_OK_AND_ASSIGN(int32_t i32, r.ReadI32());
  EXPECT_EQ(i32, -42);
  ASSERT_OK_AND_ASSIGN(int64_t i64, r.ReadI64());
  EXPECT_EQ(i64, -(1LL << 40));
  ASSERT_OK_AND_ASSIGN(double d, r.ReadDouble());
  EXPECT_DOUBLE_EQ(d, 3.14159);
  ASSERT_OK_AND_ASSIGN(std::string s, r.ReadString());
  EXPECT_EQ(s, "hello");
}

TEST(Serde, VectorRoundTrip) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  const std::vector<int32_t> i32 = {1, -2, kNullCode};
  const std::vector<int64_t> i64 = {10, -20};
  const std::vector<double> dbl = {0.5, -1.5};
  w.WriteI32Vector(i32);
  w.WriteI64Vector(i64);
  w.WriteDoubleVector(dbl);
  BinaryReader r(&buf);
  ASSERT_OK_AND_ASSIGN(auto ri32, r.ReadI32Vector());
  EXPECT_EQ(ri32, i32);
  ASSERT_OK_AND_ASSIGN(auto ri64, r.ReadI64Vector());
  EXPECT_EQ(ri64, i64);
  ASSERT_OK_AND_ASSIGN(auto rdbl, r.ReadDoubleVector());
  EXPECT_EQ(rdbl, dbl);
}

TEST(Serde, TruncationIsAnError) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(99);  // claims a 99-byte string follows
  BinaryReader r(&buf);
  EXPECT_FALSE(r.ReadString().ok());

  std::stringstream empty;
  BinaryReader r2(&empty);
  EXPECT_FALSE(r2.ReadU32().ok());
}

TEST(Serde, LengthLimitDefendsAgainstCorruptSizes) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(1ULL << 50);
  BinaryReader r(&buf, /*limit=*/1 << 20);
  EXPECT_FALSE(r.ReadI64Vector().ok());
}

TEST(Serde, MagicMismatch) {
  std::stringstream buf;
  buf.write("XXXX", 4);
  BinaryReader r(&buf);
  EXPECT_FALSE(r.ExpectMagic("OPMD").ok());
}

Dataset MixedDataset() {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Categorical("phone", {"ph1", "ph2"}));
  attrs.push_back(Attribute::Continuous("rssi"));
  attrs.push_back(
      Attribute::Categorical("hour", {"h0", "h1", "h2"}, /*ordered=*/true));
  attrs.push_back(Attribute::Categorical("c", {"ok", "drop"}));
  auto schema = Schema::Make(std::move(attrs), 3);
  EXPECT_TRUE(schema.ok());
  Dataset d(schema.MoveValue());
  for (int i = 0; i < 100; ++i) {
    auto st = d.AppendRow(
        {Cell::Categorical(static_cast<ValueCode>(i % 2)),
         Cell::Numeric(-80.0 - i * 0.25),
         Cell::Categorical(i % 7 == 0 ? kNullCode
                                      : static_cast<ValueCode>(i % 3)),
         Cell::Categorical(static_cast<ValueCode>(i % 10 == 0 ? 1 : 0))});
    EXPECT_TRUE(st.ok());
  }
  return d;
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  Dataset original = MixedDataset();
  std::ostringstream buf;
  ASSERT_OK(SaveDataset(original, &buf));
  ASSERT_OK_AND_ASSIGN(Dataset loaded, LoadDatasetFromBytes(buf.str()));

  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  ASSERT_EQ(loaded.num_attributes(), original.num_attributes());
  EXPECT_EQ(loaded.schema().class_index(), original.schema().class_index());
  for (int a = 0; a < original.num_attributes(); ++a) {
    const Attribute& oa = original.schema().attribute(a);
    const Attribute& la = loaded.schema().attribute(a);
    EXPECT_EQ(la.name(), oa.name());
    EXPECT_EQ(la.is_categorical(), oa.is_categorical());
    EXPECT_EQ(la.ordered(), oa.ordered());
    EXPECT_EQ(la.labels(), oa.labels());
  }
  for (int64_t r = 0; r < original.num_rows(); ++r) {
    EXPECT_EQ(loaded.code(r, 0), original.code(r, 0));
    EXPECT_DOUBLE_EQ(loaded.number(r, 1), original.number(r, 1));
    EXPECT_EQ(loaded.code(r, 2), original.code(r, 2));
    EXPECT_EQ(loaded.code(r, 3), original.code(r, 3));
  }
}

TEST(DatasetIo, FileRoundTrip) {
  Dataset original = MixedDataset();
  const std::string path = ::testing::TempDir() + "/opmap_io_test.opmd";
  ASSERT_OK(SaveDatasetToFile(original, path));
  ASSERT_OK_AND_ASSIGN(Dataset loaded, LoadDatasetFromFile(path));
  EXPECT_EQ(loaded.num_rows(), original.num_rows());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadDatasetFromFile(path).ok());
}

// Columns are entries of one index section, not sections of their own, so
// a dataset may be wider than the container's 1,024-section cap.
TEST(DatasetIo, WiderThanTheSectionCapRoundTrips) {
  constexpr int kAttrs = 1100;
  std::vector<Attribute> attrs;
  for (int a = 0; a < kAttrs; ++a) {
    std::string name = "a";
    name.append(std::to_string(a));
    if (a % 3 == 1) {
      attrs.push_back(Attribute::Continuous(std::move(name)));
    } else {
      attrs.push_back(Attribute::Categorical(std::move(name), {"x", "y"}));
    }
  }
  ASSERT_OK_AND_ASSIGN(Schema schema,
                       Schema::Make(std::move(attrs), 0));
  Dataset original(std::move(schema));
  for (int r = 0; r < 5; ++r) {
    std::vector<Cell> row;
    for (int a = 0; a < kAttrs; ++a) {
      row.push_back(a % 3 == 1 ? Cell::Numeric(r * 0.5 + a)
                               : Cell::Categorical(
                                     static_cast<ValueCode>((r + a) % 2)));
    }
    ASSERT_OK(original.AppendRow(row));
  }
  const std::string path = ::testing::TempDir() + "/opmap_io_wide.opmd";
  ASSERT_OK(SaveDatasetToFile(original, path));
  ASSERT_OK_AND_ASSIGN(Dataset loaded, LoadDatasetFromFile(path));
  std::remove(path.c_str());
  ASSERT_EQ(loaded.num_attributes(), kAttrs);
  ASSERT_EQ(loaded.num_rows(), original.num_rows());
  for (int64_t r = 0; r < original.num_rows(); ++r) {
    for (int a = 0; a < kAttrs; ++a) {
      if (a % 3 == 1) {
        EXPECT_EQ(loaded.number(r, a), original.number(r, a));
      } else {
        EXPECT_EQ(loaded.code(r, a), original.code(r, a));
      }
    }
  }
}

TEST(DatasetIo, RejectsCorruptInput) {
  Dataset original = MixedDataset();
  std::ostringstream buf;
  ASSERT_OK(SaveDataset(original, &buf));
  std::string bytes = buf.str();
  // Corrupt the magic.
  bytes[0] = 'X';
  EXPECT_FALSE(LoadDatasetFromBytes(bytes).ok());
  // Truncate.
  EXPECT_FALSE(
      LoadDatasetFromBytes(buf.str().substr(0, buf.str().size() / 2)).ok());
}

TEST(DatasetIo, VersionCheck) {
  std::ostringstream buf;
  buf.write("OPMD", 4);
  BinaryWriter w(&buf);
  w.WriteU32(999);  // future version
  EXPECT_FALSE(LoadDatasetFromBytes(buf.str()).ok());
}

TEST(SetColumnData, Validation) {
  Schema schema = MakeSchema({{"a", {"x", "y"}}, {"c", {"p", "q"}}});
  Dataset d(schema);
  // Wrong column count.
  EXPECT_FALSE(d.SetColumnData({{0, 1}}, {{}}).ok());
  // Ragged columns.
  EXPECT_FALSE(d.SetColumnData({{0, 1}, {0}}, {{}, {}}).ok());
  // Out-of-domain code.
  EXPECT_FALSE(d.SetColumnData({{0, 9}, {0, 0}}, {{}, {}}).ok());
  // Numeric data for a categorical column.
  EXPECT_FALSE(d.SetColumnData({{0}, {0}}, {{1.0}, {}}).ok());
  // Valid.
  ASSERT_OK(d.SetColumnData({{0, 1, kNullCode}, {0, 1, 0}}, {{}, {}}));
  EXPECT_EQ(d.num_rows(), 3);
  EXPECT_EQ(d.code(2, 0), kNullCode);
}

TEST(CubeIo, RoundTripPreservesCountsAndComparisons) {
  CallLogConfig config;
  config.num_records = 15000;
  config.num_attributes = 10;
  config.phone_drop_multiplier = {1.0, 2.5};
  config.effects.push_back(PlantedEffect{
      "TimeOfCall", "morning", 1, kDroppedWhileInProgress, 5.0});
  ASSERT_OK_AND_ASSIGN(CallLogGenerator gen, CallLogGenerator::Make(config));
  Dataset d = gen.Generate();
  ASSERT_OK_AND_ASSIGN(CubeStore original, CubeBuilder::FromDataset(d));

  std::ostringstream buf;
  ASSERT_OK(original.Save(&buf));
  ASSERT_OK_AND_ASSIGN(CubeStore loaded, CubeStore::LoadFromBytes(buf.str()));

  EXPECT_EQ(loaded.num_records(), original.num_records());
  EXPECT_EQ(loaded.NumCubes(), original.NumCubes());
  EXPECT_EQ(loaded.class_counts(), original.class_counts());

  // Every cell of every cube must match.
  for (int a : original.attributes()) {
    ASSERT_OK_AND_ASSIGN(const RuleCube* oc, original.AttrCube(a));
    ASSERT_OK_AND_ASSIGN(const RuleCube* lc, loaded.AttrCube(a));
    ASSERT_EQ(oc->num_cells(), lc->num_cells());
    for (int64_t i = 0; i < oc->num_cells(); ++i) {
      ASSERT_EQ(oc->raw_counts()[i], lc->raw_counts()[i]);
    }
  }

  // The interactive path on the loaded store reproduces the comparison
  // bit-for-bit (the deployed system's save-overnight/load-in-the-morning
  // cycle).
  ComparisonSpec spec;
  spec.attribute = 0;
  spec.value_a = 0;
  spec.value_b = 1;
  spec.target_class = kDroppedWhileInProgress;
  Comparator co(&original);
  Comparator cl(&loaded);
  ASSERT_OK_AND_ASSIGN(ComparisonResult ro, co.Compare(spec));
  ASSERT_OK_AND_ASSIGN(ComparisonResult rl, cl.Compare(spec));
  ASSERT_EQ(ro.ranked.size(), rl.ranked.size());
  for (size_t i = 0; i < ro.ranked.size(); ++i) {
    EXPECT_EQ(ro.ranked[i].attribute, rl.ranked[i].attribute);
    EXPECT_DOUBLE_EQ(ro.ranked[i].interestingness,
                     rl.ranked[i].interestingness);
  }
}

TEST(CubeIo, RejectsCorruptInput) {
  Schema schema = MakeSchema({{"a", {"x", "y"}}, {"c", {"p", "q"}}});
  Dataset d(schema);
  AppendRows(&d, {0, 0}, 5);
  AppendRows(&d, {1, 1}, 5);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  std::ostringstream buf;
  ASSERT_OK(store.Save(&buf));
  std::string bytes = buf.str();
  bytes[1] = 'Z';
  EXPECT_FALSE(CubeStore::LoadFromBytes(bytes).ok());
  EXPECT_FALSE(CubeStore::LoadFromBytes(buf.str().substr(0, 20)).ok());
}

TEST(CubeIo, FileRoundTrip) {
  Schema schema = MakeSchema({{"a", {"x", "y"}}, {"c", {"p", "q"}}});
  Dataset d(schema);
  AppendRows(&d, {0, 1}, 7);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  const std::string path = ::testing::TempDir() + "/opmap_io_test.opmc";
  ASSERT_OK(store.SaveToFile(path));
  ASSERT_OK_AND_ASSIGN(CubeStore loaded, CubeStore::LoadFromFile(path));
  ASSERT_OK_AND_ASSIGN(const RuleCube* cube, loaded.AttrCube(0));
  EXPECT_EQ(cube->count({0, 1}), 7);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Env::MapFile / MappedRegion
// ---------------------------------------------------------------------------

TEST(MapFile, ServesFileBytesAligned) {
  const std::string path = ::testing::TempDir() + "/opmap_map_test.bin";
  const std::string payload = "mapped bytes: hello opportunity map";
  ASSERT_OK(AtomicWriteFile(nullptr, path, payload));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MappedRegion> region,
                       Env::Default()->MapFile(path));
  ASSERT_EQ(region->size(), payload.size());
  EXPECT_EQ(std::string(region->data(), region->size()), payload);
  // Both the mmap path (page-aligned) and the heap fallback guarantee
  // 64-byte alignment, so in-place int64 reads are always safe.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(region->data()) %
                kAlignedPayloadAlignment,
            0u);
  // ResidentBytes is [0, size] or -1 (platform cannot tell) — never junk.
  const int64_t resident = region->ResidentBytes();
  EXPECT_GE(resident, -1);
  EXPECT_LE(resident, static_cast<int64_t>(region->size()));

  // The region is independent of the file: deleting the file does not
  // invalidate the bytes already mapped (POSIX keeps the inode alive).
  std::remove(path.c_str());
  EXPECT_EQ(std::string(region->data(), region->size()), payload);
}

TEST(MapFile, EmptyFileYieldsEmptyRegion) {
  // mmap rejects zero-length mappings; the Env must serve an empty heap
  // region instead of failing or crashing.
  const std::string path = ::testing::TempDir() + "/opmap_map_empty.bin";
  ASSERT_OK(AtomicWriteFile(nullptr, path, ""));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MappedRegion> region,
                       Env::Default()->MapFile(path));
  EXPECT_EQ(region->size(), 0u);
  EXPECT_FALSE(region->is_mmap());
  EXPECT_EQ(region->ResidentBytes(), 0);
  std::remove(path.c_str());
}

TEST(MapFile, MissingFileFails) {
  EXPECT_FALSE(
      Env::Default()->MapFile(::testing::TempDir() + "/no_such_file").ok());
}

TEST(MapFile, HeapFallbackMatchesPosixMapping) {
  // The base-class fallback (read into an aligned buffer) must serve the
  // exact same bytes as the real mapping — it is the portability seam the
  // fault-injecting env routes through.
  const std::string path = ::testing::TempDir() + "/opmap_map_fb.bin";
  std::string payload(8192, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31);
  }
  ASSERT_OK(AtomicWriteFile(nullptr, path, payload));

  FaultInjectingEnv env;  // unarmed: maps through the heap fallback
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MappedRegion> heap, env.MapFile(path));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MappedRegion> posix,
                       Env::Default()->MapFile(path));
  ASSERT_EQ(heap->size(), posix->size());
  EXPECT_EQ(std::memcmp(heap->data(), posix->data(), heap->size()), 0);
  EXPECT_FALSE(heap->is_mmap());
  EXPECT_EQ(env.OpCount(FaultOp::kMap), 1);
  std::remove(path.c_str());
}

TEST(MapFile, MapAndReadFaultsSurface) {
  const std::string path = ::testing::TempDir() + "/opmap_map_fault.bin";
  ASSERT_OK(AtomicWriteFile(nullptr, path, std::string(1024, 'm')));

  {
    FaultInjectingEnv env;
    env.FailAt(FaultOp::kMap, 1);
    EXPECT_FALSE(env.MapFile(path).ok());
    EXPECT_OK(env.MapFile(path).status());  // one-shot fault: next succeeds
  }
  {
    // The fallback reads through the env's own sequential reader, so armed
    // read-path faults reach the mapping too.
    FaultInjectingEnv env;
    env.FailAt(FaultOp::kOpenRead, 1);
    EXPECT_FALSE(env.MapFile(path).ok());
  }
  {
    FaultInjectingEnv env;
    env.FailAt(FaultOp::kRead, 1);
    EXPECT_FALSE(env.MapFile(path).ok());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opmap
