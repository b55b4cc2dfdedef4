// Robustness suite for the hardened persistence layer: deterministic fault
// injection against every filesystem touch of a cube-store save, bit-flip
// and truncation sweeps over the aligned container of cube stores and
// datasets, and refusal of the retired v1/v2 files by name and version.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "opmap/common/io.h"
#include "opmap/common/serde.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset_io.h"
#include "opmap/ingest/ingester.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::AppendRows;
using test::MakeSchema;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

Dataset SmallDataset(int64_t bump = 0) {
  Schema schema = MakeSchema(
      {{"a", {"x", "y"}}, {"b", {"p", "q", "r"}}, {"c", {"ok", "bad"}}});
  Dataset d(schema);
  AppendRows(&d, {0, 0, 0}, 5 + bump);
  AppendRows(&d, {1, 1, 1}, 4);
  AppendRows(&d, {0, 2, 1}, 3);
  return d;
}

CubeStore SmallStore(int64_t bump = 0) {
  auto store = CubeBuilder::FromDataset(SmallDataset(bump));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.MoveValue();
}

std::string SerializeStore(const CubeStore& store) {
  std::ostringstream buf;
  auto st = store.Save(&buf);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return buf.str();
}

std::string SerializeDataset(const Dataset& d) {
  std::ostringstream buf;
  auto st = SaveDataset(d, &buf);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return buf.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// CRC32C and container primitives
// ---------------------------------------------------------------------------

TEST(Crc32c, KnownAnswer) {
  // The standard CRC-32C check value for the ASCII digits "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "opportunity map rule cubes";
  const uint32_t one_shot = Crc32c(data.data(), data.size());
  const uint32_t first = Crc32c(data.data(), 10);
  EXPECT_EQ(Crc32c(data.data() + 10, data.size() - 10, first), one_shot);
}

TEST(Container, RoundTrip) {
  const char magic[4] = {'T', 'E', 'S', 'T'};
  std::vector<Section> sections;
  sections.push_back(Section{"alpha", 3, "payload-one"});
  sections.push_back(Section{"beta", 0, ""});
  sections.push_back(Section{"gamma", 42, std::string(1000, '\7')});
  const std::string bytes = SerializeAlignedContainer(magic, 2, sections);

  ASSERT_OK_AND_ASSIGN(
      std::vector<AlignedSection> parsed,
      ParseAndVerifyAlignedContainer(bytes.data(), bytes.size(), magic, 2));
  ASSERT_EQ(parsed.size(), 3u);
  auto payload = [&bytes](const AlignedSection& s) {
    return bytes.substr(static_cast<size_t>(s.offset),
                        static_cast<size_t>(s.size));
  };
  EXPECT_EQ(parsed[0].name, "alpha");
  EXPECT_EQ(parsed[0].record_count, 3u);
  EXPECT_EQ(payload(parsed[0]), "payload-one");
  EXPECT_EQ(payload(parsed[1]), "");
  EXPECT_EQ(payload(parsed[2]), std::string(1000, '\7'));
  for (const AlignedSection& s : parsed) {
    EXPECT_EQ(s.offset % kAlignedPayloadAlignment, 0u) << s.name;
  }

  ASSERT_OK_AND_ASSIGN(const AlignedSection* gamma,
                       FindAlignedSection(parsed, "gamma"));
  EXPECT_EQ(gamma->record_count, 42u);
  EXPECT_FALSE(FindAlignedSection(parsed, "missing").ok());

  // Padding lies outside every CRC: the header-only parse accepts a dirty
  // padding byte, the eager pass refuses it.
  std::string dirty = bytes;
  dirty[static_cast<size_t>(parsed[0].offset) - 1] = 'x';
  EXPECT_OK(
      ParseAlignedContainer(dirty.data(), dirty.size(), magic, 2).status());
  EXPECT_FALSE(
      ParseAndVerifyAlignedContainer(dirty.data(), dirty.size(), magic, 2)
          .ok());
}

TEST(Container, CorruptPayloadNamesTheSection) {
  const char magic[4] = {'T', 'E', 'S', 'T'};
  std::vector<Section> sections;
  sections.push_back(Section{"first", 0, std::string(64, 'A')});
  sections.push_back(Section{"second", 0, std::string(64, 'B')});
  const std::string bytes = SerializeAlignedContainer(magic, 1, sections);
  auto parse = [&magic](const std::string& b) {
    return ParseAndVerifyAlignedContainer(b.data(), b.size(), magic, 1);
  };

  // Both 64-byte payloads are aligned, so they sit back to back at the
  // tail; flip one byte in each.
  std::string corrupt_second = bytes;
  corrupt_second[bytes.size() - 1] ^= 0x10;
  Result<std::vector<AlignedSection>> r2 = parse(corrupt_second);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("'second'"), std::string::npos)
      << r2.status().ToString();

  std::string corrupt_first = bytes;
  corrupt_first[bytes.size() - 65] ^= 0x10;
  Result<std::vector<AlignedSection>> r1 = parse(corrupt_first);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("'first'"), std::string::npos)
      << r1.status().ToString();
}

TEST(Container, CorruptHeaderIsCaught) {
  const char magic[4] = {'T', 'E', 'S', 'T'};
  const std::string bytes =
      SerializeAlignedContainer(magic, 1, {Section{"only", 7, "data"}});
  // Byte 16 onward is the section table (magic, version, count, crc first).
  std::string corrupt = bytes;
  corrupt[16] ^= 0x01;
  EXPECT_FALSE(
      ParseAlignedContainer(corrupt.data(), corrupt.size(), magic, 1).ok());
}

TEST(Container, TrailingBytesRejected) {
  const char magic[4] = {'T', 'E', 'S', 'T'};
  std::string bytes =
      SerializeAlignedContainer(magic, 1, {Section{"only", 0, "data"}});
  bytes += "junk";
  EXPECT_FALSE(
      ParseAlignedContainer(bytes.data(), bytes.size(), magic, 1).ok());
}

// ---------------------------------------------------------------------------
// Fault injection: no failure point may leave a corrupt file visible
// ---------------------------------------------------------------------------

// Every failure point during a save over an existing snapshot must leave
// the previous snapshot readable (acceptance criterion a).
TEST(FaultInjection, SaveOverExistingFileNeverCorruptsIt) {
  const std::string path = TempPath("fault_existing.opmc");
  const CubeStore previous = SmallStore(0);
  ASSERT_OK(previous.SaveToFile(path));

  // Dry run through a counting env to learn how many ops one save costs.
  FaultInjectingEnv counter;
  const CubeStore next = SmallStore(10);
  ASSERT_OK(next.SaveToFile(path, &counter));
  ASSERT_OK(previous.SaveToFile(path));  // restore the "previous" snapshot

  const FaultOp kWriteSideOps[] = {FaultOp::kOpenWrite, FaultOp::kWrite,
                                   FaultOp::kSync, FaultOp::kRename};
  int failure_points = 0;
  for (FaultOp op : kWriteSideOps) {
    FaultInjectingEnv probe;
    // Ops per save of this kind (counted fresh per op so indices line up).
    ASSERT_OK(next.SaveToFile(TempPath("fault_probe.opmc"), &probe));
    const int64_t per_save = probe.OpCount(op);
    for (int64_t nth = 1; nth <= per_save; ++nth) {
      FaultInjectingEnv env;
      env.FailAt(op, nth, /*fail_forever=*/true);
      Status st = next.SaveToFile(path, &env);
      ASSERT_FALSE(st.ok())
          << "op " << static_cast<int>(op) << " #" << nth;
      ++failure_points;
      // The file visible at the target path must still be the previous,
      // fully valid snapshot.
      ASSERT_OK_AND_ASSIGN(CubeStore loaded, CubeStore::LoadFromFile(path));
      EXPECT_EQ(loaded.num_records(), previous.num_records())
          << "corrupt or wrong snapshot after failing op "
          << static_cast<int>(op) << " #" << nth;
    }
  }
  EXPECT_GE(failure_points, 3) << "sweep exercised too few failure points";
  std::remove(path.c_str());
}

// Saving to a fresh path that fails mid-way must not leave any file there.
TEST(FaultInjection, FailedSaveToFreshPathLeavesNoTargetFile) {
  const CubeStore store = SmallStore();

  FaultInjectingEnv counter;
  ASSERT_OK(store.SaveToFile(TempPath("fault_count.opmc"), &counter));
  const int64_t writes = counter.OpCount(FaultOp::kWrite);
  ASSERT_GE(writes, 1);

  for (int64_t nth = 1; nth <= writes; ++nth) {
    const std::string path =
        TempPath("fault_fresh_" + std::to_string(nth) + ".opmc");
    FaultInjectingEnv env;
    env.FailAt(FaultOp::kWrite, nth, /*fail_forever=*/true);
    ASSERT_FALSE(store.SaveToFile(path, &env).ok());
    EXPECT_FALSE(Env::Default()->FileExists(path))
        << "failed save published a file at the target path";
  }
}

// A transient failure (exactly one injected error) is absorbed by the
// retry-with-backoff policy and the save still lands intact.
TEST(FaultInjection, RetryAbsorbsTransientWriteFailure) {
  const std::string path = TempPath("fault_retry.opmc");
  const CubeStore store = SmallStore();

  FaultInjectingEnv env;
  env.FailAt(FaultOp::kWrite, 1, /*fail_forever=*/false);
  ASSERT_OK(store.SaveToFile(path, &env));
  EXPECT_EQ(env.InjectedFailures(), 1);

  ASSERT_OK_AND_ASSIGN(CubeStore loaded, CubeStore::LoadFromFile(path));
  EXPECT_EQ(loaded.num_records(), store.num_records());
  std::remove(path.c_str());
}

// A persistently failing disk exhausts the retries and surfaces the error.
TEST(FaultInjection, PersistentFailureExhaustsRetries) {
  const CubeStore store = SmallStore();
  FaultInjectingEnv env;
  env.FailAt(FaultOp::kSync, 1, /*fail_forever=*/true);
  Status st = store.SaveToFile(TempPath("fault_persistent.opmc"), &env);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_GE(env.InjectedFailures(), 2) << "retry did not re-attempt";
}

// Read-side faults surface as errors, never as partially loaded stores.
TEST(FaultInjection, ReadFailuresSurfaceAsErrors) {
  const std::string path = TempPath("fault_read.opmc");
  const CubeStore store = SmallStore();
  ASSERT_OK(store.SaveToFile(path));

  FaultInjectingEnv counter;
  ASSERT_OK_AND_ASSIGN(CubeStore ok_load,
                       CubeStore::LoadFromFile(path, &counter));
  EXPECT_EQ(ok_load.num_records(), store.num_records());
  const int64_t reads = counter.OpCount(FaultOp::kRead);
  ASSERT_GE(reads, 1);

  for (int64_t nth = 1; nth <= reads; ++nth) {
    FaultInjectingEnv env;
    env.FailAt(FaultOp::kRead, nth, /*fail_forever=*/true);
    EXPECT_FALSE(CubeStore::LoadFromFile(path, &env).ok())
        << "read failure #" << nth << " was swallowed";
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption sweeps (acceptance criterion b)
// ---------------------------------------------------------------------------

// Every single-bit flip anywhere in a dataset file must be caught.
TEST(CorruptionSweep, EveryBitFlipInDatasetFileIsCaught) {
  const std::string bytes = SerializeDataset(SmallDataset());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_FALSE(LoadDatasetFromBytes(flipped).ok())
          << "bit " << bit << " of byte " << i << " flipped silently";
    }
  }
}

TEST(CorruptionSweep, EveryTruncationOfDatasetFileIsCaught) {
  const std::string bytes = SerializeDataset(SmallDataset());
  ASSERT_OK(LoadDatasetFromBytes(bytes).status());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(LoadDatasetFromBytes(bytes.substr(0, len)).ok())
        << "truncation to " << len << " bytes loaded silently";
  }
}

// An ingest directory whose MANIFEST has been committed by a compaction
// (generation 2); returns the directory and the clean MANIFEST bytes.
std::string ManifestDir(const std::string& name, std::string* manifest) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  auto ing = Ingester::Create(nullptr, dir, SmallDataset().schema(),
                              IngestOptions{});
  EXPECT_TRUE(ing.ok()) << ing.status().ToString();
  EXPECT_OK((*ing)->AppendBatch(SmallDataset()).status());
  EXPECT_OK((*ing)->Compact());
  EXPECT_OK((*ing)->Close());
  EXPECT_OK(ReadFileToString(nullptr, dir + "/MANIFEST", manifest));
  return dir;
}

// Opening over a damaged MANIFEST must fail at the manifest itself: a flip
// that slipped past it could recover the wrong generation or replay the
// wrong WAL segments.
void ExpectManifestRefused(const std::string& dir, const std::string& bytes,
                           const std::string& what) {
  const std::string path = dir + "/MANIFEST";
  ASSERT_OK(AtomicWriteFile(nullptr, path, bytes));
  Result<std::unique_ptr<Ingester>> r =
      Ingester::Open(nullptr, dir, IngestOptions{});
  ASSERT_FALSE(r.ok()) << what << " opened the directory";
  EXPECT_NE(r.status().message().find("ingest manifest '" + path + "'"),
            std::string::npos)
      << what << ": " << r.status().ToString();
}

TEST(CorruptionSweep, EveryBitFlipInManifestIsRefused) {
  std::string bytes;
  const std::string dir = ManifestDir("manifest_flip_sweep", &bytes);
  ASSERT_FALSE(bytes.empty());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      ExpectManifestRefused(dir, flipped,
                            "flip of byte " + std::to_string(i) + " bit " +
                                std::to_string(bit));
    }
  }
  // The clean manifest still recovers the committed generation.
  ASSERT_OK(AtomicWriteFile(nullptr, dir + "/MANIFEST", bytes));
  ASSERT_OK_AND_ASSIGN(auto ing, Ingester::Open(nullptr, dir, IngestOptions{}));
  EXPECT_EQ(ing->GetStats().cube_generation, 2u);
  ASSERT_OK(ing->Close());
}

TEST(CorruptionSweep, EveryTruncationOfManifestIsRefused) {
  std::string bytes;
  const std::string dir = ManifestDir("manifest_truncation_sweep", &bytes);
  ASSERT_FALSE(bytes.empty());
  for (size_t len = 0; len < bytes.size(); ++len) {
    ExpectManifestRefused(dir, bytes.substr(0, len),
                          "truncation to " + std::to_string(len) + " bytes");
  }
}

// Random multi-byte corruption, fixed seed: a fuzz loop over save/corrupt/
// load that must never produce a wrong-valued cube (silent success with
// altered counts would be the catastrophic outcome).
TEST(CorruptionSweep, RandomCorruptionFuzzNeverYieldsWrongCounts) {
  const CubeStore store = SmallStore();
  const std::string bytes = SerializeStore(store);
  ASSERT_OK_AND_ASSIGN(const RuleCube* reference, store.AttrCube(0));

  uint64_t rng = 0x9E3779B97F4A7C15ull;  // fixed seed, splitmix64 steps
  auto next = [&rng]() {
    rng += 0x9E3779B97F4A7C15ull;
    uint64_t z = rng;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };

  for (int trial = 0; trial < 2000; ++trial) {
    std::string corrupt = bytes;
    const int edits = 1 + static_cast<int>(next() % 4);
    for (int e = 0; e < edits; ++e) {
      corrupt[next() % corrupt.size()] ^= static_cast<char>(next() % 255 + 1);
    }
    Result<CubeStore> r = CubeStore::LoadFromBytes(corrupt);
    if (!r.ok()) continue;  // caught: good
    // Only acceptable OK outcome: the edits cancelled out to the original
    // bytes (xor with 0 is excluded, so this cannot happen) — if a load
    // succeeds the counts must still be byte-identical to the original.
    ASSERT_OK_AND_ASSIGN(const RuleCube* cube, r->AttrCube(0));
    for (int64_t i = 0; i < reference->num_cells(); ++i) {
      ASSERT_EQ(cube->raw_counts()[i], reference->raw_counts()[i])
          << "corruption trial " << trial << " loaded with wrong counts";
    }
  }
}

// ---------------------------------------------------------------------------
// Env plumbing
// ---------------------------------------------------------------------------

TEST(EnvTest, ReadFileToStringEnforcesBound) {
  const std::string path = TempPath("bounded_read.bin");
  ASSERT_OK(AtomicWriteFile(nullptr, path, std::string(4096, 'x')));
  std::string content;
  ASSERT_OK(ReadFileToString(nullptr, path, &content));
  EXPECT_EQ(content.size(), 4096u);
  Status st = ReadFileToString(nullptr, path, &content, /*max_bytes=*/100);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(EnvTest, AtomicWriteFileReplacesAtomically) {
  const std::string path = TempPath("atomic_replace.bin");
  ASSERT_OK(AtomicWriteFile(nullptr, path, "first"));
  ASSERT_OK(AtomicWriteFile(nullptr, path, "second"));
  std::string content;
  ASSERT_OK(ReadFileToString(nullptr, path, &content));
  EXPECT_EQ(content, "second");
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(EnvTest, RetryWithBackoffStopsOnNonTransientCodes) {
  int calls = 0;
  Status st = RetryWithBackoff(nullptr, RetryPolicy{},
                               [&calls]() -> Status {
                                 ++calls;
                                 return Status::InvalidArgument("permanent");
                               });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(calls, 1) << "non-transient errors must not be retried";
}

// ---------------------------------------------------------------------------
// Cube stores: corruption sweeps over the eager and mapped paths
// ---------------------------------------------------------------------------

// Plain unsynced write: the sweeps below exercise the *read* path against
// pre-made corrupt images, so AtomicWriteFile's fsync dance is pure cost.
void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Flattens every materialized attr and pair cube of `store` into one count
// vector; on a mapped store this forces lazy verification of each payload.
Result<std::vector<int64_t>> DumpAllCounts(const CubeStore& store) {
  std::vector<int64_t> out;
  const int num_attrs = store.schema().num_attributes();
  for (int a = 0; a < num_attrs; ++a) {
    if (store.schema().is_class(a)) continue;
    OPMAP_ASSIGN_OR_RETURN(const RuleCube* cube, store.AttrCube(a));
    out.insert(out.end(), cube->raw_counts(),
               cube->raw_counts() + cube->num_cells());
  }
  for (int a = 0; a < num_attrs; ++a) {
    if (store.schema().is_class(a)) continue;
    for (int b = a + 1; b < num_attrs; ++b) {
      if (store.schema().is_class(b)) continue;
      OPMAP_ASSIGN_OR_RETURN(const RuleCube* cube, store.PairCube(a, b));
      out.insert(out.end(), cube->raw_counts(),
                 cube->raw_counts() + cube->num_cells());
    }
  }
  return out;
}

// The eager loader verifies every byte of an image up front (section
// CRCs, per-cube payload CRCs, zeroed alignment padding), so no single-bit
// corruption anywhere in the file may load, and damage is attributed to a
// named section.
TEST(V3CorruptionSweep, EveryBitFlipFailsEagerLoad) {
  const std::string bytes = SerializeStore(SmallStore());
  ASSERT_OK(CubeStore::LoadFromBytes(bytes).status());

  bool saw_section_error = false;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] ^= static_cast<char>(1 << bit);
      Result<CubeStore> r = CubeStore::LoadFromBytes(flipped);
      ASSERT_FALSE(r.ok()) << "flip of byte " << i << " bit " << bit
                           << " produced a loadable store";
      if (r.status().message().find("section '") != std::string::npos) {
        saw_section_error = true;
      }
    }
  }
  EXPECT_TRUE(saw_section_error)
      << "no corruption was attributed to a named section";
}

TEST(V3CorruptionSweep, EveryTruncationFailsEagerLoad) {
  const std::string bytes = SerializeStore(SmallStore());
  for (size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_FALSE(CubeStore::LoadFromBytes(bytes.substr(0, len)).ok())
        << "truncation to " << len << " bytes produced a loadable store";
  }
}

// The mapped loader defers payload verification to first cube access, so a
// corrupt image may *load* — but it must never serve wrong counts: every
// flip and truncation either fails the load, fails the first access to a
// damaged cube, or (flips in lazily-skipped padding) leaves every count
// byte-identical to the clean baseline.
TEST(V3CorruptionSweep, MappedLoadNeverServesWrongCounts) {
  const CubeStore original = SmallStore();
  const std::string bytes = SerializeStore(original);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> baseline,
                       DumpAllCounts(original));
  const std::string path = TempPath("v3_mapped_sweep.opmc");

  WriteRaw(path, bytes);
  {
    ASSERT_OK_AND_ASSIGN(CubeStore mapped, CubeStore::LoadFromFile(path));
    ASSERT_OK_AND_ASSIGN(std::vector<int64_t> counts, DumpAllCounts(mapped));
    ASSERT_EQ(counts, baseline) << "clean mapped load disagrees with source";
  }

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= static_cast<char>(1 << (i % 8));
    WriteRaw(path, flipped);
    Result<CubeStore> mapped = CubeStore::LoadFromFile(path);
    if (!mapped.ok()) continue;  // rejected at load time: fine
    Result<std::vector<int64_t>> counts = DumpAllCounts(*mapped);
    if (!counts.ok()) continue;  // rejected at first cube access: fine
    EXPECT_EQ(*counts, baseline)
        << "flip of byte " << i << " served corrupt counts";
  }

  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteRaw(path, bytes.substr(0, len));
    Result<CubeStore> mapped = CubeStore::LoadFromFile(path);
    if (!mapped.ok()) continue;
    Result<std::vector<int64_t>> counts = DumpAllCounts(*mapped);
    if (!counts.ok()) continue;
    EXPECT_EQ(*counts, baseline)
        << "truncation to " << len << " served corrupt counts";
  }
  std::remove(path.c_str());
}

// Acceptance: a corrupt payload in a cube the query never touches must not
// block the mapped load or poison the cubes that *are* queried; only the
// damaged cube's own accessor fails, and it fails on every retry.
TEST(V3Acceptance, CorruptUnqueriedCubePayloadStillServesOthers) {
  Schema schema = MakeSchema({{"a", {"x", "y"}},
                              {"b", {"p", "q", "r"}},
                              {"c", {"u", "v"}},
                              {"outcome", {"ok", "bad"}}});
  Dataset d(schema);
  AppendRows(&d, {0, 0, 0, 0}, 6);
  AppendRows(&d, {1, 1, 1, 1}, 5);
  AppendRows(&d, {0, 2, 1, 1}, 4);
  AppendRows(&d, {1, 0, 0, 1}, 3);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));

  // The writer pads *before* each cube payload, so the file's last byte
  // is the final count byte of the last pair cube (b,c): corrupt just it.
  std::string bytes = SerializeStore(store);
  bytes[bytes.size() - 1] ^= 0x01;
  const std::string path = TempPath("v3_corrupt_tail.opmc");
  WriteRaw(path, bytes);

  CubeLoadOptions eager;
  eager.use_mmap = false;
  EXPECT_FALSE(CubeStore::LoadFromFile(path, nullptr, eager).ok())
      << "the eager load verifies every payload and must reject the file";

  ASSERT_OK_AND_ASSIGN(CubeStore mapped, CubeStore::LoadFromFile(path));
  const MappingStats at_load = mapped.GetMappingStats();
  EXPECT_TRUE(at_load.mapped);
  EXPECT_EQ(at_load.cubes_verified, 0)
      << "the mapped load must not have touched any payload";

  auto expect_same = [](const RuleCube* want, const RuleCube* got) {
    ASSERT_EQ(got->num_cells(), want->num_cells());
    EXPECT_EQ(std::memcmp(got->raw_counts(), want->raw_counts(),
                          static_cast<size_t>(want->num_cells()) *
                              sizeof(int64_t)),
              0);
  };
  for (int a = 0; a < 3; ++a) {
    ASSERT_OK_AND_ASSIGN(const RuleCube* want, store.AttrCube(a));
    ASSERT_OK_AND_ASSIGN(const RuleCube* got, mapped.AttrCube(a));
    expect_same(want, got);
  }
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      if (a == 1 && b == 2) continue;  // the deliberately damaged cube
      ASSERT_OK_AND_ASSIGN(const RuleCube* want, store.PairCube(a, b));
      ASSERT_OK_AND_ASSIGN(const RuleCube* got, mapped.PairCube(a, b));
      expect_same(want, got);
    }
  }

  // The damaged cube fails its lazy CRC check, and the failure is sticky.
  EXPECT_FALSE(mapped.PairCube(1, 2).ok());
  EXPECT_FALSE(mapped.PairCube(1, 2).ok());

  const MappingStats after = mapped.GetMappingStats();
  EXPECT_EQ(after.cubes_verified, after.cubes_total - 1)
      << "every cube but the damaged one should have verified";
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Retired formats: refused by name and version
// ---------------------------------------------------------------------------

// The head of a file in a retired format: magic, version, then a v2-style
// section count and header CRC and some table bytes. Only the version
// matters — a reader must stop there, before any CRC or magic check could
// misreport the file as corrupt.
std::string OldHeader(const char magic[4], uint32_t version) {
  std::ostringstream out;
  out.write(magic, 4);
  BinaryWriter w(&out);
  w.WriteU32(version);
  w.WriteU32(2);           // section count
  w.WriteU32(0xDEADBEEF);  // header CRC
  out << std::string(64, '\0');
  return out.str();
}

TEST(OldFormats, RefusedByNameAndVersion) {
  enum class Reader { kCubesMapped, kCubesEager, kDataset, kManifest };
  struct Case {
    const char* name;
    const char magic[4];
    uint32_t version;
    Reader reader;
  };
  const Case cases[] = {
      {"v1 cube store, mapped", {'O', 'P', 'M', 'C'}, 1, Reader::kCubesMapped},
      {"v1 cube store, eager", {'O', 'P', 'M', 'C'}, 1, Reader::kCubesEager},
      {"v2 cube store, mapped", {'O', 'P', 'M', 'C'}, 2, Reader::kCubesMapped},
      {"v2 cube store, eager", {'O', 'P', 'M', 'C'}, 2, Reader::kCubesEager},
      {"v1 dataset", {'O', 'P', 'M', 'D'}, 1, Reader::kDataset},
      {"v2 dataset", {'O', 'P', 'M', 'D'}, 2, Reader::kDataset},
      {"v1 ingest manifest", {'O', 'P', 'M', 'M'}, 1, Reader::kManifest},
  };
  const std::string dir = TempPath("old_formats");
  ASSERT_OK(Env::Default()->CreateDir(dir));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        dir + "/" + (c.reader == Reader::kManifest ? "MANIFEST" : "old.bin");
    WriteRaw(path, OldHeader(c.magic, c.version));
    Status st;
    switch (c.reader) {
      case Reader::kCubesMapped:
        st = CubeStore::LoadFromFile(path).status();
        break;
      case Reader::kCubesEager:
        st = CubeStore::LoadFromFile(path, nullptr, CubeLoadOptions{false})
                 .status();
        break;
      case Reader::kDataset:
        st = LoadDatasetFromFile(path).status();
        break;
      case Reader::kManifest:
        st = Ingester::Open(nullptr, dir, IngestOptions{}).status();
        break;
    }
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    const std::string& msg = st.message();
    EXPECT_NE(msg.find("'" + path + "'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("version " + std::to_string(c.version)),
              std::string::npos)
        << msg;
    EXPECT_EQ(msg.find("CRC"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("magic"), std::string::npos) << msg;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace opmap
