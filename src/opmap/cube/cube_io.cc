#include <atomic>
#include <cstring>
#include <mutex>
#include <sstream>

#include "opmap/common/io.h"
#include "opmap/common/metrics.h"
#include "opmap/common/serde.h"
#include "opmap/common/trace.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset_io.h"

namespace opmap {

namespace {

constexpr char kCubeMagic[4] = {'O', 'P', 'M', 'C'};
constexpr uint32_t kCubeVersion = 3;

// Container section names; corruption errors cite these. The cube counts
// are an index + data pair (AppendArraySections): a per-cube CRC index plus
// one blob of 64-byte-aligned raw count arrays that can be served straight
// from a file mapping (docs/FORMATS.md).
constexpr char kSectionSchema[] = "schema";
constexpr char kSectionMeta[] = "meta";
constexpr char kSectionCubeIndex[] = "cube_index";
constexpr char kSectionCubeData[] = "cube_data";

// Prefixes a load error with the section it came from so operators know
// which part of the snapshot is damaged.
Status InSection(const char* section, Status st) {
  if (st.ok()) return st;
  return Status(st.code(),
                "section '" + std::string(section) + "': " + st.message());
}

std::string PayloadString(const char* data, const AlignedSection& s) {
  return std::string(data + s.offset, static_cast<size_t>(s.size));
}

}  // namespace

// Lazy serving state: the mapping plus one first-touch verification slot
// per cube. `state` is 0 until the cube's payload CRC has been checked,
// then 1 (ok) or 2 (corrupt) forever; the mutex serializes the check itself
// so concurrent queries CRC each payload at most once.
struct CubeStore::Mapped {
  std::unique_ptr<MappedRegion> region;
  struct Entry {
    uint64_t offset = 0;  // absolute file offset of the count array
    uint64_t size = 0;    // bytes
    uint32_t crc = 0;
    std::atomic<int> state{0};
  };
  std::unique_ptr<Entry[]> entries;
  int64_t num_entries = 0;
  std::mutex mu;
};

CubeStore::CubeStore() = default;
CubeStore::~CubeStore() = default;
CubeStore::CubeStore(CubeStore&&) noexcept = default;
CubeStore& CubeStore::operator=(CubeStore&&) noexcept = default;

// Reads the "meta" section: the attribute list, pair flag, record count
// and class counts. With `build_cubes` false it leaves the cube vectors
// empty (the caller builds views instead).
Status CubeStore::ReadMeta(BinaryReader* r, Schema schema, CubeStore* out,
                           bool build_cubes) {
  OPMAP_ASSIGN_OR_RETURN(uint64_t attr_count, r->ReadU64());
  CubeStoreOptions options;
  for (uint64_t i = 0; i < attr_count; ++i) {
    OPMAP_ASSIGN_OR_RETURN(int32_t a, r->ReadI32());
    options.attributes.push_back(a);
  }
  OPMAP_ASSIGN_OR_RETURN(uint8_t has_pairs, r->ReadU8());
  options.build_pair_cubes = has_pairs != 0;

  if (build_cubes) {
    // Allocate the zeroed store with the same layout, then fill counts.
    OPMAP_ASSIGN_OR_RETURN(CubeBuilder builder,
                           CubeBuilder::Make(std::move(schema), options));
    *out = std::move(builder).Finish();
  } else {
    OPMAP_RETURN_NOT_OK(out->InitLayout(std::move(schema), options));
  }

  OPMAP_ASSIGN_OR_RETURN(out->num_records_, r->ReadI64());
  if (out->num_records_ < 0) return Status::IOError("negative record count");
  OPMAP_ASSIGN_OR_RETURN(out->class_counts_, r->ReadI64Vector());
  if (out->class_counts_.size() !=
      static_cast<size_t>(out->schema_.num_classes())) {
    return Status::IOError("class count vector does not match schema");
  }
  return Status::OK();
}

// Parses the schema, meta and cube_index sections into a store plus one
// located count array per cube: zeroed owned cubes, or with `views` views
// of the count arrays in `data`, built once each with no cell allocated.
// The caller must have CRC-verified those three sections already;
// cube_data payload bytes are not touched. Validates every cube's cell
// count against the store's shape.
Status CubeStore::ParseSkeleton(const char* data,
                                const std::vector<AlignedSection>& sections,
                                bool views, CubeStore* store,
                                std::vector<AlignedArray>* cubes) {
  OPMAP_ASSIGN_OR_RETURN(const AlignedSection* schema_sec,
                         FindAlignedSection(sections, kSectionSchema));
  const std::string schema_payload = PayloadString(data, *schema_sec);
  std::istringstream schema_in(schema_payload);
  Result<Schema> schema = ReadSchema(&schema_in);
  if (!schema.ok()) return InSection(kSectionSchema, schema.status());

  OPMAP_ASSIGN_OR_RETURN(const AlignedSection* meta_sec,
                         FindAlignedSection(sections, kSectionMeta));
  const std::string meta_payload = PayloadString(data, *meta_sec);
  std::istringstream meta_in(meta_payload);
  BinaryReader meta_reader(&meta_in, meta_payload.size());
  OPMAP_RETURN_NOT_OK(InSection(
      kSectionMeta,
      ReadMeta(&meta_reader, std::move(schema).MoveValue(), store,
               /*build_cubes=*/!views)));

  // The cubes in store order: one (attribute, class) cube per attribute,
  // then the (a, b, class) cubes of the upper triangle.
  const int64_t num_attr = static_cast<int64_t>(store->attributes_.size());
  const int class_index = store->schema_.class_index();
  std::vector<std::vector<int>> dims;
  dims.reserve(static_cast<size_t>(num_attr));
  for (int a : store->attributes_) dims.push_back({a, class_index});
  if (store->has_pair_cubes_) {
    for (size_t i = 0; i < store->attributes_.size(); ++i) {
      for (size_t j = i + 1; j < store->attributes_.size(); ++j) {
        dims.push_back(
            {store->attributes_[i], store->attributes_[j], class_index});
      }
    }
  }
  const auto num_cubes = static_cast<int64_t>(dims.size());
  OPMAP_ASSIGN_OR_RETURN(
      *cubes, ParseArraySections(
                  data, sections, kSectionCubeIndex, kSectionCubeData,
                  std::vector<size_t>(dims.size(), sizeof(int64_t))));

  if (views) {
    store->attr_cubes_.reserve(static_cast<size_t>(num_attr));
    store->pair_cubes_.reserve(static_cast<size_t>(num_cubes - num_attr));
  }
  for (int64_t i = 0; i < num_cubes; ++i) {
    std::vector<int>& cube_dims = dims[static_cast<size_t>(i)];
    const AlignedArray& cube = (*cubes)[static_cast<size_t>(i)];
    uint64_t shape_cells = 1;
    for (int a : cube_dims) {
      shape_cells *=
          static_cast<uint64_t>(store->schema_.attribute(a).domain());
    }
    if (cube.count != shape_cells) {
      return Status::IOError("cube " + std::to_string(i) +
                             ": cell count mismatch (file does not match "
                             "schema)");
    }
    if (views) {
      OPMAP_ASSIGN_OR_RETURN(
          RuleCube view,
          RuleCube::MakeView(
              store->schema_, std::move(cube_dims),
              reinterpret_cast<const int64_t*>(data + cube.offset),
              static_cast<int64_t>(cube.count)));
      (i < num_attr ? store->attr_cubes_ : store->pair_cubes_)
          .push_back(std::move(view));
    }
  }
  return Status::OK();
}

// Full eager verification + copy, also behind LoadFromFile with
// use_mmap=false. The container pass verifies every section CRC and that
// all padding is zero, so any single-bit flip anywhere in the file is
// caught; then counts are copied into owned cubes.
Result<CubeStore> CubeStore::LoadFromBytes(const std::string& bytes) {
  const char* data = bytes.data();
  OPMAP_ASSIGN_OR_RETURN(std::vector<AlignedSection> sections,
                         ParseAndVerifyAlignedContainer(
                             data, bytes.size(), kCubeMagic, kCubeVersion));

  CubeStore store;
  std::vector<AlignedArray> cubes;
  OPMAP_RETURN_NOT_OK(
      ParseSkeleton(data, sections, /*views=*/false, &store, &cubes));
  const auto num_attr = static_cast<int64_t>(store.attr_cubes_.size());
  for (size_t i = 0; i < cubes.size(); ++i) {
    const AlignedArray& e = cubes[i];
    RuleCube& cube = static_cast<int64_t>(i) < num_attr
                         ? store.attr_cubes_[i]
                         : store.pair_cubes_[i - static_cast<size_t>(num_attr)];
    const char* src = data + e.offset;
    const size_t nbytes = static_cast<size_t>(e.count) * sizeof(int64_t);
    // The cube's own CRC was already covered by the cube_data section CRC;
    // re-check it so an internally inconsistent index fails here like it
    // would on the lazy path.
    if (Crc32c(src, nbytes) != e.crc) {
      return Status::IOError("cube " + std::to_string(i) +
                             " payload CRC mismatch: the file is corrupt");
    }
    std::memcpy(cube.raw_counts(), src, nbytes);
    for (int64_t c = 0; c < cube.num_cells(); ++c) {
      if (cube.raw_counts()[c] < 0) {
        return Status::IOError("negative cube count");
      }
    }
  }
  return store;
}

// Lazy mapped load: O(#cubes) after verifying only the header and the three
// metadata sections. Cube count payloads are never read here — each is
// CRC-verified on its first AttrCube/PairCube access.
Result<CubeStore> CubeStore::LoadMapped(const std::string& path, Env* env) {
  OPMAP_TRACE_SPAN("cube.load_mapped");
  OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                         env->MapFile(path));
  OPMAP_ASSIGN_OR_RETURN(
      std::vector<AlignedSection> sections,
      ParseAlignedContainer(region->data(), region->size(), kCubeMagic,
                            kCubeVersion));
  for (const char* name :
       {kSectionSchema, kSectionMeta, kSectionCubeIndex}) {
    OPMAP_ASSIGN_OR_RETURN(const AlignedSection* sec,
                           FindAlignedSection(sections, name));
    OPMAP_RETURN_NOT_OK(VerifyAlignedPayload(region->data(), *sec));
  }

  // Every cube is a view of the mapping. No payload byte is touched.
  CubeStore store;
  std::vector<AlignedArray> cubes;
  OPMAP_RETURN_NOT_OK(ParseSkeleton(region->data(), sections,
                                    /*views=*/true, &store, &cubes));

  auto mapped = std::make_unique<Mapped>();
  mapped->num_entries = static_cast<int64_t>(cubes.size());
  mapped->entries = std::make_unique<Mapped::Entry[]>(cubes.size());
  for (size_t i = 0; i < cubes.size(); ++i) {
    mapped->entries[i].offset = cubes[i].offset;
    mapped->entries[i].size = cubes[i].count * sizeof(int64_t);
    mapped->entries[i].crc = cubes[i].crc;
  }
  mapped->region = std::move(region);
  store.mapped_ = std::move(mapped);
  return store;
}

Status CubeStore::VerifyMappedCube(int64_t index) const {
  if (mapped_ == nullptr) return Status::OK();
  Mapped::Entry& e = mapped_->entries[index];
  int s = e.state.load(std::memory_order_acquire);
  if (s == 0) {
    OPMAP_TRACE_SPAN("cube.verify");
    std::lock_guard<std::mutex> lock(mapped_->mu);
    s = e.state.load(std::memory_order_relaxed);
    if (s == 0) {
      static Counter* const verified =
          MetricsRegistry::Global()->counter("store.cubes_verified");
      verified->Increment();
      const char* p = mapped_->region->data() + e.offset;
      bool ok = Crc32c(p, static_cast<size_t>(e.size)) == e.crc;
      if (ok) {
        const auto* counts = reinterpret_cast<const int64_t*>(p);
        for (uint64_t c = 0; c < e.size / sizeof(int64_t); ++c) {
          if (counts[c] < 0) {
            ok = false;
            break;
          }
        }
      }
      s = ok ? 1 : 2;
      e.state.store(s, std::memory_order_release);
    }
  }
  if (s == 2) {
    const auto num_attr = static_cast<int64_t>(attr_cubes_.size());
    const std::string which =
        index < num_attr
            ? "attr cube " + std::to_string(index)
            : "pair cube " + std::to_string(index - num_attr);
    return Status::IOError(which + " payload CRC mismatch: the mapped cube "
                           "store is corrupt");
  }
  return Status::OK();
}

MappingStats CubeStore::GetMappingStats() const {
  MappingStats stats;
  if (mapped_ == nullptr) return stats;
  stats.mapped = true;
  stats.is_mmap = mapped_->region->is_mmap();
  stats.bytes_mapped = static_cast<int64_t>(mapped_->region->size());
  stats.bytes_resident = mapped_->region->ResidentBytes();
  stats.cubes_total = mapped_->num_entries;
  for (int64_t i = 0; i < mapped_->num_entries; ++i) {
    if (mapped_->entries[i].state.load(std::memory_order_acquire) == 1) {
      ++stats.cubes_verified;
    }
  }
  // Mirror the per-store figures onto the process-wide registry so
  // --stats shows the serving state without a CubeStore handle.
  MetricsRegistry* const metrics = MetricsRegistry::Global();
  metrics->gauge("store.bytes_mapped")->Set(stats.bytes_mapped);
  metrics->gauge("store.bytes_resident")->Set(stats.bytes_resident);
  metrics->gauge("store.cubes_total")->Set(stats.cubes_total);
  return stats;
}

std::string CubeStore::Serialize() const {
  std::vector<Section> sections;
  {
    std::ostringstream schema_out;
    WriteSchema(schema_, &schema_out);
    sections.push_back(Section{kSectionSchema,
                               static_cast<uint64_t>(attributes_.size()),
                               schema_out.str()});
  }
  {
    std::ostringstream meta_out;
    BinaryWriter w(&meta_out);
    w.WriteU64(attributes_.size());
    for (int a : attributes_) w.WriteI32(a);
    w.WriteU8(has_pair_cubes_ ? 1 : 0);
    w.WriteI64(num_records_);
    w.WriteI64Vector(class_counts_);
    sections.push_back(Section{kSectionMeta,
                               static_cast<uint64_t>(num_records_),
                               meta_out.str()});
  }
  std::vector<ArrayRef> counts;
  counts.reserve(attr_cubes_.size() + pair_cubes_.size());
  for (const std::vector<RuleCube>* cubes : {&attr_cubes_, &pair_cubes_}) {
    for (const RuleCube& cube : *cubes) {
      counts.push_back(ArrayRef{cube.raw_counts(),
                                static_cast<uint64_t>(cube.num_cells()),
                                sizeof(int64_t)});
    }
  }
  AppendArraySections(kSectionCubeIndex, kSectionCubeData, counts, &sections);
  return SerializeAlignedContainer(kCubeMagic, kCubeVersion, sections);
}

Status CubeStore::Save(std::ostream* out, SaveFormat /*format*/) const {
  const std::string bytes = Serialize();
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out->flush();
  if (!out->good()) {
    return Status::IOError("write failure while saving cubes (disk full or "
                           "stream closed)");
  }
  return Status::OK();
}

Status CubeStore::SaveToFile(const std::string& path, Env* env) const {
  OPMAP_TRACE_SPAN("cube.save_store");
  return AtomicWriteFile(env, path, Serialize());
}

Result<CubeStore> CubeStore::LoadFromFile(const std::string& path, Env* env,
                                          const CubeLoadOptions& options) {
  OPMAP_TRACE_SPAN("cube.load_store");
  if (env == nullptr) env = Env::Default();
  Result<CubeStore> store = [&]() -> Result<CubeStore> {
    if (options.use_mmap) return LoadMapped(path, env);
    std::string bytes;
    OPMAP_RETURN_NOT_OK(ReadFileToString(env, path, &bytes));
    return LoadFromBytes(bytes);
  }();
  if (!store.ok()) {
    return Status(store.status().code(),
                  "cube store '" + path + "': " + store.status().message());
  }
  return store;
}

}  // namespace opmap
