#include <algorithm>
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
constexpr uint32_t kCubeVersionV1 = 1;
constexpr uint32_t kCubeVersionV2 = 2;
constexpr uint32_t kCubeVersionV3 = 3;

// Container section names; corruption errors cite these. v2 stores schema,
// meta and the length-prefixed cube payloads; v3 keeps schema/meta and
// replaces the cube sections with a per-cube CRC index plus one blob of
// 64-byte-aligned raw count arrays that can be served straight from a file
// mapping (docs/FORMATS.md).
constexpr char kSectionSchema[] = "schema";
constexpr char kSectionMeta[] = "meta";
constexpr char kSectionAttrCubes[] = "attr_cubes";
constexpr char kSectionPairCubes[] = "pair_cubes";
constexpr char kSectionCubeIndex[] = "cube_index";
constexpr char kSectionCubeData[] = "cube_data";

// Prefixes a load error with the section it came from so operators know
// which part of the snapshot is damaged.
Status InSection(const char* section, Status st) {
  if (st.ok()) return st;
  return Status(st.code(),
                "section '" + std::string(section) + "': " + st.message());
}

// Serializes one cube's count array (v1/v2 encoding). Shape is implied by
// the store's schema plus the cube's attribute list, so only counts are
// stored.
void WriteCubeCounts(const RuleCube& cube, BinaryWriter* w) {
  w->WriteU64(static_cast<uint64_t>(cube.num_cells()));
  for (int64_t i = 0; i < cube.num_cells(); ++i) {
    w->WriteI64(cube.raw_counts()[i]);
  }
}

Status ReadCubeCounts(BinaryReader* r, RuleCube* cube) {
  OPMAP_ASSIGN_OR_RETURN(uint64_t cells, r->ReadU64());
  if (cells != static_cast<uint64_t>(cube->num_cells())) {
    return Status::IOError("cube cell count mismatch (file does not match "
                           "schema)");
  }
  for (uint64_t i = 0; i < cells; ++i) {
    OPMAP_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
    if (v < 0) return Status::IOError("negative cube count");
    cube->raw_counts()[i] = v;
  }
  return Status::OK();
}

void AppendAlignmentPadding(std::string* s) {
  const size_t rem = s->size() % kAlignedPayloadAlignment;
  if (rem != 0) s->append(kAlignedPayloadAlignment - rem, '\0');
}

std::string PayloadString(const char* data, const AlignedSection& s) {
  return std::string(data + s.offset, static_cast<size_t>(s.size));
}

}  // namespace

// Lazy v3 serving state: the mapping plus one first-touch verification slot
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

// Reads the store body that follows the schema in both versions: the
// attribute list, pair flag, record count, class counts and cube counts.
// v1 lays these fields out back to back after the schema; v2/v3 split them
// into the "meta" and cube sections but keep the field encoding.
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

Result<CubeStore> CubeStore::LoadV2(const std::string& bytes) {
  OPMAP_ASSIGN_OR_RETURN(std::vector<Section> sections,
                         ParseContainer(bytes, kCubeMagic, kCubeVersionV2));

  OPMAP_ASSIGN_OR_RETURN(const Section* schema_sec,
                         FindSection(sections, kSectionSchema));
  std::istringstream schema_in(schema_sec->payload);
  Result<Schema> schema = ReadSchema(&schema_in);
  if (!schema.ok()) return InSection(kSectionSchema, schema.status());

  OPMAP_ASSIGN_OR_RETURN(const Section* meta_sec,
                         FindSection(sections, kSectionMeta));
  std::istringstream meta_in(meta_sec->payload);
  BinaryReader meta_reader(&meta_in, meta_sec->payload.size());
  CubeStore store;
  OPMAP_RETURN_NOT_OK(InSection(
      kSectionMeta,
      ReadMeta(&meta_reader, std::move(schema).MoveValue(), &store)));

  OPMAP_ASSIGN_OR_RETURN(const Section* attr_sec,
                         FindSection(sections, kSectionAttrCubes));
  if (attr_sec->record_count != store.attr_cubes_.size()) {
    return Status::IOError("section 'attr_cubes' holds " +
                           std::to_string(attr_sec->record_count) +
                           " cubes, schema implies " +
                           std::to_string(store.attr_cubes_.size()));
  }
  std::istringstream attr_in(attr_sec->payload);
  BinaryReader attr_reader(&attr_in, attr_sec->payload.size());
  for (RuleCube& cube : store.attr_cubes_) {
    OPMAP_RETURN_NOT_OK(
        InSection(kSectionAttrCubes, ReadCubeCounts(&attr_reader, &cube)));
  }

  OPMAP_ASSIGN_OR_RETURN(const Section* pair_sec,
                         FindSection(sections, kSectionPairCubes));
  if (pair_sec->record_count != store.pair_cubes_.size()) {
    return Status::IOError("section 'pair_cubes' holds " +
                           std::to_string(pair_sec->record_count) +
                           " cubes, schema implies " +
                           std::to_string(store.pair_cubes_.size()));
  }
  std::istringstream pair_in(pair_sec->payload);
  BinaryReader pair_reader(&pair_in, pair_sec->payload.size());
  for (RuleCube& cube : store.pair_cubes_) {
    OPMAP_RETURN_NOT_OK(
        InSection(kSectionPairCubes, ReadCubeCounts(&pair_reader, &cube)));
  }
  return store;
}

// Seed format: all fields back to back with no checksums. `r` is
// positioned just past the magic and version.
Result<CubeStore> CubeStore::LoadV1(BinaryReader* r, std::istream* in) {
  OPMAP_ASSIGN_OR_RETURN(Schema schema, ReadSchema(in));
  CubeStore store;
  OPMAP_RETURN_NOT_OK(ReadMeta(r, std::move(schema), &store));
  for (RuleCube& cube : store.attr_cubes_) {
    OPMAP_RETURN_NOT_OK(ReadCubeCounts(r, &cube));
  }
  for (RuleCube& cube : store.pair_cubes_) {
    OPMAP_RETURN_NOT_OK(ReadCubeCounts(r, &cube));
  }
  return store;
}

// Parses the schema, meta and cube_index sections of a v3 container into a
// store plus one index entry per cube: zeroed owned cubes, or with `views`
// views of the count arrays in `data`, built once each with no cell
// allocated. The caller must have CRC-verified those three sections
// already; cube_data payload bytes are not touched. Validates every index
// entry against the store's shape and the cube_data range.
Status CubeStore::ParseV3Skeleton(const char* data,
                                  const std::vector<AlignedSection>& sections,
                                  bool views, CubeStore* store,
                                  std::vector<V3CubeEntry>* entries) {
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

  OPMAP_ASSIGN_OR_RETURN(const AlignedSection* index_sec,
                         FindAlignedSection(sections, kSectionCubeIndex));
  OPMAP_ASSIGN_OR_RETURN(const AlignedSection* data_sec,
                         FindAlignedSection(sections, kSectionCubeData));
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
  if (index_sec->record_count != static_cast<uint64_t>(num_cubes)) {
    return Status::IOError("section 'cube_index' holds " +
                           std::to_string(index_sec->record_count) +
                           " cubes, schema implies " +
                           std::to_string(num_cubes));
  }
  const std::string index_payload = PayloadString(data, *index_sec);
  std::istringstream index_in(index_payload);
  BinaryReader index_reader(&index_in, index_payload.size());

  entries->clear();
  entries->reserve(static_cast<size_t>(num_cubes));
  if (views) {
    store->attr_cubes_.reserve(static_cast<size_t>(num_attr));
    store->pair_cubes_.reserve(static_cast<size_t>(num_cubes - num_attr));
  }
  for (int64_t i = 0; i < num_cubes; ++i) {
    std::vector<int>& cube_dims = dims[static_cast<size_t>(i)];
    uint64_t shape_cells = 1;
    for (int a : cube_dims) {
      shape_cells *=
          static_cast<uint64_t>(store->schema_.attribute(a).domain());
    }
    V3CubeEntry e;
    uint64_t rel_offset = 0;
    {
      Result<uint64_t> r = index_reader.ReadU64();
      if (!r.ok()) return InSection(kSectionCubeIndex, r.status());
      rel_offset = r.value();
    }
    {
      Result<uint64_t> r = index_reader.ReadU64();
      if (!r.ok()) return InSection(kSectionCubeIndex, r.status());
      e.cells = r.value();
    }
    {
      Result<uint32_t> r = index_reader.ReadU32();
      if (!r.ok()) return InSection(kSectionCubeIndex, r.status());
      e.crc = r.value();
    }
    if (e.cells != shape_cells) {
      return Status::IOError("cube " + std::to_string(i) +
                             ": cell count mismatch (file does not match "
                             "schema)");
    }
    if (rel_offset % kAlignedPayloadAlignment != 0) {
      return Status::IOError("cube " + std::to_string(i) +
                             ": payload offset is not aligned");
    }
    const uint64_t bytes = e.cells * sizeof(int64_t);
    if (bytes > data_sec->size || rel_offset > data_sec->size - bytes) {
      return Status::IOError("cube " + std::to_string(i) +
                             ": payload range exceeds the 'cube_data' "
                             "section");
    }
    e.abs_offset = data_sec->offset + rel_offset;
    entries->push_back(e);
    if (views) {
      OPMAP_ASSIGN_OR_RETURN(
          RuleCube view,
          RuleCube::MakeView(
              store->schema_, std::move(cube_dims),
              reinterpret_cast<const int64_t*>(data + e.abs_offset),
              static_cast<int64_t>(e.cells)));
      (i < num_attr ? store->attr_cubes_ : store->pair_cubes_)
          .push_back(std::move(view));
    }
  }
  return Status::OK();
}

// Full eager verification + copy: used by LoadFromBytes on v3 and by
// LoadFromFile with use_mmap=false. Verifies every section payload CRC and
// that all alignment padding is zero, so any single-bit flip anywhere in
// the file is caught (parity with the v2 loader), then copies counts into
// owned cubes.
Result<CubeStore> CubeStore::LoadV3Eager(const std::string& bytes) {
  size_t header_size = 0;
  OPMAP_ASSIGN_OR_RETURN(
      std::vector<AlignedSection> sections,
      ParseAlignedContainer(bytes.data(), bytes.size(), kCubeMagic,
                            kCubeVersionV3, &header_size));
  for (const AlignedSection& s : sections) {
    OPMAP_RETURN_NOT_OK(VerifyAlignedPayload(bytes.data(), s));
  }
  // Padding between the table and the payloads is outside every CRC; it
  // must be all zeros or the file was tampered with.
  {
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    covered.emplace_back(0, header_size);
    for (const AlignedSection& s : sections) {
      covered.emplace_back(s.offset, s.offset + s.size);
    }
    std::sort(covered.begin(), covered.end());
    uint64_t pos = 0;
    for (const auto& [begin, end] : covered) {
      for (uint64_t i = pos; i < begin; ++i) {
        if (bytes[static_cast<size_t>(i)] != '\0') {
          return Status::IOError("container padding byte " +
                                 std::to_string(i) +
                                 " is nonzero: the file is corrupt");
        }
      }
      if (end > pos) pos = end;
    }
  }

  CubeStore store;
  std::vector<V3CubeEntry> entries;
  OPMAP_RETURN_NOT_OK(
      ParseV3Skeleton(bytes.data(), sections, /*views=*/false, &store,
                      &entries));
  const auto num_attr = static_cast<int64_t>(store.attr_cubes_.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const V3CubeEntry& e = entries[i];
    RuleCube& cube = static_cast<int64_t>(i) < num_attr
                         ? store.attr_cubes_[i]
                         : store.pair_cubes_[i - static_cast<size_t>(num_attr)];
    const char* src = bytes.data() + e.abs_offset;
    const size_t nbytes = static_cast<size_t>(e.cells) * sizeof(int64_t);
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
Result<CubeStore> CubeStore::LoadV3Mapped(const std::string& path, Env* env) {
  OPMAP_TRACE_SPAN("cube.load_mapped");
  OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                         env->MapFile(path));
  OPMAP_ASSIGN_OR_RETURN(
      std::vector<AlignedSection> sections,
      ParseAlignedContainer(region->data(), region->size(), kCubeMagic,
                            kCubeVersionV3));
  for (const char* name :
       {kSectionSchema, kSectionMeta, kSectionCubeIndex}) {
    OPMAP_ASSIGN_OR_RETURN(const AlignedSection* sec,
                           FindAlignedSection(sections, name));
    OPMAP_RETURN_NOT_OK(VerifyAlignedPayload(region->data(), *sec));
  }

  // Every cube is a view of the mapping. No payload byte is touched.
  CubeStore store;
  std::vector<V3CubeEntry> entries;
  OPMAP_RETURN_NOT_OK(ParseV3Skeleton(region->data(), sections,
                                      /*views=*/true, &store, &entries));

  auto mapped = std::make_unique<Mapped>();
  mapped->num_entries = static_cast<int64_t>(entries.size());
  mapped->entries = std::make_unique<Mapped::Entry[]>(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    mapped->entries[i].offset = entries[i].abs_offset;
    mapped->entries[i].size = entries[i].cells * sizeof(int64_t);
    mapped->entries[i].crc = entries[i].crc;
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

Status CubeStore::Save(std::ostream* out, SaveFormat format) const {
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

  std::string bytes;
  if (format == SaveFormat::kV2) {
    {
      std::ostringstream cubes_out;
      BinaryWriter w(&cubes_out);
      for (const RuleCube& cube : attr_cubes_) WriteCubeCounts(cube, &w);
      sections.push_back(Section{kSectionAttrCubes, attr_cubes_.size(),
                                 cubes_out.str()});
    }
    {
      std::ostringstream cubes_out;
      BinaryWriter w(&cubes_out);
      for (const RuleCube& cube : pair_cubes_) WriteCubeCounts(cube, &w);
      sections.push_back(Section{kSectionPairCubes, pair_cubes_.size(),
                                 cubes_out.str()});
    }
    bytes = SerializeContainer(kCubeMagic, kCubeVersionV2, sections);
  } else {
    // v3: per-cube CRC index + one blob of raw count arrays, each padded
    // to a 64-byte file offset so a mapping can serve them in place.
    std::ostringstream index_out;
    BinaryWriter iw(&index_out);
    std::string data;
    const uint64_t num_cubes = attr_cubes_.size() + pair_cubes_.size();
    auto add_cube = [&](const RuleCube& cube) {
      AppendAlignmentPadding(&data);
      const auto* counts =
          reinterpret_cast<const char*>(cube.raw_counts());
      const size_t nbytes =
          static_cast<size_t>(cube.num_cells()) * sizeof(int64_t);
      iw.WriteU64(data.size());  // offset relative to cube_data start
      iw.WriteU64(static_cast<uint64_t>(cube.num_cells()));
      iw.WriteU32(Crc32c(counts, nbytes));
      data.append(counts, nbytes);
    };
    for (const RuleCube& cube : attr_cubes_) add_cube(cube);
    for (const RuleCube& cube : pair_cubes_) add_cube(cube);
    sections.push_back(
        Section{kSectionCubeIndex, num_cubes, index_out.str()});
    sections.push_back(Section{kSectionCubeData, num_cubes, std::move(data)});
    bytes = SerializeAlignedContainer(kCubeMagic, kCubeVersionV3, sections);
  }

  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out->flush();
  if (!out->good()) {
    return Status::IOError("write failure while saving cubes (disk full or "
                           "stream closed)");
  }
  return Status::OK();
}

Status CubeStore::SaveToFile(const std::string& path, Env* env,
                             SaveFormat format) const {
  OPMAP_TRACE_SPAN("cube.save_store");
  std::ostringstream buf;
  OPMAP_RETURN_NOT_OK(Save(&buf, format));
  return AtomicWriteFile(env, path, buf.str());
}

Result<CubeStore> CubeStore::LoadFromBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  BinaryReader r(&in, bytes.size());
  OPMAP_RETURN_NOT_OK(r.ExpectMagic(kCubeMagic));
  OPMAP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version == kCubeVersionV1) return LoadV1(&r, &in);
  if (version == kCubeVersionV2) return LoadV2(bytes);
  if (version == kCubeVersionV3) return LoadV3Eager(bytes);
  return Status::IOError("unsupported cube store format version " +
                         std::to_string(version));
}

Result<CubeStore> CubeStore::Load(std::istream* in) {
  std::ostringstream buf;
  buf << in->rdbuf();
  if (in->bad()) return Status::IOError("read failure while loading cubes");
  return LoadFromBytes(buf.str());
}

Result<CubeStore> CubeStore::LoadFromFile(const std::string& path, Env* env,
                                          const CubeLoadOptions& options) {
  OPMAP_TRACE_SPAN("cube.load_store");
  if (env == nullptr) env = Env::Default();

  // Peek the magic + version to pick a load path without reading the body.
  // Short or unrecognizable heads fall through to the eager path, which
  // reports the proper magic/truncation error.
  uint32_t version = 0;
  {
    Result<std::unique_ptr<SequentialFile>> file = env->NewSequentialFile(path);
    if (!file.ok()) {
      return Status(file.status().code(),
                    "cube store '" + path + "': " + file.status().message());
    }
    std::string head;
    bool eof = false;
    Status st = file.value()->Read(8, &head, &eof);
    if (!st.ok()) {
      return Status(st.code(), "cube store '" + path + "': " + st.message());
    }
    if (head.size() == 8 && std::memcmp(head.data(), kCubeMagic, 4) == 0) {
      std::memcpy(&version, head.data() + 4, sizeof(version));
    }
  }

  Result<CubeStore> store = [&]() -> Result<CubeStore> {
    if (version == kCubeVersionV3 && options.use_mmap) {
      return LoadV3Mapped(path, env);
    }
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
