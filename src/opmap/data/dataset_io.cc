#include "opmap/data/dataset_io.h"

#include <cstring>
#include <sstream>

#include "opmap/common/io.h"
#include "opmap/common/serde.h"
#include "opmap/common/trace.h"

namespace opmap {

namespace {

constexpr char kDatasetMagic[4] = {'O', 'P', 'M', 'D'};
constexpr uint32_t kDatasetVersion = 3;

// Container section names; corruption errors cite these. The columns are
// an index + data pair (AppendArraySections), one raw array per attribute.
constexpr char kSectionSchema[] = "schema";
constexpr char kSectionColumnIndex[] = "column_index";
constexpr char kSectionColumnData[] = "column_data";

Status InSection(const char* section, Status st) {
  if (st.ok()) return st;
  return Status(st.code(),
                "section '" + std::string(section) + "': " + st.message());
}

std::string SerializeDataset(const Dataset& dataset) {
  std::vector<Section> sections;
  {
    std::ostringstream schema_out;
    WriteSchema(dataset.schema(), &schema_out);
    sections.push_back(
        Section{kSectionSchema,
                static_cast<uint64_t>(dataset.num_attributes()),
                schema_out.str()});
  }
  const auto rows = static_cast<uint64_t>(dataset.num_rows());
  std::vector<ArrayRef> columns;
  columns.reserve(static_cast<size_t>(dataset.num_attributes()));
  for (int i = 0; i < dataset.num_attributes(); ++i) {
    if (dataset.schema().attribute(i).is_categorical()) {
      columns.push_back(ArrayRef{dataset.categorical_column(i).data(), rows,
                                 sizeof(ValueCode)});
    } else {
      columns.push_back(
          ArrayRef{dataset.numeric_column(i).data(), rows, sizeof(double)});
    }
  }
  AppendArraySections(kSectionColumnIndex, kSectionColumnData, columns,
                      &sections);
  return SerializeAlignedContainer(kDatasetMagic, kDatasetVersion, sections);
}

// Verifies the whole image, then copies each column out of it once.
Result<Dataset> ParseDataset(const char* data, size_t size) {
  OPMAP_ASSIGN_OR_RETURN(std::vector<AlignedSection> sections,
                         ParseAndVerifyAlignedContainer(
                             data, size, kDatasetMagic, kDatasetVersion));
  OPMAP_ASSIGN_OR_RETURN(const AlignedSection* schema_sec,
                         FindAlignedSection(sections, kSectionSchema));
  std::istringstream schema_in(
      std::string(data + schema_sec->offset, schema_sec->size));
  Result<Schema> schema = ReadSchema(&schema_in);
  if (!schema.ok()) return InSection(kSectionSchema, schema.status());

  const int n = schema->num_attributes();
  std::vector<size_t> elem_sizes;
  for (int i = 0; i < n; ++i) {
    elem_sizes.push_back(schema->attribute(i).is_categorical()
                             ? sizeof(ValueCode)
                             : sizeof(double));
  }
  OPMAP_ASSIGN_OR_RETURN(
      std::vector<AlignedArray> columns,
      ParseArraySections(data, sections, kSectionColumnIndex,
                         kSectionColumnData, elem_sizes));
  // ReadSchema guarantees at least one attribute.
  const uint64_t rows = columns[0].count;
  std::vector<std::vector<ValueCode>> cat(static_cast<size_t>(n));
  std::vector<std::vector<double>> num(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const AlignedArray& col = columns[static_cast<size_t>(i)];
    if (col.count != rows) {
      return Status::IOError("column " + std::to_string(i) + " holds " +
                             std::to_string(col.count) + " rows, column 0 " +
                             std::to_string(rows));
    }
    // memcpy: a byte image need not be aligned for typed reads.
    void* dst;
    if (elem_sizes[static_cast<size_t>(i)] == sizeof(double)) {
      num[static_cast<size_t>(i)].resize(static_cast<size_t>(rows));
      dst = num[static_cast<size_t>(i)].data();
    } else {
      cat[static_cast<size_t>(i)].resize(static_cast<size_t>(rows));
      dst = cat[static_cast<size_t>(i)].data();
    }
    std::memcpy(dst, data + col.offset,
                static_cast<size_t>(rows) * elem_sizes[static_cast<size_t>(i)]);
  }
  Dataset dataset(std::move(schema).MoveValue());
  Status st = dataset.SetColumnData(std::move(cat), std::move(num));
  if (!st.ok()) {
    return InSection(kSectionColumnData, Status::IOError(st.message()));
  }
  return dataset;
}

}  // namespace

void WriteSchema(const Schema& schema, std::ostream* out) {
  BinaryWriter w(out);
  w.WriteU32(static_cast<uint32_t>(schema.num_attributes()));
  w.WriteU32(static_cast<uint32_t>(schema.class_index()));
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const Attribute& a = schema.attribute(i);
    w.WriteString(a.name());
    w.WriteU8(a.is_categorical() ? 1 : 0);
    w.WriteU8(a.ordered() ? 1 : 0);
    w.WriteU64(static_cast<uint64_t>(a.domain()));
    for (const std::string& label : a.labels()) {
      w.WriteString(label);
    }
  }
}

Result<Schema> ReadSchema(std::istream* in) {
  BinaryReader r(in);
  OPMAP_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  OPMAP_ASSIGN_OR_RETURN(uint32_t class_index, r.ReadU32());
  if (n == 0 || n > (1u << 20)) {
    return Status::IOError("implausible attribute count in schema");
  }
  std::vector<Attribute> attrs;
  attrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OPMAP_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    OPMAP_ASSIGN_OR_RETURN(uint8_t is_cat, r.ReadU8());
    OPMAP_ASSIGN_OR_RETURN(uint8_t ordered, r.ReadU8());
    OPMAP_ASSIGN_OR_RETURN(uint64_t domain, r.ReadU64());
    if (domain > (1ULL << 24)) {
      return Status::IOError("implausible domain size in schema");
    }
    std::vector<std::string> labels;
    labels.reserve(static_cast<size_t>(domain));
    for (uint64_t v = 0; v < domain; ++v) {
      OPMAP_ASSIGN_OR_RETURN(std::string label, r.ReadString());
      labels.push_back(std::move(label));
    }
    if (is_cat != 0) {
      attrs.push_back(
          Attribute::Categorical(std::move(name), std::move(labels),
                                 ordered != 0));
    } else {
      if (domain != 0) {
        return Status::IOError("continuous attribute with labels");
      }
      attrs.push_back(Attribute::Continuous(std::move(name)));
    }
  }
  return Schema::Make(std::move(attrs), static_cast<int>(class_index));
}

Status SaveDataset(const Dataset& dataset, std::ostream* out) {
  const std::string bytes = SerializeDataset(dataset);
  out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out->flush();
  if (!out->good()) {
    return Status::IOError("write failure while saving dataset (disk full "
                           "or stream closed)");
  }
  return Status::OK();
}

Status SaveDatasetToFile(const Dataset& dataset, const std::string& path,
                         Env* env) {
  return AtomicWriteFile(env, path, SerializeDataset(dataset));
}

Result<Dataset> LoadDatasetFromBytes(const std::string& bytes) {
  return ParseDataset(bytes.data(), bytes.size());
}

Result<Dataset> LoadDatasetFromFile(const std::string& path, Env* env) {
  OPMAP_TRACE_SPAN("data.load_dataset");
  if (env == nullptr) env = Env::Default();
  Result<Dataset> dataset = [&]() -> Result<Dataset> {
    OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                           env->MapFile(path));
    return ParseDataset(region->data(), region->size());
  }();
  if (!dataset.ok()) {
    return Status(dataset.status().code(),
                  "dataset '" + path + "': " + dataset.status().message());
  }
  return dataset;
}

}  // namespace opmap
