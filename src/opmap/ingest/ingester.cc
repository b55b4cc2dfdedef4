#include "opmap/ingest/ingester.h"

#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "opmap/common/metrics.h"
#include "opmap/common/serde.h"
#include "opmap/common/trace.h"
#include "opmap/core/session.h"

namespace opmap {

namespace {

constexpr char kManifestMagic[4] = {'O', 'P', 'M', 'M'};
constexpr uint32_t kManifestVersion = 2;
constexpr char kSectionState[] = "state";
constexpr char kManifestName[] = "MANIFEST";

Counter* IngestBatches() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("ingest.batches");
  return c;
}
Counter* IngestRows() {
  static Counter* const c = MetricsRegistry::Global()->counter("ingest.rows");
  return c;
}
Counter* IngestRecoveries() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("ingest.recoveries");
  return c;
}
Counter* CompactRuns() {
  static Counter* const c = MetricsRegistry::Global()->counter("compact.runs");
  return c;
}
Counter* CompactPublishFailures() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("compact.publish_failures");
  return c;
}
Histogram* IngestAppendUs() {
  static Histogram* const h =
      MetricsRegistry::Global()->histogram("ingest.append_us");
  return h;
}
Histogram* CompactUs() {
  static Histogram* const h =
      MetricsRegistry::Global()->histogram("compact.us");
  return h;
}

// WAL batch payload: u32 row count, u32 attribute count, then the raw
// codes row-major. The frame CRC covers all of it, so decoding can trust
// the sizes after bounds checks.
std::string EncodeBatch(const Dataset& batch) {
  std::ostringstream out;
  BinaryWriter w(&out);
  const int attrs = batch.num_attributes();
  w.WriteU32(static_cast<uint32_t>(batch.num_rows()));
  w.WriteU32(static_cast<uint32_t>(attrs));
  for (int64_t row = 0; row < batch.num_rows(); ++row) {
    for (int a = 0; a < attrs; ++a) {
      w.WriteI32(batch.code(row, a));
    }
  }
  return out.str();
}

// Decodes a batch payload, validating every code against the schema so a
// replay can never push out-of-range codes into the counting kernels.
Status DecodeBatchInto(const std::string& payload, Dataset* out) {
  std::istringstream in(payload);
  BinaryReader r(&in);
  OPMAP_ASSIGN_OR_RETURN(const uint32_t rows, r.ReadU32());
  OPMAP_ASSIGN_OR_RETURN(const uint32_t attrs, r.ReadU32());
  const Schema& schema = out->schema();
  if (static_cast<int>(attrs) != schema.num_attributes()) {
    return Status::IOError("WAL batch has " + std::to_string(attrs) +
                           " attributes; the ingest schema has " +
                           std::to_string(schema.num_attributes()));
  }
  std::vector<ValueCode> codes(attrs);
  for (uint32_t row = 0; row < rows; ++row) {
    for (uint32_t a = 0; a < attrs; ++a) {
      OPMAP_ASSIGN_OR_RETURN(codes[a], r.ReadI32());
      const int domain = schema.attribute(static_cast<int>(a)).domain();
      if (codes[a] < kNullCode || codes[a] >= domain) {
        return Status::IOError("WAL batch code " + std::to_string(codes[a]) +
                               " is out of range for attribute " +
                               std::to_string(a));
      }
    }
    out->AppendRowUnchecked(codes.data());
  }
  return Status::OK();
}

// The append path validates batches BEFORE framing them into the WAL, so
// every acknowledged frame is replayable by construction.
Status ValidateBatch(const Dataset& batch, const Schema& schema) {
  const Schema& in = batch.schema();
  if (in.num_attributes() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(in.num_attributes()) +
        " attributes; the ingest schema has " +
        std::to_string(schema.num_attributes()));
  }
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const Attribute& want = schema.attribute(a);
    const Attribute& got = in.attribute(a);
    if (!got.is_categorical() || got.name() != want.name() ||
        got.domain() != want.domain()) {
      return Status::InvalidArgument("batch attribute '" + got.name() +
                                     "' does not match ingest attribute '" +
                                     want.name() + "' (use ReencodeForSchema)");
    }
    const std::vector<ValueCode>& col = batch.categorical_column(a);
    for (int64_t row = 0; row < batch.num_rows(); ++row) {
      const ValueCode c = col[static_cast<size_t>(row)];
      if (c < kNullCode || c >= want.domain()) {
        return Status::InvalidArgument("batch code out of range for '" +
                                       want.name() + "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::string Ingester::CubeFileName(uint64_t generation) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cubes-%06llu.opmc",
                static_cast<unsigned long long>(generation));
  return buf;
}

Status Ingester::WriteManifest(const Manifest& manifest) {
  std::ostringstream payload;
  BinaryWriter w(&payload);
  w.WriteU64(manifest.cube_generation);
  w.WriteU64(manifest.last_applied_seq);
  w.WriteU64(manifest.first_segment_id);
  return AtomicWriteFile(
      env_, PathOf(kManifestName),
      SerializeAlignedContainer(kManifestMagic, kManifestVersion,
                                {Section{kSectionState, 1, payload.str()}}));
}

Result<Ingester::Manifest> Ingester::ReadManifest(Env* env,
                                                  const std::string& dir) {
  const std::string path = dir + "/" + kManifestName;
  std::string bytes;
  OPMAP_RETURN_NOT_OK(ReadFileToString(env, path, &bytes));
  Result<Manifest> manifest = [&]() -> Result<Manifest> {
    OPMAP_ASSIGN_OR_RETURN(
        const std::vector<AlignedSection> sections,
        ParseAndVerifyAlignedContainer(bytes.data(), bytes.size(),
                                       kManifestMagic, kManifestVersion));
    OPMAP_ASSIGN_OR_RETURN(const AlignedSection* state,
                           FindAlignedSection(sections, kSectionState));
    std::istringstream in(bytes.substr(state->offset, state->size));
    BinaryReader r(&in, state->size);
    Manifest m;
    OPMAP_ASSIGN_OR_RETURN(m.cube_generation, r.ReadU64());
    OPMAP_ASSIGN_OR_RETURN(m.last_applied_seq, r.ReadU64());
    OPMAP_ASSIGN_OR_RETURN(m.first_segment_id, r.ReadU64());
    return m;
  }();
  if (!manifest.ok()) {
    return Status(manifest.status().code(),
                  "ingest manifest '" + path + "': " +
                      manifest.status().message());
  }
  return manifest;
}

Result<std::unique_ptr<Ingester>> Ingester::Create(
    Env* env, const std::string& dir, const Schema& schema,
    const IngestOptions& options) {
  std::unique_ptr<Ingester> ing(new Ingester());
  ing->env_ = env != nullptr ? env : Env::Default();
  ing->dir_ = dir;
  ing->options_ = options;
  ing->schema_ = schema;
  OPMAP_RETURN_NOT_OK(ing->env_->CreateDir(dir));
  if (ing->env_->FileExists(ing->PathOf(kManifestName))) {
    return Status::InvalidArgument("'" + dir +
                                   "' already holds an ingest MANIFEST");
  }
  OPMAP_ASSIGN_OR_RETURN(ing->delta_,
                         DeltaCubeBuilder::Make(schema, options.cube));
  // The generation-1 container is the empty base: created, synced and
  // manifest-committed before the first append can be acknowledged.
  OPMAP_ASSIGN_OR_RETURN(CubeStore empty, ing->delta_->Drain());
  OPMAP_RETURN_NOT_OK(
      empty.SaveToFile(ing->PathOf(ing->CubeFileName(1)), ing->env_));
  ing->base_ = std::make_shared<const CubeStore>(std::move(empty));
  ing->manifest_ = Manifest{};
  OPMAP_RETURN_NOT_OK(ing->WriteManifest(ing->manifest_));
  OPMAP_ASSIGN_OR_RETURN(
      ing->wal_,
      WalWriter::Open(ing->env_, dir, /*segment_id=*/1, options.wal));
  ing->snapshot_ = ing->base_;
  ing->snapshot_dirty_ = false;
  return ing;
}

Result<std::unique_ptr<Ingester>> Ingester::Open(Env* env,
                                                 const std::string& dir,
                                                 const IngestOptions& options) {
  OPMAP_TRACE_SPAN("ingest.recover");
  std::unique_ptr<Ingester> ing(new Ingester());
  ing->env_ = env != nullptr ? env : Env::Default();
  ing->dir_ = dir;
  ing->options_ = options;
  OPMAP_ASSIGN_OR_RETURN(ing->manifest_, ReadManifest(ing->env_, dir));
  OPMAP_ASSIGN_OR_RETURN(
      CubeStore base,
      CubeStore::LoadFromFile(
          ing->PathOf(ing->CubeFileName(ing->manifest_.cube_generation)),
          ing->env_, CubeLoadOptions{/*use_mmap=*/false}));
  ing->schema_ = base.schema();
  ing->base_ = std::make_shared<const CubeStore>(std::move(base));
  OPMAP_ASSIGN_OR_RETURN(ing->delta_,
                         DeltaCubeBuilder::Make(ing->schema_, options.cube));
  ing->CollectGarbage();
  OPMAP_ASSIGN_OR_RETURN(const uint64_t next_segment, ing->ReplayWal());
  OPMAP_ASSIGN_OR_RETURN(
      ing->wal_, WalWriter::Open(ing->env_, dir, next_segment, options.wal));
  ing->snapshot_dirty_ = true;
  IngestRecoveries()->Increment();
  return ing;
}

Result<std::unique_ptr<Ingester>> Ingester::OpenOrCreate(
    Env* env, const std::string& dir, const Schema& schema,
    const IngestOptions& options) {
  Env* e = env != nullptr ? env : Env::Default();
  if (e->FileExists(dir + "/" + kManifestName)) {
    return Open(e, dir, options);
  }
  return Create(e, dir, schema, options);
}

Result<uint64_t> Ingester::ReplayWal() {
  // Live segments run from the manifest's first id upward: sealed `.log`
  // files are complete (any damage is a hard error); `.open` segments
  // tolerate torn frames. The writer resumes on the first id with neither
  // file — recovery never appends to an existing `.open` (its tail may be
  // torn), so repeated crash/reopen cycles accumulate several `.open`
  // segments, each picking up exactly where the previous one's valid
  // prefix ended. All of them replay here, in id order.
  Dataset replayed(schema_);
  uint64_t max_seq = manifest_.last_applied_seq;
  uint64_t id = manifest_.first_segment_id;
  for (;; ++id) {
    std::string path = PathOf(WalSegmentFileName(id));
    bool tolerate = false;
    if (!env_->FileExists(path)) {
      path = PathOf(WalOpenFileName(id));
      tolerate = true;
      if (!env_->FileExists(path)) break;
    }
    WalSegmentStats seg_stats;
    OPMAP_RETURN_NOT_OK(ReadWalSegment(
        env_, path, tolerate,
        [&](const WalRecord& record) -> Status {
          // Exactly-once: frames already folded into the container by a
          // committed compaction are skipped, so a crash between the
          // manifest commit and the WAL GC never double-counts.
          if (record.seq <= manifest_.last_applied_seq) return Status::OK();
          if (record.seq != max_seq + 1) {
            return Status::IOError(
                "WAL sequence gap: expected " + std::to_string(max_seq + 1) +
                ", found " + std::to_string(record.seq));
          }
          OPMAP_RETURN_NOT_OK(DecodeBatchInto(record.payload, &replayed));
          max_seq = record.seq;
          ++stats_.replayed_records;
          return Status::OK();
        },
        &seg_stats));
    if (seg_stats.tail_truncated) {
      stats_.tail_truncated = true;
      stats_.truncated_bytes += seg_stats.truncated_bytes;
    }
  }
  OPMAP_RETURN_NOT_OK(delta_->AddBatch(replayed));
  stats_.replayed_rows = replayed.num_rows();
  next_seq_ = max_seq + 1;
  return id;
}

void Ingester::CollectGarbage() {
  // Files on the wrong side of the manifest are leftovers of an
  // interrupted compaction: containers past the committed generation
  // (written but never committed) and segments before the first live one
  // (folded but not yet deleted). Removal is best effort — a failure here
  // only defers cleanup to the next open.
  for (uint64_t g = manifest_.cube_generation + 1;; ++g) {
    const std::string path = PathOf(CubeFileName(g));
    bool found = false;
    if (env_->FileExists(path)) {
      (void)env_->DeleteFile(path);
      found = true;
    }
    if (env_->FileExists(path + ".tmp")) {
      (void)env_->DeleteFile(path + ".tmp");
      found = true;
    }
    if (!found) break;
  }
  for (uint64_t g = manifest_.cube_generation; g-- > 1;) {
    const std::string path = PathOf(CubeFileName(g));
    if (!env_->FileExists(path)) break;
    (void)env_->DeleteFile(path);
  }
  for (uint64_t id = manifest_.first_segment_id; id-- > 1;) {
    bool found = false;
    if (env_->FileExists(PathOf(WalSegmentFileName(id)))) {
      (void)env_->DeleteFile(PathOf(WalSegmentFileName(id)));
      found = true;
    }
    if (env_->FileExists(PathOf(WalOpenFileName(id)))) {
      (void)env_->DeleteFile(PathOf(WalOpenFileName(id)));
      found = true;
    }
    if (!found) break;
  }
}

Result<uint64_t> Ingester::AppendBatch(const Dataset& batch) {
  OPMAP_TRACE_SPAN("ingest.append");
  const int64_t start_us = MonotonicMicros();
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t seq = 0;
  OPMAP_RETURN_NOT_OK(AppendLocked(batch, &seq));
  IngestAppendUs()->Record(MonotonicMicros() - start_us);
  return seq;
}

Status Ingester::AppendLocked(const Dataset& batch, uint64_t* seq) {
  if (failed_) {
    return Status::FailedPrecondition(
        "ingester latched failed after an I/O error; reopen '" + dir_ +
        "' to recover");
  }
  OPMAP_RETURN_NOT_OK(ValidateBatch(batch, schema_));
  // WAL first: the batch is acknowledged only once the frame is appended
  // (and fsynced, under sync_every_append). The delta is counted after —
  // an in-memory view never gets ahead of the log.
  const uint64_t this_seq = next_seq_;
  Status wrote = wal_->Append(this_seq, EncodeBatch(batch));
  if (!wrote.ok()) {
    failed_ = true;
    return wrote;
  }
  Status counted = delta_->AddBatch(batch);
  if (!counted.ok()) {
    failed_ = true;
    return counted;
  }
  next_seq_ = this_seq + 1;
  *seq = this_seq;
  ++stats_.batches_appended;
  stats_.rows_appended += batch.num_rows();
  snapshot_dirty_ = true;
  IngestBatches()->Increment();
  IngestRows()->Increment(batch.num_rows());
  if (options_.compact_every_batches > 0 &&
      stats_.batches_appended % options_.compact_every_batches == 0) {
    OPMAP_RETURN_NOT_OK(CompactLocked());
  }
  return Status::OK();
}

Status Ingester::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  return CompactLocked();
}

Status Ingester::CompactLocked() {
  OPMAP_TRACE_SPAN("compact.run");
  const int64_t start_us = MonotonicMicros();
  if (failed_) {
    return Status::FailedPrecondition(
        "ingester latched failed after an I/O error; reopen '" + dir_ +
        "' to recover");
  }
  // Fold base + delta into a fresh container. Everything below can crash
  // at any point: until the manifest rename commits, recovery sees the
  // old generation and replays the old WAL range; after it, the new
  // generation plus the (empty) new segment range. Either way each
  // acknowledged batch is counted exactly once.
  Status status = [&]() -> Status {
    OPMAP_ASSIGN_OR_RETURN(CubeStore merged, base_->Clone());
    OPMAP_RETURN_NOT_OK(merged.AddCounts(delta_->delta()));
    const uint64_t new_gen = manifest_.cube_generation + 1;
    const uint64_t folded_seq = next_seq_ - 1;
    OPMAP_RETURN_NOT_OK(
        merged.SaveToFile(PathOf(CubeFileName(new_gen)), env_));
    // Seal the tail so the folded WAL range is closed, then commit.
    OPMAP_RETURN_NOT_OK(wal_->Roll());
    Manifest next;
    next.cube_generation = new_gen;
    next.last_applied_seq = folded_seq;
    next.first_segment_id = wal_->segment_id();
    OPMAP_RETURN_NOT_OK(WriteManifest(next));
    manifest_ = next;
    // Publish: swap the served base, drop the folded delta, invalidate.
    base_ = std::make_shared<const CubeStore>(std::move(merged));
    OPMAP_ASSIGN_OR_RETURN(CubeStore folded, delta_->Drain());
    (void)folded;
    snapshot_ = base_;
    snapshot_dirty_ = false;
    return Status::OK();
  }();
  if (!status.ok()) {
    failed_ = true;
    return status;
  }
  CollectGarbage();
  ++stats_.compactions;
  CompactRuns()->Increment();
  CompactUs()->Record(MonotonicMicros() - start_us);
  if (cache_ != nullptr) cache_->BumpEpoch();
  if (publish_hook_) {
    // The compaction is durable and served either way; a failing
    // subscriber is an observability event, not a rollback.
    const Status hook_status = publish_hook_(
        base_.get(), PathOf(CubeFileName(manifest_.cube_generation)));
    if (!hook_status.ok()) {
      ++stats_.publish_failures;
      stats_.last_publish_error = hook_status.ToString();
      CompactPublishFailures()->Increment();
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const CubeStore>> Ingester::Snapshot() {
  OPMAP_TRACE_SPAN("ingest.snapshot");
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_dirty_) {
    if (delta_->rows() == 0) {
      snapshot_ = base_;
    } else {
      OPMAP_ASSIGN_OR_RETURN(CubeStore merged, base_->Clone());
      OPMAP_RETURN_NOT_OK(merged.AddCounts(delta_->delta()));
      snapshot_ = std::make_shared<const CubeStore>(std::move(merged));
    }
    snapshot_dirty_ = false;
  }
  return snapshot_;
}

Status Ingester::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!wal_.has_value() || failed_) return Status::OK();
  return wal_->Close();
}

IngestStats Ingester::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestStats stats = stats_;
  stats.next_seq = next_seq_;
  stats.last_applied_seq = manifest_.last_applied_seq;
  stats.cube_generation = manifest_.cube_generation;
  if (wal_.has_value()) stats.segments_sealed = wal_->segments_sealed();
  return stats;
}

Result<Dataset> ReencodeForSchema(const Dataset& src, const Schema& schema) {
  const Schema& in = src.schema();
  // Column correspondence by name; the source (a fresh CSV parse) may
  // hold extra columns but must cover every stored one.
  std::vector<int> src_col(static_cast<size_t>(schema.num_attributes()), -1);
  for (int a = 0; a < schema.num_attributes(); ++a) {
    for (int b = 0; b < in.num_attributes(); ++b) {
      if (in.attribute(b).name() == schema.attribute(a).name()) {
        src_col[static_cast<size_t>(a)] = b;
        break;
      }
    }
    if (src_col[static_cast<size_t>(a)] < 0) {
      return Status::InvalidArgument("ingest column '" +
                                     schema.attribute(a).name() +
                                     "' is missing from the input");
    }
    if (!in.attribute(src_col[static_cast<size_t>(a)]).is_categorical()) {
      return Status::InvalidArgument(
          "ingest column '" + schema.attribute(a).name() +
          "' is not categorical in the input; discretize it first");
    }
  }
  Dataset out(schema);
  out.Reserve(src.num_rows());
  std::vector<ValueCode> codes(static_cast<size_t>(schema.num_attributes()));
  for (int64_t row = 0; row < src.num_rows(); ++row) {
    for (int a = 0; a < schema.num_attributes(); ++a) {
      const int b = src_col[static_cast<size_t>(a)];
      const ValueCode c = src.code(row, b);
      if (c == kNullCode) {
        codes[static_cast<size_t>(a)] = kNullCode;
        continue;
      }
      const std::string& label = in.attribute(b).label(c);
      Result<ValueCode> mapped = schema.attribute(a).CodeOf(label);
      if (!mapped.ok()) {
        return Status::InvalidArgument(
            "value '" + label + "' of column '" + schema.attribute(a).name() +
            "' is not in the ingest dictionary (row " + std::to_string(row) +
            "); streaming ingest cannot grow domains");
      }
      codes[static_cast<size_t>(a)] = mapped.MoveValue();
    }
    out.AppendRowUnchecked(codes.data());
  }
  return out;
}

}  // namespace opmap
