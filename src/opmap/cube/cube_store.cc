#include "opmap/cube/cube_store.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "opmap/common/metrics.h"
#include "opmap/common/simd.h"
#include "opmap/common/trace.h"

namespace opmap {

Result<const RuleCube*> CubeStore::AttrCube(int attr) const {
  const int slot = AttrSlot(attr);
  if (slot < 0) {
    return Status::NotFound("attribute " + std::to_string(attr) +
                            " is not materialized in the cube store");
  }
  // First touch of a lazily mapped cube CRC-verifies its payload.
  OPMAP_RETURN_NOT_OK(VerifyMappedCube(slot));
  return &attr_cubes_[static_cast<size_t>(slot)];
}

Result<const RuleCube*> CubeStore::PairCube(int a, int b) const {
  if (!has_pair_cubes_) {
    return Status::InvalidArgument("pair cubes were not built");
  }
  if (a == b) {
    return Status::InvalidArgument("pair cube needs two distinct attributes");
  }
  const int lo_attr = std::min(a, b);
  const int hi_attr = std::max(a, b);
  const int sa = AttrSlot(lo_attr);
  const int sb = AttrSlot(hi_attr);
  if (sa < 0 || sb < 0) {
    return Status::NotFound("attribute pair is not materialized");
  }
  const int m = static_cast<int>(attributes_.size());
  // Packed upper triangle: pairs (0,1), (0,2), ..., (0,m-1), (1,2), ...
  const int64_t idx = static_cast<int64_t>(sa) * (2 * m - sa - 1) / 2 +
                      (sb - sa - 1);
  // First touch of a lazily mapped cube CRC-verifies its payload.
  OPMAP_RETURN_NOT_OK(
      VerifyMappedCube(static_cast<int64_t>(attr_cubes_.size()) + idx));
  return &pair_cubes_[static_cast<size_t>(idx)];
}

int64_t CubeStore::NumCubes() const {
  return static_cast<int64_t>(attr_cubes_.size() + pair_cubes_.size());
}

int64_t CubeStore::MemoryUsageBytes() const {
  // Count the store's own bookkeeping alongside the cube buffers so the
  // memory-budget shard clamp works from a base figure that is not
  // understated (the clamp additionally charges packed-column scratch;
  // see CubeBuilder::PlanShards).
  int64_t bytes = 0;
  for (const auto& c : attr_cubes_) bytes += c.MemoryUsageBytes();
  for (const auto& c : pair_cubes_) bytes += c.MemoryUsageBytes();
  bytes += static_cast<int64_t>(class_counts_.capacity() * sizeof(int64_t));
  bytes += static_cast<int64_t>(attributes_.capacity() * sizeof(int));
  bytes += static_cast<int64_t>(attr_slot_.capacity() * sizeof(int));
  return bytes;
}

Result<CubeStore> CubeStore::Clone() const {
  OPMAP_TRACE_SPAN("cube.clone");
  CubeStore out;
  out.schema_ = schema_;
  out.attributes_ = attributes_;
  out.attr_slot_ = attr_slot_;
  out.num_records_ = num_records_;
  out.class_counts_ = class_counts_;
  out.has_pair_cubes_ = has_pair_cubes_;
  const int64_t num_attr_cubes = static_cast<int64_t>(attr_cubes_.size());
  for (int64_t i = 0;
       i < num_attr_cubes + static_cast<int64_t>(pair_cubes_.size()); ++i) {
    // First touch of a lazily mapped cube CRC-verifies its payload, so a
    // clone never materializes silently corrupt counts.
    OPMAP_RETURN_NOT_OK(VerifyMappedCube(i));
    const RuleCube& src =
        i < num_attr_cubes
            ? attr_cubes_[static_cast<size_t>(i)]
            : pair_cubes_[static_cast<size_t>(i - num_attr_cubes)];
    std::vector<int> dims(static_cast<size_t>(src.num_dims()));
    for (int d = 0; d < src.num_dims(); ++d) {
      dims[static_cast<size_t>(d)] = src.dim_attribute(d);
    }
    OPMAP_ASSIGN_OR_RETURN(RuleCube copy,
                           RuleCube::Make(schema_, std::move(dims)));
    std::copy(src.raw_counts(), src.raw_counts() + src.num_cells(),
              copy.raw_counts());
    (i < num_attr_cubes ? out.attr_cubes_ : out.pair_cubes_)
        .push_back(std::move(copy));
  }
  return out;
}

Status CubeStore::AddCounts(const CubeStore& delta) {
  OPMAP_TRACE_SPAN("cube.add_counts");
  if (mapped_ != nullptr) {
    return Status::InvalidArgument(
        "cannot add counts into a mapped store; Clone() it first");
  }
  if (attributes_ != delta.attributes_ ||
      has_pair_cubes_ != delta.has_pair_cubes_ ||
      class_counts_.size() != delta.class_counts_.size() ||
      attr_cubes_.size() != delta.attr_cubes_.size() ||
      pair_cubes_.size() != delta.pair_cubes_.size()) {
    return Status::InvalidArgument(
        "delta store shape does not match the base store");
  }
  const int64_t num_attr_cubes = static_cast<int64_t>(attr_cubes_.size());
  for (int64_t i = 0;
       i < num_attr_cubes + static_cast<int64_t>(pair_cubes_.size()); ++i) {
    OPMAP_RETURN_NOT_OK(delta.VerifyMappedCube(i));
    RuleCube& dst = i < num_attr_cubes
                        ? attr_cubes_[static_cast<size_t>(i)]
                        : pair_cubes_[static_cast<size_t>(i - num_attr_cubes)];
    const RuleCube& src =
        i < num_attr_cubes
            ? delta.attr_cubes_[static_cast<size_t>(i)]
            : delta.pair_cubes_[static_cast<size_t>(i - num_attr_cubes)];
    if (dst.num_cells() != src.num_cells()) {
      return Status::InvalidArgument(
          "delta cube cell count does not match the base store");
    }
    int64_t* out = dst.raw_counts();
    const int64_t* in = src.raw_counts();
    for (int64_t c = 0; c < dst.num_cells(); ++c) out[c] += in[c];
  }
  for (size_t k = 0; k < class_counts_.size(); ++k) {
    class_counts_[k] += delta.class_counts_[k];
  }
  num_records_ += delta.num_records_;
  return Status::OK();
}

Status CubeStore::InitLayout(Schema schema,
                             const CubeStoreOptions& options) {
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument("empty schema");
  }
  std::vector<int> attrs = options.attributes;
  if (attrs.empty()) {
    for (int a = 0; a < schema.num_attributes(); ++a) {
      if (!schema.is_class(a) && schema.attribute(a).is_categorical()) {
        attrs.push_back(a);
      }
    }
  } else {
    std::unordered_set<int> seen;
    for (int a : attrs) {
      if (a < 0 || a >= schema.num_attributes()) {
        return Status::OutOfRange("cube store attribute out of range");
      }
      if (schema.is_class(a)) {
        return Status::InvalidArgument(
            "class attribute cannot be a cube store attribute");
      }
      if (!schema.attribute(a).is_categorical()) {
        return Status::InvalidArgument(
            "continuous attribute '" + schema.attribute(a).name() +
            "' cannot be materialized; discretize first");
      }
      if (!seen.insert(a).second) {
        return Status::InvalidArgument("duplicate cube store attribute");
      }
    }
    std::sort(attrs.begin(), attrs.end());
  }
  schema_ = std::move(schema);
  attributes_ = std::move(attrs);
  attr_slot_.assign(static_cast<size_t>(schema_.num_attributes()), -1);
  for (size_t i = 0; i < attributes_.size(); ++i) {
    attr_slot_[static_cast<size_t>(attributes_[i])] = static_cast<int>(i);
  }
  class_counts_.assign(static_cast<size_t>(schema_.num_classes()), 0);
  has_pair_cubes_ = options.build_pair_cubes;
  return Status::OK();
}

Result<CubeBuilder> CubeBuilder::Make(Schema schema,
                                      CubeStoreOptions options) {
  CubeBuilder builder;
  CubeStore& store = builder.store_;
  OPMAP_RETURN_NOT_OK(store.InitLayout(std::move(schema), options));
  builder.parallel_ = options.parallel;
  builder.max_memory_bytes_ = options.max_memory_bytes;
  builder.kernel_ = options.kernel;
  builder.block_rows_ = ResolveBlockRows(options.block_rows);

  builder.class_index_ = store.schema_.class_index();
  builder.num_classes_ = store.schema_.num_classes();

  const int m = static_cast<int>(store.attributes_.size());

  // Enforce the memory budget before allocating anything: a wide schema
  // with large domains can demand terabytes of pair cubes, and the server
  // should answer kOutOfRange, not die in the allocator.
  if (options.max_memory_bytes > 0) {
    const int64_t nc = store.schema_.num_classes();
    int64_t projected = 0;
    for (int i = 0; i < m; ++i) {
      const int64_t di =
          store.schema_.attribute(store.attributes_[static_cast<size_t>(i)])
              .domain();
      projected += di * nc * static_cast<int64_t>(sizeof(int64_t));
      if (options.build_pair_cubes) {
        for (int j = i + 1; j < m; ++j) {
          const int64_t dj =
              store.schema_
                  .attribute(store.attributes_[static_cast<size_t>(j)])
                  .domain();
          projected += di * dj * nc * static_cast<int64_t>(sizeof(int64_t));
        }
      }
      if (projected > options.max_memory_bytes) {
        return Status::OutOfRange(
            "cube materialization needs more than the " +
            std::to_string(options.max_memory_bytes) +
            "-byte memory budget (" + std::to_string(projected) +
            "+ bytes projected); raise the budget or materialize fewer "
            "attributes");
      }
    }
  }

  store.attr_cubes_.reserve(static_cast<size_t>(m));
  for (int a : store.attributes_) {
    OPMAP_ASSIGN_OR_RETURN(
        RuleCube cube,
        RuleCube::Make(store.schema_, {a, builder.class_index_}));
    store.attr_cubes_.push_back(std::move(cube));
    builder.sizes_.push_back(store.schema_.attribute(a).domain());
  }
  if (options.build_pair_cubes) {
    store.pair_cubes_.reserve(static_cast<size_t>(m) *
                              static_cast<size_t>(m - 1) / 2);
    for (int i = 0; i < m; ++i) {
      for (int j = i + 1; j < m; ++j) {
        OPMAP_ASSIGN_OR_RETURN(
            RuleCube cube,
            RuleCube::Make(store.schema_,
                           {store.attributes_[static_cast<size_t>(i)],
                            store.attributes_[static_cast<size_t>(j)],
                            builder.class_index_}));
        store.pair_cubes_.push_back(std::move(cube));
      }
    }
  }

  // Raw pointers for the hot loop (stable: vectors are fully built).
  for (auto& c : store.attr_cubes_) {
    builder.attr_raw_.push_back(c.raw_counts());
    builder.attr_cells_.push_back(c.num_cells());
    builder.total_cells_ += c.num_cells();
  }
  for (auto& c : store.pair_cubes_) {
    builder.pair_raw_.push_back(c.raw_counts());
    builder.pair_cells_.push_back(c.num_cells());
    builder.total_cells_ += c.num_cells();
  }
  builder.pair_base_.resize(static_cast<size_t>(m));
  int base = 0;
  for (int i = 0; i < m; ++i) {
    builder.pair_base_[static_cast<size_t>(i)] = base;
    base += m - i - 1;
  }
  return builder;
}

void CubeBuilder::AddRow(const ValueCode* row) {
  const ValueCode y = row[class_index_];
  if (y == kNullCode) return;
  ++store_.num_records_;
  ++store_.class_counts_[static_cast<size_t>(y)];

  const int m = static_cast<int>(store_.attributes_.size());
  const int nc = num_classes_;
  for (int i = 0; i < m; ++i) {
    const ValueCode vi = row[store_.attributes_[static_cast<size_t>(i)]];
    if (vi == kNullCode) continue;
    attr_raw_[static_cast<size_t>(i)][vi * nc + y] += 1;
    if (!store_.has_pair_cubes_) continue;
    const int base = pair_base_[static_cast<size_t>(i)];
    for (int j = i + 1; j < m; ++j) {
      const ValueCode vj = row[store_.attributes_[static_cast<size_t>(j)]];
      if (vj == kNullCode) continue;
      const int sj = sizes_[static_cast<size_t>(j)];
      pair_raw_[static_cast<size_t>(base + j - i - 1)]
               [(static_cast<int64_t>(vi) * sj + vj) * nc + y] += 1;
    }
  }
}

void CubeBuilder::CountRange(const ColumnView& view, int64_t row_begin,
                             int64_t row_end, int64_t* const* attr_ptrs,
                             int64_t* const* pair_ptrs, int64_t* class_counts,
                             int64_t* num_records) const {
  if (view.packed != nullptr) {
    BlockedCountArgs args;
    args.columns = view.packed;
    args.num_classes = num_classes_;
    args.build_pairs = store_.has_pair_cubes_;
    args.sizes = sizes_.data();
    args.block_rows = block_rows_;
    args.use_simd = view.use_simd;
    args.attr_ptrs = attr_ptrs;
    args.pair_ptrs = pair_ptrs;
    args.class_counts = class_counts;
    args.num_records = num_records;
    CountRangeBlocked(args, row_begin, row_end);
    return;
  }
  const int m = static_cast<int>(store_.attributes_.size());
  const int nc = num_classes_;
  const bool pairs = store_.has_pair_cubes_;
  const ValueCode* const class_col = view.class_col;
  for (int64_t r = row_begin; r < row_end; ++r) {
    const ValueCode y = class_col[r];
    if (y == kNullCode) continue;
    ++*num_records;
    ++class_counts[y];
    for (int i = 0; i < m; ++i) {
      const ValueCode vi = view.cols[static_cast<size_t>(i)][r];
      if (vi == kNullCode) continue;
      attr_ptrs[i][vi * nc + y] += 1;
      if (!pairs) continue;
      const int base = pair_base_[static_cast<size_t>(i)];
      for (int j = i + 1; j < m; ++j) {
        const ValueCode vj = view.cols[static_cast<size_t>(j)][r];
        if (vj == kNullCode) continue;
        const int sj = sizes_[static_cast<size_t>(j)];
        pair_ptrs[base + j - i - 1]
                 [(static_cast<int64_t>(vi) * sj + vj) * nc + y] += 1;
      }
    }
  }
}

int64_t CubeBuilder::TileScratchBytes(bool simd) const {
  // One blocked CountRange call widens the class codes and keeps one
  // fused-index row per attribute, all int32, for one tile; the SIMD
  // tier adds one compacted-index row (plus its store slack).
  const int64_t m = static_cast<int64_t>(store_.attributes_.size());
  const int64_t rows = m + 1 + (simd ? 1 : 0);
  return (rows * block_rows_ + (simd ? 8 : 0)) *
         static_cast<int64_t>(sizeof(int32_t));
}

int CubeBuilder::PlanShards(int64_t num_rows, int64_t reserved_bytes,
                            int64_t per_shard_bytes) const {
  int shards = EffectiveThreads(parallel_);
  // Tiny inputs are not worth a fork/join (the result is identical either
  // way; this is purely a fixed-cost cutoff).
  if (num_rows < 2048) shards = 1;
  shards = static_cast<int>(
      std::min<int64_t>(shards, std::max<int64_t>(num_rows, 1)));
  if (shards > 1 && max_memory_bytes_ > 0) {
    // Each extra shard allocates a private copy of all cube buffers plus
    // its own tile scratch; stay within the same budget that gated
    // materialization itself, net of the scratch already reserved for
    // this pass (packed columns and shard 0's tiles).
    const int64_t copy_bytes =
        total_cells_ * static_cast<int64_t>(sizeof(int64_t)) +
        per_shard_bytes;
    const int64_t headroom =
        max_memory_bytes_ - store_.MemoryUsageBytes() - reserved_bytes;
    const int64_t extra_copies =
        copy_bytes > 0 ? std::max<int64_t>(headroom, 0) / copy_bytes : 0;
    shards = static_cast<int>(
        std::min<int64_t>(shards, 1 + extra_copies));
  }
  return std::max(shards, 1);
}

Status CubeBuilder::AddDataset(const Dataset& dataset) {
  OPMAP_TRACE_SPAN("cube.add_dataset");
  const Schema& ds = dataset.schema();
  const Schema& ss = store_.schema_;
  if (ds.num_attributes() != ss.num_attributes() ||
      ds.class_index() != ss.class_index()) {
    return Status::InvalidArgument("dataset schema does not match cube store");
  }
  for (int a : store_.attributes_) {
    if (!ds.attribute(a).is_categorical() ||
        ds.attribute(a).domain() != ss.attribute(a).domain()) {
      return Status::InvalidArgument(
          "dataset attribute '" + ds.attribute(a).name() +
          "' does not match the cube store schema");
    }
  }
  const int64_t n = dataset.num_rows();
  ColumnView view;
  view.class_col = dataset.categorical_column(class_index_).data();
  view.cols.reserve(store_.attributes_.size());
  for (int a : store_.attributes_) {
    view.cols.push_back(dataset.categorical_column(a).data());
  }

  // Resolve the requested kernel for this pass (kAuto consults the
  // OPMAP_KERNEL environment and the CPU's vector support), then apply
  // the fallback ladder: the blocked/SIMD kernels need packed-column
  // scratch for the whole pass plus tile scratch per shard, and when the
  // memory budget cannot absorb that the pass falls back to the
  // reference kernel — the counts are identical, only slower — instead
  // of overshooting the budget. The SIMD tier additionally requires the
  // running CPU to support a compiled-in vector ISA.
  const CountKernel kernel = ResolveCountKernel(kernel_);
  bool simd = kernel == CountKernel::kSimd && SimdAvailable();
  bool blocked = kernel != CountKernel::kReference &&
                 BlockedKernelSupported(ss, store_.attributes_);
  int64_t reserved = 0;
  if (blocked) {
    const int64_t packed_bytes =
        PackedColumnSet::ProjectedBytes(ss, store_.attributes_, n);
    reserved = packed_bytes + TileScratchBytes(simd);  // shard 0's tiles
    if (max_memory_bytes_ > 0 &&
        store_.MemoryUsageBytes() + reserved > max_memory_bytes_) {
      blocked = false;
      reserved = 0;
      static Counter* const fallbacks =
          MetricsRegistry::Global()->counter("cube.budget_fallbacks");
      fallbacks->Increment();
    }
  }
  simd = simd && blocked;
  // Per-pass pass/row/kernel accounting (never per row).
  MetricsRegistry* const metrics = MetricsRegistry::Global();
  metrics->counter("cube.rows_counted")->Increment(n);
  metrics
      ->counter(simd ? "cube.kernel_simd"
                     : blocked ? "cube.kernel_blocked" : "cube.kernel_reference")
      ->Increment();
  if (kernel == CountKernel::kSimd) {
    if (!simd) {
      // The whole pass ran scalar despite the SIMD tier being requested
      // (no CPU support, unsupported shapes, or the budget fallback).
      metrics->counter("kernel.simd_fallbacks")->Increment();
    } else {
      metrics->counter("kernel.simd_selected")->Increment();
      // Count the columns and pairs inside this pass that the vector
      // tier must skip (uint32 codes — domains above 65535 — or pair
      // indices past int32); they run the scalar blocked loops.
      const int64_t nc = num_classes_;
      const int m_cols = static_cast<int>(store_.attributes_.size());
      int64_t scalar_units = 0;
      for (int i = 0; i < m_cols; ++i) {
        const bool col_ok = sizes_[static_cast<size_t>(i)] <= 65535;
        if (!col_ok) ++scalar_units;
        if (!store_.has_pair_cubes_) continue;
        for (int j = i + 1; j < m_cols; ++j) {
          const int64_t stride_j =
              static_cast<int64_t>(sizes_[static_cast<size_t>(j)]) * nc;
          if (!col_ok ||
              !SimdPairEligible(sizes_[static_cast<size_t>(i)], stride_j)) {
            ++scalar_units;
          }
        }
      }
      if (scalar_units > 0) {
        metrics->counter("kernel.simd_fallbacks")->Increment(scalar_units);
      }
    }
  }
  PackedColumnSet packed;
  if (blocked) {
    OPMAP_TRACE_SPAN("cube.pack");
    const int64_t pack_start_us = MonotonicMicros();
    packed = PackedColumnSet::Build(dataset, store_.attributes_);
    view.packed = &packed;
    view.use_simd = simd;
    metrics->histogram("cube.pack_us")
        ->Record(MonotonicMicros() - pack_start_us);
  }

  // A per-tier span (distinct literals; spans never copy their name) so
  // traces show which kernel counted the pass.
  TraceSpan count_span(simd ? "cube.count.simd"
                            : blocked ? "cube.count.blocked"
                                      : "cube.count.reference");
  const int shards =
      PlanShards(n, reserved, blocked ? TileScratchBytes(simd) : 0);
  if (shards <= 1) {
    CountRange(view, 0, n, attr_raw_.data(), pair_raw_.data(),
               store_.class_counts_.data(), &store_.num_records_);
    return Status::OK();
  }

  // Shard-and-merge: shard 0 counts straight into the store's buffers;
  // every other shard counts into a private flat buffer (all cubes
  // concatenated) that is merged below. Integer addition commutes, so the
  // merged counts are bit-identical to a serial pass for any shard count.
  struct ShardState {
    std::vector<int64_t> cells;          // total_cells_ zeros
    std::vector<int64_t> class_counts;
    int64_t num_records = 0;
    std::vector<int64_t*> attr_ptrs;
    std::vector<int64_t*> pair_ptrs;
  };
  std::vector<ShardState> privates(static_cast<size_t>(shards - 1));
  for (ShardState& s : privates) {
    s.cells.assign(static_cast<size_t>(total_cells_), 0);
    s.class_counts.assign(store_.class_counts_.size(), 0);
    int64_t* cursor = s.cells.data();
    s.attr_ptrs.reserve(attr_cells_.size());
    for (int64_t cells : attr_cells_) {
      s.attr_ptrs.push_back(cursor);
      cursor += cells;
    }
    s.pair_ptrs.reserve(pair_cells_.size());
    for (int64_t cells : pair_cells_) {
      s.pair_ptrs.push_back(cursor);
      cursor += cells;
    }
  }

  ParallelForShards(0, n, shards, [&](int shard, int64_t lo, int64_t hi) {
    if (shard == 0) {
      CountRange(view, lo, hi, attr_raw_.data(), pair_raw_.data(),
                 store_.class_counts_.data(), &store_.num_records_);
    } else {
      ShardState& s = privates[static_cast<size_t>(shard - 1)];
      CountRange(view, lo, hi, s.attr_ptrs.data(), s.pair_ptrs.data(),
                 s.class_counts.data(), &s.num_records);
    }
  });

  // Element-wise merge (auto-vectorizes: two dense int64 arrays).
  for (const ShardState& s : privates) {
    store_.num_records_ += s.num_records;
    for (size_t c = 0; c < store_.class_counts_.size(); ++c) {
      store_.class_counts_[c] += s.class_counts[c];
    }
    const int64_t* src = s.cells.data();
    for (size_t i = 0; i < attr_raw_.size(); ++i) {
      int64_t* dst = attr_raw_[i];
      const int64_t cells = attr_cells_[i];
      for (int64_t c = 0; c < cells; ++c) dst[c] += src[c];
      src += cells;
    }
    for (size_t i = 0; i < pair_raw_.size(); ++i) {
      int64_t* dst = pair_raw_[i];
      const int64_t cells = pair_cells_[i];
      for (int64_t c = 0; c < cells; ++c) dst[c] += src[c];
      src += cells;
    }
  }
  return Status::OK();
}

CubeStore CubeBuilder::Finish() && {
  attr_raw_.clear();
  pair_raw_.clear();
  return std::move(store_);
}

Result<CubeStore> CubeBuilder::FromDataset(const Dataset& dataset,
                                           CubeStoreOptions options) {
  OPMAP_ASSIGN_OR_RETURN(CubeBuilder builder,
                         CubeBuilder::Make(dataset.schema(), options));
  OPMAP_RETURN_NOT_OK(builder.AddDataset(dataset));
  return std::move(builder).Finish();
}

}  // namespace opmap
