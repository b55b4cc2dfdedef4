#include "opmap/core/session.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "opmap/common/string_util.h"
#include "opmap/common/trace.h"
#include "opmap/viz/bars.h"

namespace opmap {

namespace {

// Process-wide aggregates over every QueryCache instance; the
// per-instance members back GetStats.
Counter* CacheHitsTotal() {
  static Counter* const c = MetricsRegistry::Global()->counter("cache.hits");
  return c;
}
Counter* CacheMissesTotal() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("cache.misses");
  return c;
}
Counter* CacheEvictionsTotal() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("cache.evictions");
  return c;
}

}  // namespace

QueryCache::QueryCache(int64_t max_bytes)
    : max_bytes_(max_bytes > 0 ? max_bytes : 0) {}

std::shared_ptr<const ComparisonResult> QueryCache::Lookup(
    const std::string& key) {
  // Comparison keys ("cmp|...") only ever hold ComparisonResult values
  // (Insert below), so the downcast is safe.
  return std::static_pointer_cast<const ComparisonResult>(LookupAny(key));
}

void QueryCache::Insert(const std::string& key,
                        std::shared_ptr<const ComparisonResult> result) {
  const int64_t bytes = result ? ApproxResultBytes(*result) : 0;
  InsertAny(key, std::move(result), bytes);
}

std::shared_ptr<const void> QueryCache::LookupAny(const std::string& key) {
  OPMAP_TRACE_SPAN("cache.lookup");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.Increment();
    CacheMissesTotal()->Increment();
    return nullptr;
  }
  hits_.Increment();
  CacheHitsTotal()->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front, no alloc
  return it->second->value;
}

void QueryCache::InsertAny(const std::string& key,
                           std::shared_ptr<const void> value,
                           int64_t bytes) {
  if (value == nullptr || bytes < 0) return;
  if (bytes > max_bytes_) return;  // would evict everything else for one entry
  OPMAP_TRACE_SPAN("cache.insert");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh in place (a racing miss recomputed the same descriptor).
    bytes_ += bytes - it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
  }
  EvictWhileOverLocked();
}

void QueryCache::EvictWhileOverLocked() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_.Increment();
    CacheEvictionsTotal()->Increment();
  }
}

void QueryCache::BumpEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  epoch_.Increment();
  static Counter* const bumps =
      MetricsRegistry::Global()->counter("cache.epoch_bumps");
  bumps->Increment();
}

QueryCacheStats QueryCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryCacheStats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.evictions = evictions_.Value();
  stats.entries = static_cast<int64_t>(lru_.size());
  stats.bytes = bytes_;
  stats.max_bytes = max_bytes_;
  stats.epoch = static_cast<uint64_t>(epoch_.Value());
  return stats;
}

QueryEngine::QueryEngine(const CubeStore* store, int64_t cache_bytes,
                         ParallelOptions parallel)
    : store_(store), parallel_(parallel), cache_(cache_bytes),
      comparator_(store, parallel) {
  comparator_.set_cache(&cache_);
}

void QueryEngine::SetStore(const CubeStore* store) {
  store_ = store;
  comparator_ = Comparator(store, parallel_);
  comparator_.set_cache(&cache_);
  cache_.BumpEpoch();
}

Result<std::shared_ptr<const ComparisonResult>> QueryEngine::Compare(
    const ComparisonSpec& spec) const {
  return comparator_.CompareCached(spec);
}

Result<std::vector<PairSummary>> QueryEngine::CompareAllPairs(
    int attribute, ValueCode target_class, int64_t min_population) const {
  return comparator_.CompareAllPairs(attribute, target_class,
                                     min_population);
}

std::string QueryEngine::GiCacheKey(const GiOptions& options) {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "gi|tcl=%d|ta=%.17g|ts=%.17g|to=%d|ecl=%d|es=%.17g|eb=%lld|em=%d|"
      "ef=%.17g|ti=%d|mi=%d|tn=%d",
      static_cast<int>(options.trends.confidence_level),
      options.trends.min_agreement, options.trends.stable_spread,
      options.trends.ordered_attributes_only ? 1 : 0,
      static_cast<int>(options.exceptions.confidence_level),
      options.exceptions.min_significance,
      static_cast<long long>(options.exceptions.min_body_count),
      options.exceptions.max_results, options.exceptions.fdr,
      options.top_influence, options.mine_interactions ? 1 : 0,
      options.top_interactions);
  return buf;
}

int64_t QueryEngine::ApproxGiBytes(const GeneralImpressions& gi) {
  return static_cast<int64_t>(
      sizeof(GeneralImpressions) +
      gi.influence.size() * sizeof(AttributeInfluence) +
      gi.trends.size() * sizeof(Trend) +
      gi.exceptions.size() * sizeof(ExceptionCell) +
      gi.interactions.size() * sizeof(ExceptionCell));
}

Result<std::shared_ptr<const GeneralImpressions>> QueryEngine::Gi(
    const GiOptions& options) const {
  OPMAP_TRACE_SPAN("query.gi");
  static Histogram* const latency =
      MetricsRegistry::Global()->histogram("query.gi_us");
  const int64_t start_us = MonotonicMicros();
  const std::string key = GiCacheKey(options);
  if (std::shared_ptr<const void> hit = cache_.LookupAny(key)) {
    latency->Record(MonotonicMicros() - start_us);
    return std::static_pointer_cast<const GeneralImpressions>(hit);
  }
  OPMAP_ASSIGN_OR_RETURN(GeneralImpressions gi,
                         MineGeneralImpressions(*store_, options));
  auto shared = std::make_shared<const GeneralImpressions>(std::move(gi));
  cache_.InsertAny(key, shared, ApproxGiBytes(*shared));
  latency->Record(MonotonicMicros() - start_us);
  return shared;
}

ExplorationSession::ExplorationSession(const CubeStore* store)
    : store_(store) {}

Result<int> ExplorationSession::CurrentDim(
    const std::string& attribute) const {
  if (!has_view()) {
    return Status::InvalidArgument("no current view; open an attribute "
                                   "first");
  }
  const RuleCube& cube = current();
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (cube.dim_name(d) == attribute) return d;
  }
  return Status::NotFound("the current view has no dimension '" + attribute +
                          "'");
}

Status ExplorationSession::Record(const std::string& op, Status status) {
  if (status.ok()) {
    last_error_ = Status::OK();
    return status;
  }
  std::string context = op;
  if (has_view()) context += " (at view: " + PathString() + ")";
  last_error_ = Status(status.code(), context + ": " + status.message());
  return last_error_;
}

Status ExplorationSession::OpenAttribute(const std::string& attribute) {
  return Record("open " + attribute, [&]() -> Status {
    OPMAP_ASSIGN_OR_RETURN(int attr, store_->schema().IndexOf(attribute));
    OPMAP_ASSIGN_OR_RETURN(const RuleCube* cube, store_->AttrCube(attr));
    history_.clear();
    history_.push_back(Step{*cube, attribute});
    return Status::OK();
  }());
}

Status ExplorationSession::DrillDown(const std::string& second_attribute) {
  return Record("drill " + second_attribute, [&]() -> Status {
    if (!has_view()) {
      return Status::InvalidArgument("no current view; open an attribute "
                                     "first");
    }
    const RuleCube& cube = current();
    if (cube.num_dims() != 2) {
      return Status::InvalidArgument(
          "drill-down is only defined on a 2-D (attribute, class) view");
    }
    OPMAP_ASSIGN_OR_RETURN(int first,
                           store_->schema().IndexOf(cube.dim_name(0)));
    OPMAP_ASSIGN_OR_RETURN(int second,
                           store_->schema().IndexOf(second_attribute));
    if (second == first || store_->schema().is_class(second)) {
      return Status::InvalidArgument("cannot drill into '" +
                                     second_attribute + "'");
    }
    OPMAP_ASSIGN_OR_RETURN(const RuleCube* pair,
                           store_->PairCube(first, second));
    history_.push_back(Step{*pair, "drill " + second_attribute});
    return Status::OK();
  }());
}

Status ExplorationSession::Slice(const std::string& attribute,
                                 const std::string& value) {
  return Record("slice " + attribute + "=" + value, [&]() -> Status {
    OPMAP_ASSIGN_OR_RETURN(int dim, CurrentDim(attribute));
    OPMAP_ASSIGN_OR_RETURN(int attr, store_->schema().IndexOf(attribute));
    OPMAP_ASSIGN_OR_RETURN(ValueCode v,
                           store_->schema().attribute(attr).CodeOf(value));
    OPMAP_ASSIGN_OR_RETURN(RuleCube next, current().Slice(dim, v));
    history_.push_back(
        Step{std::move(next), "slice " + attribute + "=" + value});
    return Status::OK();
  }());
}

Status ExplorationSession::Dice(const std::string& attribute,
                                const std::vector<std::string>& values) {
  return Record("dice " + attribute, [&]() -> Status {
    OPMAP_ASSIGN_OR_RETURN(int dim, CurrentDim(attribute));
    OPMAP_ASSIGN_OR_RETURN(int attr, store_->schema().IndexOf(attribute));
    std::vector<ValueCode> codes;
    for (const std::string& value : values) {
      OPMAP_ASSIGN_OR_RETURN(ValueCode v,
                             store_->schema().attribute(attr).CodeOf(value));
      codes.push_back(v);
    }
    OPMAP_ASSIGN_OR_RETURN(RuleCube next, current().Dice(dim, codes));
    history_.push_back(Step{std::move(next),
                            "dice " + attribute + " to " +
                                JoinStrings(values, "|")});
    return Status::OK();
  }());
}

Status ExplorationSession::RollUp(const std::string& attribute) {
  return Record("roll-up " + attribute, [&]() -> Status {
    OPMAP_ASSIGN_OR_RETURN(int dim, CurrentDim(attribute));
    OPMAP_ASSIGN_OR_RETURN(RuleCube next, current().Marginalize(dim));
    history_.push_back(Step{std::move(next), "roll-up " + attribute});
    return Status::OK();
  }());
}

Status ExplorationSession::Back() {
  return Record("back", [&]() -> Status {
    if (history_.size() <= 1) {
      return Status::InvalidArgument("nothing to undo");
    }
    history_.pop_back();
    return Status::OK();
  }());
}

void ExplorationSession::Reset() {
  history_.clear();
  last_error_ = Status::OK();
}

std::string ExplorationSession::PathString() const {
  std::string out;
  for (size_t i = 0; i < history_.size(); ++i) {
    if (i > 0) out += " > ";
    out += history_[i].description;
  }
  return out;
}

Result<std::string> ExplorationSession::Render(
    const SessionRenderOptions& options) const {
  if (!has_view()) {
    return Status::InvalidArgument("no current view; open an attribute "
                                   "first");
  }
  OPMAP_TRACE_SPAN("query.render");
  static Histogram* const latency =
      MetricsRegistry::Global()->histogram("query.render_us");
  const int64_t start_us = MonotonicMicros();
  auto record = [&](Result<std::string> out) {
    latency->Record(MonotonicMicros() - start_us);
    return out;
  };
  if (cache_ == nullptr) return record(RenderUncached(options));
  // The operation path plus render options fully determine the output for
  // a given store; store changes are handled by the cache owner's epoch
  // bump.
  const std::string key = "view|" + PathString() +
                          "|rows=" + std::to_string(options.max_rows) +
                          "|bar=" + std::to_string(options.bar_width);
  if (std::shared_ptr<const void> hit = cache_->LookupAny(key)) {
    return record(*std::static_pointer_cast<const std::string>(hit));
  }
  OPMAP_ASSIGN_OR_RETURN(std::string out, RenderUncached(options));
  auto shared = std::make_shared<const std::string>(std::move(out));
  cache_->InsertAny(key, shared,
                    static_cast<int64_t>(key.size() + shared->size()));
  return record(*shared);
}

Result<std::string> ExplorationSession::RenderUncached(
    const SessionRenderOptions& options) const {
  const RuleCube& cube = current();
  const std::string& class_name = store_->schema().class_attribute().name();
  const int class_dim = cube.FindDim(store_->schema().class_index());

  std::string out = "view: " + PathString() + "\n";
  out += "cube: ";
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (d > 0) out += " x ";
    out += cube.dim_name(d) + "(" + std::to_string(cube.dim_size(d)) + ")";
  }
  out += ", " + std::to_string(cube.Total()) + " records\n";

  if (class_dim < 0) {
    // Pure count view after the class was sliced/rolled away.
    out += "(class dimension removed; showing counts)\n";
    std::vector<ValueCode> cell(static_cast<size_t>(cube.num_dims()), 0);
    int rows = 0;
    const int64_t total = cube.Total();
    for (;;) {
      if (rows++ >= options.max_rows) {
        out += "...\n";
        break;
      }
      std::string label;
      for (int d = 0; d < cube.num_dims(); ++d) {
        if (d > 0) label += ", ";
        label += cube.label(d, cell[static_cast<size_t>(d)]);
      }
      const int64_t count = cube.count(cell);
      const double frac =
          total > 0 ? static_cast<double>(count) / static_cast<double>(total)
                    : 0.0;
      out += "  " + PadTo(label, 34) + " |" +
             HorizontalBar(frac, options.bar_width) + "| " +
             std::to_string(count) + "\n";
      int d = cube.num_dims() - 1;
      while (d >= 0 &&
             cell[static_cast<size_t>(d)] == cube.dim_size(d) - 1) {
        cell[static_cast<size_t>(d)] = 0;
        --d;
      }
      if (d < 0) break;
      ++cell[static_cast<size_t>(d)];
    }
    return out;
  }

  // Iterate body coordinates (all dims except the class) and print per-
  // class confidences.
  std::vector<int> body_dims;
  for (int d = 0; d < cube.num_dims(); ++d) {
    if (d != class_dim) body_dims.push_back(d);
  }
  std::vector<ValueCode> cell(static_cast<size_t>(cube.num_dims()), 0);
  std::vector<ValueCode> body(body_dims.size(), 0);
  int rows = 0;
  for (;;) {
    for (size_t i = 0; i < body_dims.size(); ++i) {
      cell[static_cast<size_t>(body_dims[i])] = body[i];
    }
    if (rows++ >= options.max_rows) {
      out += "...\n";
      break;
    }
    std::string label;
    for (size_t i = 0; i < body_dims.size(); ++i) {
      if (i > 0) label += ", ";
      label += cube.label(body_dims[i], body[i]);
    }
    if (body_dims.empty()) label = "(all)";
    cell[static_cast<size_t>(class_dim)] = 0;
    const int64_t body_count = cube.MarginCount(cell, class_dim);
    out += PadTo(label, 28) + " n=" + std::to_string(body_count) + "\n";
    for (ValueCode c = 0; c < cube.dim_size(class_dim); ++c) {
      cell[static_cast<size_t>(class_dim)] = c;
      const double cf =
          body_count > 0 ? static_cast<double>(cube.count(cell)) /
                               static_cast<double>(body_count)
                         : 0.0;
      out += "  " + PadTo(class_name + "=" + cube.label(class_dim, c), 40) +
             " |" + HorizontalBar(cf, options.bar_width) + "| " +
             FormatPercent(cf, 2) + "\n";
    }
    // Advance the body coordinates.
    if (body_dims.empty()) break;
    int i = static_cast<int>(body_dims.size()) - 1;
    while (i >= 0 &&
           body[static_cast<size_t>(i)] ==
               cube.dim_size(body_dims[static_cast<size_t>(i)]) - 1) {
      body[static_cast<size_t>(i)] = 0;
      --i;
    }
    if (i < 0) break;
    ++body[static_cast<size_t>(i)];
  }
  return out;
}

}  // namespace opmap
