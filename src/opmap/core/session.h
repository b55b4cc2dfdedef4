#ifndef OPMAP_CORE_SESSION_H_
#define OPMAP_CORE_SESSION_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "opmap/common/metrics.h"
#include "opmap/common/status.h"
#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"
#include "opmap/gi/impressions.h"

namespace opmap {

/// Observability counters of one QueryCache. hits/misses/evictions are
/// monotonic over the cache's lifetime (they survive invalidation);
/// entries/bytes describe the current contents.
struct QueryCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t entries = 0;
  /// Approximate bytes of the cached values (caller-declared costs).
  int64_t bytes = 0;
  int64_t max_bytes = 0;
  /// Invalidation epoch: bumped (and the contents dropped) whenever the
  /// served store or the query options change.
  uint64_t epoch = 0;
};

/// Size-bounded, thread-safe LRU over canonicalized query descriptors —
/// the serving layer's shared result cache. Keys are opaque strings whose
/// leading "<kind>|" tag namespaces the descriptor (comparison spec
/// "cmp|...", GI request "gi|...", rendered slice/dice view "view|..."),
/// so one cache can hold every query type without collisions.
///
/// Values are held as shared_ptr<const void>: a lookup hands out a
/// reference that stays valid after eviction or invalidation, so readers
/// never block writers beyond the bookkeeping mutex. The typed
/// ComparisonCache overrides let a Comparator consult the cache from its
/// CompareAllPairs fan-out, which is the concurrency this class is
/// designed (and TSan-tested) for.
class QueryCache : public ComparisonCache {
 public:
  /// `max_bytes` bounds the sum of declared value costs; inserting past
  /// the bound evicts least-recently-used entries. 0 disables caching
  /// (every lookup misses, inserts are dropped).
  explicit QueryCache(int64_t max_bytes = kDefaultMaxBytes);

  static constexpr int64_t kDefaultMaxBytes = int64_t{64} << 20;

  // ComparisonCache interface (keys from ComparisonCacheKey).
  std::shared_ptr<const ComparisonResult> Lookup(
      const std::string& key) override;
  void Insert(const std::string& key,
              std::shared_ptr<const ComparisonResult> result) override;

  /// Untyped variants for non-comparison descriptors. The caller must use
  /// a distinct key namespace per value type; the cache itself is
  /// type-agnostic. `bytes` is the value's approximate cost against
  /// max_bytes (values costing more than max_bytes are not cached).
  std::shared_ptr<const void> LookupAny(const std::string& key);
  void InsertAny(const std::string& key, std::shared_ptr<const void> value,
                 int64_t bytes);

  /// Epoch-based invalidation: drops every entry and increments the
  /// epoch. Call whenever the underlying store or the options baked into
  /// cached results change. Outstanding shared_ptrs from earlier lookups
  /// remain valid.
  void BumpEpoch();

  QueryCacheStats GetStats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    int64_t bytes = 0;
  };

  // Evicts from the LRU tail until bytes_ fits max_bytes_. mu_ held.
  void EvictWhileOverLocked();

  const int64_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  int64_t bytes_ = 0;
  // Per-instance counters on the shared metrics primitives (GetStats is a
  // thin read of these); every bump also feeds the process-wide registry
  // under cache.* so --stats aggregates across caches.
  Counter hits_;
  Counter misses_;
  Counter evictions_;
  Counter epoch_;
};

/// The serving facade: one loaded store, a comparator wired to a shared
/// QueryCache, and cached GI mining — the object an interactive frontend
/// holds per cube file. Query methods are safe to call concurrently with
/// each other; SetStore is not (swap the store from one thread).
class QueryEngine {
 public:
  /// `store` must outlive the engine (and every result handed out while
  /// it is served). `cache_bytes` bounds the shared cache; 0 disables it.
  explicit QueryEngine(const CubeStore* store,
                       int64_t cache_bytes = QueryCache::kDefaultMaxBytes,
                       ParallelOptions parallel = {});

  /// Replaces the served store and invalidates every cached result.
  void SetStore(const CubeStore* store);

  /// Cached comparison (see Comparator::CompareCached).
  Result<std::shared_ptr<const ComparisonResult>> Compare(
      const ComparisonSpec& spec) const;

  /// All-pairs sweep whose per-pair comparisons run through the cache.
  Result<std::vector<PairSummary>> CompareAllPairs(
      int attribute, ValueCode target_class,
      int64_t min_population = 30) const;

  /// Cached GI pass over the store.
  Result<std::shared_ptr<const GeneralImpressions>> Gi(
      const GiOptions& options = {}) const;

  const CubeStore* store() const { return store_; }
  const Comparator& comparator() const { return comparator_; }
  /// The engine's cache, for attaching ExplorationSessions (safe to use
  /// from a const engine: the cache is internally synchronized).
  QueryCache* cache() const { return &cache_; }
  QueryCacheStats GetCacheStats() const { return cache_.GetStats(); }

 private:
  static std::string GiCacheKey(const GiOptions& options);
  static int64_t ApproxGiBytes(const GeneralImpressions& gi);

  const CubeStore* store_;
  ParallelOptions parallel_;
  // Mutable: const query methods record hits/misses and insert results —
  // the cache is bookkeeping, not logical engine state.
  mutable QueryCache cache_;
  Comparator comparator_;
};

/// Options for rendering the session's current cube.
struct SessionRenderOptions {
  /// Maximum body rows (non-class coordinate combinations) to print.
  int max_rows = 30;
  int bar_width = 30;
};

/// Interactive OLAP navigation over a cube store, mirroring how analysts
/// drive the deployed GUI (paper Section III.B: "OLAP operations, such as
/// roll-up, drill-down, slice and dice, are used to explore these cubes").
///
/// The session holds a *current* rule cube plus the history of operations
/// that produced it; Back() undoes the last operation. All operations are
/// closed over rule cubes, so any sequence is valid as long as dimensions
/// exist.
class ExplorationSession {
 public:
  /// `store` must outlive the session.
  explicit ExplorationSession(const CubeStore* store);

  /// Attaches a shared cache for rendered views: Render() results are
  /// cached under the session's operation path ("view|<path>|..."), which
  /// fully determines the output for a given store. The cache owner must
  /// BumpEpoch() when the store changes. Null detaches.
  void set_cache(QueryCache* cache) { cache_ = cache; }

  /// Opens the 2-D rule cube (attribute, class) as the current view.
  Status OpenAttribute(const std::string& attribute);

  /// Replaces the current 2-D view with the 3-D pair cube over the
  /// current attribute, `second_attribute` and the class. Only valid
  /// from a freshly opened 2-D view (as in the GUI, drill-down adds the
  /// second dimension).
  Status DrillDown(const std::string& second_attribute);

  /// Fixes `attribute` to `value` and removes the dimension.
  Status Slice(const std::string& attribute, const std::string& value);

  /// Restricts `attribute` to the given values.
  Status Dice(const std::string& attribute,
              const std::vector<std::string>& values);

  /// Sums out `attribute`.
  Status RollUp(const std::string& attribute);

  /// Undoes the last operation. Fails when at the initial view.
  Status Back();

  /// Drops everything; the session has no current view again.
  void Reset();

  /// The most recent non-OK status returned by a navigation operation,
  /// annotated with the operation and the view it failed on. Interactive
  /// frontends surface this instead of threading every Status upward.
  /// OK when no operation has failed since the last successful one.
  const Status& last_error() const { return last_error_; }

  bool has_view() const { return !history_.empty(); }
  const RuleCube& current() const { return history_.back().cube; }

  /// "PhoneModel > drill TimeOfCall > slice PhoneModel=ph3".
  std::string PathString() const;

  /// Renders the current cube: per non-class coordinate combination, the
  /// per-class confidences with bars; capped by options.max_rows. Served
  /// from the attached cache when the same path was rendered before.
  Result<std::string> Render(const SessionRenderOptions& options = {}) const;

 private:
  struct Step {
    RuleCube cube;
    std::string description;
  };

  // Finds the dimension of the current cube for a named attribute.
  Result<int> CurrentDim(const std::string& attribute) const;

  // Render() without the cache layer.
  Result<std::string> RenderUncached(const SessionRenderOptions& options)
      const;

  // Stores (and annotates) a failed operation's status for last_error();
  // clears the slot on success. Returns the annotated status.
  Status Record(const std::string& op, Status status);

  const CubeStore* store_;
  std::vector<Step> history_;
  Status last_error_;
  QueryCache* cache_ = nullptr;
};

}  // namespace opmap

#endif  // OPMAP_CORE_SESSION_H_
