// The `opmap` command-line tool: the Opportunity Map workflow over files.
//
//   opmap generate  --records=N [--attributes=N] [--seed=N] --out=data.opmd
//   opmap csv2data  --in=data.csv --class=COLUMN --out=data.opmd
//   opmap cubes     --data=data.opmd --out=data.opmc
//   opmap info      --data=FILE | --cubes=FILE
//   opmap overview  --cubes=data.opmc [--color]
//   opmap detail    --cubes=data.opmc --attribute=NAME [--color]
//   opmap compare   --cubes=data.opmc --attribute=NAME --good=V --bad=V
//                   --class=LABEL [--json] [--color]
//   opmap vsrest    --cubes=data.opmc --attribute=NAME --value=V
//                   --class=LABEL
//   opmap pairs     --cubes=data.opmc --attribute=NAME --class=LABEL
//   opmap gi        --cubes=data.opmc [--top=N]
//   opmap mine      --data=data.opmd [--min-support=F] [--min-confidence=F]
//                   [--max-conditions=N] [--top=N]
//
// `generate` writes synthetic call logs (the library's workload); real
// data enters via csv2data. Cube generation is the offline step; every
// other command is interactive and reads only the cube file (`mine` reads
// the dataset directly for rule sets the cubes don't materialize).
//
// Every command rejects flags it does not understand (exit 4, naming the
// flag) so typos fail loudly instead of silently using defaults.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "opmap/car/miner.h"
#include "opmap/common/metrics.h"
#include "opmap/common/trace.h"
#include "opmap/compare/comparator.h"
#include "opmap/compare/report.h"
#include "opmap/core/opportunity_map.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/call_log.h"
#include "opmap/data/csv.h"
#include "opmap/data/dataset_io.h"
#include "opmap/gi/exceptions.h"
#include "opmap/gi/influence.h"
#include "opmap/gi/trend.h"
#include "opmap/gi/impressions.h"
#include "opmap/ingest/ingester.h"
#include "opmap/server/client.h"
#include "opmap/server/loadgen.h"
#include "opmap/server/server.h"
#include "opmap/viz/export.h"
#include "opmap/viz/html_report.h"
#include "opmap/viz/views.h"

namespace opmap {
namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return fallback;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const std::string s = GetString(key);
    return s.empty() ? fallback : std::strtoll(s.c_str(), nullptr, 10);
  }

  bool GetBool(const std::string& key) const {
    for (const auto& a : args_) {
      if (a == "--" + key) return true;
    }
    return false;
  }

  double GetDouble(const std::string& key, double fallback) const {
    const std::string s = GetString(key);
    if (s.empty()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
      std::fprintf(stderr, "opmap: bad value for --%s: '%s'\n", key.c_str(),
                   s.c_str());
      std::exit(4);
    }
    return v;
  }

  /// Exits with code 4 (bad name/value) naming the first flag that is not
  /// in `allowed`, or code 2 for a stray non-flag argument. Every command
  /// calls this first so typos fail instead of silently using defaults.
  void RejectUnknown(const char* cmd,
                     std::initializer_list<const char*> allowed) const {
    for (const auto& a : args_) {
      if (a.rfind("--", 0) != 0) {
        std::fprintf(stderr,
                     "opmap: unexpected argument '%s' for command '%s'\n",
                     a.c_str(), cmd);
        std::exit(2);
      }
      const size_t eq = a.find('=');
      const std::string name =
          a.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
      bool known = false;
      for (const char* f : allowed) {
        if (name == f) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::fprintf(stderr, "opmap: unknown flag --%s for command '%s'\n",
                     name.c_str(), cmd);
        std::exit(4);
      }
    }
  }

 private:
  std::vector<std::string> args_;
};

// Distinct exit codes so scripted pipelines can tell corruption from
// misuse: 0 ok, 1 other error, 2 usage, 3 I/O (unreadable or corrupt
// file), 4 bad name/value, 5 resource limit exceeded.
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIOError:
      return 3;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
      return 4;
    case StatusCode::kOutOfRange:
      return 5;
    default:
      return 1;
  }
}

[[noreturn]] void Die(const Status& status) {
  std::fprintf(stderr, "opmap: %s\n", status.ToString().c_str());
  std::exit(ExitCodeFor(status));
}

template <typename T>
T OrDie(Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).MoveValue();
}

void RequireFlag(const std::string& value, const char* flag) {
  if (value.empty()) {
    std::fprintf(stderr, "opmap: missing required flag --%s\n", flag);
    std::exit(2);
  }
}

// --mmap=on|off selects lazy mapped serving vs an eager, fully verified
// load of the cube file. Default on.
CubeLoadOptions LoadOptionsOf(const Args& args) {
  CubeLoadOptions options;
  const std::string mmap = args.GetString("mmap");
  if (mmap.empty() || mmap == "on") {
    options.use_mmap = true;
  } else if (mmap == "off") {
    options.use_mmap = false;
  } else {
    std::fprintf(stderr, "opmap: bad value for --mmap: '%s' (want on|off)\n",
                 mmap.c_str());
    std::exit(4);
  }
  return options;
}

// --cache-mb=N bounds the query-result cache; 0 (the usual CLI default)
// runs uncached, since a one-shot process rarely repeats a query.
// `compare` defaults to a small cache so its query path (and traces)
// exercise the same cached route an interactive frontend uses.
int64_t CacheBytesOf(const Args& args, int64_t default_mb = 0) {
  const int64_t mb = args.GetInt("cache-mb", default_mb);
  if (mb < 0) {
    std::fprintf(stderr, "opmap: bad value for --cache-mb: must be >= 0\n");
    std::exit(4);
  }
  return mb << 20;
}

// --stats / --trace-out=FILE observability surface, accepted by every
// command. OPMAP_STATS / OPMAP_TRACE env vars are the fallback so wrapped
// invocations (benches, CI) need no flag plumbing; OPMAP_STATS=0 stays
// off.
struct ObservabilityOptions {
  bool stats = false;
  std::string trace_out;
};

ObservabilityOptions ObservabilityOf(const Args& args) {
  ObservabilityOptions o;
  o.stats = args.GetBool("stats");
  o.trace_out = args.GetString("trace-out");
  if (!o.stats) {
    const char* env = std::getenv("OPMAP_STATS");
    o.stats = env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  }
  if (o.trace_out.empty()) {
    const char* env = std::getenv("OPMAP_TRACE");
    if (env != nullptr) o.trace_out = env;
  }
  return o;
}

// --verbose serving-path observability, on stderr so piped stdout stays
// clean: how much of the mapped file was actually touched, and how the
// result cache fared.
void PrintServingStats(const Args& args, const CubeStore& store,
                       const QueryCache* cache) {
  if (!args.GetBool("verbose")) return;
  const MappingStats m = store.GetMappingStats();
  std::fprintf(stderr,
               "serving: mapped=%s mmap=%s bytes_mapped=%lld "
               "bytes_resident=%lld cubes_verified=%lld/%lld\n",
               m.mapped ? "yes" : "no", m.is_mmap ? "yes" : "no",
               static_cast<long long>(m.bytes_mapped),
               static_cast<long long>(m.bytes_resident),
               static_cast<long long>(m.cubes_verified),
               static_cast<long long>(m.cubes_total));
  if (cache != nullptr) {
    const QueryCacheStats c = cache->GetStats();
    std::fprintf(stderr,
                 "cache: hits=%lld misses=%lld evictions=%lld entries=%lld "
                 "bytes=%lld/%lld\n",
                 static_cast<long long>(c.hits),
                 static_cast<long long>(c.misses),
                 static_cast<long long>(c.evictions),
                 static_cast<long long>(c.entries),
                 static_cast<long long>(c.bytes),
                 static_cast<long long>(c.max_bytes));
  }
}

CubeStore LoadCubes(const Args& args) {
  const std::string path = args.GetString("cubes");
  RequireFlag(path, "cubes");
  return OrDie(CubeStore::LoadFromFile(path, nullptr, LoadOptionsOf(args)));
}

ColorMode ColorOf(const Args& args) {
  return args.GetBool("color") ? ColorMode::kAlways : ColorMode::kNever;
}

// --threads=N worker override; absent = auto (OPMAP_THREADS / hardware).
// Bad values die with the InvalidArgument exit code (4), like other bad
// flag values.
ParallelOptions ThreadsOf(const Args& args) {
  const std::string text = args.GetString("threads");
  ParallelOptions parallel;
  if (!text.empty()) parallel.num_threads = OrDie(ParseThreadCount(text));
  return parallel;
}

// --block-rows=N tile-size override for the blocked counting kernel;
// absent = auto (OPMAP_BLOCK_ROWS env var, else 4096). Bad values die
// with the InvalidArgument exit code (4), like --threads.
int64_t BlockRowsOf(const Args& args) {
  const std::string text = args.GetString("block-rows");
  if (text.empty()) return 0;
  return OrDie(ParseBlockRows(text));
}

// --kernel=reference|blocked|simd counting-kernel override; absent =
// auto (OPMAP_KERNEL env var, else SIMD when the CPU supports it, else
// blocked). Bad values die with the InvalidArgument exit code (4),
// naming the flag.
CountKernel KernelOf(const Args& args) {
  const std::string text = args.GetString("kernel");
  if (text.empty()) return CountKernel::kAuto;
  return OrDie(ParseCountKernel(text));
}

// Cube-build options shared by every command that builds a store.
CubeStoreOptions BuildOptionsOf(const Args& args) {
  CubeStoreOptions options;
  options.parallel = ThreadsOf(args);
  options.block_rows = BlockRowsOf(args);
  options.kernel = KernelOf(args);
  return options;
}

int CmdGenerate(const Args& args) {
  args.RejectUnknown("generate", {"records", "attributes", "phones", "seed",
                                  "out", "no-effect", "stats", "stats-full", "trace-out"});
  const std::string out = args.GetString("out");
  RequireFlag(out, "out");
  CallLogConfig config;
  config.num_records = args.GetInt("records", 100000);
  config.num_attributes = static_cast<int>(args.GetInt("attributes", 41));
  config.num_phone_models = static_cast<int>(args.GetInt("phones", 10));
  config.num_property_attributes = 1;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  config.phone_drop_multiplier = {1.0, 1.0, 1.6};
  config.effects.push_back(PlantedEffect{
      "TimeOfCall", "morning", 2, kDroppedWhileInProgress,
      args.GetString("no-effect").empty() ? 6.0 : 1.0});
  CallLogGenerator gen = OrDie(CallLogGenerator::Make(config));
  Dataset data = gen.Generate();
  Status st = SaveDatasetToFile(data, out);
  if (!st.ok()) Die(st);
  std::printf("wrote %lld records x %d attributes to %s\n",
              static_cast<long long>(data.num_rows()),
              data.num_attributes(), out.c_str());
  return 0;
}

int CmdCsvToData(const Args& args) {
  args.RejectUnknown("csv2data", {"in", "out", "class", "strict", "recover",
                                  "stats", "stats-full", "trace-out"});
  const std::string in = args.GetString("in");
  const std::string out = args.GetString("out");
  const std::string class_column = args.GetString("class");
  RequireFlag(in, "in");
  RequireFlag(out, "out");
  RequireFlag(class_column, "class");
  if (args.GetBool("strict") && args.GetBool("recover")) {
    std::fprintf(stderr, "opmap: --strict and --recover are exclusive\n");
    return 2;
  }
  CsvReadOptions csv;
  csv.class_column = class_column;
  csv.recover = args.GetBool("recover");
  IngestReport report;
  Dataset data = OrDie(ReadCsv(in, csv, &report));
  if (report.rows_skipped > 0) {
    std::fprintf(stderr, "opmap: ingest of %s: %s\n", in.c_str(),
                 report.Summary().c_str());
    for (const std::string& e : report.sample_errors) {
      std::fprintf(stderr, "opmap:   %s\n", e.c_str());
    }
  }
  if (!data.schema().AllCategorical()) {
    // Discretize through the facade so the binary file is mining-ready.
    OpportunityMapOptions options;
    OpportunityMap map =
        OrDie(OpportunityMap::FromDataset(std::move(data), options));
    Status st = SaveDatasetToFile(map.data(), out);
    if (!st.ok()) Die(st);
    std::printf("wrote %lld discretized records to %s\n",
                static_cast<long long>(map.data().num_rows()), out.c_str());
  } else {
    Status st = SaveDatasetToFile(data, out);
    if (!st.ok()) Die(st);
    std::printf("wrote %lld records to %s\n",
                static_cast<long long>(data.num_rows()), out.c_str());
  }
  return 0;
}

int CmdCubes(const Args& args) {
  args.RejectUnknown("cubes", {"data", "out", "threads", "block-rows",
                               "kernel", "stats", "stats-full", "trace-out"});
  const std::string in = args.GetString("data");
  const std::string out = args.GetString("out");
  RequireFlag(in, "data");
  RequireFlag(out, "out");
  Dataset data = OrDie(LoadDatasetFromFile(in));
  CubeStore store = OrDie(CubeBuilder::FromDataset(data, BuildOptionsOf(args)));
  Status st = store.SaveToFile(out);
  if (!st.ok()) Die(st);
  std::printf("built %lld cubes over %lld records (%.1f MB) -> %s\n",
              static_cast<long long>(store.NumCubes()),
              static_cast<long long>(store.num_records()),
              static_cast<double>(store.MemoryUsageBytes()) / 1e6,
              out.c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  args.RejectUnknown("info", {"data", "cubes", "mmap", "verbose", "stats",
                              "trace-out"});
  if (!args.GetString("data").empty()) {
    Dataset data = OrDie(LoadDatasetFromFile(args.GetString("data")));
    std::printf("dataset: %lld rows, %d attributes (class: %s)\n",
                static_cast<long long>(data.num_rows()),
                data.num_attributes(),
                data.schema().class_attribute().name().c_str());
    for (int a = 0; a < data.num_attributes(); ++a) {
      const Attribute& attr = data.schema().attribute(a);
      std::printf("  %-24s %s, %d values%s\n", attr.name().c_str(),
                  attr.is_categorical() ? "categorical" : "continuous",
                  attr.domain(), attr.ordered() ? ", ordered" : "");
    }
    return 0;
  }
  CubeStore store = LoadCubes(args);
  std::printf("cube store: %lld cubes, %zu attributes, %lld records, "
              "%.1f MB\n",
              static_cast<long long>(store.NumCubes()),
              store.attributes().size(),
              static_cast<long long>(store.num_records()),
              static_cast<double>(store.MemoryUsageBytes()) / 1e6);
  PrintServingStats(args, store, nullptr);
  return 0;
}

int CmdOverview(const Args& args) {
  args.RejectUnknown("overview", {"cubes", "color", "mmap", "verbose",
                                  "stats", "stats-full", "trace-out"});
  CubeStore store = LoadCubes(args);
  OverviewOptions options;
  options.color = ColorOf(args);
  std::printf("%s", OrDie(RenderOverview(store, options)).c_str());
  PrintServingStats(args, store, nullptr);
  return 0;
}

int CmdDetail(const Args& args) {
  args.RejectUnknown("detail",
                     {"cubes", "attribute", "color", "mmap", "verbose",
                      "stats", "stats-full", "trace-out"});
  CubeStore store = LoadCubes(args);
  const std::string attr = args.GetString("attribute");
  RequireFlag(attr, "attribute");
  const int index = OrDie(store.schema().IndexOf(attr));
  DetailOptions options;
  options.color = ColorOf(args);
  std::printf("%s", OrDie(RenderDetail(store, index, options)).c_str());
  PrintServingStats(args, store, nullptr);
  return 0;
}

int CmdCompare(const Args& args) {
  args.RejectUnknown("compare",
                     {"cubes", "attribute", "good", "bad", "class", "json",
                      "color", "threads", "mmap", "cache-mb", "verbose",
                      "stats", "stats-full", "trace-out"});
  CubeStore store = LoadCubes(args);
  const std::string attr = args.GetString("attribute");
  const std::string good = args.GetString("good");
  const std::string bad = args.GetString("bad");
  const std::string target = args.GetString("class");
  RequireFlag(attr, "attribute");
  RequireFlag(good, "good");
  RequireFlag(bad, "bad");
  RequireFlag(target, "class");
  const Schema& schema = store.schema();
  ComparisonSpec spec;
  spec.attribute = OrDie(schema.IndexOf(attr));
  if (!schema.attribute(spec.attribute).is_categorical()) {
    Die(Status::InvalidArgument("comparison attribute must be categorical"));
  }
  spec.value_a = OrDie(schema.attribute(spec.attribute).CodeOf(good));
  spec.value_b = OrDie(schema.attribute(spec.attribute).CodeOf(bad));
  spec.target_class = OrDie(schema.class_attribute().CodeOf(target));
  // Runs through the cached path so the CLI exercises (and traces) the
  // same route an interactive frontend uses; --cache-mb=0 disables.
  Comparator comparator(&store, ThreadsOf(args));
  const int64_t cache_bytes = CacheBytesOf(args, /*default_mb=*/16);
  QueryCache cache(cache_bytes);
  if (cache_bytes > 0) comparator.set_cache(&cache);
  std::shared_ptr<const ComparisonResult> shared =
      OrDie(comparator.CompareCached(spec));
  const ComparisonResult& result = *shared;
  if (args.GetBool("json")) {
    std::printf("%s\n", ComparisonToJson(result, store.schema()).c_str());
    PrintServingStats(args, store, cache_bytes > 0 ? &cache : nullptr);
    return 0;
  }
  std::printf("%s", FormatComparisonReport(result, store.schema()).c_str());
  if (!result.ranked.empty()) {
    CompareViewOptions view;
    view.color = ColorOf(args);
    std::printf("\n%s",
                OrDie(RenderComparisonView(result, store.schema(),
                                           result.ranked[0].attribute, view))
                    .c_str());
  }
  PrintServingStats(args, store, cache_bytes > 0 ? &cache : nullptr);
  return 0;
}

int CmdVsRest(const Args& args) {
  args.RejectUnknown("vsrest", {"cubes", "attribute", "value", "class",
                                "threads", "mmap", "verbose", "stats",
                                "trace-out"});
  CubeStore store = LoadCubes(args);
  const std::string attr = args.GetString("attribute");
  const std::string value = args.GetString("value");
  const std::string target = args.GetString("class");
  RequireFlag(attr, "attribute");
  RequireFlag(value, "value");
  RequireFlag(target, "class");
  const int index = OrDie(store.schema().IndexOf(attr));
  const ValueCode v = OrDie(store.schema().attribute(index).CodeOf(value));
  const ValueCode cls =
      OrDie(store.schema().class_attribute().CodeOf(target));
  Comparator comparator(&store, ThreadsOf(args));
  ComparisonResult result = OrDie(comparator.CompareVsRest(index, v, cls));
  std::printf("%s", FormatComparisonReport(result, store.schema()).c_str());
  PrintServingStats(args, store, nullptr);
  return 0;
}

int CmdPairs(const Args& args) {
  args.RejectUnknown("pairs", {"cubes", "attribute", "class", "top",
                               "threads", "mmap", "cache-mb", "verbose",
                               "stats", "stats-full", "trace-out"});
  CubeStore store = LoadCubes(args);
  const std::string attr = args.GetString("attribute");
  const std::string target = args.GetString("class");
  RequireFlag(attr, "attribute");
  RequireFlag(target, "class");
  const int index = OrDie(store.schema().IndexOf(attr));
  const ValueCode cls =
      OrDie(store.schema().class_attribute().CodeOf(target));
  Comparator comparator(&store, ThreadsOf(args));
  const int64_t cache_bytes = CacheBytesOf(args);
  QueryCache cache(cache_bytes);
  if (cache_bytes > 0) comparator.set_cache(&cache);
  auto pairs = OrDie(comparator.CompareAllPairs(index, cls));
  std::printf("%s", FormatPairSummaries(pairs, store.schema(), index,
                                        static_cast<int>(
                                            args.GetInt("top", 20)))
                        .c_str());
  PrintServingStats(args, store, cache_bytes > 0 ? &cache : nullptr);
  return 0;
}

int CmdGi(const Args& args) {
  args.RejectUnknown("gi",
                     {"cubes", "top", "threads", "mmap", "cache-mb",
                      "verbose", "stats", "stats-full", "trace-out"});
  CubeStore store = LoadCubes(args);
  const int top = static_cast<int>(args.GetInt("top", 10));
  const Schema& schema = store.schema();

  // The full GI pass runs through the query engine so --cache-mb applies
  // (an interactive frontend re-issuing the pass hits the cache).
  GiOptions options;
  options.top_influence = top;
  options.exceptions.min_significance = 2.0;
  options.exceptions.max_results = top;
  QueryEngine engine(&store, CacheBytesOf(args), ThreadsOf(args));
  auto gi = OrDie(engine.Gi(options));

  std::printf("Influential attributes:\n");
  for (int i = 0; i < top && i < static_cast<int>(gi->influence.size());
       ++i) {
    const auto& inf = gi->influence[static_cast<size_t>(i)];
    std::printf("  %2d. %-24s V=%.3f chi2=%.1f p=%.2g\n", i + 1,
                schema.attribute(inf.attribute).name().c_str(),
                inf.cramers_v, inf.chi_square, inf.p_value);
  }

  std::printf("\nTrends (ordered attributes):\n");
  for (const Trend& t : gi->trends) {
    std::printf("  %s / %s: %s\n",
                schema.attribute(t.attribute).name().c_str(),
                schema.class_attribute().label(t.class_value).c_str(),
                TrendDirectionName(t.direction));
  }
  if (gi->trends.empty()) std::printf("  (none)\n");

  std::printf("\nStrongest exceptions:\n");
  for (const auto& e : gi->exceptions) {
    const Attribute& a = schema.attribute(e.attribute);
    std::printf("  %s=%s -> %s: %.2f%% vs expected %.2f%%\n",
                a.name().c_str(), a.label(e.value).c_str(),
                schema.class_attribute().label(e.class_value).c_str(),
                e.confidence * 100, e.expected * 100);
  }
  if (gi->exceptions.empty()) std::printf("  (none)\n");
  PrintServingStats(args, store, engine.cache());
  return 0;
}

int CmdMine(const Args& args) {
  args.RejectUnknown("mine",
                     {"data", "min-support", "min-confidence",
                      "max-conditions", "threads", "block-rows", "kernel",
                      "top", "stats", "stats-full", "trace-out"});
  const std::string in = args.GetString("data");
  RequireFlag(in, "data");
  Dataset data = OrDie(LoadDatasetFromFile(in));
  CarMinerOptions options;
  options.min_support = args.GetDouble("min-support", 0.01);
  options.min_confidence = args.GetDouble("min-confidence", 0.0);
  options.max_conditions =
      static_cast<int>(args.GetInt("max-conditions", 2));
  options.parallel = ThreadsOf(args);
  options.block_rows = BlockRowsOf(args);
  options.kernel = KernelOf(args);
  RuleSet rules = OrDie(MineClassAssociationRules(data, options));
  rules.SortByConfidence();
  const int top = static_cast<int>(args.GetInt("top", 20));
  std::printf("mined %zu rules from %lld records "
              "(min-support=%g, min-confidence=%g, max-conditions=%d)\n",
              rules.size(), static_cast<long long>(rules.num_rows()),
              options.min_support, options.min_confidence,
              options.max_conditions);
  for (size_t i = 0;
       i < rules.size() && i < static_cast<size_t>(top > 0 ? top : 0);
       ++i) {
    std::printf("  %s\n",
                rules.rule(i).ToString(data.schema(),
                                       rules.num_rows()).c_str());
  }
  return 0;
}

int CmdReport(const Args& args) {
  args.RejectUnknown("report",
                     {"cubes", "data", "attribute", "good", "bad", "class",
                      "out", "gi", "threads", "block-rows", "kernel", "mmap",
                      "verbose", "stats", "stats-full", "trace-out"});
  // Reports either read a prebuilt store (--cubes) or build one in
  // memory from a dataset (--data), where --threads/--block-rows/--kernel
  // apply.
  CubeStore store =
      args.GetString("cubes").empty() && !args.GetString("data").empty()
          ? OrDie(CubeBuilder::FromDataset(
                OrDie(LoadDatasetFromFile(args.GetString("data"))),
                BuildOptionsOf(args)))
          : LoadCubes(args);
  const std::string attr = args.GetString("attribute");
  const std::string good = args.GetString("good");
  const std::string bad = args.GetString("bad");
  const std::string target = args.GetString("class");
  const std::string out = args.GetString("out");
  RequireFlag(attr, "attribute");
  RequireFlag(good, "good");
  RequireFlag(bad, "bad");
  RequireFlag(target, "class");
  RequireFlag(out, "out");
  Comparator comparator(&store, ThreadsOf(args));
  ComparisonResult result =
      OrDie(comparator.CompareByName(attr, good, bad, target));
  HtmlReportOptions options;
  options.title = attr + ": " + good + " vs " + bad + " (" + target + ")";
  GeneralImpressions gi;
  if (args.GetBool("gi")) {
    gi = OrDie(MineGeneralImpressions(store, GiOptions{}));
    options.impressions = &gi;
  }
  Status st = WriteHtmlReport(result, store.schema(), out, options);
  if (!st.ok()) Die(st);
  std::printf("wrote %s\n", out.c_str());
  PrintServingStats(args, store, nullptr);
  return 0;
}

// Copies rows [begin, end) of `data` into a fresh batch dataset — the
// unit the ingester acknowledges (and fsyncs) at a time.
Dataset SliceRows(const Dataset& data, int64_t begin, int64_t end) {
  Dataset batch(data.schema());
  batch.Reserve(end - begin);
  std::vector<ValueCode> codes(static_cast<size_t>(data.num_attributes()));
  for (int64_t row = begin; row < end; ++row) {
    for (int a = 0; a < data.num_attributes(); ++a) {
      codes[static_cast<size_t>(a)] = data.code(row, a);
    }
    batch.AppendRowUnchecked(codes.data());
  }
  return batch;
}

// Sends a RELOAD naming `cube_path` to the daemon at `connect`. Concurrent
// reloads queue inside the daemon; it sheds one with RETRY_LATER only
// through admission control (already at --max-inflight requests). A short
// retry loop absorbs a momentary overload without hiding persistent one.
Status NotifyDaemonReload(const std::string& connect,
                          const std::string& cube_path) {
  OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<server::Client> client,
                         server::Client::Connect(connect, 10000));
  server::ReloadRequest req;
  req.path = cube_path;
  for (int attempt = 0; attempt < 3; ++attempt) {
    OPMAP_ASSIGN_OR_RETURN(server::Reply reply, client->Reload(req));
    if (reply.status != server::RespStatus::kRetryLater) {
      return reply.ToStatus();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::FailedPrecondition(
      "daemon at " + connect +
      " shed the reload 3 times (RETRY_LATER: at its --max-inflight limit)");
}

int CmdIngest(const Args& args) {
  args.RejectUnknown("ingest",
                     {"dir", "csv", "class", "batch-rows", "compact-every",
                      "fsync", "threads", "block-rows", "kernel", "notify",
                      "verbose", "stats", "stats-full", "trace-out"});
  const std::string dir = args.GetString("dir");
  const std::string csv_path = args.GetString("csv");
  RequireFlag(dir, "dir");
  RequireFlag(csv_path, "csv");

  IngestOptions options;
  options.cube = BuildOptionsOf(args);
  options.compact_every_batches = args.GetInt("compact-every", 0);
  const std::string fsync = args.GetString("fsync");
  if (fsync.empty() || fsync == "always") {
    options.wal.sync_every_append = true;
  } else if (fsync == "seal") {
    options.wal.sync_every_append = false;
  } else {
    std::fprintf(stderr,
                 "opmap: bad value for --fsync: '%s' (want always|seal)\n",
                 fsync.c_str());
    std::exit(4);
  }
  const int64_t batch_rows = args.GetInt("batch-rows", 4096);
  if (batch_rows < 1) {
    std::fprintf(stderr, "opmap: bad value for --batch-rows: must be >= 1\n");
    std::exit(4);
  }

  // First ingest into a directory defines the schema from this CSV (all
  // columns categorical, dictionaries in first-seen order); later ingests
  // re-encode against the stored dictionaries.
  const bool fresh = !Env::Default()->FileExists(dir + "/MANIFEST");
  std::unique_ptr<Ingester> ing;
  std::string class_column = args.GetString("class");
  if (fresh) {
    RequireFlag(class_column, "class");
  } else {
    ing = OrDie(Ingester::Open(Env::Default(), dir, options));
    if (class_column.empty()) {
      class_column = ing->schema().class_attribute().name();
    }
  }

  CsvReadOptions csv;
  csv.class_column = class_column;
  csv.force_categorical = true;
  IngestReport report;
  Dataset parsed = OrDie(ReadCsv(csv_path, csv, &report));
  Dataset rows = fresh ? std::move(parsed)
                       : OrDie(ReencodeForSchema(parsed, ing->schema()));
  if (fresh) {
    ing = OrDie(Ingester::Create(Env::Default(), dir, rows.schema(), options));
  }

  // --notify=ADDR: every compaction pushes its freshly committed
  // container to a running opmapd via RELOAD, so queries served after the
  // compaction reflect the new generation without restarting the daemon.
  const std::string notify = args.GetString("notify");
  if (!notify.empty()) {
    ing->set_publish_hook(
        [&notify](const CubeStore*, const std::string& cube_path) {
          return NotifyDaemonReload(notify, cube_path);
        });
  }

  const IngestStats before = ing->GetStats();
  int64_t batches = 0;
  for (int64_t begin = 0; begin < rows.num_rows(); begin += batch_rows) {
    const int64_t end = std::min(begin + batch_rows, rows.num_rows());
    Status st = ing->AppendBatch(SliceRows(rows, begin, end)).status();
    if (!st.ok()) Die(st);
    ++batches;
  }
  // With --notify, compact unconditionally so this ingest always
  // publishes (and therefore always notifies), even when --compact-every
  // did not land on the final batch.
  if (!notify.empty()) {
    Status st = ing->Compact();
    if (!st.ok()) Die(st);
    const IngestStats after = ing->GetStats();
    if (after.publish_failures > 0) {
      std::fprintf(stderr, "opmap: notify failed: %s\n",
                   after.last_publish_error.c_str());
    } else {
      std::printf("notified %s (generation %llu)\n", notify.c_str(),
                  static_cast<unsigned long long>(after.cube_generation));
    }
  }
  Status st = ing->Close();
  if (!st.ok()) Die(st);

  const IngestStats stats = ing->GetStats();
  std::printf("ingested %lld rows in %lld batches into %s "
              "(seq %llu..%llu, generation %llu)\n",
              static_cast<long long>(rows.num_rows()),
              static_cast<long long>(batches), dir.c_str(),
              static_cast<unsigned long long>(before.next_seq),
              static_cast<unsigned long long>(stats.next_seq - 1),
              static_cast<unsigned long long>(stats.cube_generation));
  if (args.GetBool("verbose")) {
    std::fprintf(stderr,
                 "wal: next_seq=%llu last_applied=%llu segments_sealed=%lld "
                 "replayed_records=%lld replayed_rows=%lld torn_tail=%s\n",
                 static_cast<unsigned long long>(stats.next_seq),
                 static_cast<unsigned long long>(stats.last_applied_seq),
                 static_cast<long long>(stats.segments_sealed),
                 static_cast<long long>(stats.replayed_records),
                 static_cast<long long>(stats.replayed_rows),
                 stats.tail_truncated ? "truncated" : "clean");
    std::fprintf(stderr,
                 "compaction: generation=%llu runs=%lld "
                 "batches_appended=%lld rows_appended=%lld\n",
                 static_cast<unsigned long long>(stats.cube_generation),
                 static_cast<long long>(stats.compactions),
                 static_cast<long long>(stats.batches_appended),
                 static_cast<long long>(stats.rows_appended));
    if (stats.publish_failures > 0) {
      std::fprintf(stderr, "compaction: publish_failures=%lld last=\"%s\"\n",
                   static_cast<long long>(stats.publish_failures),
                   stats.last_publish_error.c_str());
    }
  }
  return 0;
}

int CmdServe(const Args& args) {
  args.RejectUnknown("serve",
                     {"cubes", "listen", "mmap", "cache-mb", "threads",
                      "workers", "loops", "allow-uid", "max-inflight",
                      "max-pending", "max-connections", "verbose", "stats",
                      "stats-full", "trace-out"});
  server::ServerOptions options;
  options.cubes_path = args.GetString("cubes");
  RequireFlag(options.cubes_path, "cubes");
  options.listen = args.GetString("listen", "unix:opmapd.sock");
  options.use_mmap = LoadOptionsOf(args).use_mmap;
  // A long-lived daemon wants a warm result cache, unlike one-shot
  // commands: default 16 MB, --cache-mb=0 disables.
  options.cache_bytes = CacheBytesOf(args, 16);
  options.parallel = ThreadsOf(args);
  options.workers = static_cast<int>(args.GetInt("workers", 0));
  options.loops = static_cast<int>(args.GetInt("loops", 0));
  // --allow-uid=1000[,1001,...]: unix-socket peer-credential allow list.
  const std::string allow = args.GetString("allow-uid");
  for (size_t pos = 0; pos < allow.size();) {
    size_t comma = allow.find(',', pos);
    if (comma == std::string::npos) comma = allow.size();
    const std::string item = allow.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    char* end = nullptr;
    const unsigned long uid = std::strtoul(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0') {
      std::fprintf(stderr, "opmap: bad value for --allow-uid: '%s'\n",
                   item.c_str());
      std::exit(4);
    }
    options.allow_uids.push_back(static_cast<uint32_t>(uid));
  }
  options.max_inflight = static_cast<int>(args.GetInt("max-inflight", 64));
  options.max_pending_per_connection =
      static_cast<int>(args.GetInt("max-pending", 32));
  options.max_connections =
      static_cast<int>(args.GetInt("max-connections", 256));
  options.verbose = args.GetBool("verbose");
  auto server = OrDie(server::Server::Start(options));
  // Scripts parse this line to learn the bound address (port 0 resolves
  // to an OS-assigned port).
  std::printf("opmapd listening on %s\n", server->address().c_str());
  std::fflush(stdout);
  server::Server::InstallSignalHandlers(server.get());
  const Status st = server->Serve();
  server::Server::InstallSignalHandlers(nullptr);
  if (!st.ok()) Die(st);
  return 0;
}

int CmdLoadgen(const Args& args) {
  args.RejectUnknown("loadgen",
                     {"connect", "clients", "duration", "requests", "mix",
                      "seed", "timeout-ms", "verbose", "stats", "stats-full",
                      "trace-out"});
  server::LoadgenOptions options;
  options.connect = args.GetString("connect");
  RequireFlag(options.connect, "connect");
  options.clients = static_cast<int>(args.GetInt("clients", 4));
  options.duration_s = args.GetDouble("duration", 5.0);
  options.max_requests = args.GetInt("requests", 0);
  options.mix = args.GetString("mix", "compare:8,pairs:1,gi:1,render:2");
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  options.timeout_ms = static_cast<int>(args.GetInt("timeout-ms", 30000));
  options.verbose = args.GetBool("verbose");
  const server::LoadgenReport report = OrDie(server::RunLoadgen(options));
  std::printf("%s", server::FormatLoadgenReport(options, report).c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: opmap <command> [flags]\n"
      "commands:\n"
      "  generate  --records=N [--attributes=N] [--seed=N] --out=FILE\n"
      "  csv2data  --in=FILE.csv --class=COLUMN --out=FILE.opmd "
      "[--strict|--recover]\n"
      "  cubes     --data=FILE.opmd --out=FILE.opmc [--threads=N] "
      "[--block-rows=N] [--kernel=reference|blocked|simd]\n"
      "  info      --data=FILE | --cubes=FILE\n"
      "  overview  --cubes=FILE [--color]\n"
      "  detail    --cubes=FILE --attribute=NAME [--color]\n"
      "  compare   --cubes=FILE --attribute=NAME --good=V --bad=V "
      "--class=LABEL [--json] [--color] [--threads=N] [--cache-mb=N]\n"
      "  vsrest    --cubes=FILE --attribute=NAME --value=V --class=LABEL "
      "[--threads=N]\n"
      "  pairs     --cubes=FILE --attribute=NAME --class=LABEL [--top=N] "
      "[--threads=N] [--cache-mb=N]\n"
      "  gi        --cubes=FILE [--top=N] [--threads=N] [--cache-mb=N]\n"
      "  report    --cubes=FILE|--data=FILE.opmd --attribute=NAME "
      "--good=V --bad=V "
      "--class=LABEL --out=FILE.html [--gi] [--threads=N] "
      "[--block-rows=N] [--kernel=K]\n"
      "  mine      --data=FILE.opmd [--min-support=F] [--min-confidence=F] "
      "[--max-conditions=N] [--threads=N] [--block-rows=N] [--kernel=K] "
      "[--top=N]\n"
      "  ingest    --dir=DIR --csv=FILE.csv [--class=COLUMN] "
      "[--batch-rows=N] [--compact-every=N] [--fsync=always|seal] "
      "[--notify=ADDR] [--threads=N] [--verbose]\n"
      "            crash-safe streaming ingestion: appends CSV rows to a "
      "WAL-backed cube directory; the first ingest defines the schema "
      "(--class required), later ones re-encode against it; --notify "
      "compacts at the end and RELOADs a running opmapd with the new "
      "container\n"
      "  serve     --cubes=FILE.opmc [--listen=unix:PATH|HOST:PORT] "
      "[--cache-mb=N] [--workers=N] [--loops=N] [--allow-uid=U1,U2,...] "
      "[--max-inflight=N] [--max-pending=N] [--max-connections=N] "
      "[--mmap=on|off] [--verbose]\n"
      "            opmapd query-serving daemon (docs/SERVING.md): prints "
      "'opmapd listening on ADDR', serves until SIGINT/SIGTERM, then "
      "drains gracefully; --loops runs N event-loop threads (loop 0 "
      "accepts and hands connections round-robin), --allow-uid "
      "restricts a unix socket to the listed peer uids\n"
      "  loadgen   --connect=ADDR [--clients=N] [--duration=SECONDS] "
      "[--requests=N] [--mix=compare:8,pairs:1,gi:1,render:2] [--seed=N] "
      "[--verbose]\n"
      "            replays a weighted query mix against a live opmapd "
      "over N closed-loop connections and reports QPS + p50/p99/p999 "
      "per op\n"
      "--threads=N caps worker threads (1 = serial; default: OPMAP_THREADS "
      "env var, else hardware); results are identical at any setting\n"
      "--block-rows=N sets the counting-kernel tile size in rows "
      "(default: OPMAP_BLOCK_ROWS env var, else 4096); results are "
      "identical at any setting\n"
      "--kernel=reference|blocked|simd picks the counting kernel "
      "(default: OPMAP_KERNEL env var, else simd when the CPU supports "
      "it, else blocked); counts are bit-identical for every kernel\n"
      "--mmap=on|off maps cube files and verifies each cube lazily on "
      "first access (default on; off reads and verifies the whole file "
      "up front); results are identical either way\n"
      "--cache-mb=N bounds the query-result cache (default 0 = off; "
      "compare defaults to 16)\n"
      "--verbose prints serving stats (mapping + cache) on stderr\n"
      "--stats prints the process metrics table on stderr after any "
      "command (or set OPMAP_STATS=1); histograms that never recorded "
      "are suppressed unless --stats-full is given\n"
      "--trace-out=FILE writes a Chrome trace_event JSON of the run "
      "(or set OPMAP_TRACE=FILE); open in chrome://tracing or "
      "ui.perfetto.dev\n"
      "unknown flags are rejected (exit 4, naming the flag)\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 I/O or corrupt file, "
      "4 bad name/value, 5 resource limit\n");
  return 2;
}

int Dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "csv2data") return CmdCsvToData(args);
  if (cmd == "cubes") return CmdCubes(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "overview") return CmdOverview(args);
  if (cmd == "detail") return CmdDetail(args);
  if (cmd == "compare") return CmdCompare(args);
  if (cmd == "vsrest") return CmdVsRest(args);
  if (cmd == "pairs") return CmdPairs(args);
  if (cmd == "gi") return CmdGi(args);
  if (cmd == "report") return CmdReport(args);
  if (cmd == "mine" || cmd == "car") return CmdMine(args);
  if (cmd == "ingest") return CmdIngest(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "loadgen") return CmdLoadgen(args);
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  const ObservabilityOptions obs = ObservabilityOf(args);
  if (!obs.trace_out.empty()) Tracer::Global()->Enable();
  int rc = Dispatch(cmd, args);
  // Error paths exit() directly, skipping the dumps: a failed command has
  // no meaningful trace, and the flags are about the happy path.
  if (!obs.trace_out.empty()) {
    Tracer::Global()->Disable();
    const Status st = Tracer::Global()->WriteJson(obs.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "opmap: %s\n", st.ToString().c_str());
      if (rc == 0) rc = ExitCodeFor(st);
    }
  }
  if (obs.stats) {
    // Surface tracer overflow in the table: dropped spans mean the trace
    // (and span-fed histograms) under-report, so the reader must know.
    MetricsRegistry::Global()
        ->gauge("trace.dropped_spans")
        ->Set(Tracer::Global()->DroppedEvents());
    // Pre-registered histograms that never recorded (e.g. query.*_us of
    // query kinds this command never ran) are noise in a one-shot
    // process; --stats-full restores the exhaustive table.
    MetricsFormatOptions format;
    format.skip_zero_histograms = !args.GetBool("stats-full");
    std::fprintf(stderr, "%s",
                 FormatMetricsTable(MetricsRegistry::Global()->Snapshot(),
                                    format)
                     .c_str());
  }
  return rc;
}

}  // namespace
}  // namespace opmap

int main(int argc, char** argv) { return opmap::Run(argc, argv); }
