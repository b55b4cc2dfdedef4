#ifndef OPMAP_COMMON_IO_H_
#define OPMAP_COMMON_IO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "opmap/common/status.h"

namespace opmap {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected). Used by the
/// aligned section container to detect bit rot in cube stores, datasets
/// and the ingest manifest. Software table-driven implementation; `crc`
/// chains calls so large payloads can be checksummed incrementally.
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

// ---------------------------------------------------------------------------
// Env seam: every filesystem touch of the persistence layer goes through an
// Env so tests can interpose a FaultInjectingEnv and deterministically fail
// the Nth read/write/rename/fsync. Mirrors leveldb's Env in miniature.
// ---------------------------------------------------------------------------

/// Append-only file handle. Writers must Flush+Sync before Close to get
/// crash durability; Close reports deferred write errors.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const char* data, size_t n) = 0;
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }
  /// Pushes buffered bytes to the OS.
  virtual Status Flush() = 0;
  /// Flush + fsync: bytes survive power loss once this returns OK.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Forward-only reader with bounded reads: Read returns at most `n` bytes
/// (short reads only at end of file), so a corrupt length field can never
/// force an unbounded allocation.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  /// Reads up to `n` bytes, appending to `out`. Sets `*eof` when the end
  /// of the file was reached.
  virtual Status Read(size_t n, std::string* out, bool* eof) = 0;
};

/// A read-only byte range backed either by a real memory mapping (zero
/// copies, pages faulted in on first touch) or by an aligned heap buffer
/// (the read-into-buffer fallback). `data()` is 64-byte aligned in both
/// cases, so int64 count arrays laid out on aligned offsets inside the
/// region can be read in place.
class MappedRegion {
 public:
  virtual ~MappedRegion() = default;
  const char* data() const { return data_; }
  size_t size() const { return size_; }
  /// True when backed by mmap (pages load lazily); false for the heap
  /// fallback (the whole file was read up front).
  virtual bool is_mmap() const = 0;
  /// Bytes of the region currently resident in physical memory, or -1 when
  /// the platform cannot tell. Heap-backed regions are fully resident.
  virtual int64_t ResidentBytes() const = 0;

 protected:
  const char* data_ = nullptr;
  size_t size_ = 0;
};

/// Abstract filesystem. `Env::Default()` is the real POSIX filesystem; the
/// persistence layer takes an Env* (nullptr = default) everywhere so fault
/// injection and future remote backends need no code changes.
class Env {
 public:
  virtual ~Env() = default;

  /// Process-wide POSIX environment. Never deleted.
  static Env* Default();

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) = 0;
  /// Maps `path` read-only. The base implementation reads the whole file
  /// through NewSequentialFile into a 64-byte-aligned heap buffer (so any
  /// Env works, and FaultInjectingEnv read faults apply); PosixEnv
  /// overrides it with a real mmap and falls back to the heap path when
  /// mmap is unavailable. The region is immutable and independent of this
  /// Env's lifetime.
  virtual Result<std::unique_ptr<MappedRegion>> MapFile(
      const std::string& path);
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  /// Creates a directory (the parent must exist). Succeeds when the
  /// directory already exists, so callers can open-or-create idempotently.
  virtual Status CreateDir(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  /// Backoff sleeps route through the Env so tests run at full speed.
  virtual void SleepMicros(int64_t micros) = 0;
};

/// Reads the whole file into `out` in bounded chunks. Fails with
/// kOutOfRange if the file exceeds `max_bytes` instead of exhausting
/// memory on a corrupt or hostile input.
Status ReadFileToString(Env* env, const std::string& path, std::string* out,
                        uint64_t max_bytes = 1ULL << 32);

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Filesystem operations a FaultInjectingEnv can fail.
enum class FaultOp : int {
  kOpenWrite = 0,
  kOpenRead = 1,
  kWrite = 2,
  kRead = 3,
  kSync = 4,
  kRename = 5,
  kDelete = 6,
  kMap = 7,
  kCreateDir = 8,
};
constexpr int kNumFaultOps = 9;

/// Stable lowercase name of a FaultOp ("write", "open-read", ...), used in
/// injected-error messages and the FaultPlan repro string.
const char* FaultOpName(FaultOp op);

/// Parses a FaultOpName back to the op.
Result<FaultOp> ParseFaultOp(const std::string& name);

/// How an injected write failure mangles the bytes that still reach the
/// file. This is the power-cut model: a write interrupted by power loss
/// leaves an arbitrary prefix on disk, possibly with garbage in it.
enum class CorruptionMode : int {
  /// The failing write leaves nothing behind.
  kNone = 0,
  /// A seed-chosen prefix of the failing write reaches the file.
  kTornWrite = 1,
  /// A prefix reaches the file with one seed-chosen bit flipped.
  kBitFlip = 2,
};

/// One deterministic crash scenario for FaultInjectingEnv::ArmPlan: the
/// `nth` occurrence of `op` fails; if `op` is a write, `mode` decides what
/// the torn write leaves on disk (prefix length and flipped bit derived
/// from `seed`); with `power_cut` every subsequent operation fails too, so
/// nothing runs "after the crash" until the test reopens with a healthy
/// env. Serializes to a one-line repro string so a failing crash-drill
/// case can be replayed exactly:
///
///   op=write nth=7 mode=torn seed=123 cut=1
struct FaultPlan {
  FaultOp op = FaultOp::kWrite;
  int64_t nth = 1;
  CorruptionMode mode = CorruptionMode::kNone;
  /// Chooses the torn-prefix length and the flipped bit deterministically.
  uint64_t seed = 0;
  /// Latch power loss: after the trigger, every op of every kind fails.
  bool power_cut = true;

  /// One-line repro string (the format shown above).
  std::string ToString() const;
  /// Parses a ToString() line back into a plan.
  static Result<FaultPlan> Parse(const std::string& text);
};

/// Wraps a base Env and deterministically fails operations: the Nth
/// occurrence (1-based, counted across the env's lifetime) of the armed
/// FaultOp returns kIOError. With `fail_forever`, every occurrence from the
/// Nth on fails — use this to model a persistently broken disk (retries must
/// eventually surface the error); without it exactly one failure is injected
/// — use this to model a transient error that a retry absorbs.
class FaultInjectingEnv : public Env {
 public:
  /// `base` must outlive this env; nullptr means Env::Default().
  explicit FaultInjectingEnv(Env* base = nullptr);

  /// Arms the env: the `nth` occurrence of `op` fails (n >= 1).
  void FailAt(FaultOp op, int64_t nth, bool fail_forever = false);

  /// Arms a crash scenario (see FaultPlan). Coexists with FailAt: the plan
  /// is checked first. The trigger's injected error message embeds the
  /// plan's repro string.
  void ArmPlan(const FaultPlan& plan);

  /// True once an armed power-cut plan has tripped: the simulated machine
  /// is off, and every further operation fails until Reset().
  bool PowerLost() const { return power_lost_; }

  /// Disarms and resets all counters.
  void Reset();

  /// Operations of `op` attempted so far (failed ones included).
  int64_t OpCount(FaultOp op) const;
  /// Total operations attempted across all kinds.
  int64_t TotalOps() const;
  /// Injected failures delivered so far.
  int64_t InjectedFailures() const { return injected_; }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override;
  /// Ticks FaultOp::kMap, then maps through the BASE Env's heap fallback
  /// (never a real mmap), so kRead/kOpenRead faults also reach the mapping
  /// path deterministically.
  Result<std::unique_ptr<MappedRegion>> MapFile(
      const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status DeleteFile(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  void SleepMicros(int64_t micros) override;

 private:
  friend class FaultInjectingWritableFile;
  friend class FaultInjectingSequentialFile;

  /// Bumps the counter for `op`; returns the injected error when armed and
  /// the counter hits (or passed, with fail_forever) the armed index.
  Status Tick(FaultOp op);

  /// Applies the pending torn-write corruption (set by a plan-triggered
  /// write failure) to `file`: writes the seed-chosen prefix of the failed
  /// buffer, possibly with a bit flipped, straight to the base file. Best
  /// effort — the simulated power is already out.
  void ApplyTornWrite(WritableFile* file, const char* data, size_t n);

  Env* base_;
  int64_t counts_[kNumFaultOps] = {};
  int armed_op_ = -1;
  int64_t armed_at_ = 0;
  bool fail_forever_ = false;
  int64_t injected_ = 0;
  FaultPlan plan_;
  bool plan_armed_ = false;
  bool power_lost_ = false;
  CorruptionMode pending_corruption_ = CorruptionMode::kNone;
};

// ---------------------------------------------------------------------------
// Retry + atomic replace
// ---------------------------------------------------------------------------

/// Exponential backoff for transient I/O errors (NFS blips, EINTR-ish
/// conditions). Only kIOError is considered transient; other codes fail
/// immediately.
struct RetryPolicy {
  int max_attempts = 3;
  int64_t initial_backoff_micros = 1000;
  double backoff_multiplier = 4.0;
};

/// Runs `op` until it returns OK, a non-transient code, or attempts are
/// exhausted; sleeps through `env` between attempts.
Status RetryWithBackoff(Env* env, const RetryPolicy& policy,
                        const std::function<Status()>& op);

/// Crash-safe whole-file replace: writes `contents` to `path + ".tmp"`,
/// flushes, fsyncs, closes, then atomically renames over `path`. On any
/// failure the temp file is cleaned up (best effort) and the previous file
/// at `path` — if any — is left untouched, so no failure point leaves a
/// partially written file visible at the target path. The whole sequence is
/// retried per `policy`.
Status AtomicWriteFile(Env* env, const std::string& path,
                       const std::string& contents,
                       const RetryPolicy& policy = RetryPolicy{});

// ---------------------------------------------------------------------------
// Aligned section container: the one container of every opmap file
// ---------------------------------------------------------------------------

/// Every payload starts on a multiple of this file offset, so a payload
/// holding little-endian int64 counts can be read in place from a mapping.
constexpr size_t kAlignedPayloadAlignment = 64;

/// One named, independently checksummed region of a container, as handed
/// to the writer.
struct Section {
  /// Short ASCII name ("schema", "cube_index"); named in corruption errors.
  std::string name;
  /// Advisory element count (attributes, cubes) surfaced in the header so
  /// `info` style tooling can report sizes without parsing payloads.
  uint64_t record_count = 0;
  std::string payload;
};

/// One section of a parsed container, described by the (verified) header.
/// Unlike `Section` this holds no payload copy — `offset`/`size` locate the
/// bytes inside the file, and `crc` lets callers verify a payload lazily,
/// on first use, via VerifyAlignedPayload.
struct AlignedSection {
  std::string name;
  uint64_t record_count = 0;
  /// Absolute file offset of the payload; multiple of
  /// kAlignedPayloadAlignment.
  uint64_t offset = 0;
  uint64_t size = 0;
  /// CRC32C of the payload bytes.
  uint32_t crc = 0;
};

/// Serializes an aligned container:
///
///   magic[4] | version u32 | section_count u32 | header_crc u32 |
///   per section: name string, payload_size u64, record_count u64,
///                payload_crc u32, payload_offset u64 |
///   zero padding | payloads, each starting at its 64-byte-aligned offset
///
/// Little-endian, length-prefixed names. `header_crc` covers magic through
/// the section table with its own field zeroed; each `payload_crc` covers
/// one payload, so any flipped bit is attributable to a named part of the
/// file. `version` is the file family's own format version.
std::string SerializeAlignedContainer(const char magic[4], uint32_t version,
                                      const std::vector<Section>& sections);

/// Parses a container header from an in-memory (typically mapped) file.
/// Verifies the magic, version, header CRC, and that every declared
/// payload range is aligned and inside `size` — but does NOT touch payload
/// bytes: callers verify each payload lazily with VerifyAlignedPayload
/// before first use. A file of another version fails with an error naming
/// that version. `header_size`, when non-null, receives the byte length of
/// the header + section table.
Result<std::vector<AlignedSection>> ParseAlignedContainer(
    const char* data, size_t size, const char magic[4],
    uint32_t expected_version, size_t* header_size = nullptr);

/// The eager readers' parse: ParseAlignedContainer plus every payload CRC
/// and a check that all padding is zero, so any single-bit flip fails.
Result<std::vector<AlignedSection>> ParseAndVerifyAlignedContainer(
    const char* data, size_t size, const char magic[4],
    uint32_t expected_version);

/// CRC-checks one payload of an aligned container against its header entry.
/// `data` is the start of the container (the same pointer handed to
/// ParseAlignedContainer). Errors name the section.
Status VerifyAlignedPayload(const char* data, const AlignedSection& section);

/// Returns the aligned section named `name` or a kIOError naming it.
Result<const AlignedSection*> FindAlignedSection(
    const std::vector<AlignedSection>& sections, const std::string& name);

/// One raw little-endian array handed to AppendArraySections.
struct ArrayRef {
  const void* data = nullptr;
  uint64_t count = 0;  // elements
  size_t elem_size = 0;
};

/// One array located by ParseArraySections: absolute 64-byte-aligned file
/// offset, element count, and the CRC32C of its bytes.
struct AlignedArray {
  uint64_t offset = 0;
  uint64_t count = 0;
  uint32_t crc = 0;
};

/// Appends an index + data section pair holding `arrays` (cube counts,
/// dataset columns): `index_name` has one entry per array (offset into the
/// data section u64, element count u64, CRC32C u32), and `data_name` holds
/// the arrays, each padded to a 64-byte offset. Both record counts are the
/// number of arrays.
void AppendArraySections(const std::string& index_name,
                         const std::string& data_name,
                         const std::vector<ArrayRef>& arrays,
                         std::vector<Section>* sections);

/// Parses an index written by AppendArraySections (its payload already
/// CRC-verified): one array per `elem_sizes` entry, each checked to be
/// aligned and inside the data section. Array bytes are not touched.
Result<std::vector<AlignedArray>> ParseArraySections(
    const char* data, const std::vector<AlignedSection>& sections,
    const std::string& index_name, const std::string& data_name,
    const std::vector<size_t>& elem_sizes);

}  // namespace opmap

#endif  // OPMAP_COMMON_IO_H_
