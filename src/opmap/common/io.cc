#include "opmap/common/io.h"

#include <fcntl.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <sys/stat.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>

#include "opmap/common/metrics.h"
#include "opmap/common/serde.h"
#include "opmap/common/trace.h"

namespace opmap {

namespace {

// Hot-path metric handles, resolved once. Byte counters are bumped per
// syscall-sized operation (never per byte), CRC verifications per
// section.
Counter* IoBytesRead() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("io.bytes_read");
  return c;
}
Counter* IoBytesWritten() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("io.bytes_written");
  return c;
}
Counter* IoBytesMapped() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("io.bytes_mapped");
  return c;
}
Counter* IoCrcVerified() {
  static Counter* const c =
      MetricsRegistry::Global()->counter("io.crc_verified");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

namespace {

// Reflected CRC32C table, generated once at startup.
struct Crc32cTable {
  uint32_t t[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  const uint32_t* t = Table().t;
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = t[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

// ---------------------------------------------------------------------------
// POSIX Env
// ---------------------------------------------------------------------------

namespace {

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const char* data, size_t n) override {
    IoBytesWritten()->Increment(static_cast<int64_t>(n));
    while (n > 0) {
      const ssize_t w = ::write(fd_, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("write to", path_));
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Flush() override {
    // Unbuffered: every Append already reached the OS.
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fsync", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IOError(ErrnoMessage("close", path_));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  PosixSequentialFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixSequentialFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(size_t n, std::string* out, bool* eof) override {
    *eof = false;
    const size_t old = out->size();
    out->resize(old + n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::read(fd_, out->data() + old + got, n - got);
      if (r < 0) {
        if (errno == EINTR) continue;
        out->resize(old + got);
        return Status::IOError(ErrnoMessage("read from", path_));
      }
      if (r == 0) {
        *eof = true;
        break;
      }
      got += static_cast<size_t>(r);
    }
    out->resize(old + got);
    IoBytesRead()->Increment(static_cast<int64_t>(got));
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

// Read-into-buffer fallback region: the whole file copied into a 64-byte-
// aligned heap buffer. Fully resident by construction.
class HeapMappedRegion : public MappedRegion {
 public:
  explicit HeapMappedRegion(const std::string& bytes) {
    size_ = bytes.size();
    if (size_ > 0) {
      buf_ = static_cast<char*>(::operator new(
          size_, std::align_val_t(kAlignedPayloadAlignment)));
      std::memcpy(buf_, bytes.data(), size_);
    }
    data_ = buf_;
  }

  ~HeapMappedRegion() override {
    if (buf_ != nullptr) {
      ::operator delete(buf_, std::align_val_t(kAlignedPayloadAlignment));
    }
  }

  bool is_mmap() const override { return false; }
  int64_t ResidentBytes() const override {
    return static_cast<int64_t>(size_);
  }

 private:
  char* buf_ = nullptr;
};

#if defined(__unix__) || defined(__APPLE__)
// Real mmap region: pages fault in on first touch, so an unqueried cube's
// payload costs no read I/O and no private memory.
class PosixMappedRegion : public MappedRegion {
 public:
  PosixMappedRegion(void* addr, size_t size) {
    data_ = static_cast<const char*>(addr);
    size_ = size;
  }

  ~PosixMappedRegion() override {
    if (data_ != nullptr) {
      ::munmap(const_cast<char*>(data_), size_);
    }
  }

  bool is_mmap() const override { return true; }

  int64_t ResidentBytes() const override {
#if defined(__linux__)
    if (size_ == 0) return 0;
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page <= 0) return -1;
    const size_t pages =
        (size_ + static_cast<size_t>(page) - 1) / static_cast<size_t>(page);
    std::vector<unsigned char> vec(pages);
    if (::mincore(const_cast<char*>(data_), size_, vec.data()) != 0) {
      return -1;
    }
    int64_t resident_pages = 0;
    for (unsigned char v : vec) resident_pages += (v & 1);
    int64_t bytes = resident_pages * page;
    return bytes < static_cast<int64_t>(size_)
               ? bytes
               : static_cast<int64_t>(size_);
#else
    return -1;
#endif
  }
};
#endif  // defined(__unix__) || defined(__APPLE__)

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open for writing", path));
    }
    return std::unique_ptr<WritableFile>(
        new PosixWritableFile(fd, path));
  }

  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open for reading", path));
    }
    return std::unique_ptr<SequentialFile>(
        new PosixSequentialFile(fd, path));
  }

  Result<std::unique_ptr<MappedRegion>> MapFile(
      const std::string& path) override {
#if defined(__unix__) || defined(__APPLE__)
    OPMAP_TRACE_SPAN("io.map_file");
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open for mapping", path));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const Status err = Status::IOError(ErrnoMessage("cannot stat", path));
      ::close(fd);
      return err;
    }
    const auto size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      // mmap rejects zero-length mappings; the heap fallback models an
      // empty region fine.
      ::close(fd);
      return Env::MapFile(path);
    }
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED) {
      // Filesystem without mmap support: read-into-buffer fallback.
      return Env::MapFile(path);
    }
    IoBytesMapped()->Increment(static_cast<int64_t>(size));
    return std::unique_ptr<MappedRegion>(new PosixMappedRegion(addr, size));
#else
    return Env::MapFile(path);
#endif
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError("cannot rename '" + from + "' to '" + to +
                             "': " + std::strerror(errno));
    }
    return Status::OK();
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::IOError(ErrnoMessage("cannot delete", path));
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
#if defined(__unix__) || defined(__APPLE__)
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(ErrnoMessage("cannot create directory", path));
    }
    return Status::OK();
#else
    return Status::IOError("CreateDir unsupported on this platform");
#endif
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  void SleepMicros(int64_t micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv;
  return env;
}

Result<std::unique_ptr<MappedRegion>> Env::MapFile(const std::string& path) {
  // Portable fallback: read the whole file through this Env's sequential
  // reader into an aligned heap buffer. Derived Envs that can map for real
  // (PosixEnv) override this.
  OPMAP_TRACE_SPAN("io.map_file");
  std::string bytes;
  OPMAP_RETURN_NOT_OK(ReadFileToString(this, path, &bytes));
  IoBytesMapped()->Increment(static_cast<int64_t>(bytes.size()));
  return std::unique_ptr<MappedRegion>(new HeapMappedRegion(bytes));
}

Status ReadFileToString(Env* env, const std::string& path, std::string* out,
                        uint64_t max_bytes) {
  OPMAP_TRACE_SPAN("io.read_file");
  if (env == nullptr) env = Env::Default();
  out->clear();
  OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<SequentialFile> file,
                         env->NewSequentialFile(path));
  constexpr size_t kChunk = 1 << 16;
  bool eof = false;
  while (!eof) {
    if (out->size() > max_bytes) {
      return Status::OutOfRange("file '" + path + "' exceeds the " +
                                std::to_string(max_bytes) +
                                "-byte read limit");
    }
    OPMAP_RETURN_NOT_OK(file->Read(kChunk, out, &eof));
  }
  if (out->size() > max_bytes) {
    return Status::OutOfRange("file '" + path + "' exceeds the " +
                              std::to_string(max_bytes) + "-byte read limit");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv
// ---------------------------------------------------------------------------

// Not in the anonymous namespace: these must match the friend declarations
// in FaultInjectingEnv, which name them at opmap scope.
class FaultInjectingWritableFile : public WritableFile {
 public:
  FaultInjectingWritableFile(std::unique_ptr<WritableFile> base,
                             FaultInjectingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Append(const char* data, size_t n) override;
  Status Flush() override { return base_->Flush(); }
  Status Sync() override;
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultInjectingEnv* env_;
};

class FaultInjectingSequentialFile : public SequentialFile {
 public:
  FaultInjectingSequentialFile(std::unique_ptr<SequentialFile> base,
                               FaultInjectingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(size_t n, std::string* out, bool* eof) override;

 private:
  std::unique_ptr<SequentialFile> base_;
  FaultInjectingEnv* env_;
};

namespace {
constexpr const char* kFaultOpNames[kNumFaultOps] = {
    "open-write", "open-read", "write",  "read",      "sync",
    "rename",     "delete",    "map",    "create-dir"};
constexpr const char* kCorruptionModeNames[] = {"none", "torn", "flip"};
}  // namespace

const char* FaultOpName(FaultOp op) {
  return kFaultOpNames[static_cast<int>(op)];
}

Result<FaultOp> ParseFaultOp(const std::string& name) {
  for (int i = 0; i < kNumFaultOps; ++i) {
    if (name == kFaultOpNames[i]) return static_cast<FaultOp>(i);
  }
  return Status::InvalidArgument("unknown fault op '" + name + "'");
}

std::string FaultPlan::ToString() const {
  return std::string("op=") + FaultOpName(op) + " nth=" +
         std::to_string(nth) + " mode=" +
         kCorruptionModeNames[static_cast<int>(mode)] + " seed=" +
         std::to_string(seed) + " cut=" + (power_cut ? "1" : "0");
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string token;
  bool have_op = false, have_nth = false;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault plan token '" + token +
                                     "' is not key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "op") {
      OPMAP_ASSIGN_OR_RETURN(plan.op, ParseFaultOp(value));
      have_op = true;
    } else if (key == "nth") {
      plan.nth = std::strtoll(value.c_str(), nullptr, 10);
      if (plan.nth < 1) {
        return Status::InvalidArgument("fault plan nth must be >= 1, got '" +
                                       value + "'");
      }
      have_nth = true;
    } else if (key == "mode") {
      bool found = false;
      for (int i = 0; i < 3; ++i) {
        if (value == kCorruptionModeNames[i]) {
          plan.mode = static_cast<CorruptionMode>(i);
          found = true;
        }
      }
      if (!found) {
        return Status::InvalidArgument("unknown corruption mode '" + value +
                                       "'");
      }
    } else if (key == "seed") {
      plan.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "cut") {
      plan.power_cut = value != "0";
    } else {
      return Status::InvalidArgument("unknown fault plan key '" + key + "'");
    }
  }
  if (!have_op || !have_nth) {
    return Status::InvalidArgument("fault plan '" + text +
                                   "' needs at least op= and nth=");
  }
  return plan;
}

FaultInjectingEnv::FaultInjectingEnv(Env* base)
    : base_(base != nullptr ? base : Env::Default()) {}

void FaultInjectingEnv::FailAt(FaultOp op, int64_t nth, bool fail_forever) {
  armed_op_ = static_cast<int>(op);
  armed_at_ = nth;
  fail_forever_ = fail_forever;
}

void FaultInjectingEnv::ArmPlan(const FaultPlan& plan) {
  plan_ = plan;
  plan_armed_ = true;
  power_lost_ = false;
  pending_corruption_ = CorruptionMode::kNone;
}

void FaultInjectingEnv::Reset() {
  armed_op_ = -1;
  armed_at_ = 0;
  fail_forever_ = false;
  injected_ = 0;
  plan_armed_ = false;
  power_lost_ = false;
  pending_corruption_ = CorruptionMode::kNone;
  std::memset(counts_, 0, sizeof(counts_));
}

int64_t FaultInjectingEnv::OpCount(FaultOp op) const {
  return counts_[static_cast<int>(op)];
}

int64_t FaultInjectingEnv::TotalOps() const {
  int64_t total = 0;
  for (int64_t c : counts_) total += c;
  return total;
}

Status FaultInjectingEnv::Tick(FaultOp op) {
  const int64_t n = ++counts_[static_cast<int>(op)];
  if (power_lost_) {
    ++injected_;
    return Status::IOError(std::string("injected power loss (") +
                           FaultOpName(op) + " after cut)");
  }
  if (plan_armed_ && plan_.op == op && n == plan_.nth) {
    ++injected_;
    static Counter* const plan_trips =
        MetricsRegistry::Global()->counter("io.fault_injections");
    plan_trips->Increment();
    if (plan_.power_cut) power_lost_ = true;
    if (op == FaultOp::kWrite) pending_corruption_ = plan_.mode;
    return Status::IOError("injected fault [" + plan_.ToString() + "]");
  }
  if (armed_op_ == static_cast<int>(op) &&
      (n == armed_at_ || (fail_forever_ && n >= armed_at_))) {
    ++injected_;
    static Counter* const trips =
        MetricsRegistry::Global()->counter("io.fault_injections");
    trips->Increment();
    return Status::IOError(std::string("injected ") + FaultOpName(op) +
                           " failure #" + std::to_string(n));
  }
  return Status::OK();
}

void FaultInjectingEnv::ApplyTornWrite(WritableFile* file, const char* data,
                                       size_t n) {
  const CorruptionMode mode = pending_corruption_;
  pending_corruption_ = CorruptionMode::kNone;
  if (mode == CorruptionMode::kNone || n == 0) return;
  // A seed-chosen strict prefix reaches the file — the write never
  // completes. Writes go straight to the base file: the simulated power is
  // out, so these bytes must not tick (and fail) like normal operations.
  const size_t prefix = static_cast<size_t>(plan_.seed % n);
  if (prefix == 0) return;
  std::string torn(data, prefix);
  if (mode == CorruptionMode::kBitFlip) {
    const size_t byte = static_cast<size_t>((plan_.seed / 7) % prefix);
    torn[byte] = static_cast<char>(
        torn[byte] ^ static_cast<char>(1u << (plan_.seed % 8)));
  }
  // Best effort; there is nobody left to report an error to.
  if (file->Append(torn.data(), torn.size()).ok()) {
    (void)file->Flush();
  }
}

Status FaultInjectingWritableFile::Append(const char* data, size_t n) {
  Status tick = env_->Tick(FaultOp::kWrite);
  if (!tick.ok()) {
    env_->ApplyTornWrite(base_.get(), data, n);
    return tick;
  }
  return base_->Append(data, n);
}

Status FaultInjectingWritableFile::Sync() {
  OPMAP_RETURN_NOT_OK(env_->Tick(FaultOp::kSync));
  return base_->Sync();
}

Status FaultInjectingSequentialFile::Read(size_t n, std::string* out,
                                          bool* eof) {
  OPMAP_RETURN_NOT_OK(env_->Tick(FaultOp::kRead));
  return base_->Read(n, out, eof);
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  OPMAP_RETURN_NOT_OK(Tick(FaultOp::kOpenWrite));
  OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                         base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(
      new FaultInjectingWritableFile(std::move(base), this));
}

Result<std::unique_ptr<SequentialFile>> FaultInjectingEnv::NewSequentialFile(
    const std::string& path) {
  OPMAP_RETURN_NOT_OK(Tick(FaultOp::kOpenRead));
  OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<SequentialFile> base,
                         base_->NewSequentialFile(path));
  return std::unique_ptr<SequentialFile>(
      new FaultInjectingSequentialFile(std::move(base), this));
}

Result<std::unique_ptr<MappedRegion>> FaultInjectingEnv::MapFile(
    const std::string& path) {
  OPMAP_RETURN_NOT_OK(Tick(FaultOp::kMap));
  // Deliberately the base-class heap fallback over THIS env (never a real
  // mmap): the bytes then flow through the fault-injecting sequential
  // reader, so armed kOpenRead/kRead faults reach the mapping path too.
  return Env::MapFile(path);
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  OPMAP_RETURN_NOT_OK(Tick(FaultOp::kRename));
  return base_->RenameFile(from, to);
}

Status FaultInjectingEnv::DeleteFile(const std::string& path) {
  OPMAP_RETURN_NOT_OK(Tick(FaultOp::kDelete));
  return base_->DeleteFile(path);
}

Status FaultInjectingEnv::CreateDir(const std::string& path) {
  OPMAP_RETURN_NOT_OK(Tick(FaultOp::kCreateDir));
  return base_->CreateDir(path);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

void FaultInjectingEnv::SleepMicros(int64_t) {
  // Backoff sleeps are elided so fault-injection tests run at full speed.
}

// ---------------------------------------------------------------------------
// Retry + atomic replace
// ---------------------------------------------------------------------------

Status RetryWithBackoff(Env* env, const RetryPolicy& policy,
                        const std::function<Status()>& op) {
  if (env == nullptr) env = Env::Default();
  Status last;
  int64_t backoff = policy.initial_backoff_micros;
  const int attempts = policy.max_attempts > 0 ? policy.max_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      static Counter* const retries =
          MetricsRegistry::Global()->counter("io.retries");
      retries->Increment();
      env->SleepMicros(backoff);
      backoff = static_cast<int64_t>(static_cast<double>(backoff) *
                                     policy.backoff_multiplier);
    }
    last = op();
    if (last.ok() || last.code() != StatusCode::kIOError) return last;
  }
  return last;
}

Status AtomicWriteFile(Env* env, const std::string& path,
                       const std::string& contents,
                       const RetryPolicy& policy) {
  OPMAP_TRACE_SPAN("io.atomic_write");
  if (env == nullptr) env = Env::Default();
  const std::string tmp = path + ".tmp";
  return RetryWithBackoff(env, policy, [&]() -> Status {
    Status st = [&]() -> Status {
      OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             env->NewWritableFile(tmp));
      OPMAP_RETURN_NOT_OK(file->Append(contents));
      OPMAP_RETURN_NOT_OK(file->Flush());
      OPMAP_RETURN_NOT_OK(file->Sync());
      OPMAP_RETURN_NOT_OK(file->Close());
      return env->RenameFile(tmp, path);
    }();
    if (!st.ok() && env->FileExists(tmp)) {
      // Best effort: never leave a stale temp file behind. The target path
      // still holds the previous snapshot (or nothing) either way.
      env->DeleteFile(tmp);
    }
    return st;
  });
}

// ---------------------------------------------------------------------------
// Aligned section container
// ---------------------------------------------------------------------------

namespace {

// Byte offset of the header CRC field: magic + version + section count.
constexpr size_t kHeaderCrcOffset = 4 + 4 + 4;

// Bytes of one AppendArraySections index entry: offset, count, CRC.
constexpr uint64_t kArrayIndexEntrySize = 8 + 8 + 4;

void PutU32At(std::string* s, size_t offset, uint32_t v) {
  std::memcpy(s->data() + offset, &v, sizeof(v));
}

size_t AlignUpToPayload(size_t n) {
  return (n + kAlignedPayloadAlignment - 1) & ~(kAlignedPayloadAlignment - 1);
}

// Bounds-checked little-endian cursor over an in-memory (mapped) header.
// BinaryReader works over istreams; the mapping path must not copy the file
// into one, so this mirrors its encodings over a raw byte range.
class MemCursor {
 public:
  MemCursor(const char* data, size_t size) : data_(data), size_(size) {}

  size_t pos() const { return pos_; }

  Status ReadBytes(void* dst, size_t n) {
    if (n > size_ - pos_) {
      return Status::IOError("container header truncated");
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Result<uint32_t> ReadU32() {
    uint32_t v = 0;
    OPMAP_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
    return v;
  }

  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    OPMAP_RETURN_NOT_OK(ReadBytes(&v, sizeof(v)));
    return v;
  }

  Result<std::string> ReadString() {
    OPMAP_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
    if (n > size_ - pos_) {
      return Status::IOError("container header truncated");
    }
    std::string s(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

std::string SerializeAlignedContainer(const char magic[4], uint32_t version,
                                      const std::vector<Section>& sections) {
  // The table length depends only on the section names, so every payload
  // offset is computable before writing a byte.
  size_t table_size = 4 + 4 + 4 + 4;  // magic, version, count, header CRC
  for (const Section& s : sections) {
    table_size += 8 + s.name.size();  // length-prefixed name
    table_size += 8 + 8 + 4 + 8;      // size, record_count, crc, offset
  }
  std::vector<uint64_t> offsets;
  offsets.reserve(sections.size());
  size_t cursor = AlignUpToPayload(table_size);
  for (const Section& s : sections) {
    offsets.push_back(cursor);
    cursor = AlignUpToPayload(cursor + s.payload.size());
  }

  std::ostringstream header;
  header.write(magic, 4);
  BinaryWriter w(&header);
  w.WriteU32(version);
  w.WriteU32(static_cast<uint32_t>(sections.size()));
  w.WriteU32(0);  // header CRC placeholder, patched below
  for (size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    w.WriteString(s.name);
    w.WriteU64(s.payload.size());
    w.WriteU64(s.record_count);
    w.WriteU32(Crc32c(s.payload.data(), s.payload.size()));
    w.WriteU64(offsets[i]);
  }
  std::string out = header.str();
  PutU32At(&out, kHeaderCrcOffset, Crc32c(out.data(), out.size()));
  out.reserve(cursor);
  for (size_t i = 0; i < sections.size(); ++i) {
    out.resize(static_cast<size_t>(offsets[i]), '\0');  // alignment padding
    out += sections[i].payload;
  }
  return out;
}

Result<std::vector<AlignedSection>> ParseAlignedContainer(
    const char* data, size_t size, const char magic[4],
    uint32_t expected_version, size_t* header_size) {
  MemCursor cur(data, size);
  char got[4];
  OPMAP_RETURN_NOT_OK(cur.ReadBytes(got, 4));
  if (std::memcmp(got, magic, 4) != 0) {
    return Status::IOError("bad magic: not a recognized container file");
  }
  OPMAP_ASSIGN_OR_RETURN(uint32_t version, cur.ReadU32());
  if (version != expected_version) {
    return Status::IOError(
        "format version " + std::to_string(version) +
        " is not supported: this build reads version " +
        std::to_string(expected_version) + " only (see docs/FORMATS.md)");
  }
  OPMAP_ASSIGN_OR_RETURN(uint32_t count, cur.ReadU32());
  if (count > (1u << 10)) {
    return Status::IOError("container header corrupt: implausible section "
                           "count " + std::to_string(count));
  }
  OPMAP_ASSIGN_OR_RETURN(uint32_t stored_header_crc, cur.ReadU32());

  std::vector<AlignedSection> sections;
  sections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    AlignedSection s;
    OPMAP_ASSIGN_OR_RETURN(s.name, cur.ReadString());
    OPMAP_ASSIGN_OR_RETURN(s.size, cur.ReadU64());
    OPMAP_ASSIGN_OR_RETURN(s.record_count, cur.ReadU64());
    OPMAP_ASSIGN_OR_RETURN(s.crc, cur.ReadU32());
    OPMAP_ASSIGN_OR_RETURN(s.offset, cur.ReadU64());
    sections.push_back(std::move(s));
  }

  // Verify the header before trusting any offset it declares.
  const size_t header_end = cur.pos();
  std::string header(data, header_end);
  PutU32At(&header, kHeaderCrcOffset, 0);
  IoCrcVerified()->Increment();
  if (Crc32c(header.data(), header.size()) != stored_header_crc) {
    return Status::IOError("container header CRC mismatch (the section "
                           "table is corrupt)");
  }

  // Range-check every payload against the file, but read none of them:
  // payload CRCs are verified lazily via VerifyAlignedPayload.
  uint64_t end = header_end;
  for (const AlignedSection& s : sections) {
    if (s.offset % kAlignedPayloadAlignment != 0) {
      return Status::IOError("section '" + s.name + "' payload offset " +
                             std::to_string(s.offset) + " is not " +
                             std::to_string(kAlignedPayloadAlignment) +
                             "-byte aligned");
    }
    if (s.offset < header_end || s.size > size || s.offset > size - s.size) {
      return Status::IOError(
          "section '" + s.name + "' truncated: header declares bytes [" +
          std::to_string(s.offset) + ", " +
          std::to_string(s.offset + s.size) + ") in a " +
          std::to_string(size) + "-byte file");
    }
    if (s.offset + s.size > end) end = s.offset + s.size;
  }
  if (end != size) {
    return Status::IOError("container has " + std::to_string(size - end) +
                           " trailing bytes after the last section");
  }
  if (header_size != nullptr) *header_size = header_end;
  return sections;
}

Result<std::vector<AlignedSection>> ParseAndVerifyAlignedContainer(
    const char* data, size_t size, const char magic[4],
    uint32_t expected_version) {
  size_t header_size = 0;
  OPMAP_ASSIGN_OR_RETURN(std::vector<AlignedSection> sections,
                         ParseAlignedContainer(data, size, magic,
                                               expected_version, &header_size));
  for (const AlignedSection& s : sections) {
    OPMAP_RETURN_NOT_OK(VerifyAlignedPayload(data, s));
  }
  // Padding between the table and the payloads is outside every CRC; it
  // must be all zeros or the file was tampered with.
  std::vector<std::pair<uint64_t, uint64_t>> covered;
  covered.emplace_back(0, header_size);
  for (const AlignedSection& s : sections) {
    covered.emplace_back(s.offset, s.offset + s.size);
  }
  std::sort(covered.begin(), covered.end());
  uint64_t pos = 0;
  for (const auto& [begin, end] : covered) {
    for (uint64_t i = pos; i < begin; ++i) {
      if (data[i] != '\0') {
        return Status::IOError("container padding byte " + std::to_string(i) +
                               " is nonzero: the file is corrupt");
      }
    }
    if (end > pos) pos = end;
  }
  return sections;
}

Status VerifyAlignedPayload(const char* data, const AlignedSection& section) {
  IoCrcVerified()->Increment();
  if (Crc32c(data + section.offset, static_cast<size_t>(section.size)) !=
      section.crc) {
    return Status::IOError("section '" + section.name +
                           "' CRC mismatch: the file is corrupt");
  }
  return Status::OK();
}

Result<const AlignedSection*> FindAlignedSection(
    const std::vector<AlignedSection>& sections, const std::string& name) {
  for (const AlignedSection& s : sections) {
    if (s.name == name) return &s;
  }
  return Status::IOError("container is missing the '" + name + "' section");
}

void AppendArraySections(const std::string& index_name,
                         const std::string& data_name,
                         const std::vector<ArrayRef>& arrays,
                         std::vector<Section>* sections) {
  std::ostringstream index_out;
  BinaryWriter w(&index_out);
  std::string data;
  for (const ArrayRef& a : arrays) {
    data.resize(AlignUpToPayload(data.size()), '\0');
    const size_t nbytes = static_cast<size_t>(a.count) * a.elem_size;
    w.WriteU64(data.size());  // offset relative to the data section
    w.WriteU64(a.count);
    w.WriteU32(Crc32c(a.data, nbytes));
    data.append(static_cast<const char*>(a.data), nbytes);
  }
  sections->push_back(Section{index_name, arrays.size(), index_out.str()});
  sections->push_back(Section{data_name, arrays.size(), std::move(data)});
}

Result<std::vector<AlignedArray>> ParseArraySections(
    const char* data, const std::vector<AlignedSection>& sections,
    const std::string& index_name, const std::string& data_name,
    const std::vector<size_t>& elem_sizes) {
  OPMAP_ASSIGN_OR_RETURN(const AlignedSection* index_sec,
                         FindAlignedSection(sections, index_name));
  OPMAP_ASSIGN_OR_RETURN(const AlignedSection* data_sec,
                         FindAlignedSection(sections, data_name));
  const uint64_t n = elem_sizes.size();
  if (index_sec->record_count != n || data_sec->record_count != n ||
      index_sec->size != n * kArrayIndexEntrySize) {
    return Status::IOError("section '" + index_name + "' holds " +
                           std::to_string(index_sec->record_count) +
                           " entries, the schema implies " +
                           std::to_string(n));
  }
  // The size check above makes every fixed-width read below in bounds.
  const char* entry = data + index_sec->offset;
  std::vector<AlignedArray> arrays(static_cast<size_t>(n));
  for (size_t i = 0; i < arrays.size(); ++i, entry += kArrayIndexEntrySize) {
    AlignedArray& a = arrays[i];
    uint64_t rel_offset = 0;
    std::memcpy(&rel_offset, entry, 8);
    std::memcpy(&a.count, entry + 8, 8);
    std::memcpy(&a.crc, entry + 16, 4);
    if (rel_offset % kAlignedPayloadAlignment != 0) {
      return Status::IOError("section '" + index_name + "' entry " +
                             std::to_string(i) + ": array offset is not "
                             "aligned");
    }
    if (a.count > data_sec->size / elem_sizes[i] ||
        rel_offset > data_sec->size - a.count * elem_sizes[i]) {
      return Status::IOError("section '" + index_name + "' entry " +
                             std::to_string(i) + ": array exceeds the '" +
                             data_name + "' section");
    }
    a.offset = data_sec->offset + rel_offset;
  }
  return arrays;
}

}  // namespace opmap
