#include "perfbench/harness.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "opmap/common/metrics.h"
#include "opmap/common/simd.h"
#include "opmap/cube/count_kernels.h"

extern char** environ;

namespace perfbench {

using opmap::Result;
using opmap::Status;

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, q);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double WindowedPercentile(const std::vector<double>& ordered, double q,
                          size_t window) {
  const size_t windows = std::max<size_t>(1, ordered.size() / window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? ordered.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Percentile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

double FitExponent(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double dn = static_cast<double>(n);
  const double den = dn * sxx - sx * sx;
  return den == 0 ? 0.0 : (dn * sxy - sx * sy) / den;
}

Rng::Rng(uint64_t seed, uint64_t stream)
    : state_(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
             0x94d049bb133111ebull) {}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Exp(double mean) { return -std::log(1.0 - Uniform()) * mean; }

size_t Rng::Below(size_t n) { return n == 0 ? 0 : Next() % n; }

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

uint64_t Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void Sheet::Mismatch(const std::string& what) {
  if (correct) std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
  correct = false;
}

int Spans::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.cpu_s = CpuS();
  span.start_s = NowS();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_s = NowS();
  span.cpu_s = CpuS() - span.cpu_s;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Spans::Total(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

double Spans::TotalCpu(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.cpu_s;
  }
  return total;
}

double Spans::TopLevelTotal() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_s - s.start_s;
  }
  return total;
}

int64_t CounterValue(const char* name) {
  return opmap::MetricsRegistry::Global()->counter(name)->Value();
}

void ResetPeakRss() {
  // Linux: writing 5 resets VmHWM to the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

// Daemons still running; killed if the run exits early (CheckOk, OrDie).
std::vector<pid_t>& LiveDaemons() {
  static std::vector<pid_t> live;
  return live;
}

void KillLiveDaemons() {
  for (pid_t pid : LiveDaemons()) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  LiveDaemons().clear();
}

void Forget(pid_t pid) {
  auto& live = LiveDaemons();
  live.erase(std::remove(live.begin(), live.end(), pid), live.end());
}

}  // namespace

Result<std::unique_ptr<opmap::server::Client>> Connect(
    const std::string& address) {
  return opmap::server::Client::Connect(address, 30000);
}

Result<std::unique_ptr<Daemon>> Daemon::Start(const RunArgs& args,
                                              const std::string& cubes_path,
                                              const std::string& socket_name) {
  std::unique_ptr<Daemon> d(new Daemon());
  d->address_ = "unix:" + socket_name;
  ::unlink(socket_name.c_str());
  std::vector<std::string> argv_s = {args.opmap_cli, "serve",
                                     "--cubes=" + cubes_path,
                                     "--listen=" + d->address_};
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "daemon.log",
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const double t0 = NowS();
  const int rc = posix_spawn(&d->pid_, argv[0], &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    d->pid_ = -1;
    return Status::IOError("cannot spawn " + args.opmap_cli + ": " +
                           std::strerror(rc));
  }
  static const bool registered = std::atexit(KillLiveDaemons) == 0;
  (void)registered;
  LiveDaemons().push_back(d->pid_);
  // Ready = the first OK schema reply.
  while (NowS() - t0 < 60.0) {
    int wstatus = 0;
    if (::waitpid(d->pid_, &wstatus, WNOHANG) == d->pid_) {
      Forget(d->pid_);
      d->pid_ = -1;
      return Status::IOError("daemon exited during start (see daemon.log)");
    }
    auto client = opmap::server::Client::Connect(d->address_, 5000);
    if (client.ok()) {
      auto reply = (*client)->Call(opmap::server::Op::kSchema);
      if (reply.ok() && reply->ok()) {
        d->ready_s_ = NowS() - t0;
        return d;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return Status::IOError("daemon not ready within 60 s");
}

bool Daemon::Stop() {
  if (pid_ < 0) return true;
  Forget(pid_);
  ::kill(pid_, SIGTERM);
  int wstatus = 0;
  const double t0 = NowS();
  while (::waitpid(pid_, &wstatus, WNOHANG) == 0) {
    if (NowS() - t0 > 20.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
}

Daemon::~Daemon() { Stop(); }

double StatsField(const std::string& stats_json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t pos = stats_json.find(key);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(stats_json.c_str() + pos + key.size(), nullptr);
}

namespace {

// Fixed integer work; the result feeds an atomic so it is not elided.
uint64_t Burn(uint64_t iters, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double BurnWall(int threads, uint64_t iters) {
  std::atomic<uint64_t> sink{0};
  const double t0 = NowS();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, iters, t] {
      sink.fetch_xor(Burn(iters, static_cast<uint64_t>(t) + 1));
    });
  }
  for (std::thread& th : pool) th.join();
  return NowS() - t0;
}

}  // namespace

HostStamp StampHost() {
  HostStamp host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0) host.nproc = static_cast<int>(online);
  const uint64_t iters = 30'000'000;
  BurnWall(1, iters / 10);  // warm the clock and the core
  const double one = BurnWall(1, iters);
  const double all = BurnWall(host.nproc, iters);
  host.effective_cores = all > 0 ? host.nproc * one / all : 1.0;
  host.simd = opmap::SimdLevelName(opmap::CurrentSimdLevel());
  host.kernel = opmap::CountKernelName(
      opmap::ResolveCountKernel(opmap::CountKernel::kAuto));
  return host;
}

}  // namespace perfbench
