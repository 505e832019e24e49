#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

bool Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    // Print the first few failures; all of them are counted.
    if (failed < 5) std::printf("FAIL: %s\n", what.c_str());
    ++failed;
    correct = false;
  }
  return ok;
}

namespace {

// CPU time of the calling thread (ns).  The kernel's steal accounting
// leaves out time the virtual CPU was stolen by the host.
int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

double RefLoopNs() {
  static volatile uint64_t sink = 0;
  int64_t t0 = ThreadCpuNs();
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
  for (uint64_t i = 0; i < 400'000; ++i) {
    a += b ^ i;
    b = ((b << 7) | (b >> 57)) + c;
    c ^= d + i;
    d += e >> 3;
    e = (e ^ a) + 0x9e37;
    f += a ^ d;
  }
  sink = sink + (a + b + c + d + e + f);
  return static_cast<double>(ThreadCpuNs() - t0);
}

void Speed::Sample() {
  if (window_ != 0 && loops_.size() == window_) loops_.erase(loops_.begin());
  loops_.push_back(RefLoopNs());
}

double Speed::Factor() const {
  return loops_.empty() ? 1.0 : kRefLoopNs / Median(loops_);
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 0.5); }

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(xs.size())));
  if (rank == 0) rank = 1;
  return xs[std::min(rank, xs.size()) - 1];
}

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

std::pair<double, double> StealJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double StealPercentSince(std::pair<double, double> since) {
  auto now = StealJiffies();
  double total = now.second - since.second;
  return total > 0 ? 100 * (now.first - since.first) / total : 0;
}

void SleepUntilNs(int64_t t_ns) {
  int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

void PinThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::vector<int> RankCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  // Five interleaved rounds of the reference loop per CPU; a CPU's score is
  // its median round time.
  std::vector<std::vector<double>> times(cpus.size());
  for (int round = 0; round < 5; ++round) {
    for (size_t i = 0; i < cpus.size(); ++i) {
      PinThread(cpus[i]);
      std::this_thread::yield();
      times[i].push_back(RefLoopNs());
    }
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  std::vector<std::pair<double, int>> ranked;
  for (size_t i = 0; i < cpus.size(); ++i) {
    ranked.emplace_back(Median(times[i]), cpus[i]);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> out;
  for (auto [t, c] : ranked) out.push_back(c);
  return out;
}

namespace trace {

bool g_on = false;

namespace {

constexpr size_t kMaxSpansPerThread = 1u << 21;

struct Buffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;  ///< stack of open span handles
  uint64_t dropped = 0;
};

std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_mu

Buffer* Local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(g_mu);
    b->thread = static_cast<uint32_t>(g_buffers.size());
    buf = b.get();
    g_buffers.push_back(std::move(b));
  }
  return buf;
}

int32_t Push(Buffer* b, const Span& s) {
  if (b->spans.size() >= kMaxSpansPerThread) {
    ++b->dropped;
    return -1;
  }
  b->spans.push_back(s);
  return static_cast<int32_t>(b->spans.size() - 1);
}

}  // namespace

int32_t Begin(const char* name, uint64_t op, uint32_t n) {
  Buffer* b = Local();
  int32_t parent = b->open.empty() ? -1 : b->open.back();
  int32_t h = Push(b, Span{name, op, NowNs(), 0, parent, n, b->thread});
  if (h >= 0) b->open.push_back(h);
  return h;
}

void End(int32_t handle) {
  Buffer* b = Local();
  b->spans[static_cast<size_t>(handle)].end = NowNs();
  if (!b->open.empty() && b->open.back() == handle) b->open.pop_back();
}

int32_t Record(const char* name, uint64_t op, int64_t start, int64_t end,
               uint32_t n) {
  if (!g_on) return -1;
  Buffer* b = Local();
  int32_t parent = b->open.empty() ? -1 : b->open.back();
  return Push(b, Span{name, op, start, end, parent, n, b->thread});
}

void RecordChild(int32_t parent, const char* name, int64_t start, int64_t end,
                 uint32_t n) {
  if (!g_on) return;
  Buffer* b = Local();
  uint64_t op = parent >= 0 ? b->spans[static_cast<size_t>(parent)].op : 0;
  Push(b, Span{name, op, start, end, parent, n, b->thread});
}

void SetEnd(int32_t handle, int64_t end) {
  if (handle < 0) return;
  Local()->spans[static_cast<size_t>(handle)].end = end;
}

std::vector<double> SelfTimesNs(const std::string& name) {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    const std::vector<Span>& sp = b->spans;
    // Children of each span, as intervals; self time subtracts their union.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(sp.size());
    for (const Span& s : sp) {
      if (s.parent >= 0 && s.end > 0) {
        kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    for (size_t i = 0; i < sp.size(); ++i) {
      const Span& s = sp[i];
      if (s.end <= 0 || name != s.name) continue;
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      int64_t covered = 0;
      int64_t cur_lo = 0, cur_hi = 0;
      bool have = false;
      for (auto [lo, hi] : k) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (have && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (have) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          have = true;
        }
      }
      if (have) covered += cur_hi - cur_lo;
      out.push_back(static_cast<double>(s.end - s.start - covered) / s.n);
    }
  }
  return out;
}

double MedianSelfNs(const std::string& name) {
  return Median(SelfTimesNs(name));
}

size_t WriteJsonLines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t written = 0;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::string parent = "null";
      if (s.parent >= 0) {
        parent = "\"" + std::to_string(s.thread) + "." +
                 std::to_string(s.parent) + "\"";
      }
      std::fprintf(f,
                   "{\"id\":\"%u.%zu\",\"name\":\"%s\",\"op\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%s,"
                   "\"n\":%u}\n",
                   s.thread, i, s.name, static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end), parent.c_str(), s.n);
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

uint64_t Dropped() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t d = 0;
  for (const auto& b : g_buffers) d += b->dropped;
  return d;
}

}  // namespace trace
}  // namespace perfbench
