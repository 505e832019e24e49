// Shared pieces of the repository benchmark: the seeded generator, the
// run context and report, statistics, and the span tracer used by traced
// runs (see README.md for the method).

#ifndef TML_PERFBENCH_COMMON_H_
#define TML_PERFBENCH_COMMON_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: every generated input derives from the --seed argument.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Derive an independent stream for one purpose from the run seed.
inline Rng Stream(uint64_t seed, uint64_t purpose) {
  Rng r(seed * 0x2545F4914F6CDD1Dull + purpose);
  r.Next();
  return r;
}

struct Ctx {
  uint64_t seed = 1;
  /// Wall seconds the workload's timed phase measures.
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for stores, sockets and traces.
  std::string out_dir;
  /// Directory holding the tycd binary.
  std::string bin_dir;
  /// CPUs, fastest first (RankCpus()), at the start of the phase.
  std::vector<int> cpus;
  /// The i-th fastest CPU (wrapping), or -1 if none is known.
  int Cpu(size_t i) const { return cpus.empty() ? -1 : cpus[i % cpus.size()]; }
};

/// What one workload phase produced.
struct Report {
  std::map<std::string, std::pair<double, std::string>> e2e;
  std::map<std::string, std::pair<double, std::string>> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when an output check failed or the measurement is invalid.
  bool correct = true;
  /// Set-up durations of this phase (seconds), one per repetition.
  std::vector<double> setups;

  void E2e(const std::string& name, double v, const char* unit) {
    e2e[name] = {v, unit};
  }
  void Layer(const std::string& name, double v, const char* unit) {
    layer[name] = {v, unit};
  }
  /// Count one checked operation; a false `ok` is a failure named `what`.
  bool Check(bool ok, const std::string& what);
  /// Count one failed operation.
  void Fail(const std::string& what) { Check(false, what); }
};

double Median(std::vector<double> xs);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> xs, double p);
double GeoMean(const std::vector<double>& xs);

/// The lower quartile of repeats of one operation, for times with a long
/// tail of waits that no Speed gauge tracks: a wire request's latency
/// (other processes' threads, host steal) and a redeploy cycle's commit
/// (fsync).  Co-tenants only ever add time, and the weight of that tail
/// shifts from run to run, so a stall that spans up to three quarters of
/// the samples does not move the lower quartile, while a change to the
/// operation's typical cost still does.
inline double QuietTime(std::vector<double> xs) {
  return Percentile(std::move(xs), 0.25);
}

/// CPU time the host has stolen from this machine since boot, and all CPU
/// time, in jiffies from /proc/stat ({0, 0} if unreadable).
std::pair<double, double> StealJiffies();
/// The share (%) of all CPU time the host stole since `since`, an earlier
/// StealJiffies() reading.
double StealPercentSince(std::pair<double, double> since);

/// Thread CPU time (ns) of one run of a fixed reference loop that does not
/// depend on the program under test: integer work in six independent
/// dependency chains, with no memory traffic and predictable branches, so
/// it keeps a core's execution units busy the way the VM's dispatch loop
/// does.  On a quiet core of the reference machine it takes about
/// kRefLoopNs.
double RefLoopNs();
inline constexpr double kRefLoopNs = 500'000;

/// The speed of the CPU a thread runs on, gauged by reference loops run
/// beside the timed operations.  On a shared machine a virtual CPU runs the
/// same code up to twice as slowly for seconds to minutes while another
/// tenant shares its physical core, and whole runs come out fast or slow.
/// Scale() turns a time measured on that thread in the same stretch into
/// the time it takes at the reference speed, which cancels most of that
/// drift; a change to the program still moves the scaled time, since the
/// reference loop does not run any of its code.
class Speed {
 public:
  /// Gauge from the last `window` samples (0: every sample).
  explicit Speed(size_t window = 0) : window_(window) {}
  void Sample();
  /// kRefLoopNs / median reference loop time (1 before any sample).
  double Factor() const;
  /// `time` at the reference speed, for work whose time goes as the
  /// reference loop's to the power `sensitivity`.
  double Scale(double time, double sensitivity = 1) const {
    return time * std::pow(Factor(), sensitivity);
  }

 private:
  size_t window_;
  std::vector<double> loops_;
};

/// The sensitivity of allocation- and I/O-heavy work: compiling,
/// optimizing, redeploy cycles and reopens.  Their times went roughly as
/// the square root of the reference loop's between runs, while the VM's
/// dispatch loop (stanford runs, calls) went as the loop itself.
inline constexpr double kAllocBoundSensitivity = 0.5;

/// Sleep until the steady clock reads `t_ns` (coarse; for pacing).
void SleepUntilNs(int64_t t_ns);

/// The CPUs this process may use, fastest first, ranked by the reference
/// loop run on each.  On a shared machine some CPUs share their core with
/// busy neighbours and run the same code up to twice as slowly, so each
/// phase places its busy threads on the quietest CPUs it finds.
std::vector<int> RankCpus();
/// Pin the calling thread to `cpu` (no-op if cpu < 0).
void PinThread(int cpu);

// ---- span tracer (traced runs only) ----
//
// A span has a name, an operation id shared by every span of one operation,
// a start, an end, a parent (the enclosing span on the same thread) and the
// number of calls it covers (batched spans time n calls at once, where one
// call is shorter than the clock reads take).  Spans stay in per-thread
// memory and are written out when the run ends.
namespace trace {

struct Span {
  const char* name;
  uint64_t op;
  int64_t start;
  int64_t end;
  int32_t parent;  ///< index in the same thread's buffer, -1 for none
  uint32_t n;
  uint32_t thread;
};

extern bool g_on;

/// Open a span now; returns its handle (-1 when tracing is off).
int32_t Begin(const char* name, uint64_t op, uint32_t n = 1);
void End(int32_t handle);
/// Record a span with explicit times (e.g. an open-loop request, timed
/// from its due time), parented under the thread's current open span.
int32_t Record(const char* name, uint64_t op, int64_t start, int64_t end,
               uint32_t n = 1);
/// Record a child of `parent` with explicit times.
void RecordChild(int32_t parent, const char* name, int64_t start, int64_t end,
                 uint32_t n = 1);
/// Set the end of a span opened with Record(..., end = 0, ...).
void SetEnd(int32_t handle, int64_t end);

class Scope {
 public:
  Scope(const char* name, uint64_t op, uint32_t n = 1)
      : h_(g_on ? Begin(name, op, n) : -1) {}
  ~Scope() {
    if (h_ >= 0) End(h_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int32_t h_;
};

/// Per-call self time (ns) of every closed span named `name`: the span's
/// duration minus the part its child spans cover, divided by its n.
std::vector<double> SelfTimesNs(const std::string& name);
/// Median of SelfTimesNs(name) (0 when no span has that name).
double MedianSelfNs(const std::string& name);
/// Write every span as one JSON object per line; returns spans written.
size_t WriteJsonLines(const std::string& path);
/// Spans dropped because a thread's buffer was full.
uint64_t Dropped();

}  // namespace trace

// ---- workload phases ----
//
// Each phase sets itself up (several times, reporting every set-up
// duration), runs its timed window of ctx.seconds, checks every output and
// fills the report.
void RunStanford(const Ctx& ctx, Report* r);
void RunCalls(const Ctx& ctx, Report* r);
void RunWire(const Ctx& ctx, Report* r);
void RunEvolve(const Ctx& ctx, Report* r);

/// Set-up repetitions per phase; setup_s reports their median.
inline constexpr int kSetupReps = 3;

/// The complex/app exemplar shared by calls, wire and evolve.
inline constexpr const char* kComplexSrc =
    "fun make(x, y) = array(x, y) end\n"
    "fun getx(c) = c[0] end\n"
    "fun gety(c) = c[1] end";
inline constexpr const char* kAppSrc =
    "fun cabs(c) ="
    "  sqrt(real(getx(c) * getx(c) + gety(c) * gety(c))) "
    "end\n"
    "fun work(x, y, n) ="
    "  if n <= 0 then cabs(make(x, y))"
    "  else cabs(make(x, y)) +. work(x, y, n - 1) end "
    "end";

}  // namespace perfbench

#endif  // TML_PERFBENCH_COMMON_H_
