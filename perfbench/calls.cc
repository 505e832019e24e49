// Workload `calls`: two threads, each on its own worker VM, call the
// 61-step app.cabs of the complex/app exemplar in a closed loop.  Nothing is
// installed while the clock runs, so the per-call entry path (snapshot
// acquire, swizzle, marshalling, telemetry flush) dominates.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "runtime/universe.h"

namespace perfbench {
namespace {

using tml::Oid;
using tml::rt::Universe;
using tml::vm::Value;

constexpr int kThreads = 2;
constexpr int kWarmupCalls = 150000;  // per thread, inside set-up
// The timed window runs in chunks of kChunkCalls calls (about 20 ms), each
// followed by one reference loop that gauges the CPU's speed.
constexpr int kChunkCalls = 20000;
constexpr size_t kSpeedWindow = 8;
constexpr int kProbeBatches = 40;
constexpr uint32_t kProbeBatch = 1000;

// `verified` counts the timed window's calls that returned 5.0;
// `attempted` and `failed` cover every call, warm-up too.  `rates` holds
// each chunk's verified calls per second at the reference speed (read after
// the thread has joined).
struct alignas(64) Counter {
  std::atomic<uint64_t> verified{0};
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::vector<double> rates;
};

struct Shared {
  std::atomic<int> ready{0};
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  Counter counters[kThreads];
};

bool CabsOk(const tml::Result<tml::vm::RunResult>& r) {
  return r.ok() && !r->raised && r->value.is_real() && r->value.r == 5.0;
}

// One calling thread: build its complex value, warm up, then call cabs in a
// closed loop between the start and stop flags.
void Caller(tml::vm::VM* w, Oid make, Oid cabs, Shared* sh, int t,
            bool measure, int cpu) {
  PinThread(cpu);
  Counter& c = sh->counters[t];
  Value margs[] = {Value::Int(3), Value::Int(4)};
  c.attempted.fetch_add(1);
  auto cv = w->RunClosure(Value::OidV(make), margs);
  if (!cv.ok() || cv->raised) {
    c.failed.fetch_add(1);
    sh->ready.fetch_add(1);
    return;
  }
  w->Pin(cv->value);
  Value cargs[] = {cv->value};
  for (int i = 0; i < kWarmupCalls; ++i) {
    c.attempted.fetch_add(1, std::memory_order_relaxed);
    if (!CabsOk(w->RunClosure(Value::OidV(cabs), cargs))) {
      c.failed.fetch_add(1);
      break;
    }
  }
  sh->ready.fetch_add(1);
  if (!measure) return;
  while (!sh->start.load(std::memory_order_acquire)) std::this_thread::yield();
  uint64_t n = 0, bad = 0;
  Speed speed(kSpeedWindow);
  while (!sh->stop.load(std::memory_order_relaxed)) {
    uint64_t n0 = n;
    int64_t t0 = NowNs();
    for (int i = 0; i < kChunkCalls; ++i) {
      if (CabsOk(w->RunClosure(Value::OidV(cabs), cargs))) {
        ++n;
      } else {
        ++bad;
      }
    }
    int64_t t1 = NowNs();
    speed.Sample();
    c.rates.push_back(static_cast<double>(n - n0) /
                      speed.Scale((t1 - t0) / 1e9));
    c.verified.store(n, std::memory_order_relaxed);
  }
  c.attempted.fetch_add(n + bad);
  c.failed.fetch_add(bad);
}

// Add one set-up repetition's (or the timed window's) counts to the report.
void Count(const Shared& sh, Report* r) {
  for (const Counter& c : sh.counters) {
    r->attempted += c.attempted.load();
    r->failed += c.failed.load();
    if (c.failed.load() != 0) r->correct = false;
  }
}

}  // namespace

void RunCalls(const Ctx& ctx, Report* r) {
  std::unique_ptr<tml::store::ObjectStore> store;
  std::unique_ptr<Universe> u;
  std::unique_ptr<Shared> sh;
  std::vector<std::thread> threads;
  std::vector<tml::vm::VM*> vms;
  Oid make = tml::kNullOid, cabs = tml::kNullOid, getx = tml::kNullOid;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t t0 = NowNs();
    bool last = rep + 1 == kSetupReps;
    u.reset();
    auto s = tml::store::ObjectStore::Open("");
    if (!r->Check(s.ok(), "open in-memory store")) return;
    store = std::move(*s);
    u = std::make_unique<Universe>(store.get());
    if (!r->Check(u->InstallSource("complex", kComplexSrc,
                                   tml::fe::BindingMode::kLibrary)
                          .ok() &&
                      u->InstallSource("app", kAppSrc,
                                       tml::fe::BindingMode::kLibrary)
                          .ok(),
                  "install complex/app")) {
      return;
    }
    make = *u->Lookup("complex", "make");
    getx = *u->Lookup("complex", "getx");
    cabs = *u->Lookup("app", "cabs");
    sh = std::make_unique<Shared>();
    vms.clear();
    for (int t = 0; t < kThreads; ++t) {
      vms.push_back(u->AddWorkerVm());
      threads.emplace_back(Caller, vms.back(), make, cabs, sh.get(), t, last,
                           ctx.Cpu(t));
    }
    while (sh->ready.load() < kThreads) std::this_thread::yield();
    if (!last) {
      for (auto& th : threads) th.join();
      threads.clear();
      Count(*sh, r);
    }
    r->setups.push_back((NowNs() - t0) / 1e9);
  }

  // Timed window: both threads call until the stop flag; the metric sums
  // the two threads' median chunk rates.
  int64_t t_start = NowNs();
  sh->start.store(true, std::memory_order_release);
  SleepUntilNs(t_start + static_cast<int64_t>(ctx.seconds * 1e9));
  sh->stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  threads.clear();
  uint64_t verified = 0, failed = 0;
  size_t chunks = 0;
  double calls_per_s = 0;
  for (auto& c : sh->counters) {
    verified += c.verified.load();
    failed += c.failed.load();
    chunks += c.rates.size();
    calls_per_s += Median(c.rates);
  }
  Count(*sh, r);
  if (failed != 0) {
    std::printf("FAIL: %llu cabs calls did not return 5.0\n",
                static_cast<unsigned long long>(failed));
  }
  std::printf("calls: %llu verified cabs calls in %zu chunks\n",
              static_cast<unsigned long long>(verified), chunks);
  r->E2e("calls_per_s", calls_per_s, "calls/s");

  if (!trace::g_on) return;
  // Per-layer probes on one (now idle) worker VM: batches of the 2-step
  // getx and of the 61-step cabs; the difference isolates the dispatch cost.
  PinThread(ctx.Cpu(0));
  tml::vm::VM* w = vms[0];
  Value margs[] = {Value::Int(3), Value::Int(4)};
  auto cv = w->RunClosure(Value::OidV(make), margs);
  if (!r->Check(cv.ok() && !cv->raised, "complex.make")) return;
  w->Pin(cv->value);
  Value cargs[] = {cv->value};
  uint64_t getx_steps = 0, cabs_steps = 0;
  for (int b = 0; b < kProbeBatches; ++b) {
    {
      trace::Scope span("runtime.RunClosure.getx.batch", b, kProbeBatch);
      for (uint32_t i = 0; i < kProbeBatch; ++i) {
        auto g = w->RunClosure(Value::OidV(getx), cargs);
        if (!r->Check(g.ok() && !g->raised && g->value.is_int() &&
                          g->value.i == 3,
                      "complex.getx")) {
          return;
        }
        getx_steps = g->steps;
      }
    }
    trace::Scope span("runtime.RunClosure.cabs.batch", b, kProbeBatch);
    for (uint32_t i = 0; i < kProbeBatch; ++i) {
      auto c = w->RunClosure(Value::OidV(cabs), cargs);
      if (!r->Check(CabsOk(c), "app.cabs")) return;
      cabs_steps = c->steps;
    }
  }
  double getx_ns = trace::MedianSelfNs("runtime.RunClosure.getx.batch");
  double cabs_ns = trace::MedianSelfNs("runtime.RunClosure.cabs.batch");
  r->Layer("runtime.call_fixed_ns", getx_ns, "ns");
  r->Layer("vm.ns_per_step_calls",
           (cabs_ns - getx_ns) / static_cast<double>(cabs_steps - getx_steps),
           "ns");
}

}  // namespace perfbench
