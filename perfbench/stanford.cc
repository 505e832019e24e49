// Workload `stanford`: the paper's E1/E2 on the Stanford suite in library
// binding mode.  One thread, closed loop.  Each timed pass opens a fresh
// in-memory store and, per program, installs it, runs a cold
// reflect.optimize, and times one bench(bench_n) call of the installed and
// of the optimized closure.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/module.h"
#include "core/optimizer.h"
#include "corpus/stanford.h"
#include "frontend/compile.h"
#include "prims/standard.h"
#include "runtime/universe.h"
#include "store/ptml.h"
#include "vm/codegen.h"
#include "vm/fuse.h"

namespace perfbench {
namespace {

using tml::Oid;
using tml::rt::Universe;
using tml::vm::Value;

// Checksums of bench(small_n) and bench(bench_n), computed with direct
// binding (operators compiled straight to primitives, no optimizer); the
// Towers and Queens small_n values equal the corpus's own golden entries.
struct Golden {
  const char* name;
  int64_t small;
  int64_t bench;
};
constexpr Golden kGolden[] = {
    {"Perm", 69281, 207843},     {"Towers", 63, 4095},
    {"Queens", 92, 184},         {"Intmm", 202, 834},
    {"Mm", 202, 834},            {"Puzzle", 81, 19513},
    {"Quick", 100078, 98146},    {"Bubble", 101763, 99744},
    {"Tree", 6410, 150021},      {"Oscar", 397917, 1414484},
};

constexpr int kInstallRounds = 4;

// The runtime options bench_stanford uses for reflect.optimize.
tml::ir::OptimizerOptions ReflectOpts() {
  tml::ir::OptimizerOptions o;
  o.expand.budget = 96;
  o.expand.always_inline_cost = 24;
  o.penalty_limit = 192;
  o.max_rounds = 24;
  return o;
}

struct Installed {
  Oid unopt = tml::kNullOid;
  Oid opt = tml::kNullOid;
};

struct PassTimes {
  double compile_ms = 0;
  double optimize_ms = 0;
};

// One program's layer probes (traced runs): the frontend, PTML, optimizer,
// code generator and fusion pass called directly on its source.
struct Probe {
  double tml_nodes = 0;
  double fused_slots = 0;
};

void ProbeLayers(const tml::corpus::StanfordProgram& p, uint64_t op,
                 Probe* probe, Report* r) {
  const auto& prims = tml::prims::StandardRegistry();
  tml::fe::CompileOptions copts;
  copts.binding = tml::fe::BindingMode::kLibrary;
  int32_t h = trace::Begin("frontend.Compile", op);
  auto unit = tml::fe::Compile(p.source, prims, copts);
  trace::End(h);
  if (!r->Check(unit.ok(), "fe::Compile")) return;
  tml::vm::CodeUnit code;
  for (const auto& fn : unit->functions) {
    probe->tml_nodes += static_cast<double>(tml::ir::ValueSize(fn.abs));
    h = trace::Begin("store.EncodePtml", op);
    std::string bytes = tml::store::EncodePtml(*unit->module, fn.abs);
    trace::End(h);
    tml::ir::Module m;
    h = trace::Begin("store.DecodePtml", op);
    auto dec = tml::store::DecodePtml(&m, prims, bytes);
    trace::End(h);
    if (!r->Check(dec.ok(), "DecodePtml")) continue;
    h = trace::Begin("core.Optimize", op);
    const tml::ir::Abstraction* o = tml::ir::Optimize(&m, dec->abs);
    trace::End(h);
    h = trace::Begin("vm.CompileProc", op);
    auto f = tml::vm::CompileProc(&code, m, o, fn.name);
    trace::End(h);
    if (!r->Check(f.ok(), "vm::CompileProc")) continue;
    h = trace::Begin("vm.FuseSuperinstructions", op);
    tml::vm::FuseStats fs = tml::vm::FuseSuperinstructions(*f);
    trace::End(h);
    probe->fused_slots += static_cast<double>(fs.pairs_fused + fs.triples_fused);
  }
}

// Install every program and reflect-optimize it in a fresh universe.
bool InstallAll(Universe* u, uint64_t pass, std::vector<Installed>* out,
                PassTimes* times, tml::rt::ReflectStats* rstats, Report* r) {
  const auto& suite = tml::corpus::StanfordSuite();
  out->assign(suite.size(), Installed{});
  for (size_t i = 0; i < suite.size(); ++i) {
    const auto& p = suite[i];
    uint64_t op = pass * 100 + i;
    trace::Scope span("stanford.program", op);
    std::string mod = std::string("p_") + p.name;
    int64_t t0 = NowNs();
    int32_t h = trace::g_on ? trace::Begin("runtime.InstallSource", op) : -1;
    tml::Status st = u->InstallSource(mod, p.source,
                                      tml::fe::BindingMode::kLibrary);
    if (h >= 0) trace::End(h);
    int64_t t1 = NowNs();
    if (!r->Check(st.ok(), "install " + mod + ": " + st.ToString())) {
      return false;
    }
    auto f = u->Lookup(mod, "bench");
    if (!r->Check(f.ok(), "lookup " + mod)) return false;
    tml::rt::ReflectStats rs;
    int64_t t2 = NowNs();
    h = trace::g_on ? trace::Begin("runtime.ReflectOptimize.cold", op) : -1;
    auto o = u->ReflectOptimize(*f, ReflectOpts(), &rs);
    if (h >= 0) trace::End(h);
    int64_t t3 = NowNs();
    if (!r->Check(o.ok() && rs.cache_misses == 1,
                  "cold reflect.optimize " + mod)) {
      return false;
    }
    (*out)[i] = Installed{*f, *o};
    if (times != nullptr) {
      times->compile_ms += (t1 - t0) / 1e6;
      times->optimize_ms += (t3 - t2) / 1e6;
    }
    if (rstats != nullptr) {
      rstats->optimizer.rounds += rs.optimizer.rounds;
      rstats->optimizer.rewrite += rs.optimizer.rewrite;
      rstats->optimizer.expand += rs.optimizer.expand;
      rstats->input_term_size += rs.input_term_size;
      rstats->output_term_size += rs.output_term_size;
      rstats->cache_misses += rs.cache_misses;
      rstats->cache_hits += rs.cache_hits;
    }
    if (trace::g_on) {
      // A repeated reflect.optimize is served from the persistent cache.
      tml::rt::ReflectStats warm;
      h = trace::Begin("runtime.ReflectOptimize.warm", op);
      auto w = u->ReflectOptimize(*f, ReflectOpts(), &warm);
      trace::End(h);
      r->Check(w.ok() && *w == *o, "warm reflect.optimize " + mod);
      if (rstats != nullptr) {
        rstats->cache_hits += warm.cache_hits;
        rstats->cache_misses += warm.cache_misses;
      }
    }
  }
  return true;
}

// bench(n) on `closure`, checked against `want`; returns wall ms or -1.
double TimedCall(Universe* u, Oid closure, int64_t n, int64_t want,
                 const char* what, uint64_t op, uint64_t* steps, Report* r) {
  Value args[] = {Value::Int(n)};
  int64_t t0 = NowNs();
  int32_t h = trace::g_on ? trace::Begin(what, op) : -1;
  auto res = u->Call(closure, args);
  if (h >= 0) trace::End(h);
  int64_t t1 = NowNs();
  bool ok = res.ok() && !res->raised && res->value.is_int() &&
            res->value.i == want;
  if (!r->Check(ok, std::string(what) + " checksum")) return -1;
  if (steps != nullptr) *steps = res->steps;
  return (t1 - t0) / 1e6;
}

struct Fresh {
  std::unique_ptr<tml::store::ObjectStore> store;
  std::unique_ptr<Universe> u;
};

bool OpenFresh(Fresh* f, Report* r) {
  f->u.reset();
  auto s = tml::store::ObjectStore::Open("");
  if (!r->Check(s.ok(), "open in-memory store")) return false;
  f->store = std::move(*s);
  f->u = std::make_unique<Universe>(f->store.get());
  return true;
}

}  // namespace

void RunStanford(const Ctx& ctx, Report* r) {
  PinThread(ctx.Cpu(0));
  const auto& suite = tml::corpus::StanfordSuite();
  std::vector<const Golden*> golden(suite.size(), nullptr);
  for (size_t i = 0; i < suite.size(); ++i) {
    for (const Golden& g : kGolden) {
      if (std::string(g.name) == suite[i].name) golden[i] = &g;
    }
    if (golden[i] == nullptr) {
      r->Fail(std::string("no golden checksum for ") + suite[i].name);
      return;
    }
  }

  // Set-up: install and optimize everything, check both configurations at
  // small_n, and run each optimized program once at bench_n (warms the
  // machine and the swizzle caches; timed passes start from fresh stores).
  std::vector<Installed> inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t t0 = NowNs();
    Fresh f;
    if (!OpenFresh(&f, r)) return;
    if (!InstallAll(f.u.get(), 0, &inst, nullptr, nullptr, r)) return;
    for (size_t i = 0; i < suite.size(); ++i) {
      TimedCall(f.u.get(), inst[i].unopt, suite[i].small_n, golden[i]->small,
                "stanford.check.unopt", 0, nullptr, r);
      TimedCall(f.u.get(), inst[i].opt, suite[i].small_n, golden[i]->small,
                "stanford.check.opt", 0, nullptr, r);
      TimedCall(f.u.get(), inst[i].opt, suite[i].bench_n, golden[i]->bench,
                "stanford.warm.opt", 0, nullptr, r);
    }
    r->setups.push_back((NowNs() - t0) / 1e9);
  }
  if (!r->correct) return;

  std::vector<std::vector<double>> opt_ms(suite.size()), unopt_ms(suite.size());
  std::vector<uint64_t> opt_steps(suite.size()), unopt_steps(suite.size());
  std::vector<double> compile_ms, optimize_ms;
  tml::rt::ReflectStats rstats;
  Probe probe;
  Universe::SizeReport sizes;
  int64_t deadline = NowNs() + static_cast<int64_t>(ctx.seconds * 1e9);
  uint64_t pass = 1;
  do {
    // The quietest CPU changes within seconds on a shared machine; each
    // pass runs on the one that is quietest as it starts.
    if (pass > 1) {
      std::vector<int> cpus = RankCpus();
      if (!cpus.empty()) PinThread(cpus[0]);
    }
    // Install and cold-optimize the suite kInstallRounds times, each time
    // into a fresh store (one round takes only ~40 ms); the pass keeps the
    // median round and runs the last round's closures.
    Fresh f;
    std::vector<double> pass_compile, pass_optimize;
    for (int round = 0; round < kInstallRounds; ++round) {
      if (!OpenFresh(&f, r)) return;
      PassTimes pt;
      if (!InstallAll(f.u.get(), pass, &inst, &pt,
                      round == 0 ? &rstats : nullptr, r)) {
        return;
      }
      pass_compile.push_back(pt.compile_ms);
      pass_optimize.push_back(pt.optimize_ms);
    }
    sizes = f.u->Sizes();
    // A reference loop after each timed call gauges this CPU's speed over
    // the pass; every time of the pass is scaled to the reference speed.
    Speed speed;
    std::vector<double> pass_opt(suite.size()), pass_unopt(suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
      uint64_t op = pass * 100 + i;
      trace::Scope span("stanford.program", op);
      if (trace::g_on && pass == 1) ProbeLayers(suite[i], op, &probe, r);
      // Alternate which configuration runs first, pass by pass.
      for (int k = 0; k < 2; ++k) {
        bool opt = (k == 0) == (pass % 2 == 0);
        double ms = TimedCall(f.u.get(), opt ? inst[i].opt : inst[i].unopt,
                              suite[i].bench_n, golden[i]->bench,
                              opt ? "vm.run.opt" : "vm.run.unopt", op,
                              opt ? &opt_steps[i] : &unopt_steps[i], r);
        if (ms < 0) return;
        (opt ? pass_opt : pass_unopt)[i] = ms;
        speed.Sample();
      }
    }
    for (size_t i = 0; i < suite.size(); ++i) {
      opt_ms[i].push_back(speed.Scale(pass_opt[i]));
      unopt_ms[i].push_back(speed.Scale(pass_unopt[i]));
    }
    compile_ms.push_back(
        speed.Scale(Median(pass_compile), kAllocBoundSensitivity));
    optimize_ms.push_back(
        speed.Scale(Median(pass_optimize), kAllocBoundSensitivity));
    ++pass;
  } while (NowNs() < deadline);

  std::vector<double> opt_med, unopt_med;
  double opt_total_ms = 0, unopt_total_ms = 0;
  double opt_total_steps = 0, unopt_total_steps = 0;
  for (size_t i = 0; i < suite.size(); ++i) {
    opt_med.push_back(Median(opt_ms[i]));
    unopt_med.push_back(Median(unopt_ms[i]));
    opt_total_ms += opt_med.back();
    unopt_total_ms += unopt_med.back();
    opt_total_steps += static_cast<double>(opt_steps[i]);
    unopt_total_steps += static_cast<double>(unopt_steps[i]);
  }
  std::printf("stanford: %llu passes over %zu programs\n",
              static_cast<unsigned long long>(pass - 1), suite.size());
  r->E2e("stanford_run_ms", GeoMean(opt_med), "ms");
  r->E2e("stanford_unopt_run_ms", GeoMean(unopt_med), "ms");
  r->E2e("stanford_compile_ms", Median(compile_ms), "ms");
  r->E2e("stanford_optimize_ms", Median(optimize_ms), "ms");
  r->E2e("stanford_store_bytes",
         static_cast<double>(sizes.code_bytes + sizes.ptml_bytes +
                             sizes.closure_bytes),
         "bytes");

  double passes = static_cast<double>(pass - 1);
  r->Layer("frontend.compile_us", trace::MedianSelfNs("frontend.Compile") / 1e3,
           "us");
  r->Layer("frontend.tml_nodes", probe.tml_nodes, "count");
  r->Layer("core.optimize_us", trace::MedianSelfNs("core.Optimize") / 1e3, "us");
  r->Layer("core.rounds", rstats.optimizer.rounds / passes, "count");
  r->Layer("core.rewrites_fired",
           static_cast<double>(rstats.optimizer.rewrite.TotalApplications()) /
               passes,
           "count");
  r->Layer("core.inlined",
           static_cast<double>(rstats.optimizer.expand.inlined) / passes,
           "count");
  r->Layer("core.term_out_ratio",
           rstats.input_term_size == 0
               ? 0
               : static_cast<double>(rstats.output_term_size) /
                     static_cast<double>(rstats.input_term_size),
           "ratio");
  r->Layer("store.ptml_encode_us",
           trace::MedianSelfNs("store.EncodePtml") / 1e3, "us");
  r->Layer("store.ptml_decode_us",
           trace::MedianSelfNs("store.DecodePtml") / 1e3, "us");
  r->Layer("store.ptml_bytes", static_cast<double>(sizes.ptml_bytes), "bytes");
  r->Layer("store.code_bytes", static_cast<double>(sizes.code_bytes), "bytes");
  r->Layer("vm.codegen_us", trace::MedianSelfNs("vm.CompileProc") / 1e3, "us");
  r->Layer("vm.fuse_us", trace::MedianSelfNs("vm.FuseSuperinstructions") / 1e3,
           "us");
  r->Layer("vm.fused_slots", probe.fused_slots, "count");
  r->Layer("vm.steps_dynamic", opt_total_steps, "count");
  r->Layer("vm.steps_unopt", unopt_total_steps, "count");
  r->Layer("vm.ns_per_step_dynamic", opt_total_ms * 1e6 / opt_total_steps,
           "ns");
  r->Layer("vm.ns_per_step_unopt", unopt_total_ms * 1e6 / unopt_total_steps,
           "ns");
  r->Layer("runtime.install_us",
           trace::MedianSelfNs("runtime.InstallSource") / 1e3, "us");
  r->Layer("runtime.reflect_cold_us",
           trace::MedianSelfNs("runtime.ReflectOptimize.cold") / 1e3, "us");
  r->Layer("runtime.reflect_warm_us",
           trace::MedianSelfNs("runtime.ReflectOptimize.warm") / 1e3, "us");
  double lookups = static_cast<double>(rstats.cache_hits + rstats.cache_misses);
  r->Layer("runtime.reflect_hit_ratio",
           lookups == 0 ? 0 : static_cast<double>(rstats.cache_hits) / lookups,
           "ratio");
}

}  // namespace perfbench
