// tmlbench — one run of the repository benchmark (see README.md).
//
//   tmlbench --workload <stanford|calls|wire|evolve> --seed <n>
//            --seconds <s> --trace <0|1> --out <dir> --bin <dir>
//
// Every run executes the four phases in a fixed order, wire last: while it
// keeps all four CPUs busy the host can steal a tenth or more of their
// time, and the steal lingered into the phase after it.  The named workload's
// phase measures for --seconds; the other three measure a short fixed
// window, so every run reports every end-to-end metric (its own workload's
// figures are the ones to read).  The last line of standard output is the
// result object; `e2e:` and `layer:` lines before it list the measured
// metrics by name, with their units.

#include <sched.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

// `short_seconds` is the window a phase measures when another workload is
// named: enough for about eight Stanford passes, some 300 calls chunks,
// 20 redeploy cycles of each program, and all nine wire rates.
struct Phase {
  const char* name;
  void (*run)(const Ctx&, Report*);
  double short_seconds;
};
constexpr Phase kPhases[] = {{"stanford", RunStanford, 12},
                             {"calls", RunCalls, 6},
                             {"evolve", RunEvolve, 10},
                             {"wire", RunWire, 12}};

int Usage() {
  std::fprintf(stderr,
               "usage: tmlbench --workload <stanford|calls|wire|evolve> "
               "--seed <n> --seconds <s> --trace <0|1> --out <dir> "
               "--bin <dir>\n");
  return 2;
}

std::string Json(const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, vu] : m) {
    if (out.size() > 1) out += ", ";
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Ctx ctx;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") workload = v;
    else if (a == "--seed") ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") ctx.seconds = std::atof(v.c_str());
    else if (a == "--trace") ctx.trace = v == "1";
    else if (a == "--out") ctx.out_dir = v;
    else if (a == "--bin") ctx.bin_dir = v;
    else return Usage();
  }
  bool known = false;
  for (const Phase& p : kPhases) known = known || workload == p.name;
  if (!known || ctx.seconds <= 0 || ctx.out_dir.empty() || ctx.bin_dir.empty()) {
    return Usage();
  }
  mkdir(ctx.out_dir.c_str(), 0755);
  trace::g_on = ctx.trace;

  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  sched_getaffinity(0, sizeof all_cpus, &all_cpus);
  Report all;
  double setup_s = 0;
  for (const Phase& p : kPhases) {
    Ctx pc = ctx;
    pc.seconds = workload == p.name ? ctx.seconds : p.short_seconds;
    pc.cpus = RankCpus();
    Report r;
    int64_t t0 = NowNs();
    auto steal0 = StealJiffies();
    p.run(pc, &r);
    double steal_pct = StealPercentSince(steal0);
    sched_setaffinity(0, sizeof all_cpus, &all_cpus);
    setup_s += Median(r.setups);
    std::printf("%s: %.1f s on cpus %d,%d,... (fastest first), host steal "
                "%.1f%%, set-up median %.3f s, attempted %llu, failed %llu%s\n",
                p.name, (NowNs() - t0) / 1e9, pc.Cpu(0), pc.Cpu(1),
                steal_pct, Median(r.setups),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "" : ", INCORRECT");
    std::fflush(stdout);
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.correct = all.correct && r.correct;
    all.e2e.insert(r.e2e.begin(), r.e2e.end());
    all.layer.insert(r.layer.begin(), r.layer.end());
  }
  all.E2e("setup_s", setup_s, "s");
  if (ctx.trace) {
    std::string path = ctx.out_dir + "/trace-" + workload + ".jsonl";
    size_t n = trace::WriteJsonLines(path);
    std::printf("trace: %zu spans written to %s (%llu dropped)\n", n,
                path.c_str(), static_cast<unsigned long long>(trace::Dropped()));
  }
  std::printf("e2e: %s\n", Json(all.e2e).c_str());
  if (ctx.trace) std::printf("layer: %s\n", Json(all.layer).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              all.correct && all.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed),
              Json(ctx.trace ? all.layer : all.e2e).c_str());
  return 0;
}
