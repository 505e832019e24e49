// Workload `wire`: tycd run as users run it (adaptive manager and sampler
// on, two workers, fresh store), driven over two Unix-socket connections by
// one generator thread in an open loop: requests are sent on a seeded
// Poisson schedule whether or not earlier replies have arrived, and every
// latency is timed from the request's due time, so a stall shows up as
// delay for everything queued behind it.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "runtime/universe.h"
#include "server/client.h"
#include "server/protocol.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

using tml::server::Client;
using tml::server::WireValue;

// Offered rates (req/s), calibrated once on the reference machine and
// frozen so every commit is measured against the same load.  On that 4-vCPU
// VM the p99 of this mix crossed 1 ms between about 110k and 170k req/s
// while the host was quiet, and near 60k while co-tenants slowed it, so the
// ladder spans both.  The first rung is the reference rate for wire_p50_us /
// wire_p99_us: about half of capacity on the slowed machine, so it stays
// clear of the knee either way.  It gets kRefShare of the window and the
// other rungs split the rest evenly.
constexpr double kLadder[] = {30000,  60000,  80000,  100000, 120000,
                              140000, 160000, 180000, 200000};
constexpr size_t kRefRung = 0;
constexpr size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr double kRefShare = 0.35;

constexpr double kLatencyLimitUs = 1000;  // p99 limit for wire_max_rps
constexpr double kWindowS = 0.1;         // latency percentile window
constexpr size_t kMinWindowSamples = 1000;
constexpr double kLateLimitUs = 500;      // generator lag that voids a window
constexpr int kWorkDepth = 50;
constexpr int kRelRows = 200;
constexpr int64_t kDrainNs = 2'000'000'000;

enum Kind : uint8_t { kLight = 0, kHeavy = 1, kQuery = 2 };
const char* const kKindSpan[] = {"wire.request.light", "wire.request.heavy",
                                 "wire.request.query"};

struct Req {
  int64_t due = 0;  ///< offset from the rung start
  uint8_t conn = 0;
  uint8_t kind = kLight;
};

struct Done {
  int64_t due = 0, sent = 0, reply = 0;
  uint8_t kind = kLight;
  bool ok = false;
};

// The wire-visible state tycd was set up with.
struct Setup {
  int64_t query_count = 0;  ///< what the QUERY must return
  int64_t rel_oid = 0;
};

// ---- tycd child process ----

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Start tycd on `cpus` (all CPUs if empty).
  bool Start(const std::string& bin, const std::string& db,
             const std::string& sock, const std::string& log,
             const std::vector<int>& cpus) {
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      if (!cpus.empty()) {
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c : cpus) CPU_SET(c, &set);
        sched_setaffinity(0, sizeof set, &set);
      }
      int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
      }
      execl(bin.c_str(), bin.c_str(), db.c_str(), "--unix", sock.c_str(),
            "--workers", "2", static_cast<char*>(nullptr));
      _exit(127);
    }
    return true;
  }

  /// SIGTERM (graceful: tycd commits and exits), then wait; SIGKILL after
  /// five seconds.  Returns true on a clean exit.
  bool Stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    bool clean = false;
    for (int i = 0; i < 500; ++i) {
      pid_t w = waitpid(pid_, &status, WNOHANG);
      if (w == pid_) {
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
        return clean;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }

 private:
  pid_t pid_ = -1;
};

// ---- requests and replies ----

WireValue Request(Kind k, const Setup& s) {
  using W = WireValue;
  switch (k) {
    case kLight:
      return W::Arr({W::Str("CALL"), W::Str("complex"), W::Str("getx"),
                     W::Arr({W::Int(3), W::Int(4)})});
    case kHeavy:
      return W::Arr({W::Str("CALL"), W::Str("app"), W::Str("work"), W::Int(3),
                     W::Int(4), W::Int(kWorkDepth)});
    case kQuery:
      return W::Arr({W::Str("QUERY"), W::Str("rel"), W::Str("count"),
                     W::Int(s.rel_oid)});
  }
  return W::Nil();
}

bool ReplyOk(Kind k, const WireValue& v, const Setup& s) {
  switch (k) {
    case kLight: return v.tag == tml::server::TAG_INT && v.i == 3;
    case kHeavy:
      return v.tag == tml::server::TAG_DBL && v.d == 5.0 * (kWorkDepth + 1);
    case kQuery: return v.tag == tml::server::TAG_INT && v.i == s.query_count;
  }
  return false;
}

int ConnectUnix(const std::string& path) {
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  int fd = -1;
  std::string out;  ///< encoded bytes not yet accepted by the kernel
  std::string in;   ///< received bytes not yet decoded
  std::deque<size_t> pending;  ///< indices into the rung's Done vector
};

struct RungResult {
  std::vector<Done> done;
  std::vector<double> backlog;  ///< outstanding requests, sampled every 5 ms
  int64_t start = 0;
  int64_t last_reply = 0;
  uint64_t failed = 0;
};

// Send every request of `sched` at its due time over `conns` and collect the
// replies.  Returns false on a transport error or an unanswered request.
bool Drive(std::vector<Conn>* conns, const std::vector<Req>& sched,
           const Setup& setup, bool traced, RungResult* out) {
  out->done.assign(sched.size(), Done{});
  std::vector<int32_t> spans(sched.size(), -1);  // traced runs only
  int64_t start = NowNs() + 1'000'000;
  out->start = start;
  size_t next = 0, outstanding = 0;
  int64_t next_sample = start;
  int64_t drain_deadline = 0;
  std::string frame;
  while (true) {
    int64_t now = NowNs();
    while (next < sched.size() && start + sched[next].due <= now) {
      const Req& q = sched[next];
      Conn& c = (*conns)[q.conn];
      Done& d = out->done[next];
      d.due = start + q.due;
      d.kind = q.kind;
      d.sent = NowNs();
      int32_t span =
          traced ? trace::Record(kKindSpan[q.kind], next, d.due, 0) : -1;
      spans[next] = span;
      frame.clear();
      int64_t e0 = NowNs();
      tml::Status st = tml::server::EncodeFrame(
          Request(static_cast<Kind>(q.kind), setup), &frame);
      if (span >= 0) trace::RecordChild(span, "server.EncodeFrame", e0, NowNs());
      if (!st.ok()) return false;
      c.out += frame;
      c.pending.push_back(next);
      ++outstanding;
      ++next;
      now = NowNs();
    }
    if (next == sched.size() && drain_deadline == 0) {
      drain_deadline = now + kDrainNs;
    }
    if (now >= next_sample) {
      out->backlog.push_back(static_cast<double>(outstanding));
      next_sample += 5'000'000;
    }
    if (next == sched.size() && outstanding == 0) break;
    if (drain_deadline != 0 && now > drain_deadline) break;

    pollfd pfd[2];
    for (size_t i = 0; i < conns->size(); ++i) {
      Conn& c = (*conns)[i];
      if (!c.out.empty()) {
        ssize_t w = write(c.fd, c.out.data(), c.out.size());
        if (w > 0) c.out.erase(0, static_cast<size_t>(w));
        else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
      }
      pfd[i].fd = c.fd;
      pfd[i].events = static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      pfd[i].revents = 0;
    }
    int64_t wake = next < sched.size() ? start + sched[next].due
                                       : std::min(drain_deadline, next_sample);
    wake = std::min(wake, next_sample);
    int64_t wait = std::max<int64_t>(0, wake - NowNs());
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    if (ppoll(pfd, conns->size(), &ts, nullptr) < 0 && errno != EINTR) {
      return false;
    }
    for (size_t i = 0; i < conns->size(); ++i) {
      if ((pfd[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = (*conns)[i];
      char buf[65536];
      ssize_t n = read(c.fd, buf, sizeof buf);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        return false;
      }
      int64_t t_read = NowNs();
      c.in.append(buf, static_cast<size_t>(n));
      size_t off = 0;
      while (true) {
        WireValue v;
        size_t used = 0;
        int64_t d0 = NowNs();
        auto ds = tml::server::DecodeFrame(
            reinterpret_cast<const uint8_t*>(c.in.data()) + off,
            c.in.size() - off, &v, &used);
        int64_t d1 = NowNs();
        if (ds == tml::server::DecodeStatus::kNeedMore) break;
        if (ds == tml::server::DecodeStatus::kError || c.pending.empty()) {
          return false;
        }
        off += used;
        size_t idx = c.pending.front();
        c.pending.pop_front();
        Done& d = out->done[idx];
        d.reply = t_read;
        d.ok = ReplyOk(static_cast<Kind>(d.kind), v, setup);
        if (!d.ok) ++out->failed;
        if (spans[idx] >= 0) {
          trace::RecordChild(spans[idx], "server.DecodeFrame", d0, d1);
          trace::SetEnd(spans[idx], t_read);
        }
        out->last_reply = t_read;
        --outstanding;
      }
      c.in.erase(0, off);
    }
  }
  // A request still unanswered after the drain window is failed; its late
  // reply would be matched to the wrong request, so the connections are done.
  for (Conn& c : *conns) out->failed += c.pending.size();
  return outstanding == 0;
}

std::vector<Req> Schedule(Rng* rng, double rate, double seconds) {
  std::vector<Req> s;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng->Unit()) / rate;
    if (t >= seconds) break;
    Req q;
    q.due = static_cast<int64_t>(t * 1e9);
    q.conn = static_cast<uint8_t>(rng->Below(2));
    uint64_t m = rng->Below(100);
    q.kind = m < 80 ? kLight : m < 95 ? kHeavy : kQuery;
    s.push_back(q);
  }
  return s;
}

// ---- METRICS json scraping ----

struct Hist {
  uint64_t count = 0, sum = 0;
  std::vector<std::pair<int, uint64_t>> buckets;
};

// Parse `"<key>": ...` from tycd's METRICS json rendering (a flat object
// of counters and {count, sum, buckets} histograms).
bool FindMetric(const std::string& json, const std::string& key, Hist* h) {
  std::string pat = "\"" + key + "\": ";
  size_t p = json.find(pat);
  if (p == std::string::npos) return false;
  p += pat.size();
  *h = Hist{};
  if (json[p] != '{') {
    h->count = std::strtoull(json.c_str() + p, nullptr, 10);
    return true;
  }
  h->count = std::strtoull(json.c_str() + json.find("\"count\": ", p) + 9,
                           nullptr, 10);
  h->sum = std::strtoull(json.c_str() + json.find("\"sum\": ", p) + 7, nullptr,
                         10);
  size_t b = json.find("\"buckets\": {", p) + 12;
  size_t e = json.find('}', b);
  while (b < e) {
    size_t q = json.find('"', b);
    if (q == std::string::npos || q >= e) break;
    int idx = std::atoi(json.c_str() + q + 1);
    size_t colon = json.find(':', q);
    uint64_t n = std::strtoull(json.c_str() + colon + 1, nullptr, 10);
    h->buckets.emplace_back(idx, n);
    b = json.find(',', colon);
    if (b == std::string::npos) break;
  }
  return true;
}

Hist Delta(const Hist& a, const Hist& b) {
  Hist d;
  d.count = b.count - a.count;
  d.sum = b.sum - a.sum;
  for (auto [idx, n] : b.buckets) {
    uint64_t before = 0;
    for (auto [i2, n2] : a.buckets) {
      if (i2 == idx) before = n2;
    }
    if (n > before) d.buckets.emplace_back(idx, n - before);
  }
  return d;
}

struct Scrape {
  Hist queue_wait, cmd_call, batch_frames, polls, promotions, samples;
};

bool ScrapeMetrics(Client* cli, Scrape* s) {
  auto r = cli->Call({"METRICS", "json"});
  if (!r.ok() || !r->is_str()) return false;
  const std::string& j = r->s;
  return FindMetric(j, "tml.server.queue_wait_us", &s->queue_wait) &&
         FindMetric(j, "tml.server.cmd_us{cmd=CALL}", &s->cmd_call) &&
         FindMetric(j, "tml.server.batch_frames", &s->batch_frames) &&
         FindMetric(j, "tml.adaptive.polls", &s->polls) &&
         FindMetric(j, "tml.adaptive.promotions", &s->promotions) &&
         FindMetric(j, "tml.profiler.samples", &s->samples);
}

double HistQuantile(const Hist& h, double q) {
  return h.count == 0 ? 0 : tml::telemetry::BucketQuantile(h.buckets, q);
}

// ---- set-up ----

struct Instance {
  Daemon daemon;
  std::string db, sock;
  Client cli;  ///< control connection (set-up, METRICS)
  std::vector<Conn> conns;
};

bool Ok(const tml::Result<WireValue>& r) { return r.ok() && !r->is_err(); }

bool StartInstance(const Ctx& ctx, int rep, Rng* rng, Instance* in,
                   Setup* setup, Report* r) {
  std::string tag = std::to_string(getpid()) + "-" + std::to_string(rep);
  in->db = ctx.out_dir + "/wire-" + tag + ".db";
  in->sock = ctx.out_dir + "/w" + tag + ".sock";
  std::remove(in->db.c_str());
  std::remove(in->sock.c_str());
  // The generator keeps the quietest CPU to itself, so the schedule it
  // keeps is not at the mercy of tycd's threads or of a noisy neighbour;
  // tycd's loop and two workers get the other three.
  std::vector<int> cpus(ctx.cpus.begin() + (ctx.cpus.size() > 1 ? 1 : 0),
                        ctx.cpus.end());
  if (!r->Check(in->daemon.Start(ctx.bin_dir + "/tycd", in->db, in->sock,
                                 ctx.out_dir + "/tycd.log", cpus),
                "start tycd")) {
    return false;
  }
  for (int i = 0; i < 1000; ++i) {
    auto c = Client::ConnectUnix(in->sock);
    if (c.ok()) {
      in->cli = std::move(*c);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!r->Check(in->cli.connected(), "connect to tycd")) return false;

  // Seeded relation and counting threshold; the benchmark recomputes the
  // count the QUERY must return.
  int64_t threshold = rng->Range(300, 700);
  std::vector<WireValue> rows;
  setup->query_count = 0;
  for (int i = 0; i < kRelRows; ++i) {
    int64_t v = rng->Range(0, 999);
    if (v < threshold) ++setup->query_count;
    rows.push_back(WireValue::Arr({WireValue::Int(i), WireValue::Int(v)}));
  }
  std::string count_src =
      "fun count(r) =\n"
      "  var n := 0 in\n"
      "  begin\n"
      "    for i = 0 upto size(r) - 1 do\n"
      "      if r[i][1] < " + std::to_string(threshold) + " then n := n + 1 end\n"
      "    end;\n"
      "    n\n"
      "  end\n"
      "end";
  using W = WireValue;
  bool ok =
      r->Check(Ok(in->cli.Call(W::Arr({W::Str("INSTALL"), W::Str("complex"),
                                        W::Str(kComplexSrc)}))),
               "INSTALL complex") &&
      r->Check(Ok(in->cli.Call(W::Arr({W::Str("INSTALL"), W::Str("app"),
                                        W::Str(kAppSrc)}))),
               "INSTALL app") &&
      r->Check(Ok(in->cli.Call(W::Arr({W::Str("INSTALL"), W::Str("rel"),
                                        W::Str(count_src)}))),
               "INSTALL rel");
  if (!ok) return false;
  auto rel = in->cli.Call(W::Arr(
      {W::Str("RELSTORE"), W::Arr({W::Str("id"), W::Str("v")}),
       W::Arr(std::move(rows))}));
  if (!r->Check(Ok(rel) && rel->tag == tml::server::TAG_INT, "RELSTORE")) {
    return false;
  }
  setup->rel_oid = rel->i;
  if (!r->Check(Ok(in->cli.Call({"OPTIMIZE", "app", "work"})),
                "OPTIMIZE app work")) {
    return false;
  }
  for (int i = 0; i < 2; ++i) {
    Conn c;
    c.fd = ConnectUnix(in->sock);
    if (!r->Check(c.fd >= 0, "open load connection")) return false;
    in->conns.push_back(std::move(c));
  }
  return true;
}

void StopInstance(Instance* in, Report* r) {
  for (Conn& c : in->conns) {
    if (c.fd >= 0) close(c.fd);
  }
  in->conns.clear();
  in->cli.Close();
  r->Check(in->daemon.Stop(), "tycd clean shutdown");
  std::remove(in->db.c_str());
  std::remove(in->sock.c_str());
}

// Warm-up: the mix in 0.2 s open-loop bursts, alternating the reference and
// the highest ladder rate (so everything that gets hot at any rate is
// promoted now), until the adaptive manager has gone quiet (no promotion
// across three bursts after at least three polls), capped at 40 bursts.
bool WarmUp(Instance* in, const Setup& setup, Rng* rng, Report* r) {
  Scrape s;
  uint64_t last_promotions = ~0ull;
  int quiet = 0;
  for (int burst = 0; burst < 40 && quiet < 3; ++burst) {
    RungResult rr;
    double rate = burst % 2 == 0 ? kLadder[kRefRung] : kLadder[kRungs - 1];
    if (!r->Check(Drive(&in->conns, Schedule(rng, rate, 0.2), setup, false,
                        &rr) &&
                      rr.failed == 0,
                  "warm-up burst")) {
      return false;
    }
    if (!r->Check(ScrapeMetrics(&in->cli, &s), "METRICS json")) return false;
    quiet = s.promotions.count == last_promotions && s.polls.count >= 3
                ? quiet + 1
                : 0;
    last_promotions = s.promotions.count;
  }
  return true;
}

void LocalLookupProbe(Report* r) {
  auto s = tml::store::ObjectStore::Open("");
  if (!r->Check(s.ok(), "open in-memory store")) return;
  tml::rt::Universe u(s->get());
  if (!r->Check(u.InstallSource("complex", kComplexSrc,
                                tml::fe::BindingMode::kLibrary)
                    .ok(),
                "install complex")) {
    return;
  }
  constexpr uint32_t kBatch = 1000;
  for (int b = 0; b < 50; ++b) {
    trace::Scope span("runtime.Lookup.batch", b, kBatch);
    for (uint32_t i = 0; i < kBatch; ++i) {
      if (!r->Check(u.Lookup("complex", "getx").ok(), "Lookup")) return;
    }
  }
  r->Layer("runtime.lookup_ns", trace::MedianSelfNs("runtime.Lookup.batch"),
           "ns");
}

}  // namespace

void RunWire(const Ctx& ctx, Report* r) {
  if (ctx.cpus.size() > 1) PinThread(ctx.cpus[0]);
  Rng rng = Stream(ctx.seed, 3);
  Setup setup;
  std::unique_ptr<Instance> in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t t0 = NowNs();
    if (in) StopInstance(in.get(), r);
    in = std::make_unique<Instance>();
    if (!StartInstance(ctx, rep, &rng, in.get(), &setup, r)) return;
    if (!WarmUp(in.get(), setup, &rng, r)) return;
    r->setups.push_back((NowNs() - t0) / 1e9);
  }
  prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us wake-up precision for pacing

  double other = ctx.seconds * (1 - kRefShare) / (kRungs - 1);
  Scrape first, before_ref, after_ref, last;
  if (!r->Check(ScrapeMetrics(&in->cli, &first), "METRICS json")) return;
  double max_rps = 0;
  RungResult ref;
  for (size_t k = 0; k < kRungs; ++k) {
    double rate = kLadder[k];
    double secs = k == kRefRung ? ctx.seconds * kRefShare : other;
    std::vector<Req> sched = Schedule(&rng, rate, secs);
    if (k == kRefRung && !r->Check(ScrapeMetrics(&in->cli, &before_ref),
                                   "METRICS json")) {
      return;
    }
    RungResult rr;
    auto steal0 = StealJiffies();
    if (!r->Check(Drive(&in->conns, sched, setup, k == kRefRung, &rr),
                  "wire transport")) {
      return;
    }
    double steal_pct = StealPercentSince(steal0);
    if (k == kRefRung && !r->Check(ScrapeMetrics(&in->cli, &after_ref),
                                   "METRICS json")) {
      return;
    }
    // Latency from due time; a failed or unanswered request misses the
    // limit.  Percentiles are taken per window of kWindowS (by due time) and
    // the rung reports their lower quartile (QuietTime), so a stall of the
    // shared machine moves some windows, not the rung.  A window in which
    // the generator ran more than kLateLimitUs late (p99) measures the
    // generator, not the server: it is invalid and left out.
    struct Window {
      std::vector<double> lat, late;
    };
    std::vector<Window> wins(1);
    std::vector<double> late;
    int64_t win_end = rr.start + static_cast<int64_t>(kWindowS * 1e9);
    for (const Done& d : rr.done) {
      if (d.due >= win_end && wins.back().lat.size() >= kMinWindowSamples) {
        wins.emplace_back();
        win_end += static_cast<int64_t>(kWindowS * 1e9);
      }
      wins.back().lat.push_back(d.ok ? (d.reply - d.due) / 1e3 : 1e12);
      wins.back().late.push_back((d.sent - d.due) / 1e3);
      late.push_back((d.sent - d.due) / 1e3);
    }
    std::vector<double> w50, w99;
    for (const Window& w : wins) {
      if (Percentile(w.late, 0.99) > kLateLimitUs) continue;
      w50.push_back(Percentile(w.lat, 0.5));
      w99.push_back(Percentile(w.lat, 0.99));
    }
    bool valid = 2 * w99.size() >= wins.size();
    double p99 = QuietTime(w99);
    // Backlog growth: the median backlog over the last third of the rung is
    // clearly above that over the first third (medians, so a transient
    // stall that drains again does not count as growth).
    size_t third = rr.backlog.size() / 3;
    bool growing =
        third > 0 &&
        Median({rr.backlog.end() - third, rr.backlog.end()}) >
            2 * Median({rr.backlog.begin(), rr.backlog.begin() + third}) + 8;
    double late99 = Percentile(late, 0.99);
    double achieved = static_cast<double>(rr.done.size()) /
                      std::max(1e-9, (rr.last_reply - rr.start) / 1e9);
    bool pass = valid && p99 <= kLatencyLimitUs && rr.failed == 0 && !growing;
    std::printf(
        "wire: rung %zu offered %.0f req/s achieved %.0f: %zu requests, "
        "%zu/%zu windows valid, p50 %.1f us p99 %.1f us (worst valid window "
        "%.1f us), late p99 %.1f us, backlog max %.0f%s, host steal %.1f%%, "
        "failed %llu -> %s\n",
        k, rate, achieved, rr.done.size(), w99.size(), wins.size(),
        QuietTime(w50), p99,
        w99.empty() ? 0.0 : *std::max_element(w99.begin(), w99.end()), late99,
        *std::max_element(rr.backlog.begin(), rr.backlog.end()),
        growing ? " (growing)" : "", steal_pct,
        static_cast<unsigned long long>(rr.failed),
        !valid ? "invalid (generator late)" : pass ? "pass" : "miss");
    r->attempted += rr.done.size();
    r->failed += rr.failed;
    if (rr.failed != 0) r->correct = false;
    // The highest passing rate counts even above a missed one: interference
    // from co-tenants can fail a rate the server sustains, but never pass one
    // it does not.
    if (pass) max_rps = achieved;
    if (k == kRefRung) {
      ref = std::move(rr);
      // Printed with the end-to-end figures; registered as per-layer
      // metrics (see README.md, "Measured spreads").
      r->E2e("wire_p50_us", QuietTime(w50), "us");
      r->E2e("wire_p99_us", QuietTime(w99), "us");
      r->Layer("wire_p50_us", QuietTime(w50), "us");
      r->Layer("wire_p99_us", QuietTime(w99), "us");
      if (w99.empty()) {
        // A measurement failure, not a wrong output: the figures read 0.
        std::printf("INVALID: the generator fell behind its schedule in every "
                    "window at the reference rate\n");
      }
      r->Layer("loadgen.late_us_p99", late99, "us");
      r->Layer("loadgen.backlog_max",
               *std::max_element(ref.backlog.begin(), ref.backlog.end()),
               "count");
    }
  }
  if (!r->Check(ScrapeMetrics(&in->cli, &last), "METRICS json")) return;
  r->E2e("wire_max_rps", max_rps, "req/s");
  r->Layer("wire_max_rps", max_rps, "req/s");

  std::vector<double> rtt[3];
  for (const Done& d : ref.done) {
    if (d.ok) rtt[d.kind].push_back((d.reply - d.sent) / 1e3);
  }
  std::printf("wire: reference rung %zu samples (light %zu, heavy %zu, "
              "query %zu)\n",
              ref.done.size(), rtt[kLight].size(), rtt[kHeavy].size(),
              rtt[kQuery].size());
  r->Layer("server.rtt_light_us_p50", Median(rtt[kLight]), "us");
  r->Layer("server.rtt_heavy_us_p50", Median(rtt[kHeavy]), "us");
  r->Layer("query.rtt_us_p50", Median(rtt[kQuery]), "us");
  Hist qw = Delta(before_ref.queue_wait, after_ref.queue_wait);
  Hist cc = Delta(before_ref.cmd_call, after_ref.cmd_call);
  Hist bf = Delta(before_ref.batch_frames, after_ref.batch_frames);
  r->Layer("server.queue_wait_us_p50", HistQuantile(qw, 0.5), "us");
  r->Layer("server.queue_wait_us_p99", HistQuantile(qw, 0.99), "us");
  r->Layer("server.cmd_call_us_p50", HistQuantile(cc, 0.5), "us");
  r->Layer("server.frames_per_batch",
           bf.count == 0 ? 0 : static_cast<double>(bf.sum) / bf.count, "count");
  r->Layer("adaptive.polls",
           static_cast<double>(last.polls.count - first.polls.count), "count");
  r->Layer("adaptive.promotions_timed",
           static_cast<double>(last.promotions.count - first.promotions.count),
           "count");
  r->Layer("adaptive.profiler_samples",
           static_cast<double>(last.samples.count - first.samples.count),
           "count");
  r->Layer("server.encode_ns", trace::MedianSelfNs("server.EncodeFrame"), "ns");
  r->Layer("server.decode_ns", trace::MedianSelfNs("server.DecodeFrame"), "ns");
  StopInstance(in.get(), r);
  if (trace::g_on) LocalLookupProbe(r);
}

}  // namespace perfbench
