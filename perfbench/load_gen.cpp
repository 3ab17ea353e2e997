// `perfbench load`: one open-loop phase of viewer sessions against a
// running proxy_daemon, and `perfbench audit`: its wire AUDIT + STATS.
//
// Sessions arrive as a seeded Poisson process (viewers are independent),
// so the schedule does not slow down when the daemon does. Inside a
// session the GETs are closed-loop (a player waits for each range).
// Each of kConnections worker threads owns one connection and takes the
// next due session in arrival order, which makes a contiguous run of
// GETs for one object — the daemon's session boundary.
//
// The generator stays off the critical path: replies land in reused
// buffers, every GET's header accounting is checked (cache + origin
// bytes == length) but only a seeded sample of payloads is
// byte-verified. Per-session records go to a file; run.py derives
// lateness and backlog from them.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "server/client.h"
#include "server/engine.h"
#include "server/payload.h"
#include "server/wire.h"
#include "util/cli.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace sc;
namespace wire = sc::server::wire;

struct Session {
  std::uint64_t object = 0;
  std::uint64_t budget = 0;
  double due_s = 0.0;  // offset from the phase epoch
  // Filled by the worker.
  double ready_s = -1.0;  // max(due, connection free)
  double start_s = -1.0;
  double end_s = -1.0;
  std::uint32_t gets = 0;
  bool failed = false;
};

// The session mix: the daemon's catalog (2000 objects, seed 42), Zipf
// object choice, 4-16 KiB ranges up to a 64 KiB budget, 40% of viewers
// departing early, one payload in 16 byte-verified.
constexpr std::size_t kObjects = 2000;
constexpr std::uint64_t kCatalogSeed = 42;
constexpr double kRate = 3000.0;  // sessions/s
constexpr double kGrace = 1.0;    // s after the last due session
constexpr std::size_t kConnections = 2;
constexpr std::uint64_t kRangeMin = 4096;
constexpr std::uint64_t kRangeMax = 16384;
constexpr std::uint64_t kSessionBytes = 65536;
constexpr double kDepart = 0.4;
constexpr double kZipf = 0.73;
constexpr std::uint64_t kVerifyEvery = 16;

struct LoadArgs {
  std::uint16_t port = 0;
  std::uint64_t seed = 1;
  double duration = 1.0;
  std::string sessions_out;
  std::string trace_out;
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::vector<Session> make_sessions(const LoadArgs& a, const workload::Catalog& catalog) {
  std::vector<double> cdf(catalog.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipf);
    cdf[i] = sum;
  }
  for (double& v : cdf) v /= sum;
  util::Rng rng(util::splitmix64(a.seed));
  std::vector<Session> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / kRate;
    if (t >= a.duration) break;
    Session s;
    s.due_s = t;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
    s.object = it == cdf.end() ? cdf.size() - 1 : static_cast<std::uint64_t>(it - cdf.begin());
    const auto size = static_cast<std::uint64_t>(catalog.object(s.object).size_bytes);
    s.budget = std::min(kSessionBytes, size);
    if (rng.uniform() < kDepart) {
      s.budget = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(static_cast<double>(s.budget) * rng.uniform(0.05, 1.0)));
    }
    out.push_back(s);
  }
  return out;
}

struct GetRecord {
  double send_s;
  double done_s;
  std::uint32_t session;
};

struct Worker {
  std::vector<GetRecord> gets;
  std::uint64_t failures = 0;
  std::uint64_t verified = 0;
};

/// One session's GETs on `fd`; false when the connection broke.
bool run_session(const LoadArgs& a, int fd, Session& s, std::uint32_t index,
                 Clock::time_point epoch, Worker& w, util::Rng& rng,
                 std::vector<std::uint8_t>& frame, std::vector<std::uint8_t>& body,
                 std::vector<std::uint8_t>& expect) {
  std::uint64_t offset = 0;
  while (offset < s.budget) {
    std::uint64_t len =
        kRangeMin + static_cast<std::uint64_t>(
                        rng.uniform() * static_cast<double>(kRangeMax - kRangeMin + 1));
    len = std::min({len, s.budget - offset, wire::kMaxGetLength});
    frame.clear();
    wire::encode_get(frame, wire::GetRequest{s.object, offset, len});
    const double send = std::chrono::duration<double>(Clock::now() - epoch).count();
    if (!wire::write_frame(fd, frame.data(), frame.size()) || !wire::read_frame(fd, body)) {
      ++w.failures;
      s.failed = true;
      return false;
    }
    const double done = std::chrono::duration<double>(Clock::now() - epoch).count();
    ++s.gets;
    w.gets.push_back(GetRecord{send, done, index});
    bool ok = body.size() == wire::kGetResponseHeader + len && body[0] == wire::kOk;
    if (ok) {
      const std::uint64_t cache = wire::get_u64(body.data() + 1);
      const std::uint64_t origin = wire::get_u64(body.data() + 9);
      ok = cache + origin == len;
    }
    // Byte-verify a seeded sample of payloads.
    if (ok && server::mix64(a.seed ^ (static_cast<std::uint64_t>(index) << 20) ^ offset) %
                      kVerifyEvery ==
                  0) {
      expect.resize(len);
      server::fill_payload(s.object, offset, expect.data(), len);
      ok = std::memcmp(expect.data(), body.data() + wire::kGetResponseHeader, len) == 0;
      w.verified += len;
    }
    if (!ok) {
      ++w.failures;
      s.failed = true;
      return true;  // connection still usable; abandon the session
    }
    offset += len;
  }
  return true;
}

LoadArgs parse_load(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.check_unknown({"port", "seed", "duration", "sessions-out", "trace-out"});
  LoadArgs a;
  a.port = static_cast<std::uint16_t>(cli.get_or("port", 0LL));
  a.seed = static_cast<std::uint64_t>(cli.get_or("seed", 1LL));
  a.duration = cli.get_or("duration", a.duration);
  a.sessions_out = cli.get_or("sessions-out", std::string());
  a.trace_out = cli.get_or("trace-out", std::string());
  if (a.port == 0 || a.duration <= 0) {
    throw std::invalid_argument("perfbench load: bad arguments");
  }
  return a;
}

}  // namespace

int load_main(int argc, char** argv) {
  const LoadArgs a = parse_load(argc, argv);
  const workload::Catalog catalog = server::ServiceEngine::make_catalog(kObjects, kCatalogSeed);
  std::vector<Session> sessions = make_sessions(a, catalog);
  std::vector<Worker> workers(kConnections);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> connect_failed{false};

  struct rusage ru0 {};
  getrusage(RUSAGE_SELF, &ru0);
  // A short lead lets every worker connect before the first session is due.
  const auto epoch = Clock::now() + std::chrono::milliseconds(20);
  const double stop_s = a.duration + kGrace;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Worker& w = workers[c];
      w.gets.reserve(1024);
      util::Rng rng(util::splitmix64(a.seed * 0x9e3779b9ULL + c + 1));
      std::vector<std::uint8_t> frame, body, expect;
      int fd = connect_to(a.port);
      if (fd < 0) {
        connect_failed = true;
        return;
      }
      double free_s = 0.0;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sessions.size()) break;
        Session& s = sessions[i];
        std::this_thread::sleep_until(
            epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s.due_s)));
        const double now = std::chrono::duration<double>(Clock::now() - epoch).count();
        if (now > stop_s) break;  // left unstarted: counted as backlog
        s.ready_s = std::max(s.due_s, free_s);
        s.start_s = now;
        if (!run_session(a, fd, s, static_cast<std::uint32_t>(i), epoch, w, rng, frame, body,
                         expect)) {
          ::close(fd);
          fd = connect_to(a.port);
          if (fd < 0) {
            connect_failed = true;
            return;
          }
        }
        s.end_s = std::chrono::duration<double>(Clock::now() - epoch).count();
        free_s = s.end_s;
      }
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  const double wall = std::max(0.0, std::chrono::duration<double>(Clock::now() - epoch).count());
  struct rusage ru1 {};
  getrusage(RUSAGE_SELF, &ru1);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  const double cpu = tv(ru1.ru_utime) - tv(ru0.ru_utime) + tv(ru1.ru_stime) - tv(ru0.ru_stime);

  std::uint64_t gets = 0, failures = 0, verified = 0;
  for (const Worker& w : workers) {
    gets += w.gets.size();
    failures += w.failures;
    verified += w.verified;
  }
  if (!a.sessions_out.empty()) {
    std::FILE* f = std::fopen(a.sessions_out.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + a.sessions_out);
    std::fprintf(f, "due_ms,ready_ms,start_ms,failed\n");
    for (const Session& s : sessions) {
      std::fprintf(f, "%.6f,%.6f,%.6f,%d\n", s.due_s * 1e3, s.ready_s * 1e3, s.start_s * 1e3,
                   s.failed ? 1 : 0);
    }
    std::fclose(f);
  }
  if (!a.trace_out.empty()) {
    // Session spans with their GETs as children, sharing the session id.
    Tracer tracer;
    std::vector<int> span_of(sessions.size(), -1);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const Session& s = sessions[i];
      if (s.start_s < 0) continue;
      span_of[i] = tracer.add("loadgen.session", s.due_s * 1e9,
                              (std::max(s.end_s, s.due_s) - s.due_s) * 1e9, -1, i, s.gets);
    }
    for (const Worker& w : workers) {
      for (const GetRecord& g : w.gets) {
        tracer.add("loadgen.get", g.send_s * 1e9, (g.done_s - g.send_s) * 1e9,
                   span_of[g.session], g.session, 1);
      }
    }
    if (!tracer.write(a.trace_out)) throw std::runtime_error("cannot write " + a.trace_out);
  }
  Record rec;
  rec.num("sessions", static_cast<double>(sessions.size()));
  rec.num("gets", static_cast<double>(gets));
  rec.num("failures", static_cast<double>(failures));
  rec.num("verified_bytes", static_cast<double>(verified));
  rec.num("cpu_s", cpu);
  rec.num("wall_s", wall);
  rec.num("connections", static_cast<double>(kConnections));
  rec.boolean("connect_failed", connect_failed.load());
  rec.print();
  return connect_failed.load() ? 1 : 0;
}

int audit_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.check_unknown({"port"});
  server::ProxyClient client("127.0.0.1", static_cast<std::uint16_t>(cli.get_or("port", 0LL)));
  const std::string audit = client.audit();
  const std::string stats = client.stats();
  std::printf("{\"audit\": %s, \"stats\": %s}\n", audit.c_str(), stats.c_str());
  return 0;
}

}  // namespace pb
