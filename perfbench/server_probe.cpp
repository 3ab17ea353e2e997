// `perfbench probe`: the server layers timed in-process through their
// public calls, for the traced runs. The engine has the live serve
// phase's configuration (pb, ewma, cache 0.02, 2000 objects, seed 42,
// 4-16 KiB ranges up to 64 KiB per session); the byte-path probes move
// 256 KiB ranges. Persistence lives in a bench-owned bench::TempDir
// under --tmp.
//
//   server.decode_ns                  wire::decode_get, chunks of 4096
//   server.serve_range_us[.contended] ServiceEngine::serve_range from one
//                                     caller, then two concurrent ones (the
//                                     gap is engine-lock wait)
//   server.end_session_us             ServiceEngine::end_session
//   server.fill_gb_s                  fill_payload
//   server.write_frame_gb_s / read_frame_gb_s
//                                     wire frames through a socketpair
//   server.persist_append_us          persist::Persistence::append
//   server.snapshot_ms                ServiceEngine::flush_snapshot
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common.h"
#include "server/engine.h"
#include "server/payload.h"
#include "server/persist.h"
#include "server/wire.h"
#include "util/cli.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace sc;
namespace wire = sc::server::wire;

constexpr std::size_t kObjects = 2000;
constexpr std::uint64_t kCatalogSeed = 42;
constexpr const char* kPolicy = "pb";
constexpr const char* kEstimator = "ewma";
constexpr double kCache = 0.02;
constexpr std::uint64_t kRangeMin = 4096;
constexpr std::uint64_t kRangeMax = 16384;
constexpr std::uint64_t kSessionBytes = 65536;
constexpr std::uint64_t kBulkRange = 256 * 1024;
constexpr double kSeconds = 0.3;  // per probe

struct ProbeArgs {
  std::uint64_t seed = 1;
  std::string tmp;
};

struct ServeTimes {
  std::vector<double> serve_us;
  std::vector<double> end_us;
};

/// Sessions against `engine` for `seconds`: Zipf-ish object choice,
/// ranges from offset 0 up to the session budget, then end_session.
void drive(server::ServiceEngine& engine, std::uint64_t seed, ServeTimes& out) {
  util::Rng rng(util::splitmix64(seed));
  const auto& catalog = engine.catalog();
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(kSeconds));
  while (Clock::now() < t_end) {
    // Inverse-power draw: rank ~ u^(1/(1-alpha)) favours the head.
    const auto object = std::min<std::uint64_t>(
        catalog.size() - 1,
        static_cast<std::uint64_t>(std::pow(rng.uniform(), 1.0 / 0.27) *
                                   static_cast<double>(catalog.size())));
    const std::uint64_t budget = std::min<std::uint64_t>(
        kSessionBytes, engine.object_size(object));
    std::uint64_t offset = 0;
    while (offset < budget) {
      std::uint64_t len =
          kRangeMin + static_cast<std::uint64_t>(
                          rng.uniform() * static_cast<double>(kRangeMax - kRangeMin + 1));
      len = std::min(len, budget - offset);
      const auto t0 = Clock::now();
      const server::ServeResult r = engine.serve_range(object, offset, len);
      out.serve_us.push_back(seconds_since(t0) * 1e6);
      if (r.status != wire::kOk) throw std::runtime_error("probe: serve_range failed");
      offset += len;
    }
    const auto t0 = Clock::now();
    engine.end_session(object, budget);
    out.end_us.push_back(seconds_since(t0) * 1e6);
  }
}

double decode_ns(const ProbeArgs& a) {
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint8_t> frames;
  util::Rng rng(a.seed);
  for (std::size_t i = 0; i < kChunk; ++i) {
    wire::encode_get(frames, wire::GetRequest{static_cast<std::uint64_t>(rng.uniform() * static_cast<double>(kObjects)), i * 4096, 8192});
  }
  std::vector<double> per_chunk;
  std::uint64_t sink = 0;
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(kSeconds));
  while (Clock::now() < t_end) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kChunk; ++i) {
      wire::GetRequest r;
      if (!wire::decode_get(frames.data() + i * wire::kGetRequestSize,
                            wire::kGetRequestSize, r)) {
        throw std::runtime_error("probe: decode_get failed");
      }
      sink += r.object + r.offset;
    }
    per_chunk.push_back(seconds_since(t0) * 1e9 / kChunk);
  }
  if (sink == 1) std::printf("#\n");  // keep the loop observable
  return median(per_chunk);
}

double fill_gb_s() {
  std::vector<std::uint8_t> buf(kBulkRange);
  std::uint64_t bytes = 0;
  std::uint64_t object = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < kSeconds) {
    server::fill_payload(object++ % kObjects, 4096, buf.data(), buf.size());
    bytes += buf.size();
  }
  const double gb_s = static_cast<double>(bytes) / seconds_since(t0) / 1e9;
  if (buf[7] == 1 && bytes == 0) std::printf("#\n");  // keep the fills observable
  return gb_s;
}

/// Frames of one range through a socketpair: time inside write_frame on
/// one thread and inside read_frame on another.
void frame_gb_s(double* write_gb_s, double* read_gb_s) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error("probe: socketpair failed");
  }
  const std::size_t n_frames =
      std::max<std::size_t>(64, static_cast<std::size_t>(2e9 * kSeconds / 8 / kBulkRange));
  std::vector<std::uint8_t> body(wire::kGetResponseHeader + kBulkRange, 0x5a);
  double read_s = 0.0;
  std::uint64_t read_bytes = 0;
  bool read_ok = true;
  std::thread reader([&] {
    std::vector<std::uint8_t> in;
    for (std::size_t i = 0; i < n_frames; ++i) {
      const auto t0 = Clock::now();
      if (!wire::read_frame(sv[1], in)) {
        read_ok = false;
        return;
      }
      read_s += seconds_since(t0);
      read_bytes += in.size();
    }
  });
  double write_s = 0.0;
  bool write_ok = true;
  for (std::size_t i = 0; i < n_frames && write_ok; ++i) {
    const auto t0 = Clock::now();
    write_ok = wire::write_frame(sv[0], body.data(), body.size());
    write_s += seconds_since(t0);
  }
  if (!write_ok) ::shutdown(sv[0], SHUT_RDWR);
  reader.join();
  ::close(sv[0]);
  ::close(sv[1]);
  if (!write_ok || !read_ok) throw std::runtime_error("probe: frame transfer failed");
  *write_gb_s = static_cast<double>(n_frames * body.size()) / write_s / 1e9;
  *read_gb_s = static_cast<double>(read_bytes) / read_s / 1e9;
}

double persist_append_us(const ProbeArgs& a, const std::string& dir) {
  server::persist::PersistConfig pc;
  pc.dir = dir;
  server::persist::Persistence p(pc);
  server::persist::SnapshotState st;
  st.objects = kObjects;
  st.seed = kCatalogSeed;
  st.policy_spec = kPolicy;
  st.estimator_spec = kEstimator;
  if (!p.write_snapshot(st)) throw std::runtime_error("probe: snapshot write failed");
  std::vector<double> us;
  util::Rng rng(a.seed);
  const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(kSeconds));
  while (Clock::now() < t_end) {
    server::persist::JournalRecord r;
    r.id = static_cast<std::uint64_t>(rng.uniform() * static_cast<double>(kObjects));
    r.bytes = 1e6 * rng.uniform();
    r.freq = 3.0;
    r.key = rng.uniform();
    r.in_heap = true;
    const auto t0 = Clock::now();
    p.append(r);
    us.push_back(seconds_since(t0) * 1e6);
  }
  if (p.records_appended() != us.size()) throw std::runtime_error("probe: journal closed");
  return median(us);
}

}  // namespace

int probe_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.check_unknown({"seed", "tmp"});
  ProbeArgs a;
  a.seed = static_cast<std::uint64_t>(cli.get_or("seed", 1LL));
  a.tmp = cli.get_or("tmp", std::string());
  if (a.tmp.empty()) throw std::invalid_argument("perfbench probe: --tmp is required");

  const bench::TempDir dir(a.tmp + "/probe-");
  server::ServiceConfig config;
  config.objects = kObjects;
  config.seed = kCatalogSeed;
  config.policy = kPolicy;
  config.estimator = kEstimator;
  config.cache_fraction = kCache;
  config.persist.dir = dir.path() + "/engine";
  config.persist.snapshot_interval_s = 1e9;  // snapshots only when probed

  Record rec;
  rec.num("server.decode_ns", decode_ns(a));
  {
    server::ServiceEngine engine(config);
    ServeTimes single;
    drive(engine, a.seed, single);
    std::vector<ServeTimes> both(2);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < 2; ++t) {
      callers.emplace_back([&, t] { drive(engine, a.seed + 1 + t, both[t]); });
    }
    for (auto& t : callers) t.join();
    std::vector<double> contended = both[0].serve_us;
    contended.insert(contended.end(), both[1].serve_us.begin(), both[1].serve_us.end());
    rec.num("server.serve_range_us", median(single.serve_us));
    rec.num("server.serve_range_us.contended", median(contended));
    rec.num("server.end_session_us", median(single.end_us));
    rec.num("server.serve_range_samples", static_cast<double>(single.serve_us.size()));
    std::vector<double> snap_ms;
    const auto t_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(kSeconds));
    while (snap_ms.size() < 3 || Clock::now() < t_end) {
      const auto t0 = Clock::now();
      engine.flush_snapshot();
      snap_ms.push_back(seconds_since(t0) * 1e3);
    }
    rec.num("server.snapshot_ms", median(snap_ms));
    if (!engine.audit().ok()) throw std::runtime_error("probe: engine audit failed");
  }
  rec.num("server.fill_gb_s", fill_gb_s());
  double write_gb_s = 0.0, read_gb_s = 0.0;
  frame_gb_s(&write_gb_s, &read_gb_s);
  rec.num("server.write_frame_gb_s", write_gb_s);
  rec.num("server.read_frame_gb_s", read_gb_s);
  rec.num("server.persist_append_us", persist_append_us(a, dir.path() + "/journal"));
  rec.print();
  return 0;
}

}  // namespace pb
