// `perfbench sim`: the simulation workloads.
//
// sweep_paper  the Fig. 5 grid (IF/PB/IB x paper cache fractions x
//              replications), oracle estimator, constant bandwidth,
//              streamed regenerating request sources.
// fleet_chaos  bench_fleet's five cells over one materialized workload
//              per replication, ewma estimator, measured iid variability,
//              exponential session lengths and a four-family fault plan.
//
// Untraced: repeat whole grid passes through core::SweepRunner (serial,
// one thread) for --seconds and report the best decile of the per-pass
// throughput and set-up time (pass wall minus the summed per-simulation
// walls), the per-simulation wall times and the correctness checks
// (reference digest, determinism, paper shape / fleet invariants).
//
// Traced: additionally run the program's own request loop with timing
// wrappers around its policy and estimator — sim::run_request_loop over
// the concrete kernel types the monomorphized engine uses (sweep_paper),
// or fleet::run_fleet with registry components that forward to the real
// ones (fleet_chaos) — once untimed and once timed, checking that both
// give identical results. The calls that loop makes on concrete types
// (RequestCursor::next, PathSampler, Sharder, FaultSchedule,
// UplinkBucket, deliver, DecisionKernel::tick) are timed separately over
// the same replication's inputs, in the loop's call order.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "cache/policy.h"
#include "common.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "fleet/fleet.h"
#include "net/estimator.h"
#include "net/fault.h"
#include "net/path_process.h"
#include "sim/arena.h"
#include "sim/decision.h"
#include "sim/delivery.h"
#include "sim/interactivity.h"
#include "sim/run_loop.h"
#include "util/cli.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/request_stream.h"

namespace pb {
namespace {

using namespace sc;

// Fixed workload parameters (see README.md).
constexpr double kZipf = 0.73;
constexpr std::size_t kProxies = 16;
constexpr std::size_t kRegions = 4;
constexpr double kFleetFraction = 0.05;
constexpr const char* kFleetCoupling = ",uplink_mbps=200,burst_mb=64,peer_latency_ms=2";
constexpr std::size_t kBuildReps = 5;
constexpr std::size_t kChunk = workload::kDefaultStreamChunk;

struct SimArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t objects = 5000;
  std::size_t requests = 100000;
  std::size_t runs = 10;
  std::string fault;
  std::size_t min_passes = 3;
  std::string samples_out;
  std::string trace_out;
};

struct Grid {
  core::ExperimentConfig base;
  core::Scenario scenario;
  std::vector<core::SweepCell> cells;
  bool fleet = false;
};

Grid make_grid(const SimArgs& a) {
  core::ExperimentConfig e;
  e.workload.catalog.num_objects = a.objects;
  e.workload.trace.num_requests = a.requests;
  e.workload.trace.zipf_alpha = kZipf;
  e.runs = a.runs;
  e.base_seed = a.seed;
  e.sim.fault = net::FaultPlan::parse(a.fault);
  // One simulation thread: SweepRunner's inline serial path.
  e.parallel = false;
  e.threads = 1;
  const bool fleet = a.workload == "fleet_chaos";
  if (!fleet && a.workload != "sweep_paper") {
    throw std::invalid_argument("perfbench sim: unknown workload " + a.workload);
  }
  if (fleet) {
    e.sim.estimator = "ewma";
    e.sim.interactivity = sim::InteractivityConfig::parse("exp:mean=1800");
    e.streaming = workload::StreamingMode::kMaterialize;
  } else {
    e.sim.estimator = "oracle";
    e.streaming = workload::StreamingMode::kStream;
  }
  Grid g{std::move(e), core::registry::make_scenario(fleet ? "measured" : "constant"), {},
         fleet};
  if (!fleet) {
    for (const char* policy : {"if", "pb", "ib"}) {
      for (const double f : core::paper_cache_fractions()) {
        g.cells.push_back(core::SweepCell{policy, -1.0, f, {}, {}, {}});
      }
    }
  } else {
    const std::string shape = "fleet:proxies=" + std::to_string(kProxies) +
                              ",regions=" + std::to_string(kRegions);
    // hash, affinity, random, hash+uplink, random+uplink+coop
    for (const std::string& spec :
         {shape + ",sharding=hash:vnodes=64", shape + ",sharding=affinity",
          shape + ",sharding=random",
          shape + ",sharding=hash:vnodes=64" + kFleetCoupling,
          shape + ",sharding=random,coop=1" + kFleetCoupling}) {
      (void)fleet::FleetConfig::parse(spec);
      g.cells.push_back(core::SweepCell{"pb", -1.0, kFleetFraction, {}, {}, spec});
    }
  }
  return g;
}

// ------------------------------------------------------------ checks
std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string digest_of(const std::vector<double>& fields) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char buf[64];
  for (const double v : fields) {
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    h = fnv(h, buf);
  }
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Digest of every AveragedMetrics field of every cell, in cell order.
std::string digest(const std::vector<core::AveragedMetrics>& ms) {
  std::vector<double> fields;
  for (const auto& m : ms) {
    fields.insert(fields.end(),
                  {static_cast<double>(m.runs), m.traffic_reduction,
                   m.traffic_reduction_sd, m.delay_s, m.delay_s_sd, m.quality,
                   m.quality_sd, m.added_value, m.added_value_sd, m.hit_ratio,
                   m.immediate_ratio, m.fill_bytes, m.occupancy_bytes,
                   m.denied_requests, m.denied_bytes, m.uplink_utilization,
                   m.load_imbalance, m.peer_hit_ratio});
  }
  return digest_of(fields);
}

/// bench_fig05's paper-shape check: traffic IF > IB > PB, delay
/// PB < IB < IF, quality PB > IB > IF at every cache size.
std::string fig05_shape(const std::vector<core::AveragedMetrics>& ms) {
  const std::size_t nf = core::paper_cache_fractions().size();
  for (std::size_t f = 0; f < nf; ++f) {
    const auto& fi = ms[0 * nf + f];
    const auto& pb = ms[1 * nf + f];
    const auto& ib = ms[2 * nf + f];
    const bool ok = fi.traffic_reduction > ib.traffic_reduction &&
                    ib.traffic_reduction > pb.traffic_reduction &&
                    pb.delay_s < ib.delay_s && ib.delay_s < fi.delay_s &&
                    pb.quality > ib.quality && ib.quality > fi.quality;
    if (!ok) return "fig05 shape fails at fraction index " + std::to_string(f);
  }
  return "";
}

/// bench_fleet's in-process invariants over its five cells.
std::string fleet_invariants(const std::vector<core::AveragedMetrics>& m) {
  for (const auto& c : m) {
    if (!(c.load_imbalance >= 1.0)) return "imbalance < 1";
  }
  const auto& hash = m[0];
  const auto& random = m[2];
  const auto& uplink = m[3];
  const auto& coop = m[4];
  if (!(random.load_imbalance < 1.2)) return "random sharding unbalanced";
  if (hash.uplink_utilization != 0.0 || hash.peer_hit_ratio != 0.0)
    return "plain hash cell reports uplink/coop activity";
  if (!(uplink.uplink_utilization > 0.0)) return "uplink cell utilization 0";
  if (!(uplink.delay_s >= hash.delay_s)) return "congestion reduced delay";
  if (!(coop.peer_hit_ratio > 0.0)) return "coop cell has no peer hits";
  if (!(coop.traffic_reduction >= random.traffic_reduction - 0.01))
    return "coop hurt traffic reduction";
  if (!(coop.uplink_utilization > 0.0)) return "coop cell uplink idle";
  bool denied = false;
  for (const auto& c : m) denied = denied || c.denied_requests > 0.0;
  if (!denied) return "fault plan denied no request";
  return "";
}

/// Digest of one simulation's result (traced vs untraced identity).
std::string result_digest(const sim::SimulationResult& r) {
  return digest_of({r.metrics.traffic_reduction_ratio(), r.metrics.average_delay_s(),
                    r.metrics.average_quality(), static_cast<double>(r.metrics.requests()),
                    r.final_occupancy_bytes, static_cast<double>(r.final_cached_objects)});
}

// ------------------------------------------------------------ inputs
/// Replication r's root RNG (the sweep engine's derivation).
util::Rng replication_rng(const SimArgs& a, std::size_t r) {
  return util::Rng(util::splitmix64(a.seed + 0x9e37 * r));
}

/// Replication r's request source, as the sweep engine builds it.
std::shared_ptr<const workload::RequestStream> make_stream(const Grid& g, const SimArgs& a,
                                                           std::size_t r) {
  util::Rng wrng = replication_rng(a, r).fork("workload");
  if (g.base.streaming == workload::StreamingMode::kStream) {
    auto catalog = std::make_shared<const workload::Catalog>(
        workload::Catalog::generate(g.base.workload.catalog, wrng));
    return std::make_shared<const workload::RequestStream>(workload::RequestStream::synthetic(
        std::move(catalog), g.base.workload.trace, std::move(wrng)));
  }
  return std::make_shared<const workload::RequestStream>(
      workload::RequestStream::replay(std::make_shared<const workload::Workload>(
          workload::generate_workload(g.base.workload, wrng))));
}

/// Replication r's path model and the seed of its simulations.
std::shared_ptr<const net::PathModel> make_model(const Grid& g, const SimArgs& a, std::size_t r,
                                                 std::uint64_t* sim_seed) {
  net::PathModelConfig pc;
  pc.mode = g.scenario.mode;
  util::Rng prng(replication_rng(a, r).fork("paths").seed());
  if (sim_seed != nullptr) *sim_seed = prng.seed();
  return std::make_shared<const net::PathModel>(a.objects, g.scenario.base, g.scenario.ratio,
                                                pc, prng.fork("paths"));
}

/// Cell c's simulation config, resolved as SweepRunner::run does.
sim::SimulationConfig cell_config(const Grid& g, std::size_t c, std::uint64_t seed) {
  sim::SimulationConfig sc = g.base.sim;
  sc.policy = g.cells[c].policy;
  sc.path_config.mode = g.scenario.mode;
  sc.cache_capacity_bytes =
      core::capacity_for_fraction(g.base.workload.catalog, g.cells[c].cache_fraction);
  sc.seed = seed;
  return sc;
}

// ------------------------------------------------------------ traced loop
/// Busy ticks and call counts of the calls the timing wrappers see inside
/// the program's loop, flushed as one span per layer every kChunk
/// admissions under the simulation's span. net.estimate runs inside
/// cache.admit (admission computes utilities), so its span is a child of
/// the admit span and admit's self time excludes it. Each timed interval
/// has the timer's own cost (`overhead` ticks) taken off; an admit
/// interval also holds the timer reads of its nested estimates.
struct LoopClock {
  enum Layer { kAdmit, kEstimate, kObserve, kLayers };
  static constexpr const char* kNames[kLayers] = {"cache.admit", "net.estimate",
                                                  "net.observe"};
  std::uint64_t busy[kLayers] = {};
  std::uint64_t calls[kLayers] = {};
  std::uint64_t admits = 0;
  std::uint64_t useful_admits = 0;
  std::uint64_t evictions = 0;

  Tracer* tracer = nullptr;
  double ns_per_tick = 1.0;
  std::uint64_t overhead = 0;
  Clock::time_point epoch;
  int sim_span = -1;
  std::uint64_t id = 0;

  void add(Layer l, std::uint64_t dt) {
    busy[l] += dt > overhead ? dt - overhead : 0;
    ++calls[l];
  }
  /// One admission seen on `store`: counts useful admissions and whole
  /// objects evicted to make room.
  void admitted(double cached_before, double cached_after, std::size_t objects_before,
                std::size_t objects_after) {
    ++admits;
    if (cached_after > cached_before) ++useful_admits;
    const std::size_t added = cached_before <= 0.0 && cached_after > 0.0 ? 1 : 0;
    if (objects_before + added > objects_after) evictions += objects_before + added - objects_after;
    if (admits % kChunk == 0) flush();
  }
  void flush() {
    double at = std::chrono::duration<double, std::nano>(Clock::now() - epoch).count();
    const std::uint64_t inner_reads = calls[kEstimate] * overhead;
    busy[kAdmit] = busy[kAdmit] > inner_reads ? busy[kAdmit] - inner_reads : 0;
    int admit_span = -1;
    double admit_at = at;
    for (int l = 0; l < kLayers; ++l) {
      if (calls[l] == 0) continue;
      const double dur = static_cast<double>(busy[l]) * ns_per_tick;
      const bool nested = l == kEstimate && admit_span >= 0;
      const int s = tracer->add(kNames[l], nested ? admit_at : at, dur,
                                nested ? admit_span : sim_span, id, calls[l]);
      if (l == kAdmit) {
        admit_span = s;
        admit_at = at;
      }
      if (!nested) at += dur;
      busy[l] = 0;
      calls[l] = 0;
    }
  }
};

/// Estimator seen by the program's loop and by the policy's admission
/// body: a concrete kernel (so ObservationTraits still constant-folds) or
/// the virtual interface, with estimate() and observe() timed.
template <typename Est>
struct TimedKernel {
  static constexpr bool kUsesObservations = Est::kUsesObservations;
  Est* inner;
  LoopClock* clock;
  void observe(net::PathId p, double thr, double now) {
    const std::uint64_t t0 = ticks();
    inner->observe(p, thr, now);
    clock->add(LoopClock::kObserve, ticks() - t0);
  }
  double estimate(net::PathId p, double now) {
    const std::uint64_t t0 = ticks();
    const double v = inner->estimate(p, now);
    clock->add(LoopClock::kEstimate, ticks() - t0);
    return v;
  }
  [[nodiscard]] std::size_t overhead_packets() const { return inner->overhead_packets(); }
};

/// The monomorphized engine's policy reference (sim/monomorphize.cpp's
/// MonoPolicyRef) with the admission timed; the admission body runs
/// against the timed estimator kernel.
template <typename PolKernel, typename EstKernel>
struct TimedPolicyRef {
  cache::UtilityPolicy<PolKernel>* policy;
  TimedKernel<EstKernel>* estimator;
  LoopClock* clock;
  std::string cached_name;
  void on_access(workload::ObjectId id, double now_s, cache::PartialStore& store) {
    const double before = store.cached(id);
    const std::size_t objects = store.object_count();
    const std::uint64_t t0 = ticks();
    policy->access(id, now_s, store, *estimator);
    clock->add(LoopClock::kAdmit, ticks() - t0);
    clock->admitted(before, store.cached(id), objects, store.object_count());
  }
  [[nodiscard]] const std::string& name() const { return cached_name; }
};

/// sim::run_request_loop over the timed wrappers of the concrete types
/// the engine uses for (PolKernel, oracle), built exactly as
/// MonoEngine::run builds them.
template <typename PolKernel>
sim::SimulationResult timed_mono_run(const workload::RequestStream& stream,
                                     std::shared_ptr<const net::PathModel> model,
                                     const sim::SimulationConfig& config, LoopClock& clock) {
  using Est = net::KernelEstimator<net::OracleKernel>;
  util::Rng rng(config.seed);
  Est estimator(*model);
  cache::UtilityPolicy<PolKernel> policy(stream.catalog(), estimator);
  sim::RunState state;
  state.reset(stream, config.stream_chunk, model, config.cache_capacity_bytes,
              config.patching.enabled);
  TimedKernel<net::OracleKernel> timed{&estimator.kernel(), &clock};
  TimedPolicyRef<PolKernel, net::OracleKernel> ref{&policy, &timed, &clock, policy.name()};
  return sim::run_request_loop(stream, config, state, ref, timed, rng);
}

sim::SimulationResult timed_mono_run(const std::string& policy,
                                     const workload::RequestStream& stream,
                                     std::shared_ptr<const net::PathModel> model,
                                     const sim::SimulationConfig& config, LoopClock& clock) {
  if (policy == "if") return timed_mono_run<cache::IfKernel>(stream, model, config, clock);
  if (policy == "pb") return timed_mono_run<cache::PbKernel>(stream, model, config, clock);
  if (policy == "ib") return timed_mono_run<cache::IbKernel>(stream, model, config, clock);
  throw std::invalid_argument("perfbench: no timed engine for policy " + policy);
}

/// The clock the registry's "timed" components report to (run_fleet
/// builds them through the registry, so they cannot be handed one).
LoopClock* g_clock = nullptr;

/// Registry estimator "timed:inner=SPEC": the registry's SPEC estimator,
/// built from the same context (so bit-identical), with its calls timed.
class TimedEstimator final : public net::BandwidthEstimator {
 public:
  explicit TimedEstimator(std::unique_ptr<net::BandwidthEstimator> inner)
      : inner_(std::move(inner)) {}
  void observe(net::PathId p, double thr, double now) override {
    const std::uint64_t t0 = ticks();
    inner_->observe(p, thr, now);
    g_clock->add(LoopClock::kObserve, ticks() - t0);
  }
  [[nodiscard]] bool uses_observations() const override { return inner_->uses_observations(); }
  [[nodiscard]] double estimate(net::PathId p, double now) override {
    const std::uint64_t t0 = ticks();
    const double v = inner_->estimate(p, now);
    g_clock->add(LoopClock::kEstimate, ticks() - t0);
    return v;
  }
  [[nodiscard]] std::size_t overhead_packets() const override {
    return inner_->overhead_packets();
  }

 private:
  std::unique_ptr<net::BandwidthEstimator> inner_;
};

/// Registry policy "timed:inner=SPEC": the registry's SPEC policy over
/// the (timed) estimator run_fleet hands it, with admissions timed.
class TimedPolicy final : public cache::CachePolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<cache::CachePolicy> inner) : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_access(workload::ObjectId id, double now_s, cache::PartialStore& store) override {
    const double before = store.cached(id);
    const std::size_t objects = store.object_count();
    const std::uint64_t t0 = ticks();
    inner_->on_access(id, now_s, store);
    g_clock->add(LoopClock::kAdmit, ticks() - t0);
    g_clock->admitted(before, store.cached(id), objects, store.object_count());
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<cache::CachePolicy> inner_;
};

void register_timed_components() {
  static bool done = false;
  if (done) return;
  done = true;
  namespace reg = core::registry;
  reg::register_estimator(
      reg::ComponentInfo{"timed", {}, "perfbench: times another estimator", {"inner"}},
      [](const util::Spec& spec, reg::EstimatorContext& ctx) {
        return std::make_unique<TimedEstimator>(
            reg::make_estimator(spec.get_string("inner", ""), ctx.paths, ctx.rng));
      });
  reg::register_policy(
      reg::ComponentInfo{"timed", {}, "perfbench: times another policy", {"inner"}},
      [](const util::Spec& spec, const reg::PolicyContext& ctx) {
        return std::make_unique<TimedPolicy>(
            reg::make_policy(spec.get_string("inner", ""), ctx.catalog, ctx.estimator));
      });
}

// ------------------------------------------------------------ call costs
/// Busy ticks and calls of one concrete-type call site, over chunks;
/// `intervals` counts the timed intervals (for the timer's own cost).
struct Site {
  const char* name;
  std::uint64_t ticks = 0;
  std::uint64_t calls = 0;
  std::uint64_t intervals = 0;
};

struct NoPolicy {};

/// The calls the program's loop makes on concrete types, timed over
/// replication 0's inputs in the loop's call order, one span per call
/// site per chunk under a "replay" span. Deliveries use each request's
/// (sampled, fault-scaled) bandwidth against an empty cache, and their
/// origin transfers feed the uplink and the per-proxy observation queues
/// as run_fleet would feed them.
void time_call_sites(const Grid& g, const workload::RequestStream& stream,
                     std::shared_ptr<const net::PathModel> model, std::uint64_t sim_seed,
                     Tracer& tracer, double ns_per_tick, std::uint64_t overhead,
                     Clock::time_point epoch, std::vector<double>& queue_depth) {
  const workload::CatalogView view = stream.catalog().view();
  const bool constant = model->mode() == net::VariationMode::kConstant;
  sim::DeliveryTable pre;
  sim::build_delivery_table(view, constant ? model->means().data() : nullptr, pre);
  util::Rng rng(sim_seed);

  // The all-features cell (the last one) for fleet_chaos, else one cache.
  const fleet::FleetConfig fc = g.fleet ? fleet::FleetConfig::parse(g.cells.back().fleet)
                                        : fleet::FleetConfig::parse("fleet:proxies=1");
  const std::size_t n = fc.proxies;
  std::vector<fleet::Sharder> sharders;
  for (const auto& cell : g.cells) {
    if (cell.fleet.empty()) continue;
    sharders.emplace_back();
    sharders.back().compile(fleet::FleetConfig::parse(cell.fleet).sharding, n,
                            rng.fork("sharding").seed());
  }
  std::vector<net::FaultSchedule> faults(n);
  const bool have_faults = !g.base.sim.fault.empty();
  for (std::size_t p = 0; p < n && have_faults; ++p) {
    faults[p].compile(g.base.sim.fault, model->size(), rng.fork("faults").seed(),
                      n > 1 ? net::FaultScope{static_cast<std::uint32_t>(p), fc.region_of(p)}
                            : net::FaultScope{});
  }
  std::vector<std::unique_ptr<net::BandwidthEstimator>> estimators;
  std::vector<sim::ObservationQueue> queues(n);
  NoPolicy no_policy;
  cache::PartialStore unused_store(0.0);
  std::vector<sim::DecisionKernel<NoPolicy, net::BandwidthEstimator>> kernels;
  for (std::size_t p = 0; p < n; ++p) {
    estimators.push_back(core::registry::make_estimator(
        g.base.sim.estimator, *model,
        rng.fork(p == 0 ? std::string("estimator") : "estimator#" + std::to_string(p))));
    queues[p].reserve(64);
  }
  for (std::size_t p = 0; p < n; ++p) {
    kernels.emplace_back(no_policy, *estimators[p], unused_store, queues[p]);
    if (have_faults) kernels[p].set_faults(&faults[p]);
  }
  const bool observes = kernels[0].observes();
  fleet::UplinkBucket uplink(fc.uplink_mbps * 125000.0, fc.burst_mb * 1.0e6);
  net::PathSampler sampler(model);

  enum { kNext, kSample, kRoute, kFault, kDeliver, kUplink, kTick, kSites };
  Site sites[kSites] = {{"workload.next"}, {"net.sample"}, {"fleet.route"},
                        {"net.fault_lookup"}, {"sim.deliver"}, {"fleet.uplink"},
                        {"sim.tick"}};
  const auto t_start = Clock::now();
  const int parent = tracer.add(
      "replay", std::chrono::duration<double, std::nano>(t_start - epoch).count(), 0.0, -1,
      1u << 20);
  std::vector<double> bw, scale;
  std::vector<std::uint32_t> owner;
  workload::RequestCursor cursor;
  cursor.bind(stream, kChunk);
  for (;;) {
    const double chunk_ns = std::chrono::duration<double, std::nano>(Clock::now() - epoch).count();
    std::uint64_t t0 = ticks();
    const workload::RequestBlock* block = cursor.next();
    sites[kNext].ticks += ticks() - t0;
    ++sites[kNext].intervals;
    if (block == nullptr) break;
    const std::size_t m = block->size;
    sites[kNext].calls += m;
    bw.resize(m);
    scale.assign(m, 1.0);
    owner.assign(m, 0);
    if (constant) {
      for (std::size_t i = 0; i < m; ++i) bw[i] = pre.bw[block->object[i]];
    } else {
      t0 = ticks();
      for (std::size_t i = 0; i < m; ++i) {
        bw[i] = sampler.sample_bandwidth(view.path[block->object[i]], block->time_s[i]);
      }
      sites[kSample].ticks += ticks() - t0;
      sites[kSample].calls += m;
      ++sites[kSample].intervals;
    }
    for (std::size_t s = 0; s < sharders.size(); ++s) {
      t0 = ticks();
      for (std::size_t i = 0; i < m; ++i) {
        owner[i] = sharders[s].proxy_for(block->first + i, block->object[i]);
      }
      sites[kRoute].ticks += ticks() - t0;
      sites[kRoute].calls += m;
      ++sites[kRoute].intervals;
    }
    if (have_faults) {
      // run_fleet makes one bandwidth_scale lookup per request.
      t0 = ticks();
      for (std::size_t i = 0; i < m; ++i) {
        scale[i] = faults[owner[i]].bandwidth_scale(view.path[block->object[i]],
                                                    block->time_s[i]);
      }
      sites[kFault].ticks += ticks() - t0;
      sites[kFault].calls += m;
      ++sites[kFault].intervals;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double now = block->time_s[i];
      const workload::ObjectId id = block->object[i];
      std::uint64_t u = ticks();
      kernels[owner[i]].tick(now);
      std::uint64_t v = ticks();
      sites[kTick].ticks += v - u;
      ++sites[kTick].calls;
      ++sites[kTick].intervals;
      const double w = bw[i] * scale[i];
      const sim::ServiceOutcome out =
          scale[i] > 0.0
              ? sim::deliver_precomputed(view.size_bytes[id], pre.dr[id],
                                         view.duration_s[id] * w, w, 0.0)
              : sim::deliver_cache_only(view.size_bytes[id], 0.0);
      u = ticks();
      sites[kDeliver].ticks += u - v;
      ++sites[kDeliver].calls;
      ++sites[kDeliver].intervals;
      if (out.bytes_from_origin > 0) {
        if (uplink.enabled()) {
          (void)uplink.acquire(now, out.bytes_from_origin);
          v = ticks();
          sites[kUplink].ticks += v - u;
          ++sites[kUplink].calls;
          ++sites[kUplink].intervals;
          u = v;
        }
        if (observes) {
          kernels[owner[i]].record_transfer(view.path[id], out.origin_throughput,
                                            now + out.origin_transfer_s);
          sites[kTick].ticks += ticks() - u;
          ++sites[kTick].intervals;
        }
      }
      queue_depth.push_back(static_cast<double>(queues[owner[i]].size()));
    }
    double at = chunk_ns;
    for (Site& s : sites) {
      if (s.calls == 0) continue;
      const std::uint64_t timer = s.intervals * overhead;
      const double dur = static_cast<double>(s.ticks > timer ? s.ticks - timer : 0) * ns_per_tick;
      tracer.add(s.name, at, dur, parent, 1u << 20, s.calls);
      at += dur;
      s.ticks = 0;
      s.calls = 0;
      s.intervals = 0;
    }
  }
  tracer.set_duration(parent, seconds_since(t_start) * 1e9);
}

// ------------------------------------------------------------ traced run
/// Per-layer numbers: the program's loop untimed and timed over
/// replication 0 of every cell, the call-site costs, and the input
/// builds.
void trace_layers(const Grid& g, const SimArgs& a, Record& rec) {
  const TickRate rate;
  const auto stream = make_stream(g, a, 0);
  std::uint64_t sim_seed = 0;
  const auto model = make_model(g, a, 0, &sim_seed);
  std::vector<sim::SimulationConfig> configs;
  for (std::size_t c = 0; c < g.cells.size(); ++c) configs.push_back(cell_config(g, c, sim_seed));

  // Untimed: exactly what a grid pass runs for these simulations.
  sim::SimulationArena arena;
  const auto untimed = [&](std::size_t c) {
    if (g.fleet) {
      const auto r = fleet::run_fleet(*stream, fleet::FleetConfig::parse(g.cells[c].fleet),
                                      configs[c], model, &g.scenario.base, &g.scenario.ratio);
      return r.aggregate;
    }
    sim::MonoRunContext ctx;
    ctx.stream = stream.get();
    ctx.model = model;
    ctx.base = &g.scenario.base;
    ctx.ratio = &g.scenario.ratio;
    ctx.config = &configs[c];
    ctx.seed = sim_seed;
    return sim::acquire_mono_engine(arena, configs[c])->run(ctx);
  };
  for (std::size_t c = 0; c < g.cells.size(); ++c) (void)untimed(c);  // warm the arena
  double off_s = 0.0;
  double cell_s = 0.0;
  std::vector<std::string> expected;
  for (std::size_t c = 0; c < g.cells.size(); ++c) {
    const auto t0 = Clock::now();
    expected.push_back(result_digest(untimed(c)));
    const double s = seconds_since(t0);
    off_s += s;
    if (g.fleet) cell_s += s;
  }
  const double ns_per_tick = rate.ns_per_tick();  // calibrated over the untimed runs
  const std::uint64_t overhead = timer_ticks();

  // Timed: the same loop with the policy/estimator wrappers.
  register_timed_components();
  Tracer tracer;
  const auto epoch = Clock::now();
  LoopClock clock;
  clock.tracer = &tracer;
  clock.ns_per_tick = ns_per_tick;
  clock.overhead = overhead;
  clock.epoch = epoch;
  g_clock = &clock;
  double on_s = 0.0;
  std::string divergence;
  for (std::size_t c = 0; c < g.cells.size(); ++c) {
    const auto t0 = Clock::now();
    clock.id = c;
    clock.sim_span = tracer.add(
        "sim.simulation", std::chrono::duration<double, std::nano>(t0 - epoch).count(), 0.0, -1,
        c);
    sim::SimulationResult r;
    if (g.fleet) {
      sim::SimulationConfig sc = configs[c];
      sc.policy = "timed:inner=" + sc.policy;
      sc.estimator = "timed:inner=" + sc.estimator;
      r = fleet::run_fleet(*stream, fleet::FleetConfig::parse(g.cells[c].fleet), sc, model,
                           &g.scenario.base, &g.scenario.ratio)
              .aggregate;
    } else {
      r = timed_mono_run(configs[c].policy, *stream, model, configs[c], clock);
    }
    clock.flush();
    const double s = seconds_since(t0);
    tracer.set_duration(clock.sim_span, s * 1e9);
    on_s += s;
    if (result_digest(r) != expected[c] && divergence.empty()) {
      divergence = "traced loop diverged from the untimed run in cell " + std::to_string(c);
    }
  }
  g_clock = nullptr;
  const auto loop_layers = tracer.layers();
  double loop_self_ns = 0.0;
  for (const char* name : LoopClock::kNames) {
    const auto it = loop_layers.find(name);
    if (it != loop_layers.end()) loop_self_ns += it->second.self_ns;
  }

  std::vector<double> depth;
  time_call_sites(g, *stream, model, sim_seed, tracer, ns_per_tick, overhead, epoch, depth);

  // Input builds: the calls the sweep engine makes per replication.
  std::vector<double> wl_ms, pm_ms;
  for (std::size_t k = 0; k < kBuildReps; ++k) {
    double w = 0.0, p = 0.0;
    for (std::size_t r = 0; r < a.runs; ++r) {
      auto t0 = Clock::now();
      (void)make_stream(g, a, r);
      w += seconds_since(t0) * 1e3;
      t0 = Clock::now();
      (void)make_model(g, a, r, nullptr);
      p += seconds_since(t0) * 1e3;
    }
    wl_ms.push_back(w);
    pm_ms.push_back(p);
  }

  const auto layers = tracer.layers();
  const auto ns_per = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ns / static_cast<double>(it->second.count);
  };
  const auto count_of = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double reqs =
      static_cast<double>(stream->num_requests()) * static_cast<double>(g.cells.size());
  rec.num("workload.regen_ns_per_req", ns_per("workload.next"));
  rec.num("workload.build_ms", median(wl_ms));
  rec.num("net.path_model_build_ms", median(pm_ms));
  rec.num("net.sample_ns", ns_per("net.sample"));
  rec.num("net.estimate_ns", ns_per("net.estimate"));
  rec.num("net.observe_ns", ns_per("net.observe"));
  rec.num("net.observes_per_req", count_of("net.observe") / reqs);
  rec.num("net.fault_lookup_ns", ns_per("net.fault_lookup"));
  rec.num("sim.deliver_ns", ns_per("sim.deliver"));
  rec.num("sim.tick_ns", ns_per("sim.tick"));
  rec.num("sim.queue_depth_p99", percentile(depth, 0.99));
  rec.num("sim.residual_frac", 1.0 - loop_self_ns / (on_s * 1e9));
  rec.num("cache.admit_ns", ns_per("cache.admit"));
  rec.num("cache.fill_per_admit",
          clock.admits > 0
              ? static_cast<double>(clock.useful_admits) / static_cast<double>(clock.admits)
              : 0.0);
  rec.num("cache.evictions_per_req", static_cast<double>(clock.evictions) / reqs);
  rec.num("fleet.route_ns", ns_per("fleet.route"));
  rec.num("fleet.uplink_ns", ns_per("fleet.uplink"));
  rec.num("fleet.cell_s", g.fleet ? cell_s / static_cast<double>(g.cells.size()) : 0.0);
  rec.num("trace.overhead_frac", on_s / off_s - 1.0);
  rec.num("trace.loop_requests", reqs);
  rec.num("trace.spans", static_cast<double>(tracer.spans().size()));
  rec.num("trace.timer_ns", static_cast<double>(overhead) * ns_per_tick);
  rec.str("trace_failure", divergence);
  if (!a.trace_out.empty() && !tracer.write(a.trace_out)) {
    throw std::runtime_error("cannot write " + a.trace_out);
  }
}

// ------------------------------------------------------------ main
SimArgs parse(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.check_unknown({"workload", "seed", "seconds", "trace", "objects", "requests", "runs",
                     "fault", "min-passes", "samples-out", "trace-out"});
  SimArgs a;
  a.workload = cli.get_or("workload", std::string());
  a.seed = static_cast<std::uint64_t>(cli.get_or("seed", 1LL));
  a.seconds = cli.get_or("seconds", a.seconds);
  a.trace = cli.get_or("trace", false);
  a.objects = cli.get_count("objects", a.objects);
  a.requests = cli.get_count("requests", a.requests);
  a.runs = cli.get_count("runs", a.runs);
  a.fault = cli.get_or("fault", a.fault);
  a.min_passes = std::max<std::size_t>(1, cli.get_count("min-passes", a.min_passes));
  a.samples_out = cli.get_or("samples-out", std::string());
  a.trace_out = cli.get_or("trace-out", std::string());
  return a;
}

}  // namespace

int sim_main(int argc, char** argv) {
  const SimArgs a = parse(argc, argv);
  const Grid g = make_grid(a);
  const core::SweepRunner runner(g.base, g.scenario);
  Record rec;

  // Timed grid passes for --seconds (at least --min-passes). Each pass's
  // set-up is its wall time outside the simulations: building the
  // request sources and path models, validating specs, reducing.
  const std::size_t reqs_per_pass = g.cells.size() * a.runs * a.requests;
  std::vector<double> pass_rps, pass_setup, pass_conc, sim_wall;
  std::string first_digest;
  bool deterministic = true;
  std::string check;
  std::vector<core::AveragedMetrics> first;
  const auto t_start = Clock::now();
  while (pass_rps.size() < a.min_passes || seconds_since(t_start) < a.seconds) {
    core::SweepStats stats;
    const auto t0 = Clock::now();
    const auto metrics = runner.run(g.cells, &stats);
    const double wall = seconds_since(t0);
    double sum = 0.0;
    for (const double s : stats.sim_wall_s) sum += s;
    pass_rps.push_back(static_cast<double>(reqs_per_pass) / wall);
    pass_setup.push_back(wall - sum);
    pass_conc.push_back(sum / wall);
    sim_wall.insert(sim_wall.end(), stats.sim_wall_s.begin(), stats.sim_wall_s.end());
    const std::string d = digest(metrics);
    if (first_digest.empty()) {
      first_digest = d;
      first = metrics;
      check = g.fleet ? fleet_invariants(metrics) : fig05_shape(metrics);
    } else if (d != first_digest) {
      deterministic = false;
    }
  }
  double byte_hit = 0.0;
  for (const auto& m : first) byte_hit += m.traffic_reduction;
  byte_hit /= static_cast<double>(first.size());

  if (!a.samples_out.empty()) {
    std::FILE* f = std::fopen(a.samples_out.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + a.samples_out);
    for (const double s : sim_wall) std::fprintf(f, "%.9g\n", s * 1e3);
    std::fclose(f);
  }

  rec.str("workload", a.workload);
  rec.num("passes", static_cast<double>(pass_rps.size()));
  rec.num("simulations", static_cast<double>(sim_wall.size()));
  rec.num("requests_per_pass", static_cast<double>(reqs_per_pass));
  // Load from other tenants of a shared host only ever slows a pass down,
  // so the gated figures are the best decile of the passes: throughput
  // at the 90th percentile, set-up at the 10th. The medians stay in the
  // detail line.
  rec.num("req_per_s", percentile(pass_rps, 0.9));
  rec.num("setup_s", percentile(pass_setup, 0.1));
  rec.num("pass_req_per_s_p50", median(pass_rps));
  rec.num("pass_setup_s_p50", median(pass_setup));
  rec.num("byte_hit_ratio", byte_hit);
  rec.num("core.concurrency", median(pass_conc));
  rec.num("core.sim_wall_p50_ms", median(sim_wall) * 1e3);
  rec.num("core.sim_wall_max_ms", *std::max_element(sim_wall.begin(), sim_wall.end()) * 1e3);
  rec.str("digest", first_digest);
  rec.boolean("deterministic", deterministic);
  rec.str("check_failure", check);
  if (a.trace) trace_layers(g, a, rec);
  rec.num("peak_rss_mb", bench::peak_rss_mb());
  rec.print();
  return 0;
}

}  // namespace pb
