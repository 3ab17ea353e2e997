// Shared pieces of the perfbench binary: wall/cycle clocks, the
// in-memory span tracer, percentile helpers and the one-line JSON
// result every subcommand prints for run.py.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cheap monotonic tick source for ns-scale calls: the TSC where there is
/// one (a few ns per read), else steady_clock nanoseconds. TickRate
/// converts ticks to ns against steady_clock over a whole run.
[[nodiscard]] inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

/// Ticks one timed interval costs by itself: the median gap between two
/// back-to-back ticks() reads. Per-call timings subtract it once per
/// interval so a few-ns call is not reported as the timer's own cost.
[[nodiscard]] inline std::uint64_t timer_ticks() {
  std::vector<std::uint64_t> gaps(4001);
  for (auto& g : gaps) {
    const std::uint64_t t0 = ticks();
    g = ticks() - t0;
  }
  std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
  return gaps[gaps.size() / 2];
}

class TickRate {
 public:
  TickRate() : wall0_(Clock::now()), tick0_(ticks()) {}
  /// ns per tick measured since construction (call after the work).
  [[nodiscard]] double ns_per_tick() const {
    const double ns = seconds_since(wall0_) * 1e9;
    const auto dt = static_cast<double>(ticks() - tick0_);
    return dt > 0 ? ns / dt : 1.0;
  }

 private:
  Clock::time_point wall0_;
  std::uint64_t tick0_;
};

/// One recorded span. ns-scale layers are recorded as one span per
/// request chunk whose duration is the layer's accumulated busy time in
/// that chunk and whose `count` is the number of calls it covers.
struct Span {
  std::string name;
  double start_ns = 0.0;
  double dur_ns = 0.0;
  int parent = -1;
  std::uint64_t id = 0;  // shared by every span of one simulation/session
  std::uint64_t count = 1;
};

/// Spans kept in memory and written out once, when the run ends.
class Tracer {
 public:
  int add(std::string name, double start_ns, double dur_ns, int parent,
          std::uint64_t id, std::uint64_t count = 1) {
    spans_.push_back(Span{std::move(name), start_ns, dur_ns, parent, id, count});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_duration(int span, double dur_ns) { spans_[span].dur_ns = dur_ns; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  struct Layer {
    double self_ns = 0.0;
    std::uint64_t count = 0;
  };
  /// Self time (duration minus the children's durations) and call count
  /// per span name.
  [[nodiscard]] std::map<std::string, Layer> layers() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Layer& l = out[spans_[i].name];
      l.self_ns += spans_[i].dur_ns - child_ns[i];
      l.count += spans_[i].count;
    }
    return out;
  }

  /// JSON lines: one span per line.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%.0f,\"end_ns\":%.0f,"
                   "\"parent\":%d,\"id\":%llu,\"count\":%llu}\n",
                   s.name.c_str(), s.start_ns, s.start_ns + s.dur_ns, s.parent,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// Nearest-rank percentile of `v` (sorted copy); 0 for an empty input.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Flat name -> number/string record printed as one JSON line.
class Record {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    items_.emplace_back(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    items_.emplace_back(key, "\"" + v + "\"");
  }
  void boolean(const std::string& key, bool v) {
    items_.emplace_back(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + items_[i].first + "\": " + items_[i].second;
    }
    return out + "}";
  }
  void print() const { std::printf("%s\n", json().c_str()); }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Subcommands (main.cpp dispatches on argv[1]).
int sim_main(int argc, char** argv);
int load_main(int argc, char** argv);
int audit_main(int argc, char** argv);
int probe_main(int argc, char** argv);

}  // namespace pb
