// Shared pieces of the napbench binary: run options, the result record,
// seeded load generation, latency statistics, process counters and the
// in-memory span recorder behind the traced run.
//
// Everything that shapes the offered load (node orders, class mixes, Zipf
// draws, delta streams) lives in these files and draws from SplitMix64
// seeded by --seed, so no change to the program can change what is asked
// of it.
#ifndef NAPBENCH_BENCH_H_
#define NAPBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/inference.h"
#include "src/graph/delta.h"
#include "src/serve/qos.h"

namespace napbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);
double SecondsSince(Clock::time_point a);

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the trace file and temp stores.
  std::string out_dir = ".bench_build";
  /// Time the process started (setup_s is measured from here).
  Clock::time_point process_start;
};

/// One named metric value as printed on the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the operation counts, whether every
/// check passed, and the metrics of the requested kind (end-to-end when
/// untraced, per-layer when traced).
struct WorkloadResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable check failures (printed to stderr).
  std::vector<std::string> problems;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// --- Seeded generation -------------------------------------------------------

/// SplitMix64: small, fast, and fully determined by its seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// Mixes a workload tag into the run seed so streams never alias.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag);

template <typename T>
void Shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

/// Inverse-CDF Zipf(alpha) sampler over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);
  std::size_t Draw(SplitMix& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The serving mix: 40% speed-first, 40% accuracy-first, 20%
/// throughput-first, one uniform draw per request.
nai::serve::QosClass DrawMixClass(SplitMix& rng);

/// Deterministic delta stream against a growing graph: each delta adds
/// `new_nodes` nodes (random features, each wired to two existing nodes),
/// `new_edges` random edges among existing nodes and `feature_updates`
/// replaced feature rows. Delta d is valid against base + deltas 0..d-1.
std::vector<nai::graph::GraphDelta> MakeDeltaStream(
    std::int64_t base_nodes, std::size_t feature_dim, std::size_t count,
    std::size_t new_nodes, std::size_t new_edges,
    std::size_t feature_updates, std::uint64_t seed);

// --- Statistics --------------------------------------------------------------

/// Median (p = 0.5) or any other quantile by linear interpolation; 0 for an
/// empty sample.
double Quantile(std::vector<double> values, double p);

/// The process's own peak resident set (getrusage ru_maxrss), in MB.
double PeakRssMb();

/// Own-process page-fault counters (getrusage).
struct FaultCounts {
  std::int64_t major = 0;
  std::int64_t minor = 0;
};
FaultCounts ReadFaults();

// --- Tracing -----------------------------------------------------------------

/// In-memory span recorder. Spans are kept until WriteChromeTrace; nothing
/// is recorded while disabled, so the untraced runs pay one branch per
/// boundary.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = 0;   ///< 0 = root
    std::int64_t request = -1; ///< request id, -1 when not request-scoped
    std::uint32_t thread = 0;
    double start_us = 0.0;     ///< since the tracer's epoch
    double end_us = 0.0;
  };

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t parent = 0,
          std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    std::int64_t id_ = 0;
    std::int64_t parent_;
    std::int64_t request_;
    Clock::time_point start_;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::size_t size() const;
  /// Writes every span as Chrome trace-event JSON ("X" events). Returns
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Push(Span span);

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The benchmark's one tracer (spans from every workload thread).
Tracer& GlobalTracer();

// --- Workloads ---------------------------------------------------------------

WorkloadResult RunOfflineProducts(const RunOptions& opt);
WorkloadResult RunServeMixed(const RunOptions& opt);
WorkloadResult RunServeHotChurn(const RunOptions& opt);
WorkloadResult RunOutOfCore(const RunOptions& opt);

}  // namespace napbench

#endif  // NAPBENCH_BENCH_H_
