#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace napbench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

std::uint64_t SplitMix::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix mix(seed * 0x100000001B3ULL + tag);
  return mix.Next();
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : cdf_(n) {
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    total += std::pow(static_cast<double>(j + 1), -alpha);
    cdf_[j] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Draw(SplitMix& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

nai::serve::QosClass DrawMixClass(SplitMix& rng) {
  const double u = rng.Uniform();
  if (u < 0.4) return nai::serve::QosClass::kSpeedFirst;
  if (u < 0.8) return nai::serve::QosClass::kAccuracyFirst;
  return nai::serve::QosClass::kThroughputFirst;
}

std::vector<nai::graph::GraphDelta> MakeDeltaStream(
    std::int64_t base_nodes, std::size_t feature_dim, std::size_t count,
    std::size_t new_nodes, std::size_t new_edges,
    std::size_t feature_updates, std::uint64_t seed) {
  SplitMix rng(seed);
  auto random_row = [&] {
    std::vector<float> row(feature_dim);
    for (float& v : row) v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    return row;
  };
  std::vector<nai::graph::GraphDelta> deltas(count);
  std::int64_t n = base_nodes;
  for (nai::graph::GraphDelta& delta : deltas) {
    const std::int64_t existing = n;
    for (std::size_t i = 0; i < new_nodes; ++i) {
      const std::int32_t id = delta.AddNode(random_row(), n);
      delta.AddEdge(id, static_cast<std::int32_t>(rng.Below(existing)));
      delta.AddEdge(id, static_cast<std::int32_t>(rng.Below(existing)));
    }
    for (std::size_t e = 0; e < new_edges; ++e) {
      const auto u = static_cast<std::int32_t>(rng.Below(existing));
      auto v = static_cast<std::int32_t>(rng.Below(existing));
      if (v == u) v = static_cast<std::int32_t>((v + 1) % existing);
      delta.AddEdge(u, v);
    }
    for (std::size_t i = 0; i < feature_updates; ++i) {
      delta.UpdateFeatures(static_cast<std::int32_t>(rng.Below(existing)),
                           random_row());
    }
    n += static_cast<std::int64_t>(new_nodes);
  }
  return deltas;
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

FaultCounts ReadFaults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return {static_cast<std::int64_t>(usage.ru_majflt),
          static_cast<std::int64_t>(usage.ru_minflt)};
}

// --- Tracer ------------------------------------------------------------------

namespace {

std::uint32_t ThreadTag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = next.fetch_add(1) + 1;
  return tag;
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t parent,
                     std::int64_t request)
    : tracer_(tracer.enabled() ? &tracer : nullptr),
      name_(name),
      parent_(parent),
      request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextId();
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  Span span;
  span.name = name_;
  span.id = id_;
  span.parent = parent_;
  span.request = request_;
  span.thread = ThreadTag();
  span.start_us = MsBetween(tracer_->epoch_, start_) * 1000.0;
  span.end_us = MsBetween(tracer_->epoch_, end) * 1000.0;
  tracer_->Push(std::move(span));
}

void Tracer::Push(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"request\": %lld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.thread, s.start_us,
                 s.end_us - s.start_us, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace napbench
