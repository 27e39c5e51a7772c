// The closed-loop load generator shared by the three serving workloads,
// and the checks and metrics computed from its response records.
#ifndef NAPBENCH_SERVING_LOOP_H_
#define NAPBENCH_SERVING_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "src/serve/serving_engine.h"

namespace napbench {

/// Request i of a run: a pure function of (seed, i), so any client thread
/// can compute it and the stream is the same whatever the timing.
struct PlannedRequest {
  std::int32_t node = 0;
  nai::serve::QosClass qos = nai::serve::QosClass::kSpeedFirst;
};
using RequestPlan = std::function<PlannedRequest(std::int64_t)>;

/// What one request came back with, as the client saw it.
struct ResponseRecord {
  std::int64_t index = -1;  ///< request number in the plan
  std::int32_t node = 0;
  nai::serve::QosClass qos = nai::serve::QosClass::kSpeedFirst;
  bool received = false;    ///< a response arrived (false = dropped)
  bool served = false;
  bool hit = false;         ///< answered inline from the result cache
  bool traced = false;      ///< issued while the tracer was on
  std::int32_t prediction = -1;
  std::int32_t exit_depth = -1;
  std::uint64_t epoch = 0;
  double latency_ms = 0.0;  ///< client side: before Submit -> response in hand
  double queue_ms = 0.0;    ///< the program's admission -> batch formation
  double server_latency_ms = 0.0;
  double submit_us = 0.0;   ///< the Submit call itself
};

/// Applies deltas at fixed points of the request stream: the client that
/// completes request number (d + 1) * every - 1 applies delta d through
/// ServingEngine::ApplyDeltas and waits for it, so the number of
/// invalidations is a function of the request count alone.
struct DeltaSchedule {
  const std::vector<nai::graph::GraphDelta>* deltas = nullptr;
  std::int64_t every = 0;
  /// ApplyDeltas future times and reports, in application order.
  std::vector<double> future_ms;
  std::vector<nai::serve::DeltaApplyReport> reports;
};

struct LoopOutcome {
  std::vector<ResponseRecord> records;  ///< sorted by index
  std::int64_t sent = 0;                ///< request numbers handed out
  double elapsed_s = 0.0;
  /// Traced-run split: completions and seconds with the tracer on / off.
  double traced_s = 0.0, untraced_s = 0.0;
  std::int64_t traced_done = 0, untraced_done = 0;
};

/// Runs `clients` closed-loop clients for `seconds`: each takes the next
/// request number, submits it, waits for the answer and records it. With
/// `trace` the tracer is switched on and off in alternating 250 ms slices
/// so the same run yields both traced and untraced throughput.
LoopOutcome RunClosedLoop(nai::serve::ServingEngine& server,
                          const RequestPlan& plan, int clients, double seconds,
                          bool trace, DeltaSchedule* schedule = nullptr);

/// Expected (prediction, exit depth) of a node under a class, at an epoch.
struct Expected {
  std::int32_t prediction = -1;
  std::int32_t exit_depth = -1;
};
using ExpectedKey = std::tuple<std::uint64_t, int, std::int32_t>;  // epoch, class, node
using ExpectedMap = std::map<ExpectedKey, Expected>;

/// Reference answers: one direct Infer per class over the distinct nodes of
/// `records`, on `engine`, which serves graph version `epoch`.
void AddExpected(nai::core::NaiEngine& engine,
                 const nai::serve::QosPolicyTable& table, std::uint64_t epoch,
                 const std::vector<const ResponseRecord*>& records,
                 ExpectedMap& expected);

/// Every check of a serving run against independently computed answers:
/// one response per request sent, none shed or dropped, and each answer
/// equal to the expected one for its (epoch, class, node). Returns the
/// failures (empty = pass); used both on the real records and on the
/// self-test's corrupted copies.
std::vector<std::string> CheckResponses(const std::vector<ResponseRecord>& records,
                                        std::int64_t requests_sent,
                                        const ExpectedMap& expected);

/// Shows the checks are not vacuous: corrupts one prediction, one exit
/// depth and one epoch tag, and drops one response, each in its own copy,
/// and fails `out` unless CheckResponses rejects every copy.
void SelfTestServingChecks(const std::vector<ResponseRecord>& records,
                           const ExpectedMap& expected, WorkloadResult& out);

/// The end-to-end serving metrics (completed requests per second of the
/// timed phase, accuracy-first p50) and the serve.* per-layer metrics.
/// Latencies are client-side p50s of engine-served requests (cache hits
/// excluded).
void ServingMetrics(const LoopOutcome& loop,
                    const nai::serve::ServingStatsSnapshot& stats,
                    bool per_layer, WorkloadResult& out);

}  // namespace napbench

#endif  // NAPBENCH_SERVING_LOOP_H_
