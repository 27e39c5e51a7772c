// Per-layer probes of the traced run: direct calls into one public entry
// point per layer (support BFS, feature gather, one SpMM hop, the NAP
// decision, the classifier heads, snapshot build and swap, and one
// engine Infer per config for the InferenceStats stage split), each
// wrapped in a span. Every workload runs the same probes on its own graph,
// so every per-layer metric has a value on every workload.
#ifndef NAPBENCH_PROBES_H_
#define NAPBENCH_PROBES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/core/classifier_stack.h"
#include "src/core/nap_gate.h"
#include "src/core/sharded_inference.h"
#include "src/graph/delta.h"

namespace napbench {

struct ProbeTarget {
  std::shared_ptr<const nai::graph::GraphSnapshot> snapshot;
  nai::core::ShardedNaiEngine* engine = nullptr;  ///< swapped last
  nai::core::ClassifierStack* classifiers = nullptr;
  nai::core::QuantizedClassifierStack* quantized = nullptr;
  /// Trained gates; null = an untrained stack of the same shape (gate
  /// decision cost does not depend on the weights).
  const nai::core::GateStack* gates = nullptr;
  /// The workload's speed / accuracy / throughput configs; the gate config
  /// is derived from the accuracy one when not given.
  std::vector<std::pair<std::string, nai::core::InferenceConfig>> configs;
  std::vector<std::int32_t> pool;  ///< nodes the probe batches draw from
  std::size_t batch_size = 500;
  std::size_t num_batches = 8;
  std::uint64_t seed = 1;
  /// Time taken to open the store (measured at set-up); < 0 = measure a
  /// MemStore build of the snapshot's graph here.
  double store_open_ms = -1.0;
};

/// Runs every probe and adds its per-layer metrics to `out`. Leaves the
/// engine serving a successor snapshot (the swap probe), so call it last.
void RunLayerProbes(const ProbeTarget& target, WorkloadResult& out);

}  // namespace napbench

#endif  // NAPBENCH_PROBES_H_
