// The synthetic deployment behind the serving workloads: a seeded
// graph::GenerateScaled store and a fixed-seed untrained SGC classifier
// bank with the default QoS policy table over it. serve-mixed and
// serve-hot-churn copy the store into memory; outofcore-1m serves it from
// the mapped file.
#ifndef NAPBENCH_SCALED_H_
#define NAPBENCH_SCALED_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/core/classifier_stack.h"
#include "src/serve/qos.h"
#include "src/storage/mem_store.h"
#include "src/storage/mmap_store.h"

namespace napbench {

constexpr int kScaledDepth = 3;
constexpr std::int32_t kScaledFeatureDim = 32;

/// Writes a GenerateScaled store of `nodes` nodes (graph seed `seed`) to a
/// file in opt.out_dir, opens it without the data sweep and unlinks the
/// file; the mapping stays valid. With `drop_page_cache` the file's pages
/// are flushed and dropped first, so the first reads fault them in.
/// `open_ms`, when given, receives the time the open took.
std::shared_ptr<nai::storage::MmapStore> GenerateScaledStore(
    const RunOptions& opt, std::int64_t nodes, std::uint64_t seed,
    bool drop_page_cache, double* open_ms = nullptr);

/// A MemStore holding a bit-for-bit copy of a mapped store.
std::shared_ptr<nai::storage::MemStore> CopyToMemory(
    const nai::storage::MmapStore& m);

/// Classifier heads (float and INT8) and the policy table the serving
/// workloads use.
struct ScaledModel {
  std::unique_ptr<nai::core::ClassifierStack> classifiers;
  std::unique_ptr<nai::core::QuantizedClassifierStack> quantized;
  nai::serve::QosPolicyTable table;
};
ScaledModel MakeScaledModel(float gamma);

/// The table's speed / accuracy / throughput configs under the names the
/// layer probes report them by.
std::vector<std::pair<std::string, nai::core::InferenceConfig>> ProbeConfigs(
    const nai::serve::QosPolicyTable& table);

}  // namespace napbench

#endif  // NAPBENCH_SCALED_H_
