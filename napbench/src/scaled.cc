#include "scaled.h"

#include <fcntl.h>
#include <unistd.h>

#include <string>

#include "src/graph/generators.h"

namespace napbench {

std::shared_ptr<nai::storage::MmapStore> GenerateScaledStore(
    const RunOptions& opt, std::int64_t nodes, std::uint64_t seed,
    bool drop_page_cache, double* open_ms) {
  nai::graph::ScaledGraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.feature_dim = kScaledFeatureDim;
  cfg.seed = seed;
  const std::string path =
      opt.out_dir + "/napbench-store-" + std::to_string(static_cast<long>(::getpid()));
  std::shared_ptr<nai::storage::MmapStore> store;
  try {
    nai::graph::GenerateScaled(cfg, path);
    // Open lazily: the data checksum sweep would fault every page in.
    const Clock::time_point open0 = Clock::now();
    nai::storage::MmapStore::Options lazy;
    lazy.verify_data = false;
    store = std::make_shared<nai::storage::MmapStore>(path, lazy);
    if (open_ms != nullptr) *open_ms = MsBetween(open0, Clock::now());
  } catch (...) {
    ::unlink(path.c_str());
    throw;
  }
  if (drop_page_cache) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fdatasync(fd);
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
      ::close(fd);
    }
  }
  ::unlink(path.c_str());
  return store;
}

std::shared_ptr<nai::storage::MemStore> CopyToMemory(const nai::storage::MmapStore& m) {
  const nai::graph::CsrView a = m.adj();
  nai::graph::Csr adj;
  adj.rows = a.rows;
  adj.cols = a.cols;
  adj.row_ptr.assign(a.row_ptr, a.row_ptr + a.rows + 1);
  adj.col_idx.assign(a.col_idx, a.col_idx + a.nnz());
  adj.values.assign(static_cast<std::size_t>(a.nnz()), 1.0f);
  const nai::graph::CsrView b = m.norm_adj();
  nai::graph::Csr norm;
  norm.rows = b.rows;
  norm.cols = b.cols;
  norm.row_ptr.assign(b.row_ptr, b.row_ptr + b.rows + 1);
  norm.col_idx.assign(b.col_idx, b.col_idx + b.nnz());
  norm.values.assign(b.values, b.values + b.nnz());
  nai::tensor::Matrix features(static_cast<std::size_t>(m.num_rows()), m.dim());
  for (std::int64_t v = 0; v < m.num_rows(); ++v) {
    features.SetRow(static_cast<std::size_t>(v), m.row(v));
  }
  return std::make_shared<nai::storage::MemStore>(
      nai::graph::Graph::FromCsr(std::move(adj)), std::move(features), m.gamma(),
      std::move(norm), *m.stationary_pooled());
}

ScaledModel MakeScaledModel(float gamma) {
  nai::models::ModelConfig mc;
  mc.kind = nai::models::ModelKind::kSgc;
  mc.depth = kScaledDepth;
  mc.gamma = gamma;
  mc.feature_dim = static_cast<std::size_t>(kScaledFeatureDim);
  mc.num_classes = 8;
  mc.hidden_dims = {32};
  ScaledModel m;
  m.classifiers = std::make_unique<nai::core::ClassifierStack>(mc, 7);
  m.quantized = std::make_unique<nai::core::QuantizedClassifierStack>(*m.classifiers);
  m.table = nai::serve::DefaultQosPolicyTable(kScaledDepth);
  return m;
}

std::vector<std::pair<std::string, nai::core::InferenceConfig>> ProbeConfigs(
    const nai::serve::QosPolicyTable& table) {
  using nai::serve::QosClass;
  return {{"speed", table.For(QosClass::kSpeedFirst).config},
          {"accuracy", table.For(QosClass::kAccuracyFirst).config},
          {"throughput", table.For(QosClass::kThroughputFirst).config}};
}

}  // namespace napbench
