#include "probes.h"

#include <algorithm>

#include "src/core/inference.h"
#include "src/core/nap_distance.h"
#include "src/core/stationary.h"
#include "src/graph/csr.h"
#include "src/graph/sampler.h"

namespace napbench {

namespace {

using nai::core::InferenceConfig;

/// Wall time of `f()` in ms, recorded as a span named `span`.
template <typename F>
double TimedMs(const char* span, F&& f) {
  Tracer::Scope scope(GlobalTracer(), span);
  const Clock::time_point t0 = Clock::now();
  f();
  return MsBetween(t0, Clock::now());
}

}  // namespace

void RunLayerProbes(const ProbeTarget& t, WorkloadResult& out) {
  GlobalTracer().set_enabled(true);
  const auto& snap = t.snapshot;
  const int k = t.classifiers->depth();
  const std::size_t dim = snap->feature_dim();

  // Probe batches: seeded draws (without replacement inside a batch).
  SplitMix rng(SubSeed(t.seed, 0x9b0be));
  std::vector<std::vector<std::int32_t>> batches(t.num_batches);
  for (auto& batch : batches) {
    std::vector<std::int32_t> pool = t.pool;
    const std::size_t b = std::min(t.batch_size, pool.size());
    for (std::size_t i = 0; i < b; ++i) {
      std::swap(pool[i], pool[i + rng.Below(pool.size() - i)]);
    }
    batch.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(b));
    std::sort(batch.begin(), batch.end());
  }

  std::unique_ptr<nai::core::GateStack> probe_gates;
  const nai::core::GateStack* gates = t.gates;
  if (gates == nullptr) {
    probe_gates = std::make_unique<nai::core::GateStack>(k, dim, 7);
    gates = probe_gates.get();
  }
  const nai::core::StationaryState stationary =
      nai::core::StationaryState::FromPooled(
          snap->adj(), *snap->feature_store->stationary_pooled(), snap->gamma);
  const InferenceConfig* speed_cfg = nullptr;
  for (const auto& [name, cfg] : t.configs) {
    if (name == "speed") speed_cfg = &cfg;
  }
  const float threshold = speed_cfg != nullptr ? speed_cfg->threshold : 0.1f;

  // --- graph / storage / core NAP / nn layers, one batch at a time. --------
  double sample_ms = 0, support_nodes = 0, gather_ms = 0, hop_ms = 0;
  double nap_ms = 0, gate_ms = 0, head_ms = 0, head_int8_ms = 0;
  for (const auto& batch : batches) {
    nai::graph::SupportSampler sampler(snap->norm_adj());
    nai::graph::BatchSupport support;
    sample_ms += TimedMs("graph.SampleMapped",
                         [&] { support = sampler.SampleMapped(batch, k); });
    support_nodes += static_cast<double>(support.num_supporting());
    nai::tensor::Matrix x0;
    gather_ms += TimedMs("storage.GatherRows", [&] {
      x0 = snap->feature_store->GatherRows(support.nodes);
    });
    nai::tensor::Matrix x1(support.nodes.size(), dim);
    const std::int64_t limit = support.layer_counts[static_cast<std::size_t>(k - 1)];
    hop_ms += TimedMs("graph.SpMMMappedPrefix", [&] {
      nai::graph::SpMMMappedPrefix(snap->norm_adj(), support.nodes,
                                   sampler.global_to_local(), x0, limit, x1);
    });
    // Batch rows are the support's first rows (BFS order).
    std::vector<std::int32_t> locals(batch.size());
    for (std::size_t i = 0; i < locals.size(); ++i) {
      locals[i] = static_cast<std::int32_t>(i);
    }
    const nai::tensor::Matrix x0_batch = x0.GatherRows(locals);
    const nai::tensor::Matrix x1_batch = x1.GatherRows(locals);
    const nai::tensor::Matrix x_inf = stationary.RowsForNodes(batch);
    nap_ms += TimedMs("core.NapDistance.ShouldExit", [&] {
      (void)nai::core::NapDistance(threshold, true).ShouldExit(x1_batch, x_inf);
    });
    gate_ms += TimedMs("core.GateStack.ShouldExit", [&] {
      (void)gates->ShouldExit(1, x1_batch, x_inf);
    });
    nai::core::GatheredStack gathered;
    gathered.mats = {x0_batch, x1_batch};
    head_ms += TimedMs("nn.ClassifierStack.Logits",
                       [&] { (void)t.classifiers->Logits(1, gathered); });
    head_int8_ms += TimedMs("nn.QuantizedClassifierStack.Logits",
                            [&] { (void)t.quantized->Logits(1, gathered); });
  }
  const double nb = static_cast<double>(batches.size());
  out.Set("graph.sample_ms_per_batch", sample_ms / nb, "ms");
  out.Set("graph.support_nodes_per_batch", support_nodes / nb, "count");
  out.Set("graph.spmm_hop_ms", hop_ms / nb, "ms");
  out.Set("storage.gather_ms_per_batch", gather_ms / nb, "ms");
  out.Set("core.nap_ms_per_batch", nap_ms / nb, "ms");
  out.Set("core.gate_ms_per_batch", gate_ms / nb, "ms");
  out.Set("nn.head_float_ms_per_batch", head_ms / nb, "ms");
  out.Set("nn.head_int8_ms_per_batch", head_int8_ms / nb, "ms");

  // --- core: the engine's own stage split per config (unsharded engine on
  // the same snapshot, so stage timers are not summed across shards). -------
  nai::core::EngineOptions options;
  options.gates = gates;
  options.quantized = t.quantized;
  nai::core::NaiEngine engine =
      nai::core::NaiEngine::FromSnapshot(snap, *t.classifiers, options);
  std::vector<std::pair<std::string, InferenceConfig>> configs = t.configs;
  const bool has_gate = std::any_of(configs.begin(), configs.end(),
                                    [](const auto& c) { return c.first == "gate"; });
  if (!has_gate) {
    for (const auto& [name, cfg] : t.configs) {
      if (name != "accuracy") continue;
      InferenceConfig gate = cfg;
      gate.nap = nai::core::NapKind::kGate;
      configs.emplace_back("gate", gate);
    }
  }
  for (const auto& [name, cfg] : configs) {
    nai::core::InferenceStats sum;
    double wall = 0.0;
    std::int64_t nodes = 0;
    double depth_sum = 0.0;
    for (const auto& batch : batches) {
      nai::core::InferenceResult r;
      {
        Tracer::Scope scope(GlobalTracer(), "core.NaiEngine.Infer");
        r = engine.Infer(batch, cfg);
      }
      sum.Accumulate(r.stats);
      wall += r.stats.wall_time_ms;
      nodes += static_cast<std::int64_t>(batch.size());
      for (const std::int32_t d : r.exit_depths) depth_sum += d;
    }
    const std::string s = "." + name;
    out.Set("core.sample_ms" + s, sum.sample_time_ms / nb, "ms");
    out.Set("core.fp_ms" + s, sum.fp_time_ms / nb, "ms");
    out.Set("core.stationary_ms" + s, sum.stationary_time_ms / nb, "ms");
    out.Set("core.classify_ms" + s, sum.classify_time_ms / nb, "ms");
    out.Set("core.unattributed_ms" + s, (wall - sum.total_time_ms()) / nb, "ms");
    out.Set("core.prop_macs_per_node" + s,
            static_cast<double>(sum.propagation_macs) / static_cast<double>(nodes),
            "MAC");
    out.Set("core.mean_exit_depth" + s, depth_sum / static_cast<double>(nodes),
            "hops");
  }

  // --- storage open: a MemStore build of the same graph, unless set-up
  // already timed the real open. ------------------------------------------
  double open_ms = t.store_open_ms;
  if (open_ms < 0.0) {
    nai::graph::Graph graph = snap->graph();
    nai::tensor::Matrix features = snap->features();
    open_ms = TimedMs("storage.MakeSnapshot", [&] {
      (void)nai::graph::MakeSnapshot(std::move(graph), std::move(features),
                                     snap->gamma);
    });
  }
  out.Set("storage.open_ms", open_ms, "ms");

  // --- graph snapshot build and core swap: three chained deltas. ----------
  const std::vector<nai::graph::GraphDelta> deltas = MakeDeltaStream(
      snap->num_nodes(), dim, 3, 4, 16, 8, SubSeed(t.seed, 0xde17a));
  std::vector<double> build_ms;
  double rows = 0.0;
  std::shared_ptr<const nai::graph::GraphSnapshot> next = snap;
  for (const auto& delta : deltas) {
    nai::graph::SnapshotBuilder builder(next);
    build_ms.push_back(TimedMs("graph.SnapshotBuilder.Apply",
                               [&] { next = builder.Apply(delta); }));
    rows += static_cast<double>(builder.last_stats().norm_rows_recomputed);
  }
  out.Set("graph.snapshot_build_ms", Quantile(build_ms, 0.5), "ms");
  out.Set("graph.rows_recomputed", rows / static_cast<double>(deltas.size()),
          "count");
  out.Set("core.swap_ms",
          TimedMs("core.ShardedNaiEngine.SwapSnapshot",
                  [&] { t.engine->SwapSnapshot(next); }),
          "ms");
  GlobalTracer().set_enabled(false);
}

}  // namespace napbench
