// serve-mixed and serve-hot-churn: a 131,072-node graph::GenerateScaled
// graph copied into memory (MemStore), the untrained classifier bank and
// default policy table of scaled.h, 2 shards, 2 engine threads, 2
// closed-loop clients, 40/40/20 speed/accuracy/throughput mix.
//
//   serve-mixed     every node in a seeded order, result cache off.
//   serve-hot-churn Zipf(1.0) draws over a seeded node ranking, result cache
//                   on, one graph delta applied through ApplyDeltas after
//                   every kChurnEvery requests.

#include <algorithm>

#include "bench.h"
#include "probes.h"
#include "scaled.h"
#include "serving_loop.h"
#include "src/graph/shard.h"
#include "src/serve/serving_engine.h"

namespace napbench {

namespace {

using nai::serve::QosClass;

constexpr std::int64_t kNodes = std::int64_t{1} << 17;
constexpr int kClients = 2;
constexpr int kShards = 2;
constexpr int kEngineThreads = 2;
constexpr double kChurnZipfAlpha = 1.0;
constexpr std::int64_t kChurnEvery = 2000;   // requests per delta
constexpr std::size_t kMaxDeltas = 400;      // outlasts a 60 s run
constexpr std::size_t kDeltaNewNodes = 4;
constexpr std::size_t kDeltaNewEdges = 16;
constexpr std::size_t kDeltaFeatureUpdates = 8;
constexpr std::int32_t kWarmupNodes = 64;

WorkloadResult RunServing(const RunOptions& opt, bool churn) {
  WorkloadResult out;
  std::shared_ptr<nai::storage::MemStore> mem;
  {
    const auto mapped =
        GenerateScaledStore(opt, kNodes, SubSeed(opt.seed, churn ? 0x5c : 0x5d), false);
    mem = CopyToMemory(*mapped);
  }
  const std::shared_ptr<const nai::graph::GraphSnapshot> base =
      nai::graph::MakeSnapshotFromStore(mem, mem);
  ScaledModel model = MakeScaledModel(mem->gamma());
  const nai::serve::QosPolicyTable& table = model.table;
  nai::core::ShardedNaiEngine engine(
      base, nai::graph::MakeShards(base->adj(), kShards, kScaledDepth),
      *model.classifiers, nullptr, true, kEngineThreads);
  engine.AttachQuantizedClassifiers(model.quantized.get());
  // Warm-up, the same for every seed: single-node engine calls under each
  // class, so allocator and page state settle before the timed phase.
  for (std::int32_t v = 0; v < kWarmupNodes; ++v) {
    for (int c = 0; c < 3; ++c) {
      (void)engine.Infer({v}, table.For(static_cast<QosClass>(c)).config);
    }
  }
  nai::serve::ServingOptions options;
  options.cache.enabled = churn;
  nai::serve::ServingEngine server(engine, table, options);

  // The offered load.
  std::vector<std::int32_t> order(static_cast<std::size_t>(kNodes));
  for (std::int64_t v = 0; v < kNodes; ++v) {
    order[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(v);
  }
  SplitMix order_rng(SubSeed(opt.seed, churn ? 0xc4u : 0x3au));
  Shuffle(order, order_rng);
  const ZipfSampler zipf(order.size(), kChurnZipfAlpha);
  const std::uint64_t plan_seed = SubSeed(opt.seed, churn ? 0x9cu : 0x91u);
  RequestPlan plan = [&](std::int64_t i) {
    SplitMix r(SubSeed(plan_seed, static_cast<std::uint64_t>(i)));
    PlannedRequest p;
    p.node = churn ? order[zipf.Draw(r)]
                   : order[static_cast<std::size_t>(i) % order.size()];
    p.qos = DrawMixClass(r);
    return p;
  };
  std::vector<nai::graph::GraphDelta> deltas;
  DeltaSchedule schedule;
  if (churn) {
    deltas = MakeDeltaStream(base->num_nodes(), base->feature_dim(), kMaxDeltas,
                             kDeltaNewNodes, kDeltaNewEdges,
                             kDeltaFeatureUpdates, SubSeed(opt.seed, 0xde1));
    schedule.deltas = &deltas;
    schedule.every = kChurnEvery;
  }
  const double setup_s = SecondsSince(opt.process_start);

  // --- Timed phase. --------------------------------------------------------
  const FaultCounts faults0 = ReadFaults();
  const LoopOutcome loop = RunClosedLoop(server, plan, kClients, opt.seconds,
                                         opt.trace, churn ? &schedule : nullptr);
  const FaultCounts faults1 = ReadFaults();
  const double peak_rss = PeakRssMb();
  const nai::serve::ServingStatsSnapshot stats = server.Stats();
  server.Shutdown();
  out.attempted = loop.sent;

  // --- Checks. -------------------------------------------------------------
  std::size_t applied = 0;
  while (applied < schedule.future_ms.size() && schedule.future_ms[applied] >= 0) {
    ++applied;
  }
  if (churn) {
    const auto want = static_cast<std::size_t>(
        std::min<std::int64_t>(loop.sent / kChurnEvery,
                               static_cast<std::int64_t>(kMaxDeltas)));
    if (applied != want) {
      out.Fail("applied " + std::to_string(applied) + " deltas, expected " +
               std::to_string(want));
    }
    for (std::size_t k = 0; k < applied; ++k) {
      if (schedule.reports[k].version != base->version + k + 1) {
        out.Fail("delta " + std::to_string(k) + " produced version " +
                 std::to_string(schedule.reports[k].version));
        break;
      }
    }
  }
  std::map<std::uint64_t, std::vector<const ResponseRecord*>> by_epoch;
  for (const ResponseRecord& r : loop.records) by_epoch[r.epoch].push_back(&r);
  ExpectedMap expected;
  // Epoch e is base + deltas 0..e-1, rebuilt from scratch one delta at a
  // time (graph::MergeFromScratch), served by a fresh unsharded engine.
  std::shared_ptr<const nai::graph::GraphSnapshot> merged = base;
  for (std::uint64_t e = base->version; e <= base->version + applied; ++e) {
    if (e > base->version) {
      merged = nai::graph::MergeFromScratch(
          *merged, {deltas[static_cast<std::size_t>(e - base->version - 1)]});
    }
    const auto it = by_epoch.find(e);
    if (it == by_epoch.end()) continue;
    nai::core::EngineOptions eo;
    eo.quantized = model.quantized.get();
    nai::core::NaiEngine reference =
        nai::core::NaiEngine::FromSnapshot(merged, *model.classifiers, eo);
    AddExpected(reference, table, e, it->second, expected);
  }
  for (const std::string& p : CheckResponses(loop.records, loop.sent, expected)) {
    out.Fail(p);
  }
  SelfTestServingChecks(loop.records, expected, out);

  // --- Metrics. ------------------------------------------------------------
  if (!opt.trace) {
    out.Set("setup_s", setup_s, "s");
    out.Set("peak_rss_mb", peak_rss, "MB");
    const nai::storage::ResidencyInfo res =
        [&] {
          auto pinned = engine.PinState()->snapshot;
          nai::storage::ResidencyInfo r = pinned->graph_store->AdjacencyResidency();
          r += pinned->feature_store->FeatureResidency();
          return r;
        }();
    out.Set("store_resident_mb", static_cast<double>(res.resident_bytes) / 1048576.0,
            "MB");
    ServingMetrics(loop, stats, false, out);
    return out;
  }
  ServingMetrics(loop, stats, true, out);
  std::vector<double> apply_ms(schedule.future_ms.begin(),
                               schedule.future_ms.begin() +
                                   static_cast<std::ptrdiff_t>(applied));
  out.Set("serve.update_apply_ms", Quantile(apply_ms, 0.5), "ms");
  out.Set("storage.major_faults", static_cast<double>(faults1.major - faults0.major),
          "count");
  out.Set("storage.minor_faults", static_cast<double>(faults1.minor - faults0.minor),
          "count");
  ProbeTarget probe;
  probe.snapshot = engine.PinState()->snapshot;
  probe.engine = &engine;
  probe.classifiers = model.classifiers.get();
  probe.quantized = model.quantized.get();
  probe.configs = ProbeConfigs(table);
  probe.pool.assign(order.begin(), order.begin() + 65536);
  probe.batch_size = 8;
  probe.num_batches = 64;
  probe.seed = opt.seed;
  RunLayerProbes(probe, out);
  return out;
}

}  // namespace

WorkloadResult RunServeMixed(const RunOptions& opt) { return RunServing(opt, false); }
WorkloadResult RunServeHotChurn(const RunOptions& opt) { return RunServing(opt, true); }

}  // namespace napbench
