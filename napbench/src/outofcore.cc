// outofcore-1m: a 1,048,576-node graph::GenerateScaled store served from a
// memory-mapped file. The file's own page cache is dropped before the
// timed phase, so the run faults in exactly the pages its traffic touches.
// One identity shard (2 engine threads), a fixed-seed untrained classifier
// bank, the result cache on, and 4 closed-loop clients drawing Zipf(0.9)
// over a seeded node ranking with the 40/40/20 class mix.

#include "bench.h"
#include "probes.h"
#include "scaled.h"
#include "serving_loop.h"
#include "src/graph/shard.h"
#include "src/serve/serving_engine.h"

namespace napbench {

namespace {

constexpr std::int64_t kNodes = std::int64_t{1} << 20;
constexpr int kClients = 4;
constexpr int kEngineThreads = 2;
constexpr double kZipfAlpha = 0.9;

}  // namespace

WorkloadResult RunOutOfCore(const RunOptions& opt) {
  WorkloadResult out;
  double open_ms = 0.0;
  const std::shared_ptr<nai::storage::MmapStore> store = GenerateScaledStore(
      opt, kNodes, SubSeed(opt.seed, 0x1a), /*drop_page_cache=*/true, &open_ms);
  store->Advise(nai::storage::AccessHint::kRandom);
  const auto snapshot = nai::graph::MakeSnapshotFromStore(store, store);

  ScaledModel model = MakeScaledModel(store->gamma());
  nai::core::ClassifierStack& classifiers = *model.classifiers;
  nai::core::QuantizedClassifierStack& quantized = *model.quantized;
  nai::core::ShardedNaiEngine engine(snapshot,
                                     nai::graph::IdentityShards(kNodes, kScaledDepth),
                                     classifiers, nullptr, true, kEngineThreads);
  engine.AttachQuantizedClassifiers(&quantized);
  const nai::serve::QosPolicyTable& table = model.table;
  nai::serve::ServingOptions options;
  options.queue_capacity = 8192;
  nai::serve::ServingEngine server(engine, table, options);

  std::vector<std::int32_t> ranking(static_cast<std::size_t>(kNodes));
  for (std::int64_t v = 0; v < kNodes; ++v) {
    ranking[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(v);
  }
  SplitMix rank_rng(SubSeed(opt.seed, 0x2b));
  Shuffle(ranking, rank_rng);
  const ZipfSampler zipf(ranking.size(), kZipfAlpha);
  const std::uint64_t plan_seed = SubSeed(opt.seed, 0x3c);
  RequestPlan plan = [&](std::int64_t i) {
    SplitMix r(SubSeed(plan_seed, static_cast<std::uint64_t>(i)));
    PlannedRequest p;
    p.node = ranking[zipf.Draw(r)];
    p.qos = DrawMixClass(r);
    return p;
  };
  const double setup_s = SecondsSince(opt.process_start);

  // --- Timed phase. --------------------------------------------------------
  const FaultCounts faults0 = ReadFaults();
  const LoopOutcome loop =
      RunClosedLoop(server, plan, kClients, opt.seconds, opt.trace);
  const FaultCounts faults1 = ReadFaults();
  const double peak_rss = PeakRssMb();
  nai::storage::ResidencyInfo res = store->AdjacencyResidency();
  res += store->FeatureResidency();
  const nai::serve::ServingStatsSnapshot stats = server.Stats();
  server.Shutdown();
  out.attempted = loop.sent;

  // --- Checks: every distinct served node against a MemStore copy. --------
  if (res.resident_bytes > res.mapped_bytes) {
    out.Fail("resident store bytes " + std::to_string(res.resident_bytes) +
             " exceed mapped bytes " + std::to_string(res.mapped_bytes));
  }
  {
    const auto mem = CopyToMemory(*store);
    nai::core::EngineOptions eo;
    eo.quantized = &quantized;
    nai::core::NaiEngine reference = nai::core::NaiEngine::FromSnapshot(
        nai::graph::MakeSnapshotFromStore(mem, mem), classifiers, eo);
    std::vector<const ResponseRecord*> all;
    for (const ResponseRecord& r : loop.records) all.push_back(&r);
    ExpectedMap expected;
    AddExpected(reference, table, snapshot->version, all, expected);
    for (const std::string& p : CheckResponses(loop.records, loop.sent, expected)) {
      out.Fail(p);
    }
    SelfTestServingChecks(loop.records, expected, out);
  }

  // --- Metrics. ------------------------------------------------------------
  if (!opt.trace) {
    out.Set("setup_s", setup_s, "s");
    out.Set("peak_rss_mb", peak_rss, "MB");
    out.Set("store_resident_mb", static_cast<double>(res.resident_bytes) / 1048576.0,
            "MB");
    ServingMetrics(loop, stats, false, out);
    return out;
  }
  ServingMetrics(loop, stats, true, out);
  out.Set("storage.major_faults", static_cast<double>(faults1.major - faults0.major),
          "count");
  out.Set("storage.minor_faults", static_cast<double>(faults1.minor - faults0.minor),
          "count");
  ProbeTarget probe;
  probe.snapshot = snapshot;
  probe.engine = &engine;
  probe.classifiers = &classifiers;
  probe.quantized = &quantized;
  probe.configs = ProbeConfigs(table);
  probe.pool.assign(ranking.begin(), ranking.begin() + 65536);
  probe.batch_size = 8;
  probe.num_batches = 64;
  probe.seed = opt.seed;
  probe.store_open_ms = open_ms;
  RunLayerProbes(probe, out);
  return out;
}

}  // namespace napbench
