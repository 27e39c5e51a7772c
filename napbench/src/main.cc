// napbench: the repository benchmark.
//
//   napbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Sets up one workload (data, training, engine and server build), drives it
// for S seconds, checks every output against references computed apart
// from the engine, and prints one JSON line last:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics and write a Chrome trace-event file to DIR.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/runtime/thread_pool.h"

namespace {

using napbench::Metric;
using napbench::RunOptions;
using napbench::WorkloadResult;

const char* const kEndToEnd[] = {
    "setup_s",      "peak_rss_mb",     "nodes_per_s",
    "speed_p50_ms", "accuracy_p50_ms", "store_resident_mb",
};

/// Every per-layer metric, in print order, with its unit. A workload that
/// does not exercise a layer reports 0 for it.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"graph.sample_ms_per_batch", "ms"},
      {"graph.support_nodes_per_batch", "count"},
      {"graph.spmm_hop_ms", "ms"},
      {"graph.snapshot_build_ms", "ms"},
      {"graph.rows_recomputed", "count"},
  };
  for (const char* cfg : {"speed", "accuracy", "gate", "throughput"}) {
    const std::string s = std::string(".") + cfg;
    for (const char* stage : {"sample", "fp", "stationary", "classify", "unattributed"}) {
      m.push_back({std::string("core.") + stage + "_ms" + s, "ms"});
    }
    m.push_back({"core.prop_macs_per_node" + s, "MAC"});
    m.push_back({"core.mean_exit_depth" + s, "hops"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"core.nap_ms_per_batch", "ms"},
      {"core.gate_ms_per_batch", "ms"},
      {"core.swap_ms", "ms"},
      {"nn.head_float_ms_per_batch", "ms"},
      {"nn.head_int8_ms_per_batch", "ms"},
      {"storage.gather_ms_per_batch", "ms"},
      {"storage.major_faults", "count"},
      {"storage.minor_faults", "count"},
      {"storage.open_ms", "ms"},
      {"serve.latency_ms_p50.speed", "ms"},
      {"serve.latency_ms_p50.throughput", "ms"},
      {"serve.queue_ms_p50.speed", "ms"},
      {"serve.queue_ms_p50.accuracy", "ms"},
      {"serve.queue_ms_p50.throughput", "ms"},
      {"serve.service_ms_p50.speed", "ms"},
      {"serve.service_ms_p50.accuracy", "ms"},
      {"serve.service_ms_p50.throughput", "ms"},
      {"serve.mean_batch_size", "count"},
      {"serve.stolen_requests", "count"},
      {"serve.engine_busy_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.submit_us_p50", "us"},
      {"serve.update_apply_ms", "ms"},
      {"offline.speed_nodes_per_s", "nodes/s"},
      {"offline.accuracy_nodes_per_s", "nodes/s"},
      {"offline.gate_nodes_per_s", "nodes/s"},
      {"offline.int8_nodes_per_s", "nodes/s"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "napbench: %s\nusage: napbench --workload "
               "offline-products|serve-mixed|serve-hot-churn|outofcore-1m "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      opt.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.process_start = napbench::Clock::now();
  if (!ParseArgs(argc, argv, opt)) return Usage("bad arguments");

  // The benchmark fixes its own environment: mem store unless the workload
  // maps one itself, and 2 engine threads.
  ::unsetenv("NAI_STORE");
  ::unsetenv("NAI_THREADS");
  nai::runtime::ThreadPool::SetDefaultThreads(2);

  WorkloadResult result;
  try {
    if (opt.workload == "offline-products") {
      result = napbench::RunOfflineProducts(opt);
    } else if (opt.workload == "serve-mixed") {
      result = napbench::RunServeMixed(opt);
    } else if (opt.workload == "serve-hot-churn") {
      result = napbench::RunServeHotChurn(opt);
    } else if (opt.workload == "outofcore-1m") {
      result = napbench::RunOutOfCore(opt);
    } else {
      return Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "napbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }

  std::vector<std::pair<std::string, Metric>> metrics;
  if (opt.trace) {
    napbench::Tracer& tracer = napbench::GlobalTracer();
    result.Set("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::string path = opt.out_dir + "/napbench-trace-" + opt.workload +
                             "-" + std::to_string(opt.seed) + ".json";
    if (tracer.WriteChromeTrace(path)) {
      std::fprintf(stderr, "trace: %zu spans written to %s\n", tracer.size(), path.c_str());
    } else {
      std::fprintf(stderr, "napbench: cannot write trace file %s\n", path.c_str());
      return 1;
    }
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const auto it = result.metrics.find(name);
      metrics.push_back({name, it != result.metrics.end() ? it->second : Metric{0.0, unit}});
    }
  } else {
    for (const char* name : kEndToEnd) {
      const auto it = result.metrics.find(name);
      if (it == result.metrics.end()) {
        std::fprintf(stderr, "napbench: workload did not report %s\n", name);
        return 1;
      }
      metrics.push_back({name, it->second});
    }
  }

  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second.value,
                metrics[i].second.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
