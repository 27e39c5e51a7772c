#include "serving_loop.h"

#include <algorithm>
#include <cstdio>
#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

namespace napbench {

namespace {

using nai::serve::QosClass;

constexpr const char* kClassNames[] = {"speed", "accuracy", "throughput"};

}  // namespace

LoopOutcome RunClosedLoop(nai::serve::ServingEngine& server,
                          const RequestPlan& plan, int clients, double seconds,
                          bool trace, DeltaSchedule* schedule) {
  Tracer& tracer = GlobalTracer();
  std::atomic<std::int64_t> next{0};
  std::atomic<int> running{clients};
  std::vector<std::vector<ResponseRecord>> per_client(
      static_cast<std::size_t>(clients));
  std::vector<std::string> errors(static_cast<std::size_t>(clients));

  // Deltas chain, so they are applied strictly in order.
  std::mutex apply_mu;
  std::condition_variable apply_cv;
  std::size_t applied = 0;  // guarded by apply_mu
  if (schedule != nullptr) {
    schedule->future_ms.assign(schedule->deltas->size(), -1.0);
    schedule->reports.assign(schedule->deltas->size(), {});
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  auto client = [&](std::size_t c) {
    try {
      while (Clock::now() < deadline) {
        const std::int64_t i = next.fetch_add(1);
        const PlannedRequest p = plan(i);
        ResponseRecord rec;
        rec.index = i;
        rec.node = p.node;
        rec.qos = p.qos;
        rec.traced = tracer.enabled();
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Scope request(tracer, "serve.request", 0, i);
          std::future<nai::serve::Response> future;
          {
            Tracer::Scope submit(tracer, "serve.Submit", request.id(), i);
            future = server.Submit(p.node, p.qos);
          }
          const Clock::time_point t1 = Clock::now();
          rec.submit_us = MsBetween(t0, t1) * 1000.0;
          rec.hit = future.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready;
          Tracer::Scope wait(tracer, "serve.wait", request.id(), i);
          const nai::serve::Response r = future.get();
          rec.received = true;
          rec.served = r.served;
          rec.hit = rec.hit && r.queue_ms == 0.0;
          rec.prediction = r.prediction;
          rec.exit_depth = r.exit_depth;
          rec.epoch = r.epoch;
          rec.queue_ms = r.queue_ms;
          rec.server_latency_ms = r.latency_ms;
        }
        rec.latency_ms = MsBetween(t0, Clock::now());
        per_client[c].push_back(rec);

        if (schedule != nullptr && (i + 1) % schedule->every == 0) {
          const auto d = static_cast<std::size_t>((i + 1) / schedule->every - 1);
          if (d >= schedule->deltas->size()) continue;
          std::unique_lock<std::mutex> lock(apply_mu);
          apply_cv.wait(lock, [&] { return applied == d; });
          Tracer::Scope span(tracer, "serve.ApplyDeltas", 0, i);
          const Clock::time_point a0 = Clock::now();
          schedule->reports[d] =
              server.ApplyDeltas((*schedule->deltas)[d]).get();
          schedule->future_ms[d] = MsBetween(a0, Clock::now());
          ++applied;
          apply_cv.notify_all();
        }
      }
    } catch (const std::exception& e) {
      errors[c] = e.what();
      // Unblock any client waiting for a delta this one would have applied.
      std::lock_guard<std::mutex> lock(apply_mu);
      applied = schedule != nullptr ? schedule->deltas->size() : 0;
      apply_cv.notify_all();
    }
    running.fetch_sub(1);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(client, static_cast<std::size_t>(c));
  }

  // Traced runs alternate 250 ms slices with the tracer off and on.
  LoopOutcome out;
  if (trace) {
    bool on = false;
    Clock::time_point slice_start = start;
    while (running.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const Clock::time_point now = Clock::now();
      if (MsBetween(slice_start, now) < 250.0 && running.load() > 0) continue;
      (on ? out.traced_s : out.untraced_s) += MsBetween(slice_start, now) / 1000.0;
      on = !on;
      tracer.set_enabled(on);
      slice_start = now;
    }
    tracer.set_enabled(false);
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = SecondsSince(start);
  out.sent = next.load();

  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("closed-loop client failed: " + e);
  }
  for (auto& recs : per_client) {
    for (const ResponseRecord& r : recs) {
      (r.traced ? out.traced_done : out.untraced_done) += 1;
      out.records.push_back(r);
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const ResponseRecord& a, const ResponseRecord& b) {
              return a.index < b.index;
            });
  return out;
}

void AddExpected(nai::core::NaiEngine& engine,
                 const nai::serve::QosPolicyTable& table, std::uint64_t epoch,
                 const std::vector<const ResponseRecord*>& records,
                 ExpectedMap& expected) {
  for (int c = 0; c < 3; ++c) {
    std::set<std::int32_t> distinct;
    for (const ResponseRecord* r : records) {
      if (static_cast<int>(r->qos) == c) distinct.insert(r->node);
    }
    if (distinct.empty()) continue;
    const std::vector<std::int32_t> nodes(distinct.begin(), distinct.end());
    const nai::core::InferenceResult res =
        engine.Infer(nodes, table.For(static_cast<QosClass>(c)).config);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      expected[{epoch, c, nodes[i]}] = {res.predictions[i], res.exit_depths[i]};
    }
  }
}

std::vector<std::string> CheckResponses(const std::vector<ResponseRecord>& records,
                                        std::int64_t requests_sent,
                                        const ExpectedMap& expected) {
  std::vector<std::string> problems;
  std::int64_t bad = 0;
  auto note = [&](const std::string& what) {
    if (++bad <= 5) problems.push_back(what);
  };
  if (static_cast<std::int64_t>(records.size()) != requests_sent) {
    note("responses " + std::to_string(records.size()) + " != requests sent " +
         std::to_string(requests_sent));
  }
  for (std::size_t t = 0; t < records.size(); ++t) {
    const ResponseRecord& r = records[t];
    const std::string at = "request " + std::to_string(r.index) + " (node " +
                           std::to_string(r.node) + ", " +
                           kClassNames[static_cast<int>(r.qos)] + ", epoch " +
                           std::to_string(r.epoch) + ")";
    if (r.index != static_cast<std::int64_t>(t)) {
      note("request numbers not contiguous at " + at);
      continue;
    }
    if (!r.received || !r.served) {
      note(at + " was shed or dropped");
      continue;
    }
    const auto it = expected.find({r.epoch, static_cast<int>(r.qos), r.node});
    if (it == expected.end()) {
      note(at + " has no reference answer (epoch never served)");
      continue;
    }
    if (it->second.prediction != r.prediction ||
        it->second.exit_depth != r.exit_depth) {
      note(at + ": got prediction " + std::to_string(r.prediction) + " depth " +
           std::to_string(r.exit_depth) + ", reference " +
           std::to_string(it->second.prediction) + " depth " +
           std::to_string(it->second.exit_depth));
    }
  }
  if (bad > 5) problems.push_back("... " + std::to_string(bad) + " failures in all");
  return problems;
}

void SelfTestServingChecks(const std::vector<ResponseRecord>& records,
                           const ExpectedMap& expected, WorkloadResult& out) {
  if (records.empty()) {
    out.Fail("self-test: no responses to corrupt");
    return;
  }
  const auto sent = static_cast<std::int64_t>(records.size());
  const std::size_t victim = records.size() / 2;
  std::uint64_t max_epoch = 0;
  for (const auto& [key, value] : expected) {
    max_epoch = std::max(max_epoch, std::get<0>(key));
  }
  struct Case {
    const char* name;
    std::function<void(std::vector<ResponseRecord>&)> corrupt;
  };
  const Case cases[] = {
      {"prediction", [&](auto& r) { r[victim].prediction += 1; }},
      {"exit depth", [&](auto& r) { r[victim].exit_depth += 1; }},
      {"epoch tag", [&](auto& r) { r[victim].epoch = max_epoch + 1; }},
      {"dropped response",
       [&](auto& r) { r.erase(r.begin() + static_cast<std::ptrdiff_t>(victim)); }},
  };
  int caught = 0;
  for (const Case& c : cases) {
    std::vector<ResponseRecord> copy = records;
    c.corrupt(copy);
    if (CheckResponses(copy, sent, expected).empty()) {
      out.Fail(std::string("self-test: a corrupted ") + c.name +
               " passed the serving check");
    } else {
      ++caught;
    }
  }
  std::fprintf(stderr, "self-test: %d of 4 corruptions caught by the serving check\n",
               caught);
}

void ServingMetrics(const LoopOutcome& loop,
                    const nai::serve::ServingStatsSnapshot& stats,
                    bool per_layer, WorkloadResult& out) {
  std::vector<double> latency[3], queue[3], service[3], submit_us;
  std::int64_t hits = 0;
  for (const ResponseRecord& r : loop.records) {
    submit_us.push_back(r.submit_us);
    if (r.hit) {
      ++hits;
      continue;
    }
    const auto c = static_cast<std::size_t>(r.qos);
    latency[c].push_back(r.latency_ms);
    queue[c].push_back(r.queue_ms);
    service[c].push_back(r.server_latency_ms - r.queue_ms);
  }
  const double n = static_cast<double>(loop.records.size());
  if (!per_layer) {
    out.Set("nodes_per_s", n / loop.elapsed_s, "nodes/s");
    out.Set("accuracy_p50_ms", Quantile(latency[1], 0.5), "ms");
    out.Set("speed_p50_ms", Quantile(latency[0], 0.5), "ms");
    return;
  }
  out.Set("serve.latency_ms_p50.speed", Quantile(latency[0], 0.5), "ms");
  out.Set("serve.latency_ms_p50.throughput", Quantile(latency[2], 0.5), "ms");
  for (std::size_t c = 0; c < 3; ++c) {
    out.Set(std::string("serve.queue_ms_p50.") + kClassNames[c],
            Quantile(queue[c], 0.5), "ms");
    out.Set(std::string("serve.service_ms_p50.") + kClassNames[c],
            Quantile(service[c], 0.5), "ms");
  }
  out.Set("serve.mean_batch_size", stats.mean_batch_size, "count");
  out.Set("serve.stolen_requests", static_cast<double>(stats.stolen_requests),
          "count");
  out.Set("serve.engine_busy_ms", stats.engine_stats.wall_time_ms, "ms");
  out.Set("serve.cache_hit_ratio", n > 0 ? static_cast<double>(hits) / n : 0.0,
          "ratio");
  out.Set("serve.submit_us_p50", Quantile(submit_us, 0.5), "us");
  const double traced = loop.traced_s > 0 ? loop.traced_done / loop.traced_s : 0;
  const double untraced =
      loop.untraced_s > 0 ? loop.untraced_done / loop.untraced_s : 0;
  out.Set("trace.overhead_pct",
          untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0, "%");
}

}  // namespace napbench
