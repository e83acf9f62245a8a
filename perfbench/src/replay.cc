// feed-replay and news-replay: the workload's whole request log replayed in
// process by ShardedRuntime::Run, repeated from a fresh set-up until the run
// length is used up. Every repetition of one seed must produce identical
// engine counters and traffic (the epoch drain makes them deterministic).
#include <algorithm>
#include <cstdio>
#include <tuple>

#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

struct Rep {
  SetupTimes times;
  double run_s = 0;
  rt::RuntimeResult result;
  std::vector<double> epoch_ms;  // wall time of each epoch of the Run
  std::size_t log_size = 0;
  std::uint64_t initial_replicas = 0;
  std::uint32_t views = 0;
  std::unique_ptr<Setup> setup;  // kept only when the oracle needs it
};

auto Fields(const core::EngineCounters& c) {
  return std::tie(c.reads, c.writes, c.view_reads, c.replica_updates,
                  c.replicas_created, c.replicas_dropped,
                  c.evictions_watermark, c.drops_negative, c.migrations,
                  c.read_proxy_migrations, c.write_proxy_migrations,
                  c.crash_rebuilds);
}

Rep RunRep(const WorkloadSpec& spec, std::uint64_t seed, Tracer* tracer,
           bool keep_setup) {
  Rep rep;
  rep.setup = BuildSetup(spec, seed, tracer);
  rep.times = rep.setup->times;
  rep.log_size = rep.setup->log.requests.size();
  rep.initial_replicas = rep.setup->placement.TotalReplicas();
  rep.views = rep.setup->graph.num_users();
  rt::ShardedRuntime& runtime = *rep.setup->runtime;

  std::vector<std::uint64_t> marks;
  {
    ScopedSpan run_span(tracer, "runtime.run");
    marks.push_back(NowNs());
    runtime.SetEpochHook([&](SimTime, std::uint64_t) {
      const std::uint64_t now = NowNs();
      if (tracer != nullptr) tracer->Add("runtime.epoch", marks.back(), now);
      marks.push_back(now);
    });
    rep.result = runtime.Run(rep.setup->log);
    rep.run_s = SecondsSince(marks.front());
  }
  for (std::size_t i = 1; i < marks.size(); ++i) {
    rep.epoch_ms.push_back(static_cast<double>(marks[i] - marks[i - 1]) / 1e6);
  }
  runtime.SetEpochHook({});
  if (!keep_setup) rep.setup.reset();
  return rep;
}

// Gates on one repetition, and on its agreement with the first one.
void CheckRep(const Rep& rep, const Rep& first, Outcome& out) {
  const rt::RuntimeResult& r = rep.result;
  out.Gate(rep.log_size > 0 && r.expected_requests == rep.log_size &&
               r.totals.requests == r.expected_requests,
           "replay: totals.requests == expected_requests");
  out.Gate(r.e2e_latency.count() == r.totals.requests,
           "replay: e2e_latency.count() == totals.requests");
  out.Gate(Fields(r.counters) == Fields(first.result.counters),
           "replay: identical EngineCounters across repetitions");
  out.Gate(r.traffic_app == first.result.traffic_app &&
               r.traffic_sys == first.result.traffic_sys,
           "replay: identical traffic across repetitions");
}

// The sequential engine over the same inputs: the oracle whose per-call
// times are the engine layer's cost. Mirrors sim::Simulator::Run.
struct OracleTimes {
  double read_s = 0;
  double write_s = 0;
  double tick_s = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ticks = 0;
};

OracleTimes RunOracle(const Setup& s, Tracer* tracer) {
  ScopedSpan oracle_span(tracer, "engine.oracle");
  std::uint64_t t0 = NowNs();
  core::Engine engine(*s.topo, s.placement, s.engine);
  if (s.persist != nullptr) engine.AttachPersistentStore(s.persist.get());
  if (tracer != nullptr) tracer->Add("engine.construct", t0, NowNs());

  OracleTimes o;
  const SimTime slot = engine.config().slot_seconds;
  SimTime next_tick = slot;
  std::uint64_t chunk_start = NowNs();
  const auto tick = [&](SimTime t) {
    const std::uint64_t a = NowNs();
    if (tracer != nullptr) tracer->Add("engine.requests", chunk_start, a);
    engine.Tick(t);
    const std::uint64_t b = NowNs();
    if (tracer != nullptr) tracer->Add("engine.tick", a, b);
    o.tick_s += static_cast<double>(b - a) / 1e9;
    ++o.ticks;
    chunk_start = NowNs();
  };
  for (const Request& request : s.log.requests) {
    while (request.time >= next_tick) {
      tick(next_tick);
      next_tick += slot;
    }
    const std::uint64_t a = NowNs();
    if (request.op == OpType::kWrite) {
      engine.ExecuteWrite(request.user, request.time);
      o.write_s += static_cast<double>(NowNs() - a) / 1e9;
      ++o.writes;
    } else {
      engine.ExecuteRead(request.user, s.graph.Followees(request.user),
                         request.time);
      o.read_s += static_cast<double>(NowNs() - a) / 1e9;
      ++o.reads;
    }
  }
  while (next_tick <= s.log.duration) {
    tick(next_tick);
    next_tick += slot;
  }
  if (tracer != nullptr) tracer->Add("engine.requests", chunk_start, NowNs());
  return o;
}

void AddLayerMetrics(const Rep& rep, const OracleTimes& o, Outcome& out) {
  const rt::RuntimeResult& r = rep.result;
  const core::EngineCounters& c = r.counters;
  const std::uint64_t req = r.totals.requests;
  const double oracle_s = o.read_s + o.write_s + o.tick_s;
  out.Add("engine.read_us", o.reads ? o.read_s * 1e6 / o.reads : 0, "us");
  out.Add("engine.write_us", o.writes ? o.write_s * 1e6 / o.writes : 0, "us");
  out.Add("engine.tick_ms", o.ticks ? o.tick_s * 1e3 / o.ticks : 0, "ms");
  out.Add("engine.tick_share", oracle_s > 0 ? o.tick_s / oracle_s : 0,
          "ratio");
  AddEngineCounters(c, req, out);
  out.Add("runtime.repl_applies_per_write",
          PerReq(r.totals.remote_write_applies, r.totals.writes), "count");
  out.Add("graph.gen_s", rep.times.graph_s, "s");
  out.Add("workload.gen_s", rep.times.log_s, "s");
  out.Add("placement.s", rep.times.placement_s, "s");
  out.Add("runtime.construct_s", rep.times.construct_s, "s");
  out.Add("runtime.run_s", rep.run_s, "s");
  out.Add("runtime.msgs_per_req", PerReq(r.totals.messages_sent, req),
          "count");
  out.Add("runtime.remote_slices_per_read",
          PerReq(r.totals.remote_read_slices, r.totals.reads), "count");
  out.Add("runtime.queue_backlog_mean",
          PerReq(r.totals.queue_backlog_sum, r.totals.task_batches), "count");
  double max_req = 0;
  for (const rt::ShardStats& s : r.shard_stats) {
    max_req = std::max(max_req, static_cast<double>(s.requests));
  }
  const double mean_req =
      r.shard_stats.empty()
          ? 0
          : static_cast<double>(req) / static_cast<double>(r.shard_stats.size());
  out.Add("runtime.shard_imbalance", mean_req > 0 ? max_req / mean_req : 0,
          "ratio");
  out.Add("runtime.epochs", static_cast<double>(rep.epoch_ms.size()),
          "count");
  out.Add("runtime.join_p99_ms", r.e2e_percentiles.p99_us / 1e3, "ms");
  out.Add("runtime.fresh_p99_ms",
          rt::SummarizeLatency(r.remote_latency).p99_us / 1e3, "ms");
}

constexpr std::size_t kMinTimed = 3;

}  // namespace

Outcome RunReplay(const Args& args, Tracer* tracer) {
  const WorkloadSpec spec = *FindWorkload(args.workload);
  Outcome out;
  std::vector<Rep> reps;

  if (tracer == nullptr) {
    const std::uint64_t start = NowNs();
    // A warm-up repetition (gated, not timed: the first one in a process
    // runs 20-40% slow), then at least three timed ones for a median, and
    // more while the run length has room for another one.
    while (reps.size() < 1 + kMinTimed ||
           SecondsSince(start) * (1.0 + 1.0 / static_cast<double>(reps.size())) <
               args.seconds) {
      reps.push_back(RunRep(spec, args.seed, nullptr, false));
    }
  } else {
    // Warm-up and untraced repetitions as the overhead baseline, then the
    // traced one.
    for (std::size_t i = 0; i < 1 + kMinTimed; ++i) {
      reps.push_back(RunRep(spec, args.seed, nullptr, false));
    }
  }

  OracleTimes oracle;
  double traced_wall = 0;
  if (tracer != nullptr) {
    const int root = tracer->Begin("bench.replay");
    const std::uint64_t t0 = NowNs();
    reps.push_back(RunRep(spec, args.seed, tracer, true));
    traced_wall = SecondsSince(t0);
    oracle = RunOracle(*reps.back().setup, tracer);
    tracer->End(root);
  }

  for (const Rep& rep : reps) {
    CheckRep(rep, reps.front(), out);
    out.attempted += rep.result.expected_requests;
    out.failed += rep.result.expected_requests -
                  std::min(rep.result.expected_requests,
                           rep.result.totals.requests);
  }

  if (tracer != nullptr) {
    AddLayerMetrics(reps.back(), oracle, out);
    std::vector<double> walls;
    for (std::size_t i = 1; i + 1 < reps.size(); ++i) {
      walls.push_back(reps[i].times.total() + reps[i].run_s);
    }
    const double untraced = Median(walls);
    out.Add("trace.overhead_frac",
            untraced > 0 ? traced_wall / untraced - 1.0 : 0, "ratio");
    return out;
  }

  // Timings come from the timed repetitions only (reps[0] is the warm-up).
  std::vector<double> setup_s, ops_s;
  std::vector<std::vector<double>> epoch_ms;  // one window per repetition
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    setup_s.push_back(rep.times.total());
    ops_s.push_back(static_cast<double>(rep.result.totals.requests) /
                    rep.run_s);
    epoch_ms.push_back(rep.epoch_ms);
  }
  const rt::RuntimeResult& r = reps.front().result;
  const std::uint64_t req = r.totals.requests;
  const Tail p50 = WindowedPercentile(epoch_ms, 0.5);
  const Tail p99 = WindowedPercentile(epoch_ms, 0.99);
  std::printf("replay: 1 warm-up and %zu timed repetitions, %llu requests "
              "and %zu epochs each, epoch tail at quantile %.4f\n",
              epoch_ms.size(), static_cast<unsigned long long>(req),
              reps.front().epoch_ms.size(), p99.quantile);
  std::printf("replay: ops/s per repetition:");
  for (const double v : ops_s) std::printf(" %.0f", v);
  std::printf("\nreplay: epoch p50/p99 ms per repetition:");
  for (const std::vector<double>& w : epoch_ms) {
    std::printf(" %.2f/%.2f", TailPercentile(w, 0.5).value,
                TailPercentile(w, 0.99).value);
  }
  std::printf("\n");

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("replay_ops_s", Median(ops_s), "1/s");
  out.Add("latency_p50_ms", p50.value, "ms");
  out.Add("latency_p99_ms", p99.value, "ms");
  OpCounts counts;
  counts.sent = out.attempted;
  counts.ok = out.attempted - out.failed;
  out.Add("ok_frac", counts.ok_frac(), "ratio");
  const char* tiers[] = {"traffic_top_per_req", "traffic_intermediate_per_req",
                         "traffic_rack_per_req"};
  for (int t = 0; t < net::kNumTiers; ++t) {
    out.Add(tiers[t], PerReq(r.traffic_app[t] + r.traffic_sys[t], req),
            "units");
  }
  const Rep& first = reps.front();
  const double live = static_cast<double>(first.initial_replicas +
                                          r.counters.replicas_created -
                                          r.counters.replicas_dropped);
  out.Add("replicas_per_view", live / static_cast<double>(first.views),
          "count");
  return out;
}

}  // namespace perfbench
