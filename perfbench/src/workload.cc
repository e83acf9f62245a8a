#include "workload.h"

#include "graph/presets.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace perfbench {

namespace sim = dynasore::sim;

namespace {

// Sizes are set so one replay repetition (set-up plus Run) takes 2 to 4
// seconds on a 4-core host: a 40-second run then holds about ten
// repetitions to take the median of.
const WorkloadSpec kWorkloads[] = {
    // §4.2 synthetic feed (4 reads per write, activity ~ log degree) on the
    // adaptive engine from Random placement with 50% extra memory.
    {"feed-replay", 8000, 3.0, false, 50.0, false, false, 3},
    // Write-heavy News-Activity-shaped trace, payload mode with a persist
    // store, hMETIS placement with tight memory (10% extra). 12k users give
    // epochs of about 12 ms, so the two barriers that end each epoch are a
    // small share of it; 10 days make the traffic per request vary little
    // from seed to seed.
    {"news-replay", 12000, 10.0, true, 10.0, true, true, 3},
};

double Seconds(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

double PerReq(std::uint64_t n, std::uint64_t d) {
  return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
}

void AddEngineCounters(const core::EngineCounters& c, std::uint64_t requests,
                       Outcome& out) {
  out.Add("engine.updates_per_write", PerReq(c.replica_updates, c.writes),
          "count");
  out.Add("engine.views_per_read", PerReq(c.view_reads, c.reads), "count");
  out.Add("engine.replicas_created_per_kreq",
          1000.0 * PerReq(c.replicas_created, requests), "count");
  out.Add("engine.replica_churn",
          PerReq(c.replicas_dropped, c.replicas_created), "ratio");
  out.Add("engine.evictions_per_kreq",
          1000.0 * PerReq(c.evictions_watermark, requests), "count");
  out.Add("engine.migrations_per_kreq",
          1000.0 * PerReq(c.migrations, requests), "count");
  out.Add("engine.proxy_migrations_per_kreq",
          1000.0 * PerReq(c.read_proxy_migrations + c.write_proxy_migrations,
                          requests),
          "count");
}

std::unique_ptr<rt::ShardedRuntime> MakeRuntime(const Setup& s,
                                                std::uint32_t shards) {
  rt::RuntimeConfig config;
  config.num_shards = shards;
  auto runtime = std::make_unique<rt::ShardedRuntime>(
      s.graph, *s.topo, s.placement, s.engine, config);
  if (s.persist != nullptr) runtime->AttachPersistentStore(s.persist.get());
  return runtime;
}

std::unique_ptr<Setup> BuildSetup(const WorkloadSpec& spec, std::uint64_t seed,
                                  Tracer* tracer) {
  auto s = std::make_unique<Setup>();
  const double scale = static_cast<double>(spec.users) / 3.0e6;

  std::uint64_t t0 = NowNs();
  s->graph =
      graph::GenerateDataset(graph::Dataset::kFacebook, scale, seed);
  std::uint64_t t1 = NowNs();
  if (tracer != nullptr) tracer->Add("graph.gen", t0, t1);
  s->times.graph_s = Seconds(t0, t1);

  t0 = NowNs();
  if (spec.news_trace) {
    wl::TraceLogConfig config;
    config.days = spec.days;
    config.seed = seed + 1;
    s->log = wl::GenerateActivityTrace(s->graph, config);
  } else {
    wl::SyntheticLogConfig config;
    config.days = spec.days;
    config.seed = seed + 1;
    s->log = wl::GenerateSyntheticLog(s->graph, config);
  }
  t1 = NowNs();
  if (tracer != nullptr) tracer->Add("workload.gen", t0, t1);
  s->times.log_s = Seconds(t0, t1);

  t0 = NowNs();
  sim::ExperimentConfig experiment;
  experiment.seed = seed + 2;
  experiment.extra_memory_pct = spec.extra_memory_pct;
  experiment.init = spec.hmetis ? sim::Init::kHMetis : sim::Init::kRandom;
  s->topo.emplace(sim::MakeTopology(experiment.cluster));
  s->engine = experiment.engine;
  s->engine.adaptive = true;
  s->engine.store.payload_mode = spec.payload;
  s->engine.store.capacity_views = sim::CapacityPerServer(
      s->graph.num_users(), s->topo->num_servers(), spec.extra_memory_pct);
  s->placement = sim::MakeInitialPlacement(
      s->graph, *s->topo, s->engine.store.capacity_views, experiment);
  t1 = NowNs();
  if (tracer != nullptr) tracer->Add("placement.build", t0, t1);
  s->times.placement_s = Seconds(t0, t1);

  t0 = NowNs();
  if (spec.payload) {
    s->persist = std::make_unique<persist::PersistentStore>();
    for (UserId u = 0; u < s->graph.num_users(); ++u) {
      s->persist->Append({u, 0, "seed"});
    }
  }
  s->runtime = MakeRuntime(*s, spec.shards);
  t1 = NowNs();
  if (tracer != nullptr) tracer->Add("runtime.construct", t0, t1);
  s->times.construct_s = Seconds(t0, t1);
  return s;
}

}  // namespace perfbench
