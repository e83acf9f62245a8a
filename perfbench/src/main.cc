// perfbench: one workload, one seed, one run. Prints the host facts, the
// correctness gates and, as its last line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   perfbench --workload feed-replay|news-replay --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "common.h"
#include "workload.h"

namespace perfbench {
namespace {

struct MetricName {
  std::string name;
  std::string unit;
};

const MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"replay_ops_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"ok_frac", "ratio"},
    {"traffic_top_per_req", "units"},
    {"traffic_intermediate_per_req", "units"},
    {"traffic_rack_per_req", "units"},
    {"replicas_per_view", "count"},
    {"peak_rss_mb", "MiB"},
};

const MetricName kPerLayer[] = {
    {"engine.read_us", "us"},
    {"engine.tick_ms", "ms"},
    {"engine.tick_share", "ratio"},
    {"engine.write_us", "us"},
    {"engine.updates_per_write", "count"},
    {"runtime.repl_applies_per_write", "count"},
    {"engine.views_per_read", "count"},
    {"engine.replicas_created_per_kreq", "count"},
    {"engine.replica_churn", "ratio"},
    {"engine.evictions_per_kreq", "count"},
    {"engine.migrations_per_kreq", "count"},
    {"engine.proxy_migrations_per_kreq", "count"},
    {"graph.gen_s", "s"},
    {"workload.gen_s", "s"},
    {"placement.s", "s"},
    {"runtime.construct_s", "s"},
    {"server.start_s", "s"},
    {"runtime.run_s", "s"},
    {"runtime.msgs_per_req", "count"},
    {"runtime.remote_slices_per_read", "count"},
    {"runtime.queue_backlog_mean", "count"},
    {"runtime.shard_imbalance", "ratio"},
    {"runtime.epochs", "count"},
    {"runtime.join_p99_ms", "ms"},
    {"runtime.fresh_p99_ms", "ms"},
    {"runtime.batch_run_us", "us"},
    {"runtime.ops_per_batch", "count"},
    {"netproto.encode_ns_per_frame", "ns"},
    {"netproto.decode_ns_per_frame", "ns"},
    {"server.busy_frac", "ratio"},
    {"server.batches_per_s", "1/s"},
    {"loadgen.lateness_p99_ms", "ms"},
    {"ladder.max_rate_at_slo_ops_s", "1/s"},
    {"ledger.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args.workload).has_value();
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Orders the metrics as listed, fills per-layer metrics a workload does not
// exercise with 0, and reports a missing end-to-end metric as a failure.
std::string ResultJson(const Outcome& out, bool trace, bool& complete) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : out.metrics) by_name[m.name] = &m;
  std::vector<MetricName> names;
  if (trace) {
    names.assign(std::begin(kPerLayer), std::end(kPerLayer));
    for (int k = 0; k < kLadderSteps; ++k) {
      const std::string step = "ladder." + std::to_string(k) + ".";
      names.push_back({step + "offered_ops_s", "1/s"});
      names.push_back({step + "p50_ms", "ms"});
      names.push_back({step + "p99_ms", "ms"});
    }
  } else {
    names.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  complete = true;
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricName& n : names) {
    const auto it = by_name.find(n.name);
    double value = 0;
    if (it != by_name.end()) {
      value = it->second->value;
    } else if (!trace) {
      complete = false;
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + n.name + "\": {\"value\": " + Number(value) +
            ", \"unit\": \"" + n.unit + "\"}";
  }
  json += "}}";
  return json;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload feed-replay|news-replay "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const HostFacts host = GatherHostFacts();
  if (host.build_type == "Debug" || host.sanitized) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build\n",
                 host.sanitized ? "sanitizer" : "Debug");
    return 2;
  }
  const WorkloadSpec spec = *FindWorkload(args.workload);
  // The dispatcher and the shards. The serving measurement of the traced
  // feed-replay run uses as many: event loop, 2 shards and the generator.
  const unsigned threads = spec.shards + 1;
  std::printf("host: %s\n", HostFactsJson(host, threads).c_str());
  if (threads > host.nproc) {
    std::printf("warning: %u threads on %u CPUs: oversubscribed, the "
                "figures measure contention\n",
                threads, host.nproc);
  }
  std::fflush(stdout);

  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  Outcome out = RunReplay(args, t);
  if (!args.trace) out.Add("peak_rss_mb", PeakRssMb(), "MiB");

  if (args.trace) {
    if (args.workload == "feed-replay") MeasureServing(args, t, out);
    out.Add("ledger.coverage", tracer.Coverage(), "ratio");
    for (const auto& [layer, s] : tracer.LayerLedger()) {
      std::printf("ledger: %-10s %10.4f s self\n", layer.c_str(), s);
    }
    if (!args.trace_path.empty()) {
      std::ofstream f(args.trace_path);
      f << tracer.ChromeJson();
      out.Gate(f.good(), "trace: Chrome trace written");
    }
  }
  // A failed gate records no numbers.
  for (const std::string& p : out.problems) {
    std::printf("gate failed: %s\n", p.c_str());
  }
  if (!out.correct) return 1;
  bool complete = false;
  const std::string json = ResultJson(out, args.trace, complete);
  if (!complete) {
    std::printf("gate failed: an end-to-end metric is missing\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
