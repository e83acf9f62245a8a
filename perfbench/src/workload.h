// The three workloads' inputs and the set-up that turns a seed into a
// ready runtime. Everything the program sees comes from here; the seed is
// the only input.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common.h"
#include "core/engine.h"
#include "graph/social_graph.h"
#include "net/topology.h"
#include "persist/persistent_store.h"
#include "placement/placement.h"
#include "runtime/sharded_runtime.h"
#include "workload/request_log.h"

namespace perfbench {

namespace core = dynasore::core;
namespace graph = dynasore::graph;
namespace net = dynasore::net;
namespace persist = dynasore::persist;
namespace place = dynasore::place;
namespace rt = dynasore::rt;
namespace wl = dynasore::wl;
using dynasore::OpType;
using dynasore::Request;
using dynasore::SimTime;
using dynasore::UserId;
using dynasore::ViewId;

struct WorkloadSpec {
  std::string name;
  std::uint32_t users = 0;     // facebook-shaped graph size
  double days = 0;             // simulated length of the request log
  bool news_trace = false;     // GenerateActivityTrace, else the §4.2 log
  double extra_memory_pct = 0;
  bool hmetis = false;         // hMETIS placement, else Random
  bool payload = false;        // payload mode with a PersistentStore
  std::uint32_t shards = 0;    // the dispatcher or event loop takes a core
};

// nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

// Seconds spent in each set-up layer, for the ledger and for setup_s.
struct SetupTimes {
  double graph_s = 0;
  double log_s = 0;
  double placement_s = 0;
  double construct_s = 0;  // persist store (payload mode) + runtime
  double total() const { return graph_s + log_s + placement_s + construct_s; }
};

struct Setup {
  graph::SocialGraph graph;
  wl::RequestLog log;
  std::optional<net::Topology> topo;
  core::EngineConfig engine;
  place::PlacementResult placement;
  std::unique_ptr<persist::PersistentStore> persist;
  std::unique_ptr<rt::ShardedRuntime> runtime;
  SetupTimes times;
};

// Builds graph, request log, placement and runtime from `seed`, timing each
// step (and recording a span per step when `tracer` is set). The runtime
// uses the library-default RuntimeConfig apart from the shard count.
std::unique_ptr<Setup> BuildSetup(const WorkloadSpec& spec, std::uint64_t seed,
                                  Tracer* tracer);

// n / d, or 0 when d is 0.
double PerReq(std::uint64_t n, std::uint64_t d);

// The engine layer's outcome counts (engine.*) for `requests` requests.
void AddEngineCounters(const core::EngineCounters& c, std::uint64_t requests,
                       Outcome& out);

// A fresh runtime over an existing setup's inputs (same config).
std::unique_ptr<rt::ShardedRuntime> MakeRuntime(const Setup& s,
                                                std::uint32_t shards);

}  // namespace perfbench
