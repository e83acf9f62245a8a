// The serving tier, measured in the traced feed-replay run: the feed
// request stream sent over loopback TCP to net::Server over a 2-shard
// adaptive runtime, as an open loop that steps up a ladder of fixed offered
// rates. The event loop, two shard workers and the generator thread make
// four threads. Its figures are per-layer: on a shared 4-core host they
// vary by 15-25% from run to run (see README.md), too much to bound.
#include <algorithm>
#include <cstdio>

#include "loadgen.h"
#include "netproto/wire.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace netp = dynasore::netp;
namespace dnet = dynasore::net;

// Offered rates (ops/s), ascending. The reference step runs longest, at
// about a quarter of the capacity of a 4-core host, where latency is set by
// micro-batching. The other steps climb through the convex part of the
// latency curve (p99 roughly doubles every 20k ops/s) up to saturation,
// where busy answers start.
constexpr double kLadderRates[kLadderSteps] = {50000,  140000, 160000,
                                               180000, 200000, 220000};
constexpr int kReferenceStep = 0;
constexpr std::uint32_t kShards = 2;
// The p99 limit of the SLO search sits where the latency curve is steep;
// and the failure share a step may have.
constexpr double kLatencyLimitMs = 30.0;
constexpr double kMaxFailedFrac = 0.01;
constexpr int kConnections = 2;
// How long a step waits for late answers before counting them failed.
constexpr double kGraceS = 0.5;
// Latency percentiles are medians over windows of this length, so one
// stalled window cannot decide a step.
constexpr double kWindowS = 0.5;
// Frames the codec layer is timed over.
constexpr std::size_t kCodecFrames = 200000;

double RatePerS(std::uint64_t n, double seconds) {
  return seconds > 0 ? static_cast<double>(n) / seconds : 0;
}

struct Step {
  StepResult result;
  std::uint64_t batches = 0;   // server micro-batches during the step
  std::uint64_t executed = 0;  // ops the server executed during the step
};

Step RunLadderStep(OpenLoopClient& client, const dnet::Server& server,
                   std::span<const Request> ops, std::size_t* cursor,
                   double rate, double seconds, std::uint64_t seed,
                   Tracer* tracer, const char* span) {
  ScopedSpan s(tracer, span);
  const dnet::ServerStats before = server.stats();
  Step step;
  step.result =
      client.RunStep(ops, cursor, rate, seconds, kWindowS, kGraceS, seed);
  const dnet::ServerStats after = server.stats();
  step.batches = after.batches_run - before.batches_run;
  step.executed = after.ops_executed - before.ops_executed;
  return step;
}

LadderPoint Point(const StepResult& r) {
  LadderPoint p;
  p.rate = r.rate;
  p.p50_ms = WindowedPercentile(r.window_latency_ms, 0.5).value;
  p.p99_ms = WindowedPercentile(r.window_latency_ms, 0.99).value;
  p.failed_frac = 1.0 - r.counts.ok_frac();
  p.backlog = BacklogGrowing(r.inflight, r.rate, kLatencyLimitMs / 1e3);
  return p;
}

// Mean wall time of ShardedRuntime::Run over micro-batches of `batch_ops`
// requests with times rebased to 0, as the server submits them.
double BatchRunUs(const Setup& s, std::uint32_t shards, std::size_t batch_ops,
                  Tracer* tracer) {
  ScopedSpan span(tracer, "runtime.batch_run");
  auto runtime = MakeRuntime(s, shards);
  const auto& reqs = s.log.requests;
  batch_ops = std::max<std::size_t>(1, batch_ops);
  std::size_t cursor = 0;
  double total_s = 0;
  int batches = 0;
  const std::uint64_t start = NowNs();
  while (batches < 20 || (batches < 2000 && SecondsSince(start) < 1.0)) {
    wl::RequestLog log;
    for (std::size_t i = 0; i < batch_ops; ++i) {
      Request r = reqs[cursor];
      cursor = (cursor + 1) % reqs.size();
      r.time = 0;
      (r.op == OpType::kRead ? log.num_reads : log.num_writes) += 1;
      log.requests.push_back(r);
    }
    const std::uint64_t t0 = NowNs();
    runtime->Run(log);
    total_s += SecondsSince(t0);
    ++batches;
  }
  return total_s * 1e6 / batches;
}

// Encode and decode cost of the workload's own request frames. Returns the
// frames that decoded back to the op they were encoded from.
std::size_t CodecCost(std::span<const Request> ops, Tracer* tracer,
                      double* enc_ns, double* dec_ns) {
  const std::size_t n = std::min(ops.size(), kCodecFrames);
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> payload;
  wire.reserve(n * (netp::kHeaderSize + 12));
  std::uint64_t t0 = NowNs();
  {
    ScopedSpan s(tracer, "netproto.encode");
    for (std::size_t i = 0; i < n; ++i) {
      netp::OpPayload p;
      p.time = ops[i].time;
      p.user = ops[i].user;
      payload.clear();
      netp::Encode(p, &payload);
      netp::EncodeFrame(ops[i].op == OpType::kWrite ? netp::MsgType::kWriteReq
                                                    : netp::MsgType::kReadReq,
                        static_cast<std::uint32_t>(i), payload, &wire);
    }
  }
  *enc_ns = static_cast<double>(NowNs() - t0) / static_cast<double>(n);
  t0 = NowNs();
  std::size_t matched = 0;
  {
    ScopedSpan s(tracer, "netproto.decode");
    std::size_t off = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const netp::DecodeResult r =
          netp::DecodeFrame(std::span<const std::uint8_t>(wire).subspan(off));
      if (r.status != netp::DecodeStatus::kOk) break;
      off += r.consumed;
      const auto p = netp::DecodeOp(r.frame.payload);
      if (p && p->user == ops[i].user && r.frame.header.seq == i) ++matched;
    }
  }
  *dec_ns = static_cast<double>(NowNs() - t0) / static_cast<double>(n);
  return matched;
}

}  // namespace

void MeasureServing(const Args& args, Tracer* tracer, Outcome& out) {
  WorkloadSpec spec = *FindWorkload(args.workload);
  spec.shards = kShards;
  ScopedSpan root(tracer, "bench.serve");
  const std::unique_ptr<Setup> s = BuildSetup(spec, args.seed, nullptr);
  std::unique_ptr<dnet::Server> server;
  std::uint64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "server.start");
    server = std::make_unique<dnet::Server>(*s->runtime, dnet::ServerConfig{});
    server->Start();
  }
  const double start_s = SecondsSince(t0);

  // Time shares: warm-up 1, the reference step 3, every other step 1.2.
  const double unit = args.seconds / 10.0;
  const std::span<const Request> ops(s->log.requests);
  std::size_t cursor = 0;
  std::uint64_t seed = args.seed * 1000003;
  std::vector<Step> steps;
  std::vector<LadderPoint> points;
  {
    OpenLoopClient client(server->port(), kConnections);
    const auto run = [&](int k, double len, const char* span) {
      return RunLadderStep(client, *server, ops, &cursor, kLadderRates[k],
                           len, ++seed, tracer, span);
    };
    run(kReferenceStep, unit, "loadgen.warmup");
    for (int k = 0; k < kLadderSteps; ++k) {
      steps.push_back(run(k, k == kReferenceStep ? 3 * unit : 1.2 * unit,
                          "loadgen.step"));
      points.push_back(Point(steps.back().result));
      // Past the first step that misses the SLO every higher rate misses it
      // too; stop before the backlog gets deeper.
      if (!MeetsSlo(points.back(), kLatencyLimitMs, kMaxFailedFrac)) break;
    }
    out.Gate(client.Drain(30.0), "serve: every sent op answered by the end");
    {
      ScopedSpan span(tracer, "server.stop");
      server->Stop();
    }
    const dnet::ServerStats st = server->stats();
    out.Gate(st.ops_received == st.ops_executed + st.busy_sent,
             "serve: ops_received == ops_executed + busy_sent");
    out.Gate(st.ops_executed == st.acks_sent &&
                 st.acks_sent == client.total_ok(),
             "serve: ops_executed == acks_sent == generator ok acks");
    out.Gate(client.total_sent() == client.total_ok() + client.total_busy() +
                                        client.total_errors(),
             "serve: every sent op answered or counted failed");
    out.Gate(st.busy_sent == client.total_busy(),
             "serve: busy answers agree on both sides");
  }
  for (std::size_t k = 0; k < points.size(); ++k) {
    std::printf("ladder: rate %.0f/s sent %llu ok %llu p99 %.3f ms failed "
                "%.5f backlog %d\n",
                points[k].rate,
                static_cast<unsigned long long>(steps[k].result.counts.sent),
                static_cast<unsigned long long>(steps[k].result.counts.ok),
                points[k].p99_ms, points[k].failed_frac,
                points[k].backlog ? 1 : 0);
  }

  const Step& rs = steps[kReferenceStep];
  const StepResult& ref = rs.result;
  const double ops_per_batch = PerReq(rs.executed, rs.batches);
  const double batches_per_s = RatePerS(rs.batches, ref.seconds);
  const double batch_us = BatchRunUs(
      *s, kShards, static_cast<std::size_t>(ops_per_batch + 0.5), tracer);
  double enc_ns = 0;
  double dec_ns = 0;
  out.Gate(CodecCost(ops, tracer, &enc_ns, &dec_ns) ==
               std::min(ops.size(), kCodecFrames),
           "netproto: every frame decodes to the op it encodes");

  out.Add("server.start_s", start_s, "s");
  out.Add("runtime.batch_run_us", batch_us, "us");
  out.Add("runtime.ops_per_batch", ops_per_batch, "count");
  out.Add("netproto.encode_ns_per_frame", enc_ns, "ns");
  out.Add("netproto.decode_ns_per_frame", dec_ns, "ns");
  out.Add("server.batches_per_s", batches_per_s, "1/s");
  out.Add("server.busy_frac", batches_per_s * batch_us / 1e6, "ratio");
  out.Add("loadgen.lateness_p99_ms",
          TailPercentile(ref.lateness_ms, 0.99).value, "ms");
  out.Add("ladder.max_rate_at_slo_ops_s",
          MaxRateAtSlo(points, kLatencyLimitMs, kMaxFailedFrac), "1/s");
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const std::string name = "ladder." + std::to_string(k) + ".";
    out.Add(name + "offered_ops_s",
            RatePerS(steps[k].result.counts.sent, steps[k].result.seconds),
            "1/s");
    out.Add(name + "p50_ms", points[k].p50_ms, "ms");
    out.Add(name + "p99_ms", points[k].p99_ms, "ms");
  }
}

}  // namespace perfbench
