// Shared plumbing of the benchmark binary: clocks, the metric list every
// workload fills, host facts, and the span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one invocation produces. `correct` is false when any correctness
// gate failed; `problems` says which. attempted/failed count requests.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a gate: a false `ok` marks the run incorrect.
  void Gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace output of the traced run
};

// ----- Host facts -----

struct HostFacts {
  unsigned nproc = 0;        // CPUs this process may run on
  std::string build_type;    // CMAKE_BUILD_TYPE of this binary
  std::string compiler;
  bool sanitized = false;
};

HostFacts GatherHostFacts();
// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
std::string HostFactsJson(const HostFacts& h, unsigned threads);

// ----- Spans of the traced run -----
//
// Spans are recorded from the benchmark's own files around calls into each
// module, kept in memory, and written once as a Chrome trace. Start and end
// are steady-clock nanoseconds; the trace rounds both down to whole
// microseconds so nesting survives the conversion exactly.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint32_t tid = 1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
  };

  // Opens a span under the innermost open one; returns its id.
  int Begin(std::string name);
  void End(int id);
  // Records an already-finished span under the innermost open one.
  void Add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the part its child spans cover.
  std::vector<double> SelfSeconds() const;
  // Sum of self time by layer (the span name up to its first '.').
  std::vector<std::pair<std::string, double>> LayerLedger() const;
  // Self time of every non-root span over the root spans' total wall time.
  double Coverage() const;
  std::string ChromeJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Fixed offered rates of the serving ladder (serve.cc).
inline constexpr int kLadderSteps = 6;

// Runs a replay workload (replay.cc): end-to-end metrics without a tracer,
// per-layer metrics with one.
Outcome RunReplay(const Args& args, Tracer* tracer);
// Measures the serving tier over the workload's request stream and adds its
// per-layer metrics and gates to `out` (serve.cc).
void MeasureServing(const Args& args, Tracer* tracer, Outcome& out);

}  // namespace perfbench
