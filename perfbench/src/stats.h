// The benchmark's own arithmetic, kept free of I/O so tests/stats_test.cc
// can pin it: exact percentiles with the "at least ten samples beyond"
// rule, the SLO-rate interpolation over an open-loop ladder, backlog
// detection, generator lateness and failure accounting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least q of the samples at or below it. q in [0, 1].
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 0.5);
}

// A tail percentile reported honestly: the requested quantile q when at
// least `min_beyond` samples lie strictly above its rank, otherwise the
// highest quantile that still has `min_beyond` samples beyond it (the value
// at rank n - min_beyond). `quantile` says which one was reported.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  std::size_t samples = 0;
};

inline Tail TailPercentile(std::vector<double> v, double q,
                           std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  if (n >= min_beyond + 1 && n - rank >= min_beyond) {
    t.value = v[rank - 1];
    t.quantile = q;
  } else {
    const std::size_t r = n > min_beyond ? n - min_beyond : 1;
    t.value = v[r - 1];
    t.quantile = static_cast<double>(r) / static_cast<double>(n);
  }
  return t;
}

// A percentile of a step's latency, robust to one stalled window: the
// median over equal time windows of each window's TailPercentile. Empty
// windows are skipped; `samples` counts every sample.
inline Tail WindowedPercentile(const std::vector<std::vector<double>>& windows,
                               double q, std::size_t min_beyond = 10) {
  Tail t;
  std::vector<double> per_window;
  double quantile = 1.0;
  for (const std::vector<double>& w : windows) {
    if (w.empty()) continue;
    const Tail wt = TailPercentile(w, q, min_beyond);
    per_window.push_back(wt.value);
    quantile = std::min(quantile, wt.quantile);
    t.samples += wt.samples;
  }
  if (per_window.empty()) return t;
  t.value = Median(per_window);
  t.quantile = quantile;
  return t;
}

// Failure accounting for one open-loop step: every op the generator sent is
// answered ok, refused busy, answered with an error, or never answered
// within the step's grace period. A refused op is not retried.
struct OpCounts {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;

  std::uint64_t unanswered() const {
    const std::uint64_t answered = ok + busy + errors;
    return sent > answered ? sent - answered : 0;
  }
  std::uint64_t failed() const { return busy + errors + unanswered(); }
  // ok / sent; 1 for an empty step (nothing was attempted, nothing failed).
  double ok_frac() const {
    return sent == 0 ? 1.0
                     : static_cast<double>(ok) / static_cast<double>(sent);
  }
};

// Generator lateness: how long after its scheduled due time each op was
// handed to a socket. Lateness is never negative (an op is never sent
// early), so a clock read before the due time counts as 0.
inline double LatenessNs(std::uint64_t due_ns, std::uint64_t sent_ns) {
  return sent_ns > due_ns ? static_cast<double>(sent_ns - due_ns) : 0.0;
}

// A backlog grows when the ops in flight at the end of a step exceed those
// at its start by more than a latency limit's worth of arrivals (Little's
// law: at `rate` ops/s, a queue meeting `limit_s` holds at most
// rate * limit_s ops). Compares the mean of the first and the last third of
// evenly spaced in-flight samples, so one sample cannot decide it.
inline bool BacklogGrowing(const std::vector<double>& inflight, double rate,
                           double limit_s) {
  const std::size_t n = inflight.size();
  if (n < 3) return false;
  const std::size_t third = n / 3;
  double head = 0;
  double tail = 0;
  for (std::size_t i = 0; i < third; ++i) {
    head += inflight[i];
    tail += inflight[n - 1 - i];
  }
  head /= static_cast<double>(third);
  tail /= static_cast<double>(third);
  return tail - head > rate * limit_s;
}

// One step of the offered-load ladder, as the SLO-rate search sees it.
struct LadderPoint {
  double rate = 0;         // offered ops/s
  double p50_ms = 0;       // due-to-ack median at this rate
  double p99_ms = 0;       // due-to-ack p99 at this rate
  double failed_frac = 0;  // failed / sent
  bool backlog = false;    // BacklogGrowing over the step
};

// How far a step is from its limits: 1 is exactly at the latency limit or
// the failure cap, above 1 violates one of them.
inline double SloScore(const LadderPoint& p, double limit_ms,
                       double max_failed_frac) {
  return std::max(p.p99_ms / limit_ms, p.failed_frac / max_failed_frac);
}

inline bool MeetsSlo(const LadderPoint& p, double limit_ms,
                     double max_failed_frac) {
  return !p.backlog && SloScore(p, limit_ms, max_failed_frac) <= 1.0;
}

// The highest offered rate whose p99 stays within the limit, with failures
// under the cap and no growing backlog. Points are in ascending rate order;
// the search stops at the first point that misses. Between the last passing
// point and the first missing one the rate is interpolated to where the
// score crosses 1, linearly in log(SloScore) because latency grows about
// exponentially with load below saturation; so a small shift in capacity
// moves the result by a small amount instead of a whole ladder step. A
// first point that already misses scales its rate down by its score; a
// ladder that never misses reports its top rate.
inline double MaxRateAtSlo(const std::vector<LadderPoint>& points,
                           double limit_ms, double max_failed_frac) {
  if (points.empty()) return 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (MeetsSlo(points[i], limit_ms, max_failed_frac)) continue;
    const double s_hi = SloScore(points[i], limit_ms, max_failed_frac);
    if (i == 0) return points[0].rate / std::max(1.0, s_hi);
    const LadderPoint& lo = points[i - 1];
    const double s_lo = SloScore(lo, limit_ms, max_failed_frac);
    if (s_hi <= s_lo || s_hi <= 1.0) return lo.rate;
    // An infinite score (refused ops in the p99) puts f at 0.
    const double f =
        s_lo > 0 ? -std::log(s_lo) / (std::log(s_hi) - std::log(s_lo)) : 0.0;
    return lo.rate + f * (points[i].rate - lo.rate);
  }
  return points.back().rate;
}

}  // namespace perfbench
