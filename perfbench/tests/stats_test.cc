// Tests of the benchmark's own arithmetic (src/stats.h). Exits non-zero and
// names the failing check on the first mismatch. Built next to perfbench
// and run by run.py before every measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)
#define CHECK_NEAR(a, b) Check(std::fabs((a) - (b)) < 1e-9, #a " ~= " #b, __LINE__)

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

using namespace perfbench;

void Percentiles() {
  const std::vector<double> v = Range(100);
  CHECK_NEAR(PercentileSorted(v, 0.5), 50);
  CHECK_NEAR(PercentileSorted(v, 0.99), 99);
  CHECK_NEAR(PercentileSorted(v, 1.0), 100);
  CHECK_NEAR(PercentileSorted(v, 0.0), 1);
  CHECK_NEAR(PercentileSorted({}, 0.5), 0);
  CHECK_NEAR(Median({3, 1, 2}), 2);
}

void TenBeyondRule() {
  // 1000 samples: the p99 rank (990) has exactly ten samples beyond it.
  Tail t = TailPercentile(Range(1000), 0.99);
  CHECK_NEAR(t.value, 990);
  CHECK_NEAR(t.quantile, 0.99);
  CHECK(t.samples == 1000);
  // 500 samples: p99 would have five beyond, so the highest quantile with
  // ten beyond is reported instead, and says so.
  t = TailPercentile(Range(500), 0.99);
  CHECK_NEAR(t.value, 490);
  CHECK_NEAR(t.quantile, 0.98);
  // The median of a small sample is unaffected by the rule.
  t = TailPercentile(Range(100), 0.5);
  CHECK_NEAR(t.value, 50);
  CHECK_NEAR(t.quantile, 0.5);
  // Unsorted input is sorted first.
  std::vector<double> shuffled = Range(1000);
  std::swap(shuffled[0], shuffled[999]);
  CHECK_NEAR(TailPercentile(shuffled, 0.99).value, 990);
}

void Windows() {
  // One stalled window cannot move the median of per-window percentiles.
  std::vector<std::vector<double>> w{Range(1000), Range(1000), Range(1000)};
  for (double& x : w[1]) x += 1e6;
  const Tail t = WindowedPercentile(w, 0.99);
  CHECK_NEAR(t.value, 990);
  CHECK(t.samples == 3000);
  // Empty windows are skipped.
  w.emplace_back();
  CHECK_NEAR(WindowedPercentile(w, 0.5).value, 500);
  CHECK_NEAR(WindowedPercentile({}, 0.5).value, 0);
}

void FailureAccounting() {
  OpCounts c;
  c.sent = 100;
  c.ok = 90;
  c.busy = 5;
  c.errors = 2;
  CHECK(c.unanswered() == 3);
  CHECK(c.failed() == 10);
  CHECK_NEAR(c.ok_frac(), 0.9);
  CHECK_NEAR(OpCounts{}.ok_frac(), 1.0);
  // Answers beyond what was sent (late answers of earlier steps are never
  // credited to a step) cannot make unanswered wrap.
  c.ok = 99;
  CHECK(c.unanswered() == 0);
}

void Lateness() {
  CHECK_NEAR(LatenessNs(1000, 1500), 500);
  CHECK_NEAR(LatenessNs(1000, 1000), 0);
  CHECK_NEAR(LatenessNs(1000, 900), 0);  // a clock read before the due time
}

void Backlog() {
  const std::vector<double> flat(300, 50.0);
  CHECK(!BacklogGrowing(flat, 10000, 0.02));
  // In flight grows by 1000 from the first to the last third; the limit
  // allows 10000 * 0.02 = 200 more.
  std::vector<double> ramp;
  for (int i = 0; i < 300; ++i) ramp.push_back(50.0 + 1500.0 * i / 299.0);
  CHECK(BacklogGrowing(ramp, 10000, 0.02));
  CHECK(!BacklogGrowing(ramp, 100000, 0.02));  // 2000 allowed
  CHECK(!BacklogGrowing({0, 1e9}, 1, 0.001));  // too few samples to judge
}

LadderPoint P(double rate, double p99_ms, double failed = 0,
              bool backlog = false) {
  LadderPoint p;
  p.rate = rate;
  p.p99_ms = p99_ms;
  p.failed_frac = failed;
  p.backlog = backlog;
  return p;
}

void SloRate() {
  const double limit = 20;
  const double cap = 0.001;
  // Every step passes: the top rate.
  CHECK_NEAR(MaxRateAtSlo({P(10, 5), P(20, 10)}, limit, cap), 20);
  // Score 0.5 at 10k, 2 at 20k: log-linear, so it crosses 1 half way.
  CHECK_NEAR(MaxRateAtSlo({P(10000, 10), P(20000, 40)}, limit, cap), 15000);
  // Score 0.5 and 1.5: ln 2 / ln 3 of the way.
  CHECK_NEAR(MaxRateAtSlo({P(10000, 10), P(20000, 30)}, limit, cap),
             10000 + 10000 * std::log(2.0) / std::log(3.0));
  // The search stops at the first miss, even if a later step passes.
  CHECK_NEAR(MaxRateAtSlo({P(10000, 10), P(20000, 40), P(30000, 5)}, limit,
                          cap),
             15000);
  // A failure share over the cap misses like a slow p99 (score 2 here).
  CHECK_NEAR(MaxRateAtSlo({P(10000, 10), P(20000, 10, 0.002)}, limit, cap),
             15000);
  // A growing backlog with latency still in the limit: the last good rate.
  CHECK_NEAR(MaxRateAtSlo({P(10000, 10), P(20000, 15, 0, true)}, limit, cap),
             10000);
  // The first step already misses: its rate scaled down by its score.
  CHECK_NEAR(MaxRateAtSlo({P(10000, 40)}, limit, cap), 5000);
  // A refused op counts as missing the limit: infinite p99 -> lower rate.
  CHECK_NEAR(MaxRateAtSlo({P(10000, 10),
                           P(20000, std::numeric_limits<double>::infinity())},
                          limit, cap),
             10000);
  CHECK_NEAR(MaxRateAtSlo({}, limit, cap), 0);
}

}  // namespace

int main() {
  Percentiles();
  TenBeyondRule();
  Windows();
  FailureAccounting();
  Lateness();
  Backlog();
  SloRate();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
