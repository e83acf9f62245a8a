// Open-loop load generator for the serving measurement. One thread sends ops on a fixed
// Poisson schedule over a few non-blocking loopback connections, speaking
// the netp wire codec directly (net::Client blocks, so it cannot keep a
// schedule while acks are outstanding). Latency runs from each op's due
// time to its ack, so a stall also charges the ops scheduled behind it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "stats.h"

namespace perfbench {

struct StepResult {
  double rate = 0;             // scheduled ops/s
  double seconds = 0;          // scheduled length
  OpCounts counts;             // sent / ok / busy / errors within the grace
  // Due -> ack latency of every op, grouped by the window of the step its
  // due time falls in; a failed op is +infinity, since it misses any limit.
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> lateness_ms;  // due -> handed to a socket, every op
  std::vector<double> inflight;     // ops awaiting an answer, every 10 ms
};

class OpenLoopClient {
 public:
  // Connects `connections` sockets to 127.0.0.1:`port`. Throws
  // std::runtime_error when a connection cannot be made.
  OpenLoopClient(std::uint16_t port, int connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  // Sends ops from `ops` (cyclically, starting at *cursor) at `rate` for
  // `seconds`, then waits up to `grace_s` for their answers. An op not
  // answered by then counts as failed for this step; its late ack still
  // counts in total_ok(). Latencies are grouped in windows of `window_s`.
  StepResult RunStep(std::span<const dynasore::Request> ops,
                     std::size_t* cursor, double rate, double seconds,
                     double window_s, double grace_s, std::uint64_t seed);

  // Waits until every op sent so far is answered or `timeout_s` passes;
  // returns whether everything was answered.
  bool Drain(double timeout_s);

  // Session totals over every step, late answers included.
  std::uint64_t total_sent() const { return total_sent_; }
  std::uint64_t total_ok() const { return total_ok_; }
  std::uint64_t total_busy() const { return total_busy_; }
  std::uint64_t total_errors() const { return total_errors_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> tx;
    std::size_t tx_off = 0;
    std::vector<std::uint8_t> rx;
  };
  struct Answer {
    std::uint32_t seq = 0;
    int kind = 0;  // 0 ok, 1 busy, 2 error
  };

  // Sends buffered bytes and collects every complete response frame.
  void Pump(std::vector<Answer>* answers);
  // Sleeps until a socket is ready or `until_ns` passes (at most 1 ms).
  void Wait(std::uint64_t until_ns);
  std::uint64_t outstanding() const {
    return total_sent_ - total_ok_ - total_busy_ - total_errors_;
  }

  std::vector<Conn> conns_;
  std::uint32_t step_ = 0;
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_ok_ = 0;
  std::uint64_t total_busy_ = 0;
  std::uint64_t total_errors_ = 0;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace perfbench
