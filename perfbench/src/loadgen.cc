#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>

#include "common.h"
#include "netproto/wire.h"

namespace perfbench {

namespace netp = dynasore::netp;

namespace {

// seq = step id in the high bits, op index within the step in the low bits,
// so a late answer can never be credited to the wrong step.
constexpr int kIndexBits = 22;
constexpr std::uint32_t kIndexMask = (1u << kIndexBits) - 1;
constexpr std::uint64_t kSampleNs = 10'000'000;  // in-flight sample period
constexpr std::uint64_t kQuantumNs = 200'000;     // shortest generator sleep

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("loadgen: " + what + ": " + std::strerror(errno));
}

}  // namespace

OpenLoopClient::OpenLoopClient(std::uint16_t port, int connections) {
  for (int i = 0; i < connections; ++i) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) Fail("socket");
    conns_.push_back(std::move(c));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = conns_.back().fd;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Fail("connect");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      Fail("fcntl");
    }
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void OpenLoopClient::Pump(std::vector<Answer>* answers) {
  std::uint8_t buf[1 << 16];
  for (Conn& c : conns_) {
    if (c.tx_off < c.tx.size()) {
      const ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off,
                               c.tx.size() - c.tx_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        c.tx_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        Fail("send");
      }
      if (c.tx_off == c.tx.size()) {
        c.tx.clear();
        c.tx_off = 0;
      }
    }
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.rx.insert(c.rx.end(), buf, buf + n);
        continue;
      }
      if (n == 0) {
        errno = ECONNRESET;
        Fail("server closed the connection");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      Fail("recv");
    }
    std::size_t off = 0;
    while (off < c.rx.size()) {
      const netp::DecodeResult r =
          netp::DecodeFrame(std::span<const std::uint8_t>(c.rx).subspan(off));
      if (r.status == netp::DecodeStatus::kNeedMore) break;
      if (r.status != netp::DecodeStatus::kOk) {
        errno = EPROTO;
        Fail(std::string("bad response frame: ") +
             netp::DecodeStatusName(r.status));
      }
      off += r.consumed;
      Answer a;
      a.seq = r.frame.header.seq;
      switch (r.frame.header.type) {
        case netp::MsgType::kOpResp:
          a.kind = 0;
          ++total_ok_;
          break;
        case netp::MsgType::kBusyResp:
          a.kind = 1;
          ++total_busy_;
          break;
        default:
          a.kind = 2;
          ++total_errors_;
          break;
      }
      answers->push_back(a);
    }
    c.rx.erase(c.rx.begin(), c.rx.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

void OpenLoopClient::Wait(std::uint64_t until_ns) {
  const std::uint64_t now = NowNs();
  if (until_ns <= now) return;
  const std::uint64_t wait = std::min<std::uint64_t>(until_ns - now, 1'000'000);
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) {
    short events = POLLIN;
    if (c.tx_off < c.tx.size()) events |= POLLOUT;
    fds.push_back({c.fd, events, 0});
  }
  const timespec ts{0, static_cast<long>(wait)};
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

StepResult OpenLoopClient::RunStep(std::span<const dynasore::Request> ops,
                                   std::size_t* cursor, double rate,
                                   double seconds, double window_s,
                                   double grace_s, std::uint64_t seed) {
  StepResult r;
  r.rate = rate;
  r.seconds = seconds;
  const std::uint32_t step = ++step_;

  // The Poisson schedule, fixed before the first op is sent.
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> offsets;
  for (double t = gap(rng); t < seconds; t += gap(rng)) offsets.push_back(t);
  if (offsets.size() > kIndexMask) {
    throw std::invalid_argument("loadgen: step too long for its seq space");
  }
  const std::uint64_t start = NowNs() + 1'000'000;
  std::vector<std::uint64_t> due(offsets.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    due[i] = start + static_cast<std::uint64_t>(offsets[i] * 1e9);
  }
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t give_up = end + static_cast<std::uint64_t>(grace_s * 1e9);

  const std::size_t n = due.size();
  const auto window_of = [&](std::size_t i) {
    return std::min(r.window_latency_ms.size() - 1,
                    static_cast<std::size_t>(offsets[i] / window_s));
  };
  r.window_latency_ms.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(seconds / window_s))));
  constexpr double kMissed = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> answered(n, 0);
  std::size_t next = 0;
  std::size_t done = 0;
  std::uint64_t next_sample = start;
  std::vector<Answer> answers;
  r.lateness_ms.reserve(n);

  while (true) {
    std::uint64_t now = NowNs();
    while (next < n && due[next] <= now) {
      const dynasore::Request& op = ops[*cursor];
      *cursor = (*cursor + 1) % ops.size();
      netp::OpPayload payload;
      payload.time = op.time;
      payload.user = op.user;
      scratch_.clear();
      netp::Encode(payload, &scratch_);
      const auto type = op.op == dynasore::OpType::kWrite
                            ? netp::MsgType::kWriteReq
                            : netp::MsgType::kReadReq;
      const auto seq = static_cast<std::uint32_t>(
          (step << kIndexBits) | static_cast<std::uint32_t>(next));
      netp::EncodeFrame(type, seq, scratch_, &conns_[next % conns_.size()].tx);
      r.lateness_ms.push_back(LatenessNs(due[next], now) / 1e6);
      ++next;
      ++total_sent_;
    }
    answers.clear();
    Pump(&answers);
    now = NowNs();
    for (const Answer& a : answers) {
      const std::size_t idx = a.seq & kIndexMask;
      if ((a.seq >> kIndexBits) != (step & ((1u << (32 - kIndexBits)) - 1)) ||
          idx >= n || answered[idx] != 0) {
        continue;  // a late answer from an earlier step
      }
      answered[idx] = 1;
      ++done;
      std::vector<double>& window = r.window_latency_ms[window_of(idx)];
      if (a.kind == 0) {
        ++r.counts.ok;
        window.push_back(static_cast<double>(now - due[idx]) / 1e6);
      } else {
        ++(a.kind == 1 ? r.counts.busy : r.counts.errors);
        window.push_back(kMissed);
      }
    }
    if (now >= next_sample && now <= end) {
      r.inflight.push_back(static_cast<double>(next - done));
      next_sample += kSampleNs;
    }
    if (next == n && (done == n || now >= give_up)) break;
    // Sleep at least kQuantumNs between sends: ops due meanwhile go out
    // together, and their wait counts in their latency.
    if (answers.empty()) {
      Wait(next < n ? std::max(due[next], now + kQuantumNs) : give_up);
    }
  }
  r.counts.sent = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (answered[i] == 0) r.window_latency_ms[window_of(i)].push_back(kMissed);
  }
  return r;
}

bool OpenLoopClient::Drain(double timeout_s) {
  const std::uint64_t give_up =
      NowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
  std::vector<Answer> answers;
  while (outstanding() > 0 && NowNs() < give_up) {
    answers.clear();
    Pump(&answers);
    if (answers.empty()) Wait(give_up);
  }
  return outstanding() == 0;
}

}  // namespace perfbench
