#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common.h"

namespace perfbench {

int Tracer::Begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = NowNs();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  // Spans close innermost first; tolerate a mismatched id by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::Add(std::string name, std::uint64_t start_ns,
                 std::uint64_t end_ns) {
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (double& v : self) v = std::max(0.0, v) / 1e9;
  return self;
}

std::vector<std::pair<std::string, double>> Tracer::LayerLedger() const {
  const std::vector<double> self = SelfSeconds();
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& n = spans_[i].name;
    by_layer[n.substr(0, n.find('.'))] += self[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

double Tracer::Coverage() const {
  const std::vector<double> self = SelfSeconds();
  double root = 0;
  double covered = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) {
      root += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e9;
    } else {
      covered += self[i];
    }
  }
  return root > 0 ? covered / root : 0.0;
}

std::string Tracer::ChromeJson() const {
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  // Per track: ascending start, and the enclosing (longer) span first on a
  // tie, which is the order the validator needs to check nesting.
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto us = [origin](std::uint64_t ns) { return (ns - origin) / 1000; };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (us(x.start_ns) != us(y.start_ns)) return us(x.start_ns) < us(y.start_ns);
    return us(x.end_ns) > us(y.end_ns);
  });
  std::string out = "{\"traceEvents\": [\n";
  std::set<std::uint32_t> tids;
  for (const Span& s : spans_) tids.insert(s.tid);
  char buf[256];
  bool first = true;
  for (const std::uint32_t tid : tids) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"name\": \"perfbench\"}}",
                  first ? "" : ",\n", tid);
    out += buf;
    first = false;
  }
  for (const std::size_t i : order) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                  "%u, \"ts\": %llu, \"dur\": %llu}",
                  s.name.c_str(), s.tid,
                  static_cast<unsigned long long>(us(s.start_ns)),
                  static_cast<unsigned long long>(us(s.end_ns) -
                                                  us(s.start_ns)));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
