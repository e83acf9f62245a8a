#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <thread>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

HostFacts GatherHostFacts() {
  HostFacts h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  if (h.nproc == 0) h.nproc = std::thread::hardware_concurrency();
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.compiler = PERFBENCH_COMPILER;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  h.sanitized = true;
#endif
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string HostFactsJson(const HostFacts& h, unsigned threads) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
                "\"%s\", \"sanitized\": %s, \"threads\": %u, "
                "\"oversubscribed\": %s}",
                h.nproc, h.build_type.c_str(), h.compiler.c_str(),
                h.sanitized ? "true" : "false", threads,
                threads > h.nproc ? "true" : "false");
  return buf;
}

}  // namespace perfbench
