// The one timebase for every wall-clock measurement in the tree.
//
// Everything that times real elapsed time — the tracing layer, the bench
// harness, latency histograms — must go through MonotonicNowNs(), which is
// std::chrono::steady_clock and therefore immune to NTP slews and manual
// clock changes (a gettimeofday()-style timestamp can go *backwards*, which
// turns a latency sample into a ~2^64 ns outlier and a p99 into garbage).
//
// Audit note (kept here so it is not re-litigated): the VM-side benchmarks
// (src/hbench) deliberately measure *deterministic VM cycles*, not wall
// time, so they have no clock at all; the only wall-clock timing in the
// repo is bench/ and the tracing layer, both of which use these helpers.
#ifndef SRC_SUPPORT_CLOCK_H_
#define SRC_SUPPORT_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace ivy {

// Nanoseconds on an arbitrary-epoch monotonic clock. Only differences are
// meaningful; never compare against time-of-day.
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Elapsed milliseconds since an earlier MonotonicNowNs() sample, as a
// double — the shape bench reporting wants.
inline double ElapsedMsSince(uint64_t start_ns) {
  return static_cast<double>(MonotonicNowNs() - start_ns) / 1e6;
}

}  // namespace ivy

#endif  // SRC_SUPPORT_CLOCK_H_
