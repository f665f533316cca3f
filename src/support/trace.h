// ivytrace: the unified tracing + metrics layer.
//
// Two facilities behind one global on/off gate:
//
//  * Scoped spans — `TRACE_SPAN("session.link_round", {"round", i})` records a
//    named interval (steady-clock timebase, up to two integer args) into a
//    per-thread ring buffer. `TraceSink::WriteJson` exports every ring as
//    Chrome `trace_event` / Perfetto-compatible JSON ("X" complete events),
//    loadable in chrome://tracing or ui.perfetto.dev.
//
//  * A metrics registry — named monotonic counters, gauges, and fixed-bucket
//    latency histograms with p50/p95/p99 readout. Histogram buckets are
//    log-spaced (4 sub-buckets per octave, <= ~19% relative error), so
//    Record() is two relaxed atomic ops and Percentile() needs no sample
//    retention.
//
// Cost contract (the reason this file is allowed to touch hot paths): when
// tracing is disabled — the default — every instrumentation site costs one
// relaxed atomic load and a predictable branch; no allocation, no lock, no
// clock read. bench_analysis_perf measures this and FATALs if the disabled
// path costs more than 2% on the 8x400 corpus run. The enabled path may
// allocate (one ring per thread, on that thread's first span) and takes a
// per-ring mutex per span; spans are deliberately coarse (per pass, per
// round, per request — never per function or per VM step).
//
// Determinism contract: tracing observes, never decides. Enabling tracing,
// metrics, or VM profiling must leave findings, summaries, and VM
// cycles/steps byte-identical — property-tested in tests/trace_test.cc and
// tests/bcvm_diff_test.cc.
//
// Threading: rings are written only by their owning thread (under that
// ring's own mutex, so a concurrent WriteJson can copy safely); the
// registry of rings and the metrics registry are mutex-guarded maps whose
// entries are never removed, so returned metric pointers stay valid for the
// process lifetime (cache them in a `static` at the call site).
#ifndef SRC_SUPPORT_TRACE_H_
#define SRC_SUPPORT_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ivy {

class Json;

namespace trace {

// ---------------------------------------------------------------------------
// The global gate
// ---------------------------------------------------------------------------

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// The single relaxed-atomic check every instrumentation site pays.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Flips tracing + metrics collection on or off (spans emitted while enabled
// stay in their rings either way). Not a barrier: threads observe the flip
// at their next span boundary, which is fine — spans are observations.
void SetEnabled(bool on);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

// One optional integer annotation on a span. Keys must be string literals
// (or otherwise outlive the process) — events store the pointer.
struct SpanArg {
  const char* key = nullptr;
  int64_t value = 0;
};

// A completed span as stored in a ring: fixed-size, no heap pointers except
// the literal arg keys. Names are copied (truncated to fit) so dynamically
// composed names ("pass." + tool) are safe even after their string dies.
struct Event {
  static constexpr size_t kNameCap = 47;
  char name[kNameCap + 1];
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
  uint32_t nargs = 0;
  SpanArg args[2];
};

// RAII interval: constructed at the top of the scope being measured,
// records one Event on destruction. When tracing is disabled at
// construction the destructor does nothing (the span is not retroactively
// recorded if tracing flips on mid-scope).
class Span {
 public:
  explicit Span(const char* name) : Span(name, std::strlen(name)) {}
  explicit Span(const std::string& name) : Span(name.data(), name.size()) {}
  Span(const char* name, SpanArg a0) : Span(name, std::strlen(name)) {
    AddArg(a0);
  }
  Span(const std::string& name, SpanArg a0) : Span(name.data(), name.size()) {
    AddArg(a0);
  }
  Span(const char* name, SpanArg a0, SpanArg a1) : Span(name, std::strlen(name)) {
    AddArg(a0);
    AddArg(a1);
  }
  Span(const std::string& name, SpanArg a0, SpanArg a1)
      : Span(name.data(), name.size()) {
    AddArg(a0);
    AddArg(a1);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (active_) {
      Finish();
    }
  }

  // Attaches an arg discovered mid-scope (e.g. a count known only at the
  // end of the round). No-op when the span is inactive or already has two.
  void AddArg(SpanArg a) {
    if (active_ && nargs_ < 2) {
      args_[nargs_++] = a;
    }
  }

 private:
  Span(const char* name, size_t len);
  void Finish();

  char name_[Event::kNameCap + 1];
  uint64_t start_ns_ = 0;
  SpanArg args_[2];
  uint32_t nargs_ = 0;
  bool active_ = false;
};

#define IVY_TRACE_CAT2(a, b) a##b
#define IVY_TRACE_CAT(a, b) IVY_TRACE_CAT2(a, b)
// TRACE_SPAN("name") / TRACE_SPAN("name", {"k", v}) / two args. The span
// covers the rest of the enclosing scope.
#define TRACE_SPAN(...) \
  ::ivy::trace::Span IVY_TRACE_CAT(ivy_trace_span_, __LINE__)(__VA_ARGS__)

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// Monotonic event count. Add() is unconditional (one relaxed atomic add) —
// gate on Enabled() at the call site if the count itself is the cost.
class Counter {
 public:
  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Last-writer-wins instantaneous value (queue depth, connection count). RecordMax
// keeps a high-water mark instead.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void RecordMax(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-bucket latency/size histogram. Values are non-negative integers in
// whatever unit the call site picks (the naming convention carries the unit:
// "server.request_us"). Layout: 16 exact buckets for 0..15, then 4
// log-spaced sub-buckets per octave up to 2^63 — 256 buckets total, so a
// histogram is 2 KiB of atomics and Record() is bucket-index math plus two
// relaxed adds. Percentile() answers with the bucket's upper bound:
// pessimistic (never under-reports a latency), within ~19% of the true
// sample for octave buckets, exact below 16.
class Histogram {
 public:
  static constexpr int kBuckets = 16 + 4 * 60;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  // p in [0, 100]. Returns 0 on an empty histogram.
  uint64_t Percentile(double p) const;
  void Reset();

  static int BucketIndex(uint64_t value);
  // Inclusive upper bound of a bucket — what Percentile() reports.
  static uint64_t BucketUpperBound(int index);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// Process-wide named metrics. Names are dot-separated, lowest-level unit
// suffixed: "session.solve_cold", "session.link_round_us". The returned
// pointer is valid forever; call sites cache it:
//
//   static auto* h = ivy::trace::GetHistogram("server.request_us");
//   h->Record(us);
Counter* GetCounter(const std::string& name);
Gauge* GetGauge(const std::string& name);
Histogram* GetHistogram(const std::string& name);

// One deterministic snapshot of every registered metric, for rendering or
// export. Histograms carry count/sum/p50/p95/p99/max.
struct MetricValue {
  std::string name;
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  int64_t value = 0;  // counter / gauge
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};
std::vector<MetricValue> SnapshotMetrics();

// Renders SnapshotMetrics() as "name value" / "name count=N p50=... " lines
// — the --metrics output of the CLIs. Deterministically sorted by name.
std::string RenderMetrics();

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

class TraceSink {
 public:
  // All recorded spans from every thread (including exited threads), as a
  // Chrome trace_event JSON object: {"traceEvents": [...], ...}. Events are
  // sorted by start time; timestamps are microseconds relative to the
  // earliest recorded span.
  static Json ToJson();

  // ToJson() + metrics snapshot, written to `path`. False + *err on I/O
  // failure.
  static bool WriteJson(const std::string& path, std::string* err);
};

// Test hook: drops every recorded span and zeroes every metric (rings of
// exited threads included). Not thread-safe against concurrent span
// emission; call it only from quiesced tests.
void ResetForTest();

}  // namespace trace
}  // namespace ivy

#endif  // SRC_SUPPORT_TRACE_H_
