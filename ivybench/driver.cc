// ivybench_driver: the repo benchmark's workloads.
//
//   ivybench_driver --workload cold_corpus|edit_serve|vm_hbench --seed N
//                   --seconds S --trace 0|1 [--scale full|tiny] [--out-dir D]
//
// Every workload drives the program through the public APIs its CLIs use
// (AnalysisSession for annolink, AnnodServer/AnnodClient for annod, the
// bytecode compiler and VMs for ivybc) over inputs generated from --seed,
// checks every operation against an independent reference, and prints a
// human-readable report followed by one JSON line:
//
//   {"workload": ..., "seed": ..., "attempted": N, "failed": N,
//    "digest": "<fnv64 of the verdict>", "metrics": {name: {value, unit}}}
//
// The references run in a forked child process before the workload starts,
// so they add neither to the measured times nor to this process's peak RSS.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the per-layer run: tracing on, the benchmark's own spans around each call
// into a layer, the program's existing histograms harvested by delta, a
// Chrome trace written to --out-dir, and a self-time table on stdout.
// run.py builds this binary, checks the digest against golden.json and
// prints the final result line.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/analysis/fingerprint.h"
#include "src/analysis/pointsto.h"
#include "src/bc/bytecode.h"
#include "src/bc/compile.h"
#include "src/bc/verify.h"
#include "src/kernel/corpus.h"
#include "src/kernel/prelude.h"
#include "src/mc/lexer.h"
#include "src/mc/parser.h"
#include "src/mc/sema.h"
#include "src/server/client.h"
#include "src/server/epoch.h"
#include "src/server/server.h"
#include "src/support/clock.h"
#include "src/support/rng.h"
#include "src/support/trace.h"
#include "src/tool/pipeline.h"
#include "src/tool/registry.h"
#include "src/tool/session.h"
#include "src/vm/builtins.h"
#include "tools/synth_common.h"

namespace {

using ivy::MonotonicNowNs;

// ---------------------------------------------------------------------------
// Options, samples, output
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // self-test size: every workload in about a second
  std::string out_dir = ".";
};

double MsSince(uint64_t t0) { return static_cast<double>(MonotonicNowNs() - t0) / 1e6; }

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t n() const { return v_.size(); }
  // Nearest-rank percentile, p in (0, 100].
  double Pct(double p) const {
    if (v_.empty()) {
      return 0;
    }
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(s.size())));
    rank = std::max<size_t>(1, std::min(rank, s.size()));
    return s[rank - 1];
  }
  double Median() const { return Pct(50); }
  double Mean() const {
    double sum = 0;
    for (double v : v_) {
      sum += v;
    }
    return v_.empty() ? 0 : sum / static_cast<double>(v_.size());
  }
  // "mean=… p25=… p50=… p75=… p90=… n=…": the mean, the quartiles and every
  // standard tail percentile that has at least ten samples beyond it.
  std::string Describe(const char* unit) const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "mean=%.4g%s p25=%.4g%s p50=%.4g%s p75=%.4g%s", Mean(), unit,
                  Pct(25), unit, Median(), unit, Pct(75), unit);
    std::string out = buf;
    for (double p : {90.0, 95.0, 99.0, 99.9}) {
      if (static_cast<double>(n()) * (100.0 - p) / 100.0 >= 10.0) {
        std::snprintf(buf, sizeof(buf), " p%g=%.4g%s", p, Pct(p), unit);
        out += buf;
      }
    }
    std::snprintf(buf, sizeof(buf), " n=%zu", n());
    return out + buf;
  }

 private:
  std::vector<double> v_;
};

uint64_t Fnv64(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string JoinRows(const std::vector<std::string>& rows) {
  std::string out;
  for (const std::string& row : rows) {
    out += row;
    out += '\n';
  }
  return out;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Runs `fn` in a forked child and returns through *out the strings it
// produced. A reference computed this way adds neither to this process's
// measured time nor to its peak RSS. Call it only while this process runs
// no other thread. Returns false if `fn` fails or the child does not exit
// cleanly.
bool InChild(const std::function<bool(std::vector<std::string>*)>& fn,
             std::vector<std::string>* out) {
  int fds[2];
  if (pipe(fds) != 0) {
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    std::vector<std::string> v;
    bool ok = fn(&v);
    std::string buf;  // each string as "<length>\n<bytes>"
    for (const std::string& s : v) {
      buf += std::to_string(s.size()) + '\n' + s;
    }
    for (size_t off = 0; ok && off < buf.size();) {
      const ssize_t n = write(fds[1], buf.data() + off, buf.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n == 0 || errno != EINTR) {
        ok = false;
      }
    }
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string data;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n > 0) {
      data.append(chunk, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return false;
  }
  out->clear();
  for (size_t pos = 0; pos < data.size();) {
    const size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      return false;
    }
    const size_t len = std::strtoull(data.c_str() + pos, nullptr, 10);
    if (len > data.size() - nl - 1) {
      return false;
    }
    out->push_back(data.substr(nl + 1, len));
    pos = nl + 1 + len;
  }
  return true;
}

// Everything one workload run reports.
class Report {
 public:
  // One operation's verdict: a failed check marks the operation failed and
  // keeps the first few reasons for the report.
  void Operation(bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
    }
  }
  bool Check(bool cond, const std::string& why) {
    if (!cond && reasons_.size() < 8) {
      reasons_.push_back(why);
    }
    return cond;
  }
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  void Line(const std::string& s) { lines_.push_back(s); }
  void Timing(const std::string& name, const Samples& s, const char* unit) {
    Line("  " + name + ": " + s.Describe(unit));
  }
  void set_digest(const std::string& d) { digest_ = d; }

  void Print(const Options& o) const {
    for (const std::string& l : lines_) {
      std::printf("%s\n", l.c_str());
    }
    for (const std::string& r : reasons_) {
      std::printf("  FAILED: %s\n", r.c_str());
    }
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"attempted\": %lld, "
                "\"failed\": %lld, \"digest\": \"%s\", \"metrics\": {",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                static_cast<long long>(attempted_), static_cast<long long>(failed_),
                digest_.c_str());
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), std::isfinite(m.first) ? m.first : 0.0, m.second);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> reasons_;
  std::map<std::string, std::pair<double, const char*>> metrics_;
  std::vector<std::string> lines_;
  std::string digest_;
};

// ---------------------------------------------------------------------------
// Per-layer accounting (the --trace 1 run)
// ---------------------------------------------------------------------------

// Every per-layer metric in BENCHMARK.json, with its unit. A workload that
// does not exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"mc.lex_ms", "ms"},
      {"mc.parse_ms", "ms"},
      {"mc.sema_ms", "ms"},
      {"mc.tokens", "count"},
      {"mc.arena_bytes", "bytes"},
      {"ir.lower_ms", "ms"},
      {"ir.instrs", "count"},
      {"deputy.checks_emitted", "count"},
      {"deputy.checks_discharged", "count"},
      {"analysis.fingerprint_ms", "ms"},
      {"analysis.pointsto_ms", "ms"},
      {"analysis.pointsto_propagations", "count"},
      {"analysis.callgraph_ms", "ms"},
      {"analysis.callgraph_edges", "count"},
      {"blockstop.ms", "ms"},
      {"stackcheck.ms", "ms"},
      {"locksafe.ms", "ms"},
      {"errcheck.ms", "ms"},
      {"blockstop.mayblock_evals", "count"},
      {"pass.total_ms", "ms"},
      {"frontend.parse_ms", "ms"},
      {"frontend.sema_ms", "ms"},
      {"frontend.fingerprint_ms", "ms"},
      {"tool.link_rounds", "count"},
      {"tool.module_analyses", "count"},
      {"tool.analysis_yield", "frac"},
      {"tool.link_round_ms", "ms"},
      {"tool.solve_warm", "count"},
      {"tool.solve_cold", "count"},
      {"store.save_ms", "ms"},
      {"store.load_ms", "ms"},
      {"store.bytes", "bytes"},
      {"server.request_p50_us", "us"},
      {"server.request_p99_us", "us"},
      {"server.publish_p50_us", "us"},
      {"server.relink_ms", "ms"},
      {"server.edits_per_relink", "count"},
      {"server.edit_queue_peak", "count"},
      {"server.reply_bytes", "bytes"},
      {"bc.compile_ms", "ms"},
      {"bc.verify_ms", "ms"},
      {"bc.image_bytes", "bytes"},
      {"vm.steps", "count"},
      {"vm.cycles", "count"},
      {"vm.ns_per_step", "ns"},
      {"support.workqueue_steals", "count"},
      {"support.workqueue_idle_waits", "count"},
      {"support.sharder_queue_wait_ms", "ms"},
      {"trace.attributed_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return names;
}

// Totals of the metrics the program already emits: histogram sums and
// counts, counter values. Harvested by delta around the program calls being
// attributed, never by counting ring events (rings keep only the newest
// 4096 events per thread).
class ProgramMetrics {
 public:
  static ProgramMetrics Now() {
    ProgramMetrics m;
    for (const ivy::trace::MetricValue& v : ivy::trace::SnapshotMetrics()) {
      if (v.kind == ivy::trace::MetricValue::Kind::kHistogram) {
        m.v_[v.name + ".sum"] = static_cast<double>(v.sum);
        m.v_[v.name + ".count"] = static_cast<double>(v.count);
      } else {
        m.v_[v.name] = static_cast<double>(v.value);
      }
    }
    return m;
  }
  double Get(const std::string& k) const {
    auto it = v_.find(k);
    return it == v_.end() ? 0.0 : it->second;
  }
  // Accumulates (after - before) into this.
  void AddDelta(const ProgramMetrics& after, const ProgramMetrics& before) {
    for (const auto& [k, v] : after.v_) {
      v_[k] += v - before.Get(k);
    }
  }

 private:
  std::map<std::string, double> v_;
};

// In-program layer time (us -> ms) inside a harvested region: the frontend
// histograms plus the per-pass histogram.
double AttributedMs(const ProgramMetrics& d) {
  return (d.Get("frontend.parse_us.sum") + d.Get("frontend.sema_us.sum") +
          d.Get("frontend.fingerprint_us.sum") + d.Get("pipeline.pass_us.sum")) /
         1000.0;
}

// Per-layer totals accumulated over the operations of one kind: traced cold
// runs, traced edits, traced kernel builds, traced hot pass pairs, queries,
// or one layer replay.
class LayerTotals {
 public:
  void Add(const std::string& name, double v) { total_[name] += v; }
  void CountOps(int64_t n = 1) { ops_ += n; }
  double Get(const std::string& name) const {
    auto it = total_.find(name);
    return it == total_.end() ? 0.0 : it->second;
  }
  int64_t ops() const { return ops_; }
  const std::map<std::string, double>& totals() const { return total_; }

 private:
  std::map<std::string, double> total_;
  int64_t ops_ = 0;
};

// The per-layer metrics of one run. Each value is either a group's total
// divided by that group's operation count (PerOp) or a ratio set as it is
// (Set); this is the only place totals become per-operation values.
class LayerMetrics {
 public:
  void PerOp(const LayerTotals& t) {
    for (const auto& [name, total] : t.totals()) {
      v_[name] += t.ops() > 0 ? total / static_cast<double>(t.ops()) : 0.0;
    }
  }
  void Set(const std::string& name, double v) { v_[name] = v; }
  double Get(const std::string& name) const {
    auto it = v_.find(name);
    return it == v_.end() ? 0.0 : it->second;
  }
  void Emit(Report* r) const {
    for (const auto& [name, unit] : LayerMetricNames()) {
      r->Metric(name, Get(name), unit);
    }
  }

 private:
  std::map<std::string, double> v_;
};

// Self-time table: a root wall time and the in-program layers harvested
// inside it. Self time of the root is what no child accounts for.
void SelfTimeTable(Report* r, const std::string& root, double root_ms,
                   const std::vector<std::pair<std::string, double>>& children) {
  char buf[200];
  double covered = 0;
  for (const auto& c : children) {
    covered += c.second;
  }
  r->Line("per-layer self time (ms, totals over the traced operations):");
  std::snprintf(buf, sizeof(buf), "  %-28s %12s %8s", "layer", "self_ms", "share");
  r->Line(buf);
  std::snprintf(buf, sizeof(buf), "  %-28s %12.2f %7.1f%%", root.c_str(),
                std::max(0.0, root_ms - covered),
                root_ms > 0 ? 100.0 * std::max(0.0, root_ms - covered) / root_ms : 0.0);
  r->Line(buf);
  for (const auto& c : children) {
    std::snprintf(buf, sizeof(buf), "    %-26s %12.2f %7.1f%%", c.first.c_str(), c.second,
                  root_ms > 0 ? 100.0 * c.second / root_ms : 0.0);
    r->Line(buf);
  }
}

std::vector<std::pair<std::string, double>> ProgramChildren(const ProgramMetrics& d) {
  return {
      {"frontend.parse (lex+parse)", d.Get("frontend.parse_us.sum") / 1000.0},
      {"frontend.sema", d.Get("frontend.sema_us.sum") / 1000.0},
      {"frontend.fingerprint", d.Get("frontend.fingerprint_us.sum") / 1000.0},
      {"pass.* (pipeline.pass_us)", d.Get("pipeline.pass_us.sum") / 1000.0},
  };
}

// Copies the harvested program totals into a layer group.
void AddProgramLayers(const ProgramMetrics& d, LayerTotals* L) {
  L->Add("frontend.parse_ms", d.Get("frontend.parse_us.sum") / 1000.0);
  L->Add("frontend.sema_ms", d.Get("frontend.sema_us.sum") / 1000.0);
  L->Add("frontend.fingerprint_ms", d.Get("frontend.fingerprint_us.sum") / 1000.0);
  L->Add("pass.total_ms", d.Get("pipeline.pass_us.sum") / 1000.0);
  L->Add("tool.link_round_ms", d.Get("session.link_round_us.sum") / 1000.0);
  L->Add("tool.solve_warm", d.Get("session.solve_warm"));
  L->Add("tool.solve_cold", d.Get("session.solve_cold"));
  L->Add("support.workqueue_steals", d.Get("workqueue.steals"));
  L->Add("support.workqueue_idle_waits", d.Get("workqueue.idle_waits"));
  L->Add("support.sharder_queue_wait_ms", d.Get("sharder.queue_wait_us.sum") / 1000.0);
}

// Times `fn` into layer `name`, inside a span of the same name.
template <typename F>
auto Timed(LayerTotals* L, const char* name, F&& fn) {
  ivy::trace::Span span(name);
  const uint64_t t0 = MonotonicNowNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    L->Add(name, MsSince(t0));
  } else {
    auto r = fn();
    L->Add(name, MsSince(t0));
    return r;
  }
}

// Layer replay: one module through every frontend and analysis layer, each
// called directly and timed by the benchmark — Lexer::Lex, Parser, Sema::Run,
// Lowerer::Lower, FingerprintFunctionFull, PointsTo::Solve, CallGraph::Build
// and every configured pass's Run. `analyze` false stops after lowering (the
// kernel build has no analysis passes).
bool ReplayModule(const ivy::Pipeline& p, const std::vector<ivy::SourceFile>& files,
                  bool analyze, LayerTotals* L) {
  auto comp = std::make_unique<ivy::Compilation>();
  comp->config = p.config();
  comp->diags = std::make_unique<ivy::DiagEngine>(&comp->sm);
  std::vector<int32_t> ids;
  if (comp->config.include_prelude) {
    ids.push_back(comp->sm.AddFile("<prelude>", ivy::PreludeSource()));
  }
  for (const ivy::SourceFile& f : files) {
    ids.push_back(comp->sm.AddFile(f.name, f.text));
  }
  std::vector<std::vector<ivy::Token>> toks = Timed(L, "mc.lex_ms", [&] {
    std::vector<std::vector<ivy::Token>> out;
    for (int32_t id : ids) {
      out.push_back(ivy::Lexer(comp->sm, id, comp->diags.get()).Lex());
    }
    return out;
  });
  for (const auto& t : toks) {
    L->Add("mc.tokens", static_cast<double>(t.size()));
  }
  Timed(L, "mc.parse_ms", [&] {
    for (const auto& t : toks) {
      ivy::Parser(&comp->prog, &t, comp->diags.get()).ParseTranslationUnit();
    }
  });
  if (!comp->diags->ok()) {
    return false;
  }
  comp->sema = std::make_unique<ivy::Sema>(
      &comp->prog, comp->diags.get(),
      [](const std::string& name) { return ivy::BuiltinIdForName(name); });
  if (!Timed(L, "mc.sema_ms", [&] { return comp->sema->Run(); })) {
    return false;
  }
  L->Add("mc.arena_bytes", static_cast<double>(comp->prog.arena().TotalBytes()));
  ivy::LowerOptions lopts;
  lopts.deputy = comp->config.deputy;
  lopts.discharge = comp->config.discharge;
  comp->module = Timed(L, "ir.lower_ms", [&] {
    return ivy::Lowerer(&comp->prog, comp->sema.get(), comp->diags.get(), lopts).Lower();
  });
  if (!comp->diags->ok()) {
    return false;
  }
  for (const ivy::IrFunc& f : comp->module.funcs) {
    L->Add("ir.instrs", static_cast<double>(f.InstrCount()));
  }
  L->Add("deputy.checks_emitted", static_cast<double>(comp->module.checks_emitted));
  L->Add("deputy.checks_discharged", static_cast<double>(comp->module.checks_discharged));
  comp->layouts = ivy::TypeLayoutRegistry::Build(comp->prog);
  comp->ok = true;
  if (!analyze) {
    return true;
  }

  Timed(L, "analysis.fingerprint_ms", [&] {
    uint64_t sink = 0;
    for (const auto& [name, fn] : comp->sema->func_map()) {
      if (fn->body != nullptr && fn->func_id >= 0) {
        sink ^= ivy::FingerprintFunctionFull(comp->prog, fn).full;
      }
    }
    return sink;
  });
  ivy::PointsTo pt(&comp->prog, comp->sema.get(), p.field_sensitive());
  Timed(L, "analysis.pointsto_ms", [&] { pt.Solve(); });
  L->Add("analysis.pointsto_propagations", static_cast<double>(pt.solve_propagations()));
  ivy::CallGraph cg = Timed(L, "analysis.callgraph_ms",
                            [&] { return ivy::CallGraph::Build(comp->prog, *comp->sema, pt); });
  L->Add("analysis.callgraph_edges", static_cast<double>(cg.edge_count()));

  // The passes read points-to and the call graph through the context; build
  // those outside the pass timings so each pass is timed alone.
  std::unique_ptr<ivy::AnalysisContext> ctx = p.MakeContext(comp.get());
  ctx->callgraph();
  for (const std::string& tool : p.tools()) {
    std::unique_ptr<ivy::ToolPass> pass = ivy::ToolRegistry::Instance().Create(tool);
    if (pass == nullptr) {
      return false;
    }
    ivy::ToolOptions opts;
    auto it = p.tool_options().find(tool);
    if (it != p.tool_options().end()) {
      opts = it->second;
    }
    if (!opts.Has("shards")) {
      opts.SetInt("shards", p.shard_functions());
    }
    pass->Configure(std::move(opts));
    const std::string layer = tool + ".ms";
    ivy::trace::Span span(layer);
    const uint64_t t0 = MonotonicNowNs();
    ivy::ToolResult r = pass->Run(*ctx);
    L->Add(layer, MsSince(t0));
    if (tool == "blockstop") {
      L->Add("blockstop.mayblock_evals", static_cast<double>(r.Metric("mayblock_evals")));
    }
  }
  return true;
}

void WriteTrace(const Options& o, Report* r) {
  const std::string path = o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) +
                           ".json";
  std::string err;
  if (ivy::trace::TraceSink::WriteJson(path, &err)) {
    r->Line("chrome trace (a sample: newest 4096 events per thread): " + path);
  } else {
    r->Line("chrome trace not written: " + err);
  }
}

// Canonical findings: rendered tool/severity/location/message/witness,
// sorted. Rendered locations use file names, which match between a module's
// own compilation and the merged program.
std::vector<std::string> CanonSorted(const std::vector<ivy::Finding>& findings,
                                     const ivy::SourceManager* sm) {
  std::vector<std::string> out;
  for (const ivy::Finding& f : findings) {
    out.push_back(f.ToString(sm));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> LinkedCanon(const ivy::AnalysisSession& session,
                                     const ivy::SessionResult& result) {
  std::vector<std::string> all;
  for (const ivy::ModuleRunResult& mr : result.modules) {
    const ivy::Compilation* comp = session.CompilationFor(mr.module);
    std::vector<std::string> c =
        CanonSorted(mr.result.findings, comp != nullptr ? &comp->sm : nullptr);
    all.insert(all.end(), c.begin(), c.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::string FindingsDump(const std::vector<ivy::Finding>& findings) {
  std::string out;
  for (const ivy::Finding& f : findings) {
    out += f.ToJson().Dump();
    out += '\n';
  }
  return out;
}

int64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<int64_t>(in.tellg()) : 0;
}

// Set-up runs kSetups times before the load; setup_s is the median of all
// set-ups in a run. A shared machine's speed drifts over seconds, so the
// single-threaded workloads also set up again during the load: cold_corpus
// for kSetupSliceMs after every operation, vm_hbench once every
// kSetupEveryOps operations (about a second). Their setup_s then samples
// the whole run, not its first second. vm_hbench counts operations, not
// time, so its allocation sequence, and with it its peak RSS, does not
// depend on the machine's speed.
constexpr size_t kSetups = 7;
constexpr double kSetupSliceMs = 50;
constexpr int kSetupEveryOps = 75;

// A restart is ~8x shorter than a cold run; repeating it gives its
// quantiles as many samples as the cold run's.
constexpr int kRestartsPerOp = 3;

// Splits the run into an untraced head and a traced tail (--trace 1 only):
// the head gives the untraced baseline for trace.overhead_frac.
constexpr double kUntracedShare = 0.4;

// edit_serve sets up a fresh server this many times per run, one per chunk
// of its load.
constexpr int kServeChunks = 8;

// ---------------------------------------------------------------------------
// cold_corpus: annolink's batch sequence over a generated linked corpus
// ---------------------------------------------------------------------------

void RunColdCorpus(const Options& o, Report* r) {
  ivy::LinkedCorpusOptions copt;
  copt.modules = o.tiny ? 3 : 8;
  copt.functions = o.tiny ? 24 : 200;
  copt.seed = o.seed;
  const ivy::PipelineBuilder recipe = ivy::SynthServePipeline();

  // The reference: the corpus merged into one program, compiled and
  // analyzed once, in a child process.
  std::vector<std::string> reference;
  if (!InChild(
          [&](std::vector<std::string>* out) {
            ivy::PipelineRun merged = recipe.Build().CompileAndRun(
                ivy::MergedLinkedSources(ivy::GenerateLinkedCorpus(copt)));
            *out = CanonSorted(merged.result.findings, &merged.comp->sm);
            return merged.comp->ok;
          },
          &reference)) {
    std::fprintf(stderr, "ivybench: merged-source reference failed\n");
    std::exit(2);
  }

  // One set-up, as annolink does it before analysis: generate the corpus and
  // build a session over it. Every set-up yields the same corpus.
  Samples setup_s;
  std::vector<ivy::ModuleSources> corpus;
  auto set_up = [&] {
    const uint64_t t0 = MonotonicNowNs();
    corpus = ivy::GenerateLinkedCorpus(copt);
    ivy::PipelineBuilder b = recipe;
    b.ForEachModule(corpus);
    ivy::AnalysisSession session = b.BuildSession();
    setup_s.Add(MsSince(t0) / 1000.0);
  };
  while (setup_s.n() < kSetups) {
    set_up();
  }

  const std::string store_path = o.out_dir + "/cold_corpus-" + std::to_string(o.seed) + ".store";
  Samples cold_ms, restart_ms, cold_traced_ms;
  LayerTotals per_op;  // traced operations: cold run, save, restarts, replay
  ProgramMetrics harvested;
  double traced_root_ms = 0;
  std::string golden_dump;
  int rounds = 0, analyses = 0;
  const uint64_t start = MonotonicNowNs();
  const double untraced_until = o.trace ? o.seconds * kUntracedShare : o.seconds;
  bool tracing = false;
  while (cold_ms.n() + cold_traced_ms.n() == 0 || MsSince(start) < o.seconds * 1000.0) {
    if (o.trace && !tracing && MsSince(start) >= untraced_until * 1000.0 && cold_ms.n() > 0) {
      ivy::trace::SetEnabled(true);
      tracing = true;
    }
    bool ok = true;
    std::string dump;
    // Session teardown joins its pool, which is when work-queue counters
    // are flushed, so the harvested region closes after the session scope.
    const ProgramMetrics before = tracing ? ProgramMetrics::Now() : ProgramMetrics();
    {
      ivy::PipelineBuilder b = recipe;
      b.ForEachModule(corpus);
      ivy::AnalysisSession session = b.BuildSession();
      const uint64_t t0 = MonotonicNowNs();
      ivy::SessionResult cold;
      {
        ivy::trace::Span span("bench.cold_analysis");
        cold = session.RunLinked();
      }
      const double ms = MsSince(t0);
      (tracing ? cold_traced_ms : cold_ms).Add(ms);
      const ivy::LinkStats& ls = session.link_stats();
      rounds = ls.rounds;
      analyses = ls.module_analyses;
      ok &= r->Check(ls.converged && cold.compile_failures == 0, "cold run did not converge");
      ok &= r->Check(LinkedCanon(session, cold) == reference,
                     "cold findings differ from the merged-source reference");
      dump = FindingsDump(cold.findings);
      if (golden_dump.empty()) {
        golden_dump = dump;
      }
      ok &= r->Check(dump == golden_dump, "cold findings differ between operations");

      std::string err;
      const uint64_t s0 = MonotonicNowNs();
      {
        ivy::trace::Span span("bench.store_save");
        ok &= r->Check(session.SaveStore(store_path, &err), "SaveStore: " + err);
      }
      if (tracing) {
        per_op.Add("store.save_ms", MsSince(s0));
        per_op.Add("store.bytes", static_cast<double>(FileBytes(store_path)));
        per_op.Add("tool.link_rounds", ls.rounds);
        per_op.Add("tool.module_analyses", ls.module_analyses);
        traced_root_ms += ms;
      }
    }
    if (tracing) {
      harvested.AddDelta(ProgramMetrics::Now(), before);
    }
    for (int k = 0; k < kRestartsPerOp; ++k) {
      // The restart: a fresh session over the same corpus warm-starts from
      // the store and must reproduce the cold verdict without analysis.
      ivy::PipelineBuilder b = recipe;
      b.ForEachModule(corpus);
      ivy::AnalysisSession restarted = b.BuildSession();
      const uint64_t t0 = MonotonicNowNs();
      std::string err;
      ivy::trace::Span span("bench.restart");
      bool loaded = restarted.LoadStore(store_path, &err);
      const double load_ms = MsSince(t0);
      ivy::SessionResult warm = restarted.RunLinked();
      const double ms = MsSince(t0);
      if (!tracing) {
        restart_ms.Add(ms);
      } else {
        per_op.Add("store.load_ms", load_ms / kRestartsPerOp);
      }
      ok &= r->Check(loaded, "LoadStore: " + err);
      ok &= r->Check(FindingsDump(warm.findings) == dump,
                     "restart findings differ from the cold run");
      ok &= r->Check(restarted.link_stats().module_analyses == 0,
                     "restart re-analyzed modules");
    }
    if (tracing) {
      ivy::trace::Span span("bench.layer_replay");
      for (const ivy::ModuleSources& m : corpus) {
        ok &= r->Check(ReplayModule(recipe.Build(), m.files, true, &per_op),
                       "layer replay failed on " + m.name);
      }
      per_op.CountOps();
    }
    r->Operation(ok);
    for (const uint64_t t0 = MonotonicNowNs(); MsSince(t0) < kSetupSliceMs;) {
      set_up();
    }
  }
  const double peak_rss_mb = PeakRssMb();
  std::remove(store_path.c_str());
  r->set_digest(Hex64(Fnv64(golden_dump)));

  r->Line("cold_corpus: " + std::to_string(copt.modules) + "x" + std::to_string(copt.functions) +
          " linked corpus, seed " + std::to_string(o.seed) + ", link rounds " +
          std::to_string(rounds) + ", module analyses " + std::to_string(analyses));
  r->Timing("setup_s", setup_s, "s");
  r->Timing("cold_analysis_ms", cold_ms, "ms");
  r->Timing("restart_ms", restart_ms, "ms");
  r->Line("  peak_rss_mb: " + std::to_string(peak_rss_mb));
  if (!o.trace) {
    r->Metric("setup_s", setup_s.Median(), "s");
    r->Metric("build_mean_ms", cold_ms.Mean(), "ms");
    r->Metric("build_tail_ms", cold_ms.Pct(90), "ms");
    r->Metric("serve_mean_ms", restart_ms.Mean(), "ms");
    r->Metric("serve_tail_ms", restart_ms.Pct(90), "ms");
    r->Metric("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  AddProgramLayers(harvested, &per_op);
  LayerMetrics m;
  m.PerOp(per_op);
  m.Set("tool.analysis_yield", analyses > 0 ? static_cast<double>(copt.modules) / analyses : 0.0);
  m.Set("trace.attributed_frac",
        traced_root_ms > 0 ? AttributedMs(harvested) / traced_root_ms : 0.0);
  m.Set("trace.overhead_frac",
        cold_ms.n() > 0 ? cold_traced_ms.Median() / cold_ms.Median() - 1.0 : 0.0);
  m.Emit(r);
  r->Timing("cold_analysis_ms (traced)", cold_traced_ms, "ms");
  r->Line("layer replay: every layer called directly, one pass over every module, per operation");
  SelfTimeTable(r, "bench.cold_analysis (RunLinked)", traced_root_ms,
                ProgramChildren(harvested));
  WriteTrace(o, r);
}

// ---------------------------------------------------------------------------
// edit_serve: an in-process annod over loopback TCP, one editor and two
// query connections (closed loop)
// ---------------------------------------------------------------------------

struct EditTarget {
  int module = -1;
  std::string function;
};

// A function some other module calls under a spinlock through an extern
// declaration: giving it a blocking body adds a BlockStop violation in the
// caller's module, a non-blocking body removes it, so every edit changes
// findings across modules.
EditTarget PickEditTarget(const std::vector<ivy::ModuleSources>& corpus, uint64_t seed) {
  std::vector<EditTarget> candidates;
  for (size_t m = 0; m < corpus.size(); ++m) {
    const std::string& text = corpus[m].files[0].text;
    const std::string lock = "  spin_lock(&" + ivy::LinkedModulePrefix(static_cast<int>(m)) +
                             "lk_0);\n  ";
    for (size_t pos = text.find(lock); pos != std::string::npos;
         pos = text.find(lock, pos + 1)) {
      const size_t b = pos + lock.size();
      const size_t e = text.find('(', b);
      const std::string callee = text.substr(b, e - b);
      for (size_t t = 0; t < corpus.size(); ++t) {
        if (t != m && callee.rfind(ivy::LinkedModulePrefix(static_cast<int>(t)), 0) == 0 &&
            corpus[t].files[0].text.find("void " + callee + "(int n) {\n") !=
                std::string::npos) {
          candidates.push_back({static_cast<int>(t), callee});
        }
      }
    }
  }
  if (candidates.empty()) {
    return {};
  }
  return candidates[seed % candidates.size()];
}

std::string EditDefinition(const std::string& fn, int flavor) {
  return "void " + fn + "(int n) {\n  int pad[4]; pad[0] = n;\n  " +
         (flavor % 2 == 0 ? "msleep(n);" : "udelay(n);") + "\n}\n";
}

void RunEditServe(const Options& o, Report* r) {
  ivy::LinkedCorpusOptions copt;
  copt.modules = o.tiny ? 2 : 4;
  copt.functions = o.tiny ? 16 : 200;
  copt.seed = o.seed;
  const std::string kCorpus = "bench";

  const EditTarget target = PickEditTarget(ivy::GenerateLinkedCorpus(copt), o.seed);
  if (target.module < 0) {
    std::fprintf(stderr, "ivybench: corpus has no cross-module spinlocked call\n");
    std::exit(2);
  }
  const std::string edit_module = ivy::LinkedModuleName(target.module);
  // The load ends on this known definition.
  const std::string final_def = EditDefinition(target.function, 0);

  // The reference: a cold batch RunLinked() over the final sources, in a
  // child process: {findings rows, summary rows}.
  std::vector<std::string> reference;
  if (!InChild(
          [&](std::vector<std::string>* out) {
            ivy::PipelineBuilder b = ivy::SynthServePipeline();
            b.ForEachModule(ivy::GenerateLinkedCorpus(copt));
            ivy::AnalysisSession session = b.BuildSession();
            if (!session.ReplaceFunction(edit_module, target.function, final_def)) {
              return false;
            }
            ivy::SessionResult cold = session.RunLinked();
            std::shared_ptr<ivy::EpochSnapshot> ref =
                ivy::BuildEpochSnapshot(1, cold, session.link_table());
            *out = {JoinRows(ref->findings_canon), JoinRows(ref->summaries_canon)};
            return true;
          },
          &reference) ||
      reference.size() != 2) {
    std::fprintf(stderr, "ivybench: cold batch reference failed\n");
    std::exit(2);
  }

  // One set-up: generate the corpus, start a server on it and wait for its
  // first epoch. It replaces the previous set-up's server.
  Samples setup_s;
  std::vector<ivy::ModuleSources> corpus;
  std::unique_ptr<ivy::AnnodServer> server;
  std::string address;
  auto set_up = [&] {
    if (server != nullptr) {
      server->RequestShutdown();
      server->Wait();
      server.reset();
    }
    const uint64_t t0 = MonotonicNowNs();
    corpus = ivy::GenerateLinkedCorpus(copt);
    ivy::AnnodServer::Options sopts;
    sopts.pipeline = ivy::SynthServePipeline().Build();
    server = std::make_unique<ivy::AnnodServer>(std::move(sopts));
    server->OpenCorpus(kCorpus);
    for (const ivy::ModuleSources& m : corpus) {
      server->EnqueueUpsert(kCorpus, m);
    }
    std::string err;
    if (!server->Start("127.0.0.1:0", &err) || server->SyncEpoch(kCorpus) == 0) {
      std::fprintf(stderr, "ivybench: server set-up failed: %s\n", err.c_str());
      std::exit(2);
    }
    setup_s.Add(MsSince(t0) / 1000.0);
    address = server->bound_address();
  };

  std::atomic<bool> stop{false};
  std::mutex mu;  // guards the query samples and the report below
  Samples query_us;  // untraced queries only
  int64_t query_ops = 0, query_failed = 0;
  double reply_bytes = 0;
  std::vector<std::string> query_errors;
  auto query_loop = [&](int id) {
    ivy::AnnodClient c;
    std::string err;
    bool connected = c.Connect(address, &err);
    std::vector<double> lat;
    int64_t ops = 0, failed = 0;
    double bytes = 0;
    for (int i = 0; connected && !stop.load(std::memory_order_relaxed); ++i) {
      ivy::RowsReplyMsg rows;
      const std::string module = ivy::LinkedModuleName((i / 3 + id) % copt.modules);
      const uint64_t t0 = MonotonicNowNs();
      bool ok;
      if (i % 3 == 2) {
        ivy::SummariesQueryMsg q;
        q.corpus = kCorpus;
        q.module = module;
        ok = c.QuerySummaries(q, &rows, &err) && !rows.rows.empty();
      } else {
        ivy::FindingsQueryMsg q;
        q.corpus = kCorpus;
        if (i % 3 == 1) {
          q.module = module;
        }
        ok = c.QueryFindings(q, &rows, &err) &&
             (i % 3 == 1 || (rows.total > 0 && rows.rows.size() == rows.total));
      }
      lat.push_back(static_cast<double>(MonotonicNowNs() - t0) / 1000.0);
      ok = ok && rows.epoch > 0;
      for (const std::string& row : rows.rows) {
        bytes += static_cast<double>(row.size());
      }
      ++ops;
      if (!ok) {
        ++failed;
        std::lock_guard<std::mutex> lock(mu);
        if (query_errors.size() < 4) {
          query_errors.push_back("query failed: " + err);
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (!ivy::trace::Enabled()) {
      for (double v : lat) {
        query_us.Add(v);
      }
    }
    query_ops += connected ? ops : 1;
    query_failed += connected ? failed : 1;
    reply_bytes += bytes;
  };

  // The load runs in kServeChunks chunks, each on a freshly set-up server,
  // so setup_s samples the whole run. In a chunk the editor sends
  // ReplaceFunction then Sync, alternating blocking and non-blocking bodies,
  // timed from sending the edit until Sync returns the epoch that contains
  // it, while two query connections run.
  ivy::AnnodClient control;
  std::string cerr;
  Samples edit_ms, edit_ms_traced;
  int64_t edits = 0, relinked_edits = 0;
  double relinks = 0;
  ProgramMetrics harvested;
  double traced_edit_ms = 0;
  auto chunk = [&](double seconds, int min_edits, bool traced) {
    control.Disconnect();
    set_up();
    if (!control.Connect(address, &cerr)) {
      std::fprintf(stderr, "ivybench: connect: %s\n", cerr.c_str());
      std::exit(2);
    }
    // Untimed: put the function in the last edit's state, so the chunk's
    // first timed edit changes the findings like every other edit.
    ivy::StatsReplyMsg stats0;
    uint64_t last_epoch = 0;
    ivy::FindingsQueryMsg all;
    all.corpus = kCorpus;
    ivy::RowsReplyMsg rows;
    if (!control.Stats(kCorpus, &stats0, &cerr) ||
        !control.ReplaceFunction(kCorpus, edit_module, target.function,
                                 EditDefinition(target.function, edits), nullptr, &cerr) ||
        !control.Sync(kCorpus, &last_epoch, &cerr) || !control.QueryFindings(all, &rows, &cerr)) {
      std::fprintf(stderr, "ivybench: chunk set-up failed: %s\n", cerr.c_str());
      std::exit(2);
    }
    uint64_t last_findings = Fnv64(JoinRows(rows.rows));

    const ProgramMetrics before = traced ? ProgramMetrics::Now() : ProgramMetrics();
    std::vector<std::thread> readers;
    stop.store(false);
    for (int id = 0; id < 2; ++id) {
      readers.emplace_back(query_loop, id);
    }
    const uint64_t start = MonotonicNowNs();
    int n = 0;
    while (n < min_edits || MsSince(start) < seconds * 1000.0) {
      std::string err;
      uint64_t at = 0, epoch = 0;
      ivy::trace::Span span("bench.edit_to_epoch");
      const uint64_t t0 = MonotonicNowNs();
      bool ok = control.ReplaceFunction(kCorpus, edit_module, target.function,
                                        EditDefinition(target.function, ++edits), &at, &err) &&
                control.Sync(kCorpus, &epoch, &err);
      const double ms = MsSince(t0);
      (traced ? edit_ms_traced : edit_ms).Add(ms);
      if (traced) {
        traced_edit_ms += ms;
      }
      ok = r->Check(ok, "edit failed: " + err) &&
           r->Check(epoch > last_epoch, "Sync returned no new epoch for an edit");
      last_epoch = epoch;
      // Untimed: the epoch's findings must differ from the previous edit's.
      ok = ok && r->Check(control.QueryFindings(all, &rows, &err), "query failed: " + err);
      const uint64_t h = Fnv64(JoinRows(rows.rows));
      ok = ok && r->Check(h != last_findings, "an edit left the findings unchanged");
      last_findings = h;
      r->Operation(ok);
      ++n;
    }
    stop.store(true);
    for (std::thread& t : readers) {
      t.join();
    }
    if (traced) {
      harvested.AddDelta(ProgramMetrics::Now(), before);
    }
    ivy::StatsReplyMsg stats1;
    if (control.Stats(kCorpus, &stats1, &cerr)) {
      relinks += static_cast<double>(stats1.relinks - stats0.relinks);
      relinked_edits += n + 1;  // the untimed edit rode a relink too
    }
  };

  // With --trace 1 the first kUntracedShare of the chunks are the untraced
  // baseline and the rest run traced.
  const int traced_from =
      o.trace ? static_cast<int>(kServeChunks * kUntracedShare + 0.5) : kServeChunks;
  const int min_edits = o.tiny ? 1 : (100 + kServeChunks - 1) / kServeChunks;
  for (int i = 0; i < kServeChunks; ++i) {
    if (i == traced_from) {
      ivy::trace::SetEnabled(true);
    }
    chunk(o.seconds / kServeChunks, min_edits, i >= traced_from);
  }
  for (int64_t q = 0; q < query_ops; ++q) {
    r->Operation(q >= query_failed);
  }
  for (const std::string& e : query_errors) {
    r->Check(false, e);
  }

  // Quiesce on the final definition, then hold the final epoch to the cold
  // batch reference over the same final sources.
  uint64_t final_epoch = 0;
  bool ok = control.ReplaceFunction(kCorpus, edit_module, target.function, final_def, nullptr,
                                    &cerr) &&
            control.Sync(kCorpus, &final_epoch, &cerr);
  ok = r->Check(ok, "final edit failed: " + cerr);
  ivy::StatsReplyMsg stats;
  ok &= r->Check(control.Stats(kCorpus, &stats, &cerr), "stats failed: " + cerr);
  std::shared_ptr<const ivy::EpochSnapshot> warm = server->Snapshot(kCorpus, final_epoch);
  const double peak_rss_mb = PeakRssMb();
  control.Disconnect();
  server->RequestShutdown();
  server->Wait();
  ok &= r->Check(warm != nullptr && JoinRows(warm->findings_canon) == reference[0] &&
                     JoinRows(warm->summaries_canon) == reference[1],
                 "final epoch differs from a cold batch run over the final sources");
  r->Operation(ok);
  r->set_digest(Hex64(Fnv64(reference[0] + reference[1])));

  r->Line("edit_serve: " + std::to_string(copt.modules) + "x" + std::to_string(copt.functions) +
          " linked corpus over loopback TCP, seed " + std::to_string(o.seed) + ", editing " +
          edit_module + ":" + target.function + "; 1 editor + 2 query connections, closed loop");
  r->Timing("setup_s", setup_s, "s");
  r->Timing("edit_to_epoch_ms", edit_ms, "ms");
  r->Timing("query_us", query_us, "us");
  r->Line("  peak_rss_mb: " + std::to_string(peak_rss_mb));
  if (!o.trace) {
    r->Metric("setup_s", setup_s.Median(), "s");
    r->Metric("build_mean_ms", edit_ms.Mean(), "ms");
    r->Metric("build_tail_ms", edit_ms.Pct(90), "ms");
    r->Metric("serve_mean_ms", query_us.Mean() / 1000.0, "ms");
    r->Metric("serve_tail_ms", query_us.Pct(95) / 1000.0, "ms");
    r->Metric("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // Per traced edit: with one editor waiting on Sync, every edit rides its
  // own relink (server.edits_per_relink shows it).
  LayerTotals per_edit;
  AddProgramLayers(harvested, &per_edit);
  per_edit.Add("tool.link_rounds", harvested.Get("session.link_round_us.count"));
  per_edit.Add("tool.module_analyses",
               harvested.Get("session.solve_warm") + harvested.Get("session.solve_cold"));
  per_edit.CountOps(static_cast<int64_t>(edit_ms_traced.n()));
  LayerTotals per_query;
  per_query.Add("server.reply_bytes", reply_bytes);
  per_query.CountOps(query_ops);
  // One replay of the module every edit dirties: one edit's worth.
  LayerTotals replay;
  {
    ivy::trace::Span span("bench.layer_replay");
    for (const ivy::ModuleSources& m : corpus) {
      if (m.name == edit_module) {
        ReplayModule(ivy::SynthServePipeline().Build(), m.files, true, &replay);
      }
    }
    replay.CountOps();
  }
  LayerMetrics m;
  m.PerOp(per_edit);
  m.PerOp(per_query);
  m.PerOp(replay);
  // The relink as the server runs it: the link rounds plus the epoch publish
  // (the server's own publish histogram, served by kStats).
  m.Set("server.relink_ms",
        m.Get("tool.link_round_ms") + static_cast<double>(stats.publish_p50_us) / 1000.0);
  m.Set("server.edits_per_relink",
        relinks > 0 ? static_cast<double>(relinked_edits) / relinks : 0.0);
  m.Set("server.request_p50_us", static_cast<double>(stats.request_p50_us));
  m.Set("server.request_p99_us", static_cast<double>(stats.request_p99_us));
  m.Set("server.publish_p50_us", static_cast<double>(stats.publish_p50_us));
  m.Set("server.edit_queue_peak", static_cast<double>(stats.edit_queue_peak));
  const double analyses_per_edit = m.Get("tool.module_analyses");
  m.Set("tool.analysis_yield", analyses_per_edit > 0 ? copt.modules / analyses_per_edit : 0.0);
  m.Set("trace.attributed_frac",
        traced_edit_ms > 0 ? AttributedMs(harvested) / traced_edit_ms : 0.0);
  m.Set("trace.overhead_frac",
        edit_ms.n() > 0 ? edit_ms_traced.Median() / edit_ms.Median() - 1.0 : 0.0);
  m.Emit(r);
  r->Timing("edit_to_epoch_ms (traced)", edit_ms_traced, "ms");
  r->Line("layer replay: one pass over the edited module; program layers per edit");
  SelfTimeTable(r, "bench.edit_to_epoch", traced_edit_ms, ProgramChildren(harvested));
  WriteTrace(o, r);
}

// ---------------------------------------------------------------------------
// vm_hbench: the kernel corpus under Deputy and under CCount, compiled to
// verified bytecode images, booted once, running the hot hbench call sets
// ---------------------------------------------------------------------------

struct HotCall {
  const char* fn;
  int64_t arg;
};

struct Image {
  std::unique_ptr<ivy::Compilation> comp;
  std::shared_ptr<const ivy::BcModule> bc;
  size_t image_bytes = 0;
};

// A machine's step budget is cumulative; it reboots after this many passes.
constexpr size_t kPassesPerBoot = 64;

// Kernel source to a verified bytecode image, timing each layer call.
Image BuildImage(const ivy::ToolConfig& cfg, LayerTotals* L, bool* ok) {
  Image img;
  img.comp = ivy::CompileKernel(cfg);
  *ok = img.comp->ok;
  if (!*ok) {
    return img;
  }
  std::string err;
  std::shared_ptr<ivy::BcModule> bc =
      Timed(L, "bc.compile_ms", [&] { return ivy::CompileToBc(img.comp->module, &err); });
  *ok = bc != nullptr && Timed(L, "bc.verify_ms", [&] { return ivy::VerifyBcModule(*bc, &err); });
  if (*ok) {
    img.image_bytes = ivy::EncodeBcImage(*bc).size();
    img.bc = std::move(bc);
  }
  return img;
}

// One pass of the hot calls: every observable per call. *trapped is set
// when any call did not return normally.
std::string HotPass(ivy::Machine& vm, const std::vector<HotCall>& hot, bool* trapped) {
  std::string sig;
  *trapped = false;
  for (const HotCall& c : hot) {
    const int64_t s0 = vm.steps(), c0 = vm.cycles();
    ivy::VmResult res = vm.Call(c.fn, {c.arg});
    *trapped |= !res.ok;
    sig += std::string(c.fn) + ":" + std::to_string(res.ok) + "," + std::to_string(res.value) +
           "," + ivy::TrapKindName(res.trap) + "," + res.trap_msg + "," +
           std::to_string(vm.cycles() - c0) + "," + std::to_string(vm.steps() - s0) + ";";
  }
  return sig;
}

bool Boot(ivy::Machine& vm) { return vm.Call("boot_kernel", {2}).ok && vm.Call("hb_setup").ok; }

// The tree VM's passes after one boot (the independent reference), until two
// consecutive passes agree (the machine's steady state) or one boot's worth
// has run. Every boot starts from the same state, so these hold for every
// boot of the bytecode VM.
bool TreeReference(const ivy::ToolConfig& cfg, const std::vector<HotCall>& hot,
                   std::vector<std::string>* refs) {
  std::unique_ptr<ivy::Compilation> comp = ivy::CompileKernel(cfg);
  if (!comp->ok) {
    return false;
  }
  std::unique_ptr<ivy::Machine> tree = ivy::MakeVm(*comp);
  if (!Boot(*tree)) {
    return false;
  }
  while (refs->size() < kPassesPerBoot &&
         (refs->size() < 2 || refs->back() != (*refs)[refs->size() - 2])) {
    bool trapped = false;
    refs->push_back(HotPass(*tree, hot, &trapped));
  }
  return true;
}

// Runs one image's hot passes on the bytecode VM and checks each against the
// tree VM's pass at the same position after boot.
class VmStream {
 public:
  VmStream(const char* label, const Image& img, std::vector<HotCall> hot,
           const std::vector<std::string>* refs)
      : label_(label), img_(img), hot_(std::move(hot)), refs_(refs) {
    Reboot();
  }
  bool booted() const { return booted_; }

  // Returns the pass wall time; *ok false on any divergence or trap.
  double Pass(Report* r, bool* ok, int64_t* steps, int64_t* cycles) {
    if (passes_ == kPassesPerBoot) {
      Reboot();
    }
    if (!booted_) {
      *ok = r->Check(false, label_ + ": kernel reboot failed");
      *steps = *cycles = 0;
      return 0;
    }
    const int64_t s0 = fast_->steps(), c0 = fast_->cycles();
    const uint64_t t0 = MonotonicNowNs();
    std::string got;
    bool trapped = false;
    {
      ivy::trace::Span span(label_);
      got = HotPass(*fast_, hot_, &trapped);
    }
    const double ms = MsSince(t0);
    *steps = fast_->steps() - s0;
    *cycles = fast_->cycles() - c0;
    *ok = r->Check(got == (*refs_)[std::min(passes_, refs_->size() - 1)],
                   label_ + ": bytecode VM diverges from the tree VM");
    *ok &= r->Check(!trapped, label_ + ": a hot call trapped");
    ++passes_;
    return ms;
  }

 private:
  void Reboot() {
    fast_ = ivy::MakeBcVm(*img_.comp, ivy::VmConfig{}, img_.bc);
    booted_ = fast_ != nullptr && Boot(*fast_);
    passes_ = 0;
  }

  const std::string label_;
  const Image& img_;
  std::vector<HotCall> hot_;
  const std::vector<std::string>* refs_;
  std::unique_ptr<ivy::Machine> fast_;
  bool booted_ = false;
  size_t passes_ = 0;
};

void RunVmHbench(const Options& o, Report* r) {
  // The hot call sets of bench_analysis_perf's vm section; the seed nudges
  // each argument by at most ~1.5% so seeds differ in inputs, not in scale.
  ivy::Rng rng(o.seed * 0x9e3779b97f4a7c15ull + 7);
  auto arg = [&rng, &o](int64_t base) {
    const int64_t b = o.tiny ? std::max<int64_t>(2, base / 20) : base;
    return b + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(b / 64 + 1)));
  };
  const std::vector<HotCall> deputy_hot = {
      {"hb_lat_proc", arg(120)}, {"hb_lat_syscall", arg(600)}, {"hb_bw_pipe", arg(24)}};
  const std::vector<HotCall> ccount_hot = {{"hb_lat_proc", arg(160)}, {"hb_mod_load", arg(80)}};
  ivy::ToolConfig deputy_cfg;
  ivy::ToolConfig ccount_cfg;
  ccount_cfg.deputy = false;
  ccount_cfg.ccount = true;

  std::vector<std::string> deputy_refs, ccount_refs;
  if (!InChild([&](std::vector<std::string>* out) {
        return TreeReference(deputy_cfg, deputy_hot, out);
      }, &deputy_refs) ||
      !InChild([&](std::vector<std::string>* out) {
        return TreeReference(ccount_cfg, ccount_hot, out);
      }, &ccount_refs) ||
      deputy_refs.empty() || ccount_refs.empty()) {
    std::fprintf(stderr, "ivybench: tree VM reference failed\n");
    std::exit(2);
  }

  // One set-up: both images built to verified bytecode and booted. The hot
  // passes run on the images and machines of the latest set-up.
  Samples setup_s;
  Image deputy, ccount;
  std::unique_ptr<VmStream> dstream, cstream;
  auto set_up = [&] {
    dstream.reset();
    cstream.reset();
    LayerTotals untraced;
    const uint64_t t0 = MonotonicNowNs();
    bool ok1 = false, ok2 = false;
    deputy = BuildImage(deputy_cfg, &untraced, &ok1);
    ccount = BuildImage(ccount_cfg, &untraced, &ok2);
    if (!ok1 || !ok2) {
      std::fprintf(stderr, "ivybench: kernel image build failed\n");
      std::exit(2);
    }
    dstream = std::make_unique<VmStream>("bench.vm_deputy", deputy, deputy_hot, &deputy_refs);
    cstream = std::make_unique<VmStream>("bench.vm_ccount", ccount, ccount_hot, &ccount_refs);
    if (!dstream->booted() || !cstream->booted()) {
      std::fprintf(stderr, "ivybench: kernel boot failed\n");
      std::exit(2);
    }
    setup_s.Add(MsSince(t0) / 1000.0);
  };
  while (setup_s.n() < kSetups) {
    set_up();
  }
  const size_t deputy_bytes = deputy.image_bytes, ccount_bytes = ccount.image_bytes;

  Samples build_ms, build_traced_ms, build_image_ms, pass_ms, pass_traced_ms, vm_deputy_ms,
      vm_ccount_ms;
  LayerTotals per_build;  // traced kernel builds, both images each
  LayerTotals per_pass;   // traced hot pass pairs
  ProgramMetrics harvested;
  double traced_root_ms = 0;
  std::string verdict;
  // One operation: a rebuild of both images (kernel_build) or one hot pass
  // on each booted image.
  auto op = [&](bool build, bool tracing) {
    bool ok = true;
    if (build) {
      LayerTotals untraced;
      LayerTotals* sink = tracing ? &per_build : &untraced;
      const ProgramMetrics before = tracing ? ProgramMetrics::Now() : ProgramMetrics();
      const uint64_t t0 = MonotonicNowNs();
      bool ok1 = false, ok2 = false;
      Image d, c;
      {
        ivy::trace::Span span("bench.kernel_build");
        d = BuildImage(deputy_cfg, sink, &ok1);
        const double first = MsSince(t0);
        c = BuildImage(ccount_cfg, sink, &ok2);
        build_image_ms.Add(first);
        build_image_ms.Add(MsSince(t0) - first);
      }
      const double ms = MsSince(t0);
      (tracing ? build_traced_ms : build_ms).Add(ms);
      ok &= r->Check(ok1 && ok2, "kernel image build failed");
      ok &= r->Check(d.image_bytes == deputy_bytes && c.image_bytes == ccount_bytes,
                     "rebuilt image differs in size from the set-up image");
      if (tracing) {
        harvested.AddDelta(ProgramMetrics::Now(), before);
        traced_root_ms += ms;
        per_build.Add("bc.image_bytes", static_cast<double>(d.image_bytes + c.image_bytes));
        per_build.CountOps();
      }
    } else {
      int64_t s1 = 0, c1 = 0, s2 = 0, c2 = 0;
      bool ok1 = false, ok2 = false;
      const double d_ms = dstream->Pass(r, &ok1, &s1, &c1);
      const double c_ms = cstream->Pass(r, &ok2, &s2, &c2);
      ok &= ok1 && ok2;
      vm_deputy_ms.Add(d_ms);
      vm_ccount_ms.Add(c_ms);
      (tracing ? pass_traced_ms : pass_ms).Add(d_ms + c_ms);
      if (verdict.empty()) {
        verdict = std::to_string(s1) + "/" + std::to_string(c1) + "/" + std::to_string(s2) +
                  "/" + std::to_string(c2);
      }
      if (tracing) {
        traced_root_ms += d_ms + c_ms;
        per_pass.Add("vm.steps", static_cast<double>(s1 + s2));
        per_pass.Add("vm.cycles", static_cast<double>(c1 + c2));
        per_pass.Add("vm.pass_ms", d_ms + c_ms);
        per_pass.CountOps();
      }
    }
    r->Operation(ok);
  };
  // A segment (untraced, then traced with --trace 1) alternates one kernel
  // build with two hot pass pairs, so builds and passes both sample the
  // whole segment. Set-up repeats every kSetupEveryOps operations; the
  // passes go on from its fresh boot.
  const uint64_t start = MonotonicNowNs();
  int ops = 0;
  auto segment = [&](bool tracing, double until_s) {
    do {
      op(ops % 3 == 0, tracing);
      if (++ops % kSetupEveryOps == 0) {
        set_up();
      }
    } while (MsSince(start) < until_s * 1000.0);
  };
  segment(false, o.trace ? o.seconds * kUntracedShare : o.seconds);
  if (o.trace) {
    ivy::trace::SetEnabled(true);
    segment(true, o.seconds);
  }
  const double peak_rss_mb = PeakRssMb();
  // The verdict: image sizes plus the first pass's step and cycle counts
  // (equal to the tree VM's by the check above).
  r->set_digest(Hex64(Fnv64(std::to_string(deputy_bytes) + "/" + std::to_string(ccount_bytes) +
                            "/" + verdict)));

  r->Line("vm_hbench: kernel corpus under Deputy (" + std::to_string(deputy_hot.size()) +
          " hot calls) and CCount (" + std::to_string(ccount_hot.size()) +
          " hot calls), bytecode VM checked against the tree VM, seed " +
          std::to_string(o.seed));
  r->Timing("setup_s", setup_s, "s");
  r->Timing("kernel_build_ms (one image)", build_image_ms, "ms");
  r->Timing("kernel_build_ms (both images)", build_ms, "ms");
  r->Timing("vm_deputy_ms", vm_deputy_ms, "ms");
  r->Timing("vm_ccount_ms", vm_ccount_ms, "ms");
  r->Timing("vm_pass_ms (both images)", pass_ms, "ms");
  r->Line("  peak_rss_mb: " + std::to_string(peak_rss_mb));
  if (!o.trace) {
    r->Metric("setup_s", setup_s.Median(), "s");
    r->Metric("build_mean_ms", build_ms.Mean(), "ms");
    r->Metric("build_tail_ms", build_ms.Pct(95), "ms");
    r->Metric("serve_mean_ms", pass_ms.Mean(), "ms");
    r->Metric("serve_tail_ms", pass_ms.Pct(99), "ms");
    r->Metric("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // The kernel frontend for both images: one build's worth.
  LayerTotals replay;
  {
    ivy::trace::Span span("bench.layer_replay");
    ReplayModule(ivy::PipelineBuilder::FromToolConfig(deputy_cfg).Build(), ivy::KernelSources(),
                 false, &replay);
    ReplayModule(ivy::PipelineBuilder::FromToolConfig(ccount_cfg).Build(), ivy::KernelSources(),
                 false, &replay);
    replay.CountOps();
  }
  AddProgramLayers(harvested, &per_build);
  LayerMetrics m;
  m.PerOp(per_build);
  m.PerOp(per_pass);
  m.PerOp(replay);
  const double vm_ms = per_pass.Get("vm.pass_ms");
  const double bc_ms = per_build.Get("bc.compile_ms") + per_build.Get("bc.verify_ms");
  const double steps = per_pass.Get("vm.steps");
  m.Set("vm.ns_per_step", steps > 0 ? vm_ms * 1e6 / steps : 0.0);
  m.Set("trace.attributed_frac",
        traced_root_ms > 0 ? (AttributedMs(harvested) + bc_ms + vm_ms) / traced_root_ms : 0.0);
  m.Set("trace.overhead_frac", (build_traced_ms.Median() + pass_traced_ms.Median()) /
                                       (build_ms.Median() + pass_ms.Median()) -
                                   1.0);
  m.Emit(r);
  r->Line("layer replay: one kernel build per image pair; vm layers per hot pass pair");
  std::vector<std::pair<std::string, double>> children = ProgramChildren(harvested);
  children.push_back({"bc.compile + bc.verify", bc_ms});
  children.push_back({"vm hot passes", vm_ms});
  SelfTimeTable(r, "bench.kernel_build + vm passes", traced_root_ms, children);
  WriteTrace(o, r);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') {
        return false;
      }
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0)) {
        return false;
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") {
        return false;
      }
      o->trace = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "tiny") {
        return false;
      }
      o->tiny = v == "tiny";
    } else if (a == "--out-dir") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: ivybench_driver --workload cold_corpus|edit_serve|vm_hbench --seed N "
                 "--seconds S --trace 0|1 [--scale full|tiny] [--out-dir DIR]\n");
    return 2;
  }
  Report r;
  if (o.workload == "cold_corpus") {
    RunColdCorpus(o, &r);
  } else if (o.workload == "edit_serve") {
    RunEditServe(o, &r);
  } else if (o.workload == "vm_hbench") {
    RunVmHbench(o, &r);
  } else {
    std::fprintf(stderr, "ivybench_driver: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  r.Print(o);
  return 0;
}
