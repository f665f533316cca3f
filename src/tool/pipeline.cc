#include "src/tool/pipeline.h"

#include <algorithm>
#include <future>
#include <set>

#include "src/kernel/prelude.h"
#include "src/mc/lexer.h"
#include "src/mc/parser.h"
#include "src/support/clock.h"
#include "src/support/trace.h"
#include "src/support/work_queue.h"
#include "src/tool/registry.h"
#include "src/vm/builtins.h"

namespace ivy {

// ---------------------------------------------------------------------------
// PipelineResult
// ---------------------------------------------------------------------------

const ToolResult* PipelineResult::ResultFor(const std::string& tool) const {
  for (const ToolResult& r : results) {
    if (r.tool() == tool) {
      return &r;
    }
  }
  return nullptr;
}

int PipelineResult::ErrorCount() const {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == FindingSeverity::kError) {
      ++n;
    }
  }
  return n;
}

Json PipelineResult::ToJson(const SourceManager* sm) const {
  Json j = Json::MakeObject();
  Json tools = Json::MakeArray();
  for (const ToolResult& r : results) {
    tools.Append(r.ToJson(sm));
  }
  j["tools"] = std::move(tools);
  // Pipeline-level findings (configuration errors such as unknown tool
  // names) belong to no ToolResult; everything else already lives under
  // tools[].findings, and `findings` is their concatenation — serializing
  // it too would double every record.
  Json config = Json::MakeArray();
  for (const Finding& f : findings) {
    if (f.tool == "pipeline") {
      config.Append(f.ToJson(sm));
    }
  }
  if (config.size() > 0) {
    j["pipeline_findings"] = std::move(config);
  }
  j["finding_count"] = Json::MakeInt(static_cast<int64_t>(findings.size()));
  j["error_count"] = Json::MakeInt(ErrorCount());
  j["parallel"] = Json::MakeBool(parallel);
  j["pointsto_builds"] = Json::MakeInt(pointsto_builds);
  j["callgraph_builds"] = Json::MakeInt(callgraph_builds);
  return j;
}

std::string PipelineResult::ToString(const SourceManager* sm) const {
  std::string out;
  // Configuration errors first — they belong to no tool section and must
  // not vanish from the human-readable report.
  for (const Finding& f : findings) {
    if (f.tool == "pipeline") {
      out += f.ToString(sm) + "\n";
    }
  }
  for (const ToolResult& r : results) {
    out += "== " + r.tool() + " ==\n";
    if (!r.summary().empty()) {
      out += r.summary();
      if (out.back() != '\n') {
        out += '\n';
      }
    }
    for (const Finding& f : r.findings()) {
      out += "  " + f.ToString(sm) + "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pipeline: frontend
// ---------------------------------------------------------------------------

std::unique_ptr<Compilation> Pipeline::Compile(const std::vector<SourceFile>& files,
                                               FrontendCache* cache) const {
  auto comp = std::make_unique<Compilation>();
  comp->config = config_;
  comp->diags = std::make_unique<DiagEngine>(&comp->sm);
  if (cache != nullptr && cache->prelude_interns != nullptr) {
    // Later corpus module: pre-load the prelude's interned strings so every
    // module shares one copy of the bytes (and the same string ids).
    comp->prog.SeedInterner(cache->prelude_interns);
    ++cache->intern_seeds;
  }

  // Frontend timings are metrics only: with tracing off, no clock read and
  // no registry lookup (the handles are cached once per process).
  const bool traced = trace::Enabled();
  const uint64_t parse_t0 = traced ? MonotonicNowNs() : 0;

  // Lex + parse every file into one Program (whole-program merge). The
  // prelude is always the first file registered, so its token stream —
  // embedded file ids included — is identical across compilations and can
  // come from the corpus cache.
  auto parse_file = [&comp](int32_t id) {
    Lexer lexer(comp->sm, id, comp->diags.get());
    Parser parser(&comp->prog, lexer.Lex(), comp->diags.get());
    parser.ParseTranslationUnit();
  };
  if (config_.include_prelude) {
    int32_t prelude_id = comp->sm.AddFile("<prelude>", PreludeSource());
    if (cache != nullptr) {
      if (cache->prelude_tokens == nullptr) {
        Lexer lexer(comp->sm, prelude_id, comp->diags.get());
        cache->prelude_tokens = std::make_shared<std::vector<Token>>(lexer.Lex());
      } else {
        ++cache->prelude_reuses;
      }
      // Borrowed, not copied: the cached stream outlives the parser.
      Parser parser(&comp->prog, cache->prelude_tokens.get(), comp->diags.get());
      parser.ParseTranslationUnit();
      if (cache->prelude_interns == nullptr) {
        // First corpus module: everything interned so far is prelude text.
        cache->prelude_interns = comp->prog.interner().Snapshot();
      }
    } else {
      parse_file(prelude_id);
    }
  }
  for (const SourceFile& f : files) {
    parse_file(comp->sm.AddFile(f.name, f.text));
  }
  const uint64_t parse_t1 = traced ? MonotonicNowNs() : 0;
  if (traced) {
    static trace::Histogram* const parse_us = trace::GetHistogram("frontend.parse_us");
    parse_us->Record((parse_t1 - parse_t0) / 1000);
  }
  if (!comp->diags->ok()) {
    return comp;
  }

  comp->sema = std::make_unique<Sema>(&comp->prog, comp->diags.get(),
                                      [](const std::string& name) {
                                        return BuiltinIdForName(name);
                                      });
  bool sema_ok = comp->sema->Run();
  if (traced) {
    static trace::Histogram* const sema_us = trace::GetHistogram("frontend.sema_us");
    static trace::Gauge* const arena_bytes = trace::GetGauge("arena.bytes");
    sema_us->Record((MonotonicNowNs() - parse_t1) / 1000);
    arena_bytes->RecordMax(static_cast<int64_t>(comp->prog.arena().TotalBytes()));
  }
  if (!sema_ok) {
    return comp;
  }

  LowerOptions lopts;
  lopts.deputy = config_.deputy;
  lopts.discharge = config_.discharge;
  Lowerer lowerer(&comp->prog, comp->sema.get(), comp->diags.get(), lopts);
  comp->module = lowerer.Lower();
  comp->check_stats = lowerer.check_stats();
  if (!comp->diags->ok()) {
    return comp;
  }

  comp->layouts = TypeLayoutRegistry::Build(comp->prog);
  comp->ok = true;
  return comp;
}

std::unique_ptr<AnalysisContext> Pipeline::MakeContext(Compilation* comp) const {
  return std::make_unique<AnalysisContext>(comp, field_sensitive_);
}

// ---------------------------------------------------------------------------
// Pipeline: pass scheduling
// ---------------------------------------------------------------------------

namespace {

// Instantiates + configures the requested passes. Unknown names produce an
// error finding instead of a pass. The pipeline-wide shard count reaches
// every pass as the "shards" option unless the tool's own option bag
// already set one.
std::vector<std::unique_ptr<ToolPass>> MakePasses(
    const std::vector<std::string>& tools,
    const std::map<std::string, ToolOptions>& options, int shards,
    std::vector<Finding>* errors) {
  std::vector<std::unique_ptr<ToolPass>> passes;
  for (const std::string& name : tools) {
    std::unique_ptr<ToolPass> pass = ToolRegistry::Instance().Create(name);
    if (pass == nullptr) {
      Finding f;
      f.tool = "pipeline";
      f.severity = FindingSeverity::kError;
      f.message = "unknown tool '" + name + "'";
      errors->push_back(std::move(f));
      continue;
    }
    ToolOptions opts;
    auto it = options.find(name);
    if (it != options.end()) {
      opts = it->second;
    }
    if (!opts.Has("shards")) {
      opts.SetInt("shards", shards);
    }
    pass->Configure(std::move(opts));
    passes.push_back(std::move(pass));
  }
  return passes;
}

// True if pass `start` can reach itself through RunAfter() edges restricted
// to the unscheduled set — i.e. it is ON a cycle rather than merely
// downstream of one. O(m^2) worst case over a handful of passes.
bool OnDependencyCycle(const std::vector<std::unique_ptr<ToolPass>>& passes,
                       const std::set<size_t>& stuck, size_t start) {
  std::map<std::string, size_t> pos;
  for (size_t i : stuck) {
    pos[passes[i]->name()] = i;
  }
  std::vector<size_t> worklist = {start};
  std::set<size_t> seen;
  while (!worklist.empty()) {
    size_t i = worklist.back();
    worklist.pop_back();
    for (const std::string& dep : passes[i]->RunAfter()) {
      auto it = pos.find(dep);
      if (it == pos.end() || it->second == i) {
        continue;
      }
      if (it->second == start) {
        return true;
      }
      if (seen.insert(it->second).second) {
        worklist.push_back(it->second);
      }
    }
  }
  return false;
}

// Topological waves over the RunAfter() pass-dependency edges (Kahn's
// algorithm, stable in request order). Passes left unscheduled sit on — or
// behind — a dependency cycle; they are returned through `cyclic` so the
// pipeline can report them as errors instead of spinning forever.
std::vector<std::vector<size_t>> ScheduleWaves(
    const std::vector<std::unique_ptr<ToolPass>>& passes, std::vector<size_t>* cyclic) {
  const size_t m = passes.size();
  std::map<std::string, size_t> pos;
  for (size_t i = 0; i < m; ++i) {
    pos[passes[i]->name()] = i;
  }
  std::vector<std::vector<size_t>> succ(m);
  std::vector<int> indegree(m, 0);
  for (size_t i = 0; i < m; ++i) {
    for (const std::string& dep : passes[i]->RunAfter()) {
      auto it = pos.find(dep);
      if (it != pos.end() && it->second != i) {
        succ[it->second].push_back(i);
        ++indegree[i];
      }
    }
  }
  std::vector<std::vector<size_t>> waves;
  std::vector<char> scheduled(m, 0);
  std::vector<size_t> ready;
  for (size_t i = 0; i < m; ++i) {
    if (indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  while (!ready.empty()) {
    std::vector<size_t> next;
    for (size_t i : ready) {
      scheduled[i] = 1;
      for (size_t s : succ[i]) {
        if (--indegree[s] == 0) {
          next.push_back(s);
        }
      }
    }
    std::sort(next.begin(), next.end());
    waves.push_back(std::move(ready));
    ready = std::move(next);
  }
  for (size_t i = 0; i < m; ++i) {
    if (!scheduled[i]) {
      cyclic->push_back(i);
    }
  }
  return waves;
}

// The union of every pass's Requires(), reduced to the strongest form
// (callgraph implies pointsto).
void RequiredAnalyses(const std::vector<std::unique_ptr<ToolPass>>& passes,
                      bool* need_pt, bool* need_cg) {
  *need_pt = false;
  *need_cg = false;
  for (const auto& pass : passes) {
    for (AnalysisKind k : pass->Requires()) {
      if (k == AnalysisKind::kPointsTo) {
        *need_pt = true;
      } else if (k == AnalysisKind::kCallGraph) {
        *need_cg = true;
      }
    }
  }
}

}  // namespace

PipelineResult Pipeline::RunTools(AnalysisContext& ctx) const {
  PipelineResult out;
  out.parallel = parallel_;

  std::vector<Finding> config_errors;
  std::vector<std::unique_ptr<ToolPass>> passes =
      MakePasses(tools_, options_, shards_, &config_errors);

  // One worker pool for every sharded pass in this run (TaskGroup keeps
  // their waits isolated) — unless a session already attached a longer-lived
  // one. Sized for the help-first model: k shards need k-1 workers. The
  // guard detaches on every exit path: a throwing pass must not leave the
  // context pointing at a pool that dies with this frame.
  struct RunPool {
    AnalysisContext* ctx = nullptr;
    std::unique_ptr<WorkQueue> pool;
    ~RunPool() {
      if (ctx != nullptr) {
        ctx->AttachPool(nullptr);
      }
    }
  } run_pool;
  if (shards_ != 1 && ctx.pool() == nullptr && !passes.empty()) {
    int workers = shards_ == 0 ? WorkQueue::ResolveHardware()
                               : (shards_ > 1 ? shards_ - 1 : 1);
    run_pool.pool = std::make_unique<WorkQueue>(workers);
    run_pool.ctx = &ctx;
    ctx.AttachPool(run_pool.pool.get());
  }

  // Warm the shared cache serially so parallel passes only ever read it.
  bool need_pt = false;
  bool need_cg = false;
  RequiredAnalyses(passes, &need_pt, &need_cg);
  if (need_cg) {
    ctx.callgraph();
  } else if (need_pt) {
    ctx.pointsto();
  }

  // Pass-level RunAfter() dependencies schedule in topological waves; a
  // cycle is a configuration error. Every unscheduled pass is skipped (its
  // result slot stays an empty ToolResult so merge order is undisturbed),
  // but the report distinguishes actual cycle members from healthy passes
  // that merely depend on one.
  std::vector<size_t> unscheduled;
  std::vector<std::vector<size_t>> waves = ScheduleWaves(passes, &unscheduled);
  std::vector<ToolResult> results(passes.size());
  if (!unscheduled.empty()) {
    std::set<size_t> stuck(unscheduled.begin(), unscheduled.end());
    std::vector<size_t> on_cycle;
    std::vector<size_t> blocked;
    for (size_t i : unscheduled) {
      if (OnDependencyCycle(passes, stuck, i)) {
        on_cycle.push_back(i);
      } else {
        blocked.push_back(i);
      }
      results[i] = ToolResult(passes[i]->name());
    }
    Finding f;
    f.tool = "pipeline";
    f.severity = FindingSeverity::kError;
    f.message = "tool dependency cycle involving";
    for (size_t k = 0; k < on_cycle.size(); ++k) {
      f.message += (k == 0 ? " '" : ", '") + passes[on_cycle[k]]->name() + "'";
      f.witness.push_back(passes[on_cycle[k]]->name());
    }
    config_errors.push_back(std::move(f));
    for (size_t i : blocked) {
      Finding skip;
      skip.tool = "pipeline";
      skip.severity = FindingSeverity::kError;
      skip.message = "tool '" + passes[i]->name() + "' not run: it depends on a cyclic tool";
      skip.witness.push_back(passes[i]->name());
      config_errors.push_back(std::move(skip));
    }
  }
  // Per-pass wall time: a "pass.<tool>" span plus a "pipeline.pass_us"
  // histogram sample per pass, observed from whichever thread runs it.
  // Disabled-path cost is the one Enabled() check.
  auto run_pass = [&ctx](ToolPass* p) {
    if (!trace::Enabled()) {
      return p->Run(ctx);
    }
    trace::Span span("pass." + p->name());
    const uint64_t t0 = MonotonicNowNs();
    ToolResult r = p->Run(ctx);
    trace::GetHistogram("pipeline.pass_us")->Record((MonotonicNowNs() - t0) / 1000);
    return r;
  };
  for (const std::vector<size_t>& wave : waves) {
    if (parallel_ && wave.size() > 1) {
      std::vector<std::future<ToolResult>> futures;
      futures.reserve(wave.size());
      for (size_t i : wave) {
        ToolPass* p = passes[i].get();
        futures.push_back(
            std::async(std::launch::async, [p, &run_pass] { return run_pass(p); }));
      }
      // Gathering by index keeps the merge order equal to the request order
      // no matter which pass finished first.
      for (size_t k = 0; k < wave.size(); ++k) {
        results[wave[k]] = futures[k].get();
      }
    } else {
      for (size_t i : wave) {
        results[i] = run_pass(passes[i].get());
      }
    }
  }

  out.findings = std::move(config_errors);
  for (ToolResult& r : results) {
    out.findings.insert(out.findings.end(), r.findings().begin(), r.findings().end());
    out.results.push_back(std::move(r));
  }
  out.pointsto_builds = ctx.pointsto_builds();
  out.callgraph_builds = ctx.callgraph_builds();
  return out;
}

// Pipeline::CompileAndRun lives in src/tool/session.cc: it is a thin shim
// over a single-module AnalysisSession.

std::vector<std::string> Pipeline::Plan() const {
  std::vector<std::string> plan;
  std::vector<Finding> ignored;
  std::vector<std::unique_ptr<ToolPass>> passes =
      MakePasses(tools_, options_, shards_, &ignored);
  bool need_pt = false;
  bool need_cg = false;
  RequiredAnalyses(passes, &need_pt, &need_cg);
  if (need_pt || need_cg) {
    plan.push_back("analysis:pointsto");
  }
  if (need_cg) {
    plan.push_back("analysis:callgraph");
  }
  for (const auto& pass : passes) {
    plan.push_back("pass:" + pass->name());
  }
  return plan;
}

// ---------------------------------------------------------------------------
// PipelineBuilder
// ---------------------------------------------------------------------------

PipelineBuilder& PipelineBuilder::Tool(const std::string& name) {
  auto& tools = pipeline_.tools_;
  if (std::find(tools.begin(), tools.end(), name) == tools.end()) {
    tools.push_back(name);
  }
  return *this;
}

PipelineBuilder& PipelineBuilder::Tool(const std::string& name, ToolOptions opts) {
  Tool(name);
  pipeline_.options_[name] = std::move(opts);
  return *this;
}

PipelineBuilder& PipelineBuilder::AllTools() {
  for (const std::string& name : ToolRegistry::Instance().Names()) {
    Tool(name);
  }
  return *this;
}

PipelineBuilder& PipelineBuilder::RunWorkload(const std::vector<std::string>& fns,
                                              const std::string& boot) {
  ToolOptions opts;
  std::string joined;
  for (const std::string& fn : fns) {
    if (!joined.empty()) {
      joined += ",";
    }
    joined += fn;
  }
  opts.Set("fns", joined);
  if (!boot.empty()) {
    opts.Set("boot", boot);
  }
  return Tool("workload", std::move(opts));
}

PipelineBuilder& PipelineBuilder::Parallel(bool on) {
  pipeline_.parallel_ = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::FieldSensitive(bool on) {
  pipeline_.field_sensitive_ = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::ShardFunctions(int n) {
  pipeline_.shards_ = n < 0 ? 1 : n;
  return *this;
}

PipelineBuilder& PipelineBuilder::Deputy(bool on) {
  pipeline_.config_.deputy = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::Discharge(bool on) {
  pipeline_.config_.discharge = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::CCount(bool on) {
  pipeline_.config_.ccount = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::Smp(bool on) {
  pipeline_.config_.smp = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::TrackLocals(bool on) {
  pipeline_.config_.track_locals = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::RcWidthBits(int bits) {
  pipeline_.config_.rc_width_bits = bits;
  return *this;
}

PipelineBuilder& PipelineBuilder::IncludePrelude(bool on) {
  pipeline_.config_.include_prelude = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::ForEachModule(std::vector<ModuleSources> modules) {
  for (ModuleSources& m : modules) {
    auto it = std::find_if(modules_.begin(), modules_.end(),
                           [&m](const ModuleSources& have) { return have.name == m.name; });
    if (it != modules_.end()) {
      *it = std::move(m);
    } else {
      modules_.push_back(std::move(m));
    }
  }
  return *this;
}

PipelineBuilder PipelineBuilder::FromToolConfig(const ToolConfig& config) {
  PipelineBuilder b;
  b.pipeline_.config_ = config;
  return b;
}

}  // namespace ivy
