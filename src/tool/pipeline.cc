#include "src/tool/pipeline.h"

#include <algorithm>
#include <future>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "src/kernel/prelude.h"
#include "src/mc/lexer.h"
#include "src/mc/parser.h"
#include "src/support/clock.h"
#include "src/support/trace.h"
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
    for (const Finding& f : findings) {
      if (f.tool == r.tool()) {
        out += "  " + f.ToString(sm) + "\n";
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pipeline: frontend
// ---------------------------------------------------------------------------

std::string PublicNames(std::string text) {
  for (size_t at = text.find(kPrivateMark); at != std::string::npos;
       at = text.find(kPrivateMark, at)) {
    size_t end = at + kPrivateMark.size();
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') {
      ++end;
    }
    text.erase(at, end - at);
  }
  return text;
}

namespace {

int ModuleOf(const std::vector<int>& file_module, SourceLoc loc) {
  const size_t id = static_cast<size_t>(loc.file);
  return id < file_module.size() ? file_module[id] : -1;
}

// A top-level type definition: "struct S {...};", "union U {...};" or
// "enum [E] {...};".
struct TypeDef {
  size_t end = 0;                  // one past its ';'
  std::string key;                 // its token spelling
  std::vector<std::string> names;  // the record tag, or the enum's constants
};

// The type definition starting at toks[i], if there is one.
bool TypeDefinitionAt(const std::vector<Token>& toks, size_t i, TypeDef* def) {
  const Tok kind = toks[i].kind;
  if (kind != Tok::kKwStruct && kind != Tok::kKwUnion && kind != Tok::kKwEnum) {
    return false;
  }
  size_t j = i + 1;
  const bool tagged = j < toks.size() && toks[j].kind == Tok::kIdent;
  if (kind != Tok::kKwEnum) {
    if (!tagged) {
      return false;  // records are always tagged
    }
    def->names.push_back(toks[j].text);
  }
  j += tagged ? 1 : 0;  // an enum's tag names nothing: its constants do
  if (j >= toks.size() || toks[j].kind != Tok::kLBrace) {
    return false;
  }
  for (int depth = 0; j < toks.size(); ++j) {
    depth += toks[j].kind == Tok::kLBrace ? 1 : (toks[j].kind == Tok::kRBrace ? -1 : 0);
    if (kind == Tok::kKwEnum && depth == 1 && toks[j].kind == Tok::kIdent &&
        (toks[j - 1].kind == Tok::kLBrace || toks[j - 1].kind == Tok::kComma)) {
      def->names.push_back(toks[j].text);
    }
    if (depth == 0) {
      break;
    }
  }
  if (j + 1 >= toks.size() || toks[j + 1].kind != Tok::kSemi) {
    return false;
  }
  for (size_t t = i; t <= j + 1; ++t) {
    def->key += std::to_string(static_cast<int>(toks[t].kind)) + ' ' + toks[t].text + ' ' +
                std::to_string(toks[t].int_val) + '\n';
  }
  def->end = j + 2;
  return true;
}

// The type half of the corpus link policy, over module m's token streams
// before they are parsed: a type definition an earlier module made token for
// token is dropped, and a record tag or enum constant an earlier module
// defined differently is respelled name$$m throughout the module. `earlier`
// maps each type name of the earlier modules ("tag S", "enum C") to its
// definition's key.
void LinkTypes(std::vector<std::vector<Token>>* streams, int m,
               std::map<std::string, std::string>* earlier) {
  std::map<std::string, std::string> mine;
  std::set<std::string> tags;
  std::set<std::string> constants;
  for (std::vector<Token>& toks : *streams) {
    std::vector<std::pair<size_t, size_t>> repeats;
    int depth = 0;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Tok prev = i == 0 ? Tok::kSemi : toks[i - 1].kind;
      TypeDef def;
      if (depth != 0 || (prev != Tok::kSemi && prev != Tok::kRBrace) ||
          !TypeDefinitionAt(toks, i, &def)) {
        depth += toks[i].kind == Tok::kLBrace ? 1 : (toks[i].kind == Tok::kRBrace ? -1 : 0);
        continue;
      }
      const bool is_enum = toks[i].kind == Tok::kKwEnum;
      const std::string space = is_enum ? "enum " : "tag ";
      const auto seen = def.names.empty() ? earlier->end() : earlier->find(space + def.names[0]);
      if (seen != earlier->end() && seen->second == def.key) {
        repeats.push_back({i, def.end});  // the same type
      } else {
        for (const std::string& name : def.names) {
          if (earlier->count(space + name) != 0) {
            (is_enum ? constants : tags).insert(name);
          }
          mine.emplace(space + name, def.key);
        }
      }
      i = def.end - 1;
    }
    for (auto it = repeats.rbegin(); it != repeats.rend(); ++it) {
      toks.erase(toks.begin() + static_cast<std::ptrdiff_t>(it->first),
                 toks.begin() + static_cast<std::ptrdiff_t>(it->second));
    }
  }
  earlier->merge(mine);
  for (std::vector<Token>& toks : *streams) {
    for (size_t i = 0; i < toks.size(); ++i) {
      const bool tagged = i > 0 && (toks[i - 1].kind == Tok::kKwStruct ||
                                    toks[i - 1].kind == Tok::kKwUnion);
      if (toks[i].kind == Tok::kIdent &&
          (constants.count(toks[i].text) != 0 || (tagged && tags.count(toks[i].text) != 0))) {
        toks[i].text += std::string(kPrivateMark) + std::to_string(m);
      }
    }
  }
}

// The corpus link policy of Pipeline::Compile, over the parsed program.
void LinkCorpus(Program* prog, const std::vector<int>& file_module) {
  // The first module to define each name, as a function body or a global.
  std::unordered_map<std::string_view, int> owner;
  for (const FuncDecl* fn : prog->funcs) {
    if (const int m = ModuleOf(file_module, fn->loc); fn->body != nullptr && m >= 0) {
      owner.emplace(fn->name, m);
    }
  }
  for (const VarDecl* g : prog->globals) {
    if (const int m = ModuleOf(file_module, g->loc); m >= 0) {
      auto [it, inserted] = owner.emplace(g->name, m);
      it->second = std::min(it->second, m);
    }
  }
  std::set<std::pair<int, std::string>> private_names;
  for (const FuncDecl* fn : prog->funcs) {
    if (const int m = ModuleOf(file_module, fn->loc); fn->body != nullptr && m >= 0 &&
                                                      owner.at(fn->name) != m) {
      private_names.insert({m, fn->name});
    }
  }
  std::unordered_map<std::string_view, size_t> first;
  std::vector<VarDecl*> globals;
  for (VarDecl* g : prog->globals) {
    const int m = ModuleOf(file_module, g->loc);
    if (auto [it, inserted] = first.emplace(g->name, globals.size()); !inserted) {
      VarDecl*& prev = globals[it->second];
      const int pm = ModuleOf(file_module, prev->loc);
      if (m >= 0 && pm >= 0 && m != pm && SameType(prev->type, g->type) &&
          (prev->init == nullptr || g->init == nullptr)) {
        prev = prev->init != nullptr ? prev : g;  // the definition stands for the object
        continue;
      }
    }
    if (m >= 0 && owner.at(g->name) != m) {
      private_names.insert({m, std::string(g->name)});
    }
    globals.push_back(g);
  }
  prog->globals = std::move(globals);
  if (private_names.empty()) {
    return;
  }
  // Module m's own `name` (its declarations and every identifier in its
  // files) is respelled name$$m, every private name in one sweep over the
  // program. `spelling` is keyed by (module, the written name's intern id).
  auto key = [](int m, uint32_t id) { return uint64_t{static_cast<uint32_t>(m)} << 32 | id; };
  std::unordered_map<uint64_t, StrRef> spelling;
  for (const auto& [m, name] : private_names) {
    const uint32_t id = prog->Intern(name).id;
    spelling.emplace(key(m, id),
                     prog->Intern(name + std::string(kPrivateMark) + std::to_string(m)));
  }
  auto private_of = [&](SourceLoc loc, uint32_t id) -> const StrRef* {
    const int m = ModuleOf(file_module, loc);
    auto it = m < 0 ? spelling.end() : spelling.find(key(m, id));
    return it == spelling.end() ? nullptr : &it->second;
  };
  for (FuncDecl* fn : prog->funcs) {
    if (const StrRef* priv = private_of(fn->loc, prog->Intern(fn->name).id)) {
      fn->name = std::string(priv->view);
    }
    for (Symbol* p : fn->params) {
      if (const StrRef* priv = private_of(fn->loc, prog->Intern(p->name).id)) {
        p->name = std::string(priv->view);
      }
    }
  }
  for (uint32_t i = 0; i < prog->decl_count(); ++i) {
    VarDecl* d = prog->DeclAt(DeclId{i});
    if (const StrRef* priv = private_of(d->loc, d->name_id)) {
      d->name = priv->view;
      d->name_id = priv->id;
    }
  }
  for (uint32_t i = 0; i < prog->expr_count(); ++i) {
    Expr* e = prog->ExprAt(ExprId{i});
    const StrRef* priv = e->kind == ExprKind::kIdent ? private_of(e->loc, e->str_id) : nullptr;
    if (priv != nullptr) {
      e->str_val = priv->view;
      e->str_id = priv->id;
    }
  }
}

}  // namespace

std::unique_ptr<Compilation> Pipeline::Compile(const std::vector<SourceFile>& files,
                                               const std::vector<int>* file_module) const {
  auto comp = std::make_unique<Compilation>();
  comp->config = config_;
  comp->diags = std::make_unique<DiagEngine>(&comp->sm);

  // Frontend timings are metrics only: with tracing off, no clock read and
  // no registry lookup (the handles are cached once per process).
  const bool traced = trace::Enabled();
  const uint64_t parse_t0 = traced ? MonotonicNowNs() : 0;

  // Lex + parse every file into one Program (whole-program merge), the
  // prelude first.
  std::optional<trace::Span> phase(std::in_place, "fe.parse");
  if (config_.include_prelude) {
    int32_t prelude_id = comp->sm.AddFile("<prelude>", PreludeSource());
    Lexer lexer(comp->sm, prelude_id, comp->diags.get());
    Parser parser(&comp->prog, lexer.Lex(), comp->diags.get());
    parser.ParseTranslationUnit();
  }
  // A file at a time; in corpus mode a module at a time, its files lexed
  // together so the type policy sees the whole module before any is parsed.
  std::map<std::string, std::string> earlier_types;
  for (size_t begin = 0, end = 0; begin < files.size(); begin = end) {
    std::vector<std::vector<Token>> streams;
    int m = -1;
    for (end = begin; end < files.size(); ++end) {
      const int file_m =
          file_module != nullptr ? ModuleOf(*file_module, {comp->sm.file_count(), 0, 0}) : -1;
      if (end > begin && (file_module == nullptr || file_m != m)) {
        break;
      }
      m = file_m;
      const int32_t id = comp->sm.AddFile(files[end].name, files[end].text);
      streams.push_back(Lexer(comp->sm, id, comp->diags.get()).Lex());
    }
    if (file_module != nullptr) {
      LinkTypes(&streams, m, &earlier_types);
    }
    for (std::vector<Token>& toks : streams) {
      Parser parser(&comp->prog, std::move(toks), comp->diags.get());
      parser.ParseTranslationUnit();
    }
  }
  phase.reset();
  const uint64_t parse_t1 = traced ? MonotonicNowNs() : 0;
  if (traced) {
    static trace::Histogram* const parse_us = trace::GetHistogram("frontend.parse_us");
    parse_us->Record((parse_t1 - parse_t0) / 1000);
  }
  if (!comp->diags->ok()) {
    return comp;
  }
  if (file_module != nullptr) {
    trace::Span span("fe.link");
    LinkCorpus(&comp->prog, *file_module);
  }

  phase.emplace("fe.sema");
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
  phase.reset();
  if (!sema_ok) {
    return comp;
  }

  LowerOptions lopts;
  lopts.deputy = config_.deputy;
  lopts.discharge = config_.discharge;
  {
    trace::Span span("fe.lower");
    Lowerer lowerer(&comp->prog, comp->sema.get(), comp->diags.get(), lopts);
    comp->module = lowerer.Lower();
    comp->check_stats = lowerer.check_stats();
  }
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
// Pipeline: running the passes
// ---------------------------------------------------------------------------

namespace {

// Instantiates + configures the requested passes. Unknown names produce an
// error finding instead of a pass.
std::vector<std::unique_ptr<ToolPass>> MakePasses(
    const std::vector<std::string>& tools,
    const std::map<std::string, ToolOptions>& options, std::vector<Finding>* errors) {
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
    pass->Configure(std::move(opts));
    passes.push_back(std::move(pass));
  }
  return passes;
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
  std::vector<std::unique_ptr<ToolPass>> passes = MakePasses(tools_, options_, &out.findings);

  // Warm the shared cache serially so concurrent passes only ever read it.
  bool need_pt = false;
  bool need_cg = false;
  RequiredAnalyses(passes, &need_pt, &need_cg);
  if (need_cg) {
    ctx.callgraph();
  } else if (need_pt) {
    ctx.pointsto();
  }

  // Per-pass wall time: a "pass.<tool>" span plus a "pipeline.pass_us"
  // histogram sample per pass, observed from whichever thread runs it.
  // Disabled-path cost is the one Enabled() check.
  std::vector<std::vector<Finding>> found(passes.size());
  auto run_pass = [&ctx, &passes, &found](size_t i) {
    ToolPass* p = passes[i].get();
    if (!trace::Enabled()) {
      return p->Run(ctx, &found[i]);
    }
    static trace::Histogram* const pass_us = trace::GetHistogram("pipeline.pass_us");
    trace::Span span("pass." + p->name());
    const uint64_t t0 = MonotonicNowNs();
    ToolResult r = p->Run(ctx, &found[i]);
    pass_us->Record((MonotonicNowNs() - t0) / 1000);
    return r;
  };
  // One thread per pass when there are several; one pass runs inline.
  // Gathering by index keeps the merge order equal to the request order no
  // matter which pass finishes first.
  out.results.reserve(passes.size());
  if (passes.size() > 1) {
    std::vector<std::future<ToolResult>> futures;
    futures.reserve(passes.size());
    for (size_t i = 0; i < passes.size(); ++i) {
      futures.push_back(std::async(std::launch::async, run_pass, i));
    }
    for (std::future<ToolResult>& f : futures) {
      out.results.push_back(f.get());
    }
  } else if (!passes.empty()) {
    out.results.push_back(run_pass(0));
  }

  for (std::vector<Finding>& fs : found) {
    std::move(fs.begin(), fs.end(), std::back_inserter(out.findings));
  }
  out.pointsto_builds = ctx.pointsto_builds();
  out.callgraph_builds = ctx.callgraph_builds();
  return out;
}

PipelineRun Pipeline::CompileAndRun(const std::vector<SourceFile>& files) const {
  PipelineRun run;
  run.comp = Compile(files);
  if (!run.comp->ok) {
    return run;
  }
  run.ctx = MakeContext(run.comp.get());
  run.result = RunTools(*run.ctx);
  return run;
}

std::vector<std::string> Pipeline::Plan() const {
  std::vector<std::string> plan;
  std::vector<Finding> ignored;
  std::vector<std::unique_ptr<ToolPass>> passes =
      MakePasses(tools_, options_, &ignored);
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

PipelineBuilder& PipelineBuilder::FieldSensitive(bool on) {
  pipeline_.field_sensitive_ = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::Deputy(bool on) {
  pipeline_.config_.deputy = on;
  return *this;
}

PipelineBuilder& PipelineBuilder::CCount(bool on) {
  pipeline_.config_.ccount = on;
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
