#include "src/tool/session.h"

#include <algorithm>
#include <utility>

#include "src/blockstop/blockstop.h"
#include "src/errcheck/errcheck.h"
#include "src/locksafe/locksafe.h"
#include "src/mc/lexer.h"
#include "src/support/clock.h"
#include "src/support/diag.h"
#include "src/support/scc.h"
#include "src/support/trace.h"
#include "src/tool/session_state.h"

namespace ivy {

// ---------------------------------------------------------------------------
// SessionResult
// ---------------------------------------------------------------------------

const ModuleRunResult* SessionResult::ModuleFor(const std::string& name) const {
  for (const ModuleRunResult& m : modules) {
    if (m.module == name) {
      return &m;
    }
  }
  return nullptr;
}

int SessionResult::ErrorCount() const {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == FindingSeverity::kError) {
      ++n;
    }
  }
  return n;
}

// ModuleState lives in src/tool/session_state.h, shared with the
// persistent-store half of the session (session_store.cc).

// ---------------------------------------------------------------------------
// Textual function replacement
// ---------------------------------------------------------------------------

namespace {

// Skips a balanced parenthesized token group starting at *k (which must
// point at kLParen). Returns false on an unbalanced stream.
bool SkipParenGroup(const std::vector<Token>& toks, size_t* k) {
  int paren = 0;
  for (size_t j = *k; j < toks.size(); ++j) {
    if (toks[j].kind == Tok::kEof) {
      return false;
    }
    if (toks[j].kind == Tok::kLParen) {
      ++paren;
    } else if (toks[j].kind == Tok::kRParen) {
      if (--paren == 0) {
        *k = j + 1;
        return true;
      }
    }
  }
  return false;
}

// Locates the top-level *definition* of `name` (declarations are skipped) as
// a [begin, end) byte range of `text`: identifier at brace depth 0, then a
// parameter list, then optional attribute words — errcode(...) arguments
// included — then a brace-matched body. The definition's first token is the
// one after the previous depth-0 ';' or '}' (the return type, wherever the
// signature wraps); `out_begin` is the start of that token's line, or just
// past the terminator when it shares the line. `out_end` is one past the
// closing brace.
//
// The scan runs over the real lexer's token stream, so braces and parens
// inside string/char literals and comments can never miscount — the textual
// scanner this replaced did miscount them (see
// AnalysisSession.ReplaceFunctionBodyWithBraceLiterals).
bool FindDefinition(const std::string& text, const std::string& name, size_t* out_begin,
                    size_t* out_end) {
  SourceManager sm;
  DiagEngine diags(&sm);
  Lexer lexer(sm, sm.AddFile("<replace>", text), &diags);
  std::vector<Token> toks = lexer.Lex();

  std::vector<size_t> line_starts{0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      line_starts.push_back(i + 1);
    }
  }
  auto offset_of = [&text, &line_starts](const SourceLoc& loc) -> size_t {
    size_t line = loc.line >= 1 ? static_cast<size_t>(loc.line - 1) : 0;
    if (line >= line_starts.size()) {
      return text.size();
    }
    size_t col = loc.col >= 1 ? static_cast<size_t>(loc.col - 1) : 0;
    return std::min(line_starts[line] + col, text.size());
  };

  int depth = 0;
  const Token* terminator = nullptr;  // the last depth-0 ';' or '}' so far
  size_t first = 0;                   // the token after it
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kLBrace) {
      ++depth;
      continue;
    }
    if (t.kind == Tok::kRBrace) {
      --depth;
    }
    if (depth == 0 && (t.kind == Tok::kRBrace || t.kind == Tok::kSemi)) {
      terminator = &t;
      first = i + 1;
      continue;
    }
    if (depth != 0 || t.kind != Tok::kIdent || t.text != name ||
        toks[i + 1].kind != Tok::kLParen) {
      continue;
    }
    size_t j = i + 1;
    if (!SkipParenGroup(toks, &j)) {
      return false;
    }
    // Attribute region: words and parenthesized argument lists until the
    // body brace; anything else (';') makes this a declaration.
    bool is_definition = false;
    size_t k = j;
    while (k < toks.size()) {
      Tok kind = toks[k].kind;
      if (kind == Tok::kLBrace) {
        is_definition = true;
        break;
      }
      if (kind == Tok::kLParen) {
        if (!SkipParenGroup(toks, &k)) {
          return false;
        }
        continue;
      }
      if (kind == Tok::kSemi || kind == Tok::kEof) {
        break;
      }
      ++k;
    }
    if (!is_definition) {
      continue;  // keep scanning from i (outer depth tracking undisturbed)
    }
    int braces = 0;
    size_t m = k;
    for (; m < toks.size(); ++m) {
      if (toks[m].kind == Tok::kEof) {
        return false;
      }
      if (toks[m].kind == Tok::kLBrace) {
        ++braces;
      } else if (toks[m].kind == Tok::kRBrace && --braces == 0) {
        break;
      }
    }
    if (m >= toks.size() || braces != 0) {
      return false;
    }
    if (terminator != nullptr && terminator->loc.line == toks[first].loc.line) {
      *out_begin = offset_of(terminator->loc) + 1;
    } else {
      size_t first_off = offset_of(toks[first].loc);
      size_t nl = first_off == 0 ? std::string::npos : text.rfind('\n', first_off - 1);
      *out_begin = nl == std::string::npos ? 0 : nl + 1;
    }
    *out_end = offset_of(toks[m].loc) + 1;  // one past the closing brace
    return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// AnalysisSession
// ---------------------------------------------------------------------------

AnalysisSession::AnalysisSession(Pipeline pipeline)
    : pipeline_(std::move(pipeline)),
      cancel_(std::make_shared<std::atomic<bool>>(false)) {}

AnalysisSession::~AnalysisSession() = default;

void AnalysisSession::AddModule(const std::string& name, std::vector<SourceFile> files) {
  auto& st = modules_[name];
  if (st == nullptr) {
    st = std::make_unique<ModuleState>();
  } else if (!st->dirty && st->files.size() == files.size()) {
    // Re-adding byte-identical sources over a clean module is a no-op:
    // analysis is deterministic, so the cached state IS what re-analysis
    // would produce. This keeps a LoadStore warm start alive when a daemon
    // re-seeds its corpus with the same generated/derived sources.
    bool same = true;
    for (size_t i = 0; i < files.size(); ++i) {
      if (files[i].name != st->files[i].name || files[i].text != st->files[i].text) {
        same = false;
        break;
      }
    }
    if (same) {
      return;
    }
  }
  st->files = std::move(files);
  st->dirty = true;
}

void AnalysisSession::AddModule(ModuleSources module) {
  AddModule(module.name, std::move(module.files));
}

bool AnalysisSession::RemoveModule(const std::string& name) {
  auto it = modules_.find(name);
  if (it == modules_.end()) {
    return false;
  }
  // The corpus changed: the next RunLinked() re-runs it, and until then the
  // table holds no rows of the departed module.
  link_table_.RetractModule(name);
  linked_ = false;
  modules_.erase(it);
  return true;
}

void AnalysisSession::Invalidate(const std::string& name) {
  auto it = modules_.find(name);
  if (it != modules_.end()) {
    it->second->dirty = true;
  }
}

bool AnalysisSession::ReplaceFunction(const std::string& module, const std::string& function,
                                      const std::string& new_definition) {
  auto it = modules_.find(module);
  if (it == modules_.end()) {
    return false;
  }
  // The replaced span ends at the closing brace (exclusive of the original
  // trailing newline), so strip trailing whitespace from the replacement —
  // otherwise every edit would grow the file by a line and shift the
  // locations of everything below it.
  std::string def = new_definition;
  while (!def.empty() && (def.back() == '\n' || def.back() == '\r' || def.back() == ' ')) {
    def.pop_back();
  }
  for (SourceFile& f : it->second->files) {
    size_t begin = 0;
    size_t end = 0;
    if (FindDefinition(f.text, function, &begin, &end)) {
      f.text = f.text.substr(0, begin) + def + f.text.substr(end);
      it->second->dirty = true;
      return true;
    }
  }
  return false;
}

bool AnalysisSession::ReplaceModuleSources(const std::string& name,
                                           std::vector<SourceFile> files) {
  auto it = modules_.find(name);
  if (it == modules_.end()) {
    return false;
  }
  it->second->files = std::move(files);
  it->second->dirty = true;
  return true;
}

SessionResult AnalysisSession::Collect() const {
  // The deterministic corpus merge, in sorted-module-name order.
  SessionResult out;
  for (const auto& [name, st] : modules_) {
    ModuleRunResult mr;
    mr.module = name;
    mr.ok = st->ok;
    mr.reanalyzed = st->analyzed_now;
    mr.result = st->result;
    mr.compile_errors = st->compile_errors;
    if (st->analyzed_now) {
      ++out.modules_analyzed;
    } else {
      ++out.modules_reused;
    }
    if (!st->ok) {
      ++out.compile_failures;
      Finding f;
      f.tool = "session";
      f.severity = FindingSeverity::kError;
      f.module = name;
      f.message = "module '" + name + "' failed to compile";
      out.findings.push_back(std::move(f));
    } else {
      for (const Finding& f : st->result.findings) {
        Finding stamped = f;
        stamped.module = name;
        out.findings.push_back(std::move(stamped));
      }
    }
    out.modules.push_back(std::move(mr));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The link stage: one whole-corpus analysis, regrouped per module.
// ---------------------------------------------------------------------------

namespace {

// How the files of one analyzed program map onto session modules — the
// export view's attribution key. Module files are contiguous, in module
// order, after the prelude.
struct ModuleMap {
  std::vector<const std::string*> names;  // module index -> name
  std::vector<int> of_file;               // file id -> module index (-1: prelude)
  std::vector<int32_t> first_file;        // module index -> first file id
  int32_t base = 0;  // a module's first file id in its own compile

  explicit ModuleMap(bool prelude) : of_file(prelude ? 1 : 0, -1), base(prelude ? 1 : 0) {}
  void Add(const std::string* name, size_t files) {
    first_file.push_back(static_cast<int32_t>(of_file.size()));
    of_file.insert(of_file.end(), files, static_cast<int>(names.size()));
    names.push_back(name);
  }
  int Of(int32_t file) const {
    return file >= 0 && static_cast<size_t>(file) < of_file.size()
               ? of_file[static_cast<size_t>(file)]
               : -1;
  }
  // The id a module-local compile (prelude, then the module's files) gives.
  int32_t Local(int32_t file) const {
    const int m = Of(file);
    return m < 0 ? file : file - first_file[static_cast<size_t>(m)] + base;
  }
};

template <typename T>
const T* DetailOf(const PipelineResult& result, const char* tool) {
  const ToolResult* r = result.ResultFor(tool);
  return r != nullptr ? r->DetailAs<T>() : nullptr;
}

// The summary rows of every module of one analyzed program: a definer row
// per function a module defines, a usage row per non-builtin function it
// declares without defining. Rows carry the names the modules wrote (see
// PublicNames); ComputeLinkStackFacts adds the corpus stack facts.
std::vector<FuncSummary> ExportSummaries(AnalysisContext& ctx, const PipelineResult& result,
                                         const ModuleMap& map) {
  const BlockStopReport* bs = DetailOf<BlockStopReport>(result, "blockstop");
  const ErrCheckReport* ec = DetailOf<ErrCheckReport>(result, "errcheck");
  const LockSafeReport* ls = DetailOf<LockSafeReport>(result, "locksafe");
  // Read-only views of what the analyses already built; never force a build
  // here (a pipeline without the consuming pass exports no such facts).
  const CallGraph* cg = ctx.callgraph_builds() > 0 ? &ctx.callgraph() : nullptr;
  const PointsTo* pt = ctx.pointsto_builds() > 0 ? &ctx.pointsto() : nullptr;
  const auto& func_map = ctx.sema().func_map();
  auto names = [](std::vector<std::string> v) {
    for (std::string& name : v) {
      name = PublicNames(std::move(name));
    }
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  // Per module: written name -> the program's function.
  std::vector<std::map<std::string, const FuncDecl*>> defined(map.names.size());
  std::vector<std::map<std::string, const FuncDecl*>> declared(map.names.size());
  for (const FuncDecl* fn : ctx.prog().funcs) {
    if (const int m = map.Of(fn->loc.file); m >= 0) {
      (fn->body != nullptr ? defined : declared)[static_cast<size_t>(m)].emplace(
          PublicNames(fn->name), func_map.at(fn->name));
    }
  }

  // Usage facts keyed by (calling module, callee): atomic entry from the
  // context bits the module's own functions pass in, irq entry from its
  // irq-reachable functions, and the points-to sets of its arguments.
  using Key = std::pair<int, std::string>;
  std::set<Key> atomic;
  std::set<Key> irq;
  std::map<Key, std::map<int, std::set<std::string>>> args;
  if (bs != nullptr) {
    for (const auto& [key, bits] : bs->cross_file_entry_bits) {
      if ((bits & 2) != 0) {
        atomic.insert({map.Of(key.first), PublicNames(key.second)});
      }
    }
  }
  static const std::vector<const FuncDecl*> kNone;
  for (const FuncDecl* fn : cg != nullptr ? cg->DefinedFuncs() : kNone) {
    const int m = map.Of(fn->loc.file);
    const bool in_irq = ls != nullptr && ls->irq_reachable.count(fn->name) != 0;
    for (const CallSite& site : cg->SitesOf(fn)) {
      // trigger_irq(h, arg) hands `arg` to the handler's first parameter.
      const size_t skip = site.is_irq_dispatch ? 1 : 0;
      for (const FuncDecl* callee : site.McCallees()) {
        if (m < 0 || (callee->body != nullptr && map.Of(callee->loc.file) == m)) {
          continue;  // a call within the module
        }
        const Key key{m, PublicNames(callee->name)};
        if (in_irq) {
          irq.insert(key);
        }
        for (size_t p = 0; pt != nullptr && p < callee->params.size() &&
                           p + skip < site.expr->args.size();
             ++p) {
          pt->FuncNamesOfExpr(site.expr->args[p + skip], &args[key][static_cast<int>(p)]);
        }
      }
    }
  }

  std::vector<FuncSummary> out;
  for (size_t m = 0; m < map.names.size(); ++m) {
    for (const auto& [public_name, fn] : defined[m]) {
      const std::string& fname = fn->name;
      FuncSummary row;
      row.module = *map.names[m];
      row.function = public_name;
      row.defined = true;
      row.blocking = fn->attrs.blocking;
      row.noblock = fn->attrs.noblock;
      row.blocking_if_param = fn->attrs.blocking_if_param;
      row.errcodes = fn->attrs.errcodes;
      row.frame_size = static_cast<size_t>(fn->func_id) < ctx.module().funcs.size()
                           ? ctx.module().funcs[static_cast<size_t>(fn->func_id)].frame_size
                           : fn->frame_size;
      if (bs != nullptr) {
        row.may_block = bs->mayblock.count(fname) != 0;
        auto w = bs->mayblock_witness.find(fname);
        row.block_witness = w != bs->mayblock_witness.end() ? PublicNames(w->second) : "";
      }
      row.returns_error = ec != nullptr && ec->err_funcs.count(fname) != 0;
      if (ls != nullptr && ls->locks_acquired.count(fname) != 0) {
        row.locks_acquired = ls->locks_acquired.at(fname);
      }
      if (cg != nullptr) {
        for (const CallSite& site : cg->SitesOf(fn)) {
          for (const FuncDecl* callee : site.McCallees()) {
            row.callees.push_back(callee->name);
          }
        }
        row.callees = names(std::move(row.callees));
      }
      if (pt != nullptr) {
        row.returns_points = names(pt->ReturnFuncNames(fn));
      }
      out.push_back(std::move(row));
    }
    for (const auto& [fname, fn] : declared[m]) {
      if (defined[m].count(fname) != 0 || fn->is_builtin) {
        continue;
      }
      FuncSummary row;
      row.module = *map.names[m];
      row.function = fname;
      const Key key{static_cast<int>(m), fname};
      row.entered_atomic = atomic.count(key) != 0;
      row.entered_in_irq = irq.count(key) != 0;
      if (auto a = args.find(key); a != args.end()) {
        for (const auto& [p, points] : a->second) {
          if (!points.empty()) {
            row.param_points[p] = names({points.begin(), points.end()});
          }
        }
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

// The module a finding belongs to: its location's file, or — without a
// location — the module that defines witness[0] (a function, else a
// global). Anything else goes to the first module.
int ModuleOfFinding(const Finding& f, const AnalysisContext& ctx, const ModuleMap& map) {
  int m = map.Of(f.loc.file);
  if (m < 0 && !f.witness.empty()) {
    auto it = ctx.sema().func_map().find(f.witness[0]);
    if (it != ctx.sema().func_map().end() && it->second->body != nullptr) {
      m = map.Of(it->second->loc.file);
    }
    for (const VarDecl* g : ctx.prog().globals) {
      m = m < 0 && g->name == f.witness[0] ? map.Of(g->loc.file) : m;
    }
  }
  return std::max(m, 0);
}

// Splits a corpus run's result into the per-module results a module-local
// run reports: findings in tool order with module-local file ids and the
// names the module wrote. The modules' ToolResults share the corpus run's
// details and metrics. `map` holds at least one module.
std::vector<PipelineResult> RegroupFindings(PipelineResult corpus, const AnalysisContext& ctx,
                                            const ModuleMap& map) {
  std::vector<PipelineResult> out(map.names.size());
  auto module_of = [&](Finding* f) -> PipelineResult& {
    PipelineResult& r = out[static_cast<size_t>(ModuleOfFinding(*f, ctx, map))];
    f->loc.file = map.Local(f->loc.file);
    f->message = PublicNames(std::move(f->message));
    for (std::string& w : f->witness) {
      w = PublicNames(std::move(w));
    }
    return r;
  };
  for (ToolResult& t : corpus.results) {
    std::vector<Finding> findings = std::move(t.findings());
    t.findings().clear();
    for (PipelineResult& r : out) {
      r.results.push_back(t);
    }
    for (Finding& f : findings) {
      module_of(&f).results.back().AddFinding(std::move(f));
    }
  }
  // RunTools' merged list keeps its order: configuration errors, then each
  // pass's findings.
  for (Finding& f : corpus.findings) {
    module_of(&f).findings.push_back(std::move(f));
  }
  for (PipelineResult& r : out) {
    r.parallel = corpus.parallel;
    r.pointsto_builds = corpus.pointsto_builds;
    r.callgraph_builds = corpus.callgraph_builds;
  }
  return out;
}

// A module's view of the corpus compile: its own source files (so findings
// and diagnostics render with module-local file ids) and diagnostics. No
// AST — the corpus program owns that.
std::unique_ptr<Compilation> ModuleView(const Compilation& corpus, const ModuleMap& map, int m) {
  auto view = std::make_unique<Compilation>();
  view->config = corpus.config;
  for (int32_t id = 0; id < corpus.sm.file_count(); ++id) {
    if (map.Of(id) == m || (id == 0 && map.base == 1)) {
      view->sm.AddFile(corpus.sm.FileName(id), corpus.sm.FileText(id));
    }
  }
  view->diags = std::make_unique<DiagEngine>(&view->sm);
  for (const Diagnostic& d : corpus.diags->diagnostics()) {
    if (map.Of(d.loc.file) == m) {
      view->diags->Add(d.severity, {map.Local(d.loc.file), d.loc.line, d.loc.col},
                       PublicNames(d.message), d.tool);
    }
  }
  view->ok = view->diags->ok();
  return view;
}

}  // namespace

bool AnalysisSession::AnalyzeCorpus() {
  if (cancel_requested()) {
    return false;
  }
  // Frontend, in module-name order. A module whose files carry a compile
  // error leaves the corpus and the rest compiles again without it; every
  // retry drops a module, and the prelude alone compiles, so this ends.
  std::vector<std::pair<const std::string*, ModuleState*>> live;
  for (auto& [name, st] : modules_) {
    live.push_back({&name, st.get()});
  }
  std::vector<std::pair<ModuleState*, std::unique_ptr<Compilation>>> failed;
  std::unique_ptr<Compilation> comp;
  ModuleMap map(pipeline_.config().include_prelude);
  for (;;) {
    map = ModuleMap(pipeline_.config().include_prelude);
    std::vector<SourceFile> files;
    for (const auto& [name, st] : live) {
      map.Add(name, st->files.size());
      files.insert(files.end(), st->files.begin(), st->files.end());
    }
    comp = pipeline_.Compile(files, &map.of_file);
    if (comp->ok) {
      break;
    }
    std::set<int> bad;
    for (const Diagnostic& d : comp->diags->diagnostics()) {
      if (d.severity == Severity::kError && map.Of(d.loc.file) >= 0) {
        bad.insert(map.Of(d.loc.file));
      }
    }
    std::vector<std::pair<const std::string*, ModuleState*>> rest;
    for (size_t m = 0; m < live.size(); ++m) {
      // An error no module owns fails them all.
      if (bad.empty() || bad.count(static_cast<int>(m)) != 0) {
        failed.push_back({live[m].second, ModuleView(*comp, map, static_cast<int>(m))});
      } else {
        rest.push_back(live[m]);
      }
    }
    live = std::move(rest);
  }
  if (cancel_requested()) {
    return false;
  }

  // One analysis of the whole corpus, then the export view over it.
  std::unique_ptr<AnalysisContext> ctx;
  PipelineResult corpus;
  if (!live.empty()) {
    ctx = pipeline_.MakeContext(comp.get());
    corpus = pipeline_.RunTools(*ctx);
    if (trace::Enabled()) {
      static trace::Counter* const solve_cold = trace::GetCounter("session.solve_cold");
      solve_cold->Add();
    }
  }
  std::vector<PipelineResult> per_module;
  {
    trace::Span span("link.export");
    link_table_ = AnnoDb();
    if (ctx != nullptr) {
      // The repository facts, each stamped with the module declaring it.
      link_table_ = AnnoDb::Extract(ctx->prog(), ctx->sema(), ctx->module(),
                                    DetailOf<BlockStopReport>(corpus, "blockstop"),
                                    [&map](SourceLoc loc) {
                                      const int m = map.Of(loc.file);
                                      return m < 0 ? std::string() : *map.names[m];
                                    });
      for (FuncSummary& row : ExportSummaries(*ctx, corpus, map)) {
        link_table_.AddSummary(std::move(row));
      }
      per_module = RegroupFindings(std::move(corpus), *ctx, map);
    }
    ComputeLinkStackFacts();
  }

  // Publish: every module was analyzed by this run.
  for (auto& [name, st] : modules_) {
    st->result = PipelineResult{};
    st->analyzed_now = true;
    st->dirty = false;
  }
  for (auto& [st, view] : failed) {
    st->ok = false;
    st->compile_errors = view->Errors();
    st->comp = std::move(view);
  }
  for (size_t m = 0; m < per_module.size(); ++m) {
    ModuleState* st = live[m].second;
    st->ok = true;
    st->compile_errors.clear();
    st->comp = ModuleView(*comp, map, static_cast<int>(m));
    st->result = std::move(per_module[m]);
  }
  linked_ = true;
  return true;
}

void AnalysisSession::ComputeLinkStackFacts() {
  link_conflicts_.clear();
  // Definer rows only, in sorted-name order; the first (sorted-module)
  // definer wins a conflicted name.
  std::map<std::string, FuncSummary*> definer;
  for (const auto& [key, row] : link_table_.summaries()) {
    if (row.defined &&
        !definer.emplace(key.second, link_table_.FindSummary(key.first, key.second)).second) {
      link_conflicts_.insert(key.second);
    }
  }
  std::vector<FuncSummary*> rows;
  std::map<std::string, int> index;
  for (const auto& [fname, row] : definer) {
    index[fname] = static_cast<int>(rows.size());
    rows.push_back(row);
  }
  std::vector<std::vector<int>> adj(rows.size());
  std::vector<uint8_t> self_loop(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const std::string& callee : rows[i]->callees) {
      auto it = index.find(callee);
      if (it != index.end()) {  // builtins and never-defined names: no frame
        self_loop[i] |= static_cast<size_t>(it->second) == i ? 1 : 0;
        adj[i].push_back(it->second);
      }
    }
  }

  // Tarjan in sorted-name order (src/support/scc.h) — literally the same
  // condensation code StackCheck runs per module, applied corpus-wide. It
  // emits SCCs in reverse topological order: successors of s always have
  // smaller ids, so one ascending sweep computes the depths.
  SccCondensation scc = TarjanScc(adj);
  std::vector<int64_t> depth(scc.members.size(), 0);
  for (size_t s = 0; s < scc.members.size(); ++s) {
    int64_t weight = 0;
    int64_t deepest = 0;
    bool cyclic = scc.members[s].size() > 1;
    bool multi_module = false;
    for (int v : scc.members[s]) {
      weight += rows[static_cast<size_t>(v)]->frame_size;
      multi_module |= rows[static_cast<size_t>(v)]->module !=
                      rows[static_cast<size_t>(scc.members[s][0])]->module;
      cyclic |= self_loop[static_cast<size_t>(v)] != 0;
      for (int w : adj[static_cast<size_t>(v)]) {
        const size_t sw = static_cast<size_t>(scc.scc_of[static_cast<size_t>(w)]);
        deepest = sw != s ? std::max(deepest, depth[sw]) : deepest;
      }
    }
    depth[s] = weight + deepest;
    for (int v : scc.members[s]) {
      rows[static_cast<size_t>(v)]->stack_below = depth[s];
      rows[static_cast<size_t>(v)]->cross_recursive = cyclic && multi_module;
    }
  }
}

SessionResult AnalysisSession::RunLinked() {
  link_stats_ = LinkStats{};
  // One span and one latency sample per link, whether it analyzed or not.
  trace::Span round_span("session.link_round", {"round", 1});
  const uint64_t t0 = trace::Enabled() ? MonotonicNowNs() : 0;
  bool stale = !linked_;
  for (auto& [name, st] : modules_) {
    st->analyzed_now = false;
    stale |= st->dirty;
  }
  if (stale && !AnalyzeCorpus()) {
    // Cancelled: nothing published, the modules stay dirty.
    link_stats_.cancelled = true;
    SessionResult cancelled;
    cancelled.cancelled = true;
    return cancelled;
  }
  SessionResult result = Collect();
  link_stats_.rounds = 1;
  link_stats_.converged = true;
  link_stats_.module_analyses = result.modules_analyzed;
  link_stats_.summary_rows = static_cast<int>(link_table_.summaries().size());
  // (importer, definer) module pairs: a usage row of a function another
  // module defines.
  std::map<std::string, std::set<std::string>> definers;
  for (const auto& [key, row] : link_table_.summaries()) {
    if (row.defined) {
      definers[key.second].insert(key.first);
    }
  }
  std::set<std::pair<std::string, std::string>> edges;
  for (const auto& [key, row] : link_table_.summaries()) {
    if (!row.defined) {
      for (const std::string& definer : definers[key.second]) {
        edges.insert({key.first, definer});
      }
    }
  }
  link_stats_.cross_edges = static_cast<int>(edges.size());
  if (trace::Enabled()) {
    static trace::Histogram* const link_round_us = trace::GetHistogram("session.link_round_us");
    link_round_us->Record((MonotonicNowNs() - t0) / 1000);
  }
  for (const std::string& fname : link_conflicts_) {
    Finding f;
    f.tool = "session";
    f.severity = FindingSeverity::kError;
    f.message = "function '" + fname +
                "' is defined in multiple modules; linking used the first definer's facts";
    f.witness = {fname};
    result.findings.push_back(std::move(f));
  }
  return result;
}

AnnoDb AnalysisSession::ExportAnnoDb() {
  // The link table (the corpus run's facts and summary rows), plus every
  // module's findings stamped with its name.
  AnnoDb merged;
  for (auto& [name, st] : modules_) {
    if (!st->ok) {
      continue;
    }
    std::vector<Finding> stamped = st->result.findings;
    for (Finding& f : stamped) {
      f.module = name;
    }
    AnnoDb db;
    db.SetFindings(std::move(stamped), st->comp != nullptr ? &st->comp->sm : nullptr);
    merged.Merge(db);
  }
  if (linked_) {
    merged.Merge(link_table_);
  }
  return merged;
}

const Compilation* AnalysisSession::CompilationFor(const std::string& name) const {
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second->comp.get();
}

// ---------------------------------------------------------------------------
// The builder's corpus entry point.
// ---------------------------------------------------------------------------

AnalysisSession PipelineBuilder::BuildSession() const {
  AnalysisSession session(pipeline_);
  for (const ModuleSources& m : modules_) {
    session.AddModule(m);
  }
  return session;
}

}  // namespace ivy
