#include "src/tool/session.h"

#include <algorithm>
#include <future>
#include <utility>

#include "src/analysis/fingerprint.h"
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
// included — then a brace-matched body. `out_begin` is the start of the line
// holding the identifier (Mini-C signatures are single-line), `out_end` one
// past the closing brace.
//
// The scan runs over the real lexer's token stream, so braces and parens
// inside string/char literals and comments can never miscount — the textual
// scanner this replaced did miscount them (see
// SessionTest.ReplaceFunctionBodyWithBraceLiterals).
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
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Tok::kLBrace) {
      ++depth;
      continue;
    }
    if (t.kind == Tok::kRBrace) {
      --depth;
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
    size_t ident_off = offset_of(t.loc);
    size_t begin = ident_off == 0 ? std::string::npos : text.rfind('\n', ident_off - 1);
    *out_begin = begin == std::string::npos ? 0 : begin + 1;
    *out_end = offset_of(toks[m].loc) + 1;  // one past the closing brace
    return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// AnalysisSession
// ---------------------------------------------------------------------------

AnalysisSession::AnalysisSession(Pipeline pipeline, bool track_incremental)
    : pipeline_(std::move(pipeline)),
      track_incremental_(track_incremental),
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
  // A linked table must not keep seeding importers with a departed module's
  // facts: retract its component and let the next RunLinked re-derive it.
  if (!link_table_.summaries().empty()) {
    for (const std::string& m : LinkedComponentOf({name})) {
      link_table_.RetractModule(m);
      if (m != name) {
        Invalidate(m);
      }
    }
  }
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

WorkQueue* AnalysisSession::pool() {
  if (pipeline_.shard_functions() == 1) {
    return nullptr;  // serial kernels never touch a pool
  }
  if (pool_ == nullptr) {
    int shards = pipeline_.shard_functions();
    int workers =
        shards == 0 ? WorkQueue::ResolveHardware() : (shards > 1 ? shards - 1 : 1);
    pool_ = std::make_unique<WorkQueue>(workers);
  }
  return pool_.get();
}

void AnalysisSession::Analyze(const std::string& name, ModuleState* st) {
  Compilation* comp = st->comp.get();

  // Per-function dirty bits: fingerprint the fresh AST, diff against the
  // last successful analysis. Everything is keyed by name, so the diff
  // survives the wholesale AST replacement a recompile is. One-shot
  // sessions (track_incremental off) skip the bookkeeping entirely.
  uint64_t preamble = 0;
  std::map<std::string, uint64_t> fps;
  std::map<std::string, uint64_t> sigs;
  std::map<std::string, std::set<std::string>> refs;
  if (track_incremental_) {
    const bool traced = trace::Enabled();
    const uint64_t fp_t0 = traced ? MonotonicNowNs() : 0;
    preamble = FingerprintPreamble(comp->prog);
    for (const auto& [fname, fn] : comp->sema->func_map()) {
      if (fn->body == nullptr || fn->func_id < 0) {
        continue;
      }
      FunctionFingerprint fingerprint = FingerprintFunctionFull(comp->prog, fn);
      std::string key(fname);
      fps[key] = fingerprint.full;
      sigs[key] = fingerprint.sig;
      refs[key] = std::move(fingerprint.refs);
    }
    if (traced) {
      static trace::Histogram* const fingerprint_us =
          trace::GetHistogram("frontend.fingerprint_us");
      fingerprint_us->Record((MonotonicNowNs() - fp_t0) / 1000);
    }
  }

  // Cross-module imports: seed this compilation's AST (and the points-to
  // solve) with the current fact table. The fingerprints above were taken
  // first — imports are not source edits; the import signature below is
  // what detects their changes.
  std::string import_sig;
  st->link_seeds.clear();
  if (!link_table_.summaries().empty()) {
    AnnoDb::ImportOptions iopts;
    iopts.importer = name;
    iopts.out_seeds = &st->link_seeds;
    iopts.out_signature = &import_sig;
    link_table_.ApplyAttributes(&comp->prog, iopts);
  }

  // Warm only when sources AND imports are unchanged-compatible: the
  // function-granular machinery is exact for source diffs, but imported
  // facts are invisible to fingerprints, so any import change re-solves the
  // module cold (module granularity is the link stage's incremental unit).
  bool warm = track_incremental_ && st->have_snapshot && preamble == st->preamble_fp &&
              import_sig == st->import_sig;
  std::set<std::string> dirty_funcs;
  if (warm) {
    // Changed/added bodies...
    std::set<std::string> renamed;  // added, removed, or signature-changed
    for (const auto& [fname, fp] : fps) {
      auto it = st->func_fps.find(fname);
      if (it == st->func_fps.end()) {
        dirty_funcs.insert(fname);
        renamed.insert(fname);
      } else if (it->second != fp) {
        dirty_funcs.insert(fname);
        if (st->sig_fps[fname] != sigs[fname]) {
          renamed.insert(fname);
        }
      }
    }
    // ...removed functions...
    for (const auto& [fname, fp] : st->func_fps) {
      if (fps.count(fname) == 0) {
        dirty_funcs.insert(fname);
        renamed.insert(fname);
      }
    }
    // ...and functions whose name resolution changed: an unchanged body that
    // references an added/removed/re-signed function generates different
    // constraints, so it is dirty too.
    if (!renamed.empty()) {
      for (const auto& [fname, names] : refs) {
        if (dirty_funcs.count(fname) != 0) {
          continue;
        }
        for (const std::string& r : renamed) {
          if (names.count(r) != 0) {
            dirty_funcs.insert(fname);
            break;
          }
        }
      }
    }
  }

  st->hints = IncrementalHints{};
  if (warm) {
    st->hints.pointsto_prev = &st->pt_snapshot;
    st->hints.pointsto_dirty = dirty_funcs;
  }
  if (!st->link_seeds.empty()) {
    st->hints.pointsto_link = &st->link_seeds;
  }
  st->ctx = pipeline_.MakeContext(comp);
  if (track_incremental_) {
    st->ctx->EnableIncrementalTracking();
  }
  st->ctx->SetIncrementalHints(&st->hints);
  st->ctx->AttachPool(pool());

  // Warm the analyses the pipeline will need. Doing the call graph here (not
  // inside RunTools) lets the BlockStop seed be scoped to the affected
  // region before any pass runs.
  bool need_pt = false;
  bool need_cg = false;
  for (const std::string& step : pipeline_.Plan()) {
    need_pt |= step == "analysis:pointsto";
    need_cg |= step == "analysis:callgraph";
  }
  std::map<std::string, uint64_t> new_callees;
  if (need_cg) {
    const CallGraph& cg = st->ctx->callgraph();
    new_callees = cg.CalleeNameHashes();
    if (warm && st->have_mayblock) {
      // The edited region: fingerprint-dirty functions plus clean-bodied
      // functions whose resolved callee lists changed (an edit elsewhere
      // retargeted one of their indirect sites). Everything that can reach
      // the region is affected; everything else keeps its may-block bit.
      std::set<const FuncDecl*> changed;
      for (const FuncDecl* fn : cg.DefinedFuncs()) {
        auto it = st->callee_hashes.find(fn->name);
        if (dirty_funcs.count(fn->name) != 0 || it == st->callee_hashes.end() ||
            it->second != new_callees[fn->name]) {
          changed.insert(fn);
        }
      }
      std::set<const FuncDecl*> affected = cg.AncestorsOf(changed);
      st->hints.has_blockstop_seed = true;
      for (const FuncDecl* fn : cg.DefinedFuncs()) {
        if (affected.count(fn) == 0) {
          st->hints.blockstop_clean.insert(fn->name);
        }
      }
      st->hints.blockstop_prev_mayblock = st->prev_mayblock;
    }
  } else if (need_pt) {
    st->ctx->pointsto();
  }

  st->result = pipeline_.RunTools(*st->ctx);
  st->ok = true;
  st->compile_errors.clear();

  st->stats = ModuleStats{};
  st->stats.valid = true;
  st->stats.cold = !warm;
  st->stats.dirty_functions = warm ? static_cast<int>(dirty_funcs.size()) : -1;
  // Warm-vs-cold solve accounting for --metrics: how often the incremental
  // machinery actually pays off across a session's lifetime.
  if (trace::Enabled()) {
    trace::GetCounter(warm ? "session.solve_warm" : "session.solve_cold")->Add();
  }
  if (st->ctx->pointsto_builds() > 0) {
    const PointsTo& pt = st->ctx->pointsto();
    st->stats.pointsto_propagations = pt.solve_propagations();
    st->stats.pointsto_seeded_facts = pt.seeded_facts();
  }
  if (const ToolResult* r = st->result.ResultFor("blockstop")) {
    st->stats.mayblock_evals = r->Metric("mayblock_evals");
  }

  // Refresh the snapshots the next incremental run diffs against.
  st->import_sig = std::move(import_sig);
  st->defined_names.clear();
  st->extern_refs.clear();
  for (const auto& [fname, fn] : comp->sema->func_map()) {
    if (fn->func_id < 0 || fn->is_builtin) {
      continue;
    }
    (fn->body != nullptr ? st->defined_names : st->extern_refs).insert(std::string(fname));
  }
  st->have_link_names = true;
  st->have_snapshot = false;
  st->have_mayblock = false;
  if (track_incremental_) {
    st->preamble_fp = preamble;
    st->func_fps = std::move(fps);
    st->sig_fps = std::move(sigs);
    st->func_refs = std::move(refs);
    st->callee_hashes = std::move(new_callees);
    if (st->ctx->pointsto_builds() > 0) {
      st->pt_snapshot = st->ctx->pointsto().Snapshot();
      st->have_snapshot = true;
    }
    if (const ToolResult* r = st->result.ResultFor("blockstop")) {
      if (const BlockStopReport* report = r->DetailAs<BlockStopReport>()) {
        st->prev_mayblock = report->mayblock;
        st->have_mayblock = true;
      }
    }
  }
  st->dirty = false;
}

SessionResult AnalysisSession::Run() {
  // Phase A — frontend, serial: the FrontendCache hands every compilation
  // the same prelude token stream (lexed exactly once per session).
  std::vector<std::pair<const std::string*, ModuleState*>> to_analyze;
  for (auto& [name, st] : modules_) {
    st->analyzed_now = false;
    if (!st->dirty) {
      continue;
    }
    st->analyzed_now = true;
    st->ctx.reset();
    st->comp.reset();
    st->result = PipelineResult{};
    st->comp = pipeline_.Compile(st->files, &cache_);
    if (!st->comp->ok) {
      st->ok = false;
      st->compile_errors = st->comp->Errors();
      st->have_snapshot = false;
      st->have_mayblock = false;
      st->stats = ModuleStats{};
      st->dirty = false;  // until the sources change again
      continue;
    }
    to_analyze.push_back({&name, st.get()});
  }

  // Phase B — analysis: independent per module (private Compilation +
  // AnalysisContext; the shared pool isolates kernels via TaskGroup), so
  // dirty modules run concurrently in bounded batches when the pipeline is
  // parallel. Merge order never depends on completion order. The pool is
  // materialized here, before any Analyze thread exists — lazy construction
  // inside concurrent Analyze calls would race.
  pool();
  bool cancelled = false;
  size_t batch = static_cast<size_t>(WorkQueue::ResolveHardware());
  if (pipeline_.parallel() && to_analyze.size() > 1 && batch > 1) {
    for (size_t i = 0; i < to_analyze.size(); i += batch) {
      // Cancellation boundary: a batch that started finishes (kernels are
      // never interrupted); everything after it stays dirty for the resume.
      if (cancel_requested()) {
        cancelled = true;
        break;
      }
      size_t end = std::min(i + batch, to_analyze.size());
      std::vector<std::future<void>> futures;
      futures.reserve(end - i);
      for (size_t j = i; j < end; ++j) {
        auto [mod_name, st] = to_analyze[j];
        futures.push_back(std::async(std::launch::async,
                                     [this, mod_name, st] { Analyze(*mod_name, st); }));
      }
      for (std::future<void>& f : futures) {
        f.get();
      }
    }
  } else {
    for (auto [mod_name, st] : to_analyze) {
      if (cancel_requested()) {
        cancelled = true;
        break;
      }
      Analyze(*mod_name, st);
    }
  }

  // Phase C — deterministic corpus merge, in sorted-module-name order.
  SessionResult out;
  out.cancelled = cancelled;
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
// The link stage: per-function summary exchange between modules.
// ---------------------------------------------------------------------------

std::vector<FuncSummary> AnalysisSession::ExtractSummaries(const std::string& name,
                                                           ModuleState& st) const {
  std::vector<FuncSummary> out;
  if (!st.ok || st.ctx == nullptr) {
    return out;
  }
  const BlockStopReport* bs = nullptr;
  const ErrCheckReport* ec = nullptr;
  const LockSafeReport* ls = nullptr;
  if (const ToolResult* r = st.result.ResultFor("blockstop")) {
    bs = r->DetailAs<BlockStopReport>();
  }
  if (const ToolResult* r = st.result.ResultFor("errcheck")) {
    ec = r->DetailAs<ErrCheckReport>();
  }
  if (const ToolResult* r = st.result.ResultFor("locksafe")) {
    ls = r->DetailAs<LockSafeReport>();
  }
  // Read-only views of what the analyses already built; never force a build
  // here (a pipeline without the consuming pass exports no such facts).
  const CallGraph* cg = st.ctx->callgraph_builds() > 0 ? &st.ctx->callgraph() : nullptr;
  const PointsTo* pt = st.ctx->pointsto_builds() > 0 ? &st.ctx->pointsto() : nullptr;
  const IrModule& ir = st.ctx->module();

  for (const auto& [fname, fn] : st.ctx->sema().func_map()) {
    if (fn->func_id < 0 || fn->is_builtin) {
      continue;
    }
    FuncSummary row;
    row.module = name;
    row.function = fname;
    if (fn->body != nullptr) {
      // Definer row: bottom-up facts. The attrs here are source-pure — the
      // import path only mutates extern declarations' behavioural attrs.
      row.defined = true;
      row.blocking = fn->attrs.blocking;
      row.noblock = fn->attrs.noblock;
      row.blocking_if_param = fn->attrs.blocking_if_param;
      row.errcodes = fn->attrs.errcodes;
      row.frame_size = static_cast<size_t>(fn->func_id) < ir.funcs.size()
                           ? ir.funcs[static_cast<size_t>(fn->func_id)].frame_size
                           : fn->frame_size;
      if (bs != nullptr) {
        row.may_block = bs->mayblock.count(row.function) != 0;
        auto w = bs->mayblock_witness.find(row.function);
        if (w != bs->mayblock_witness.end()) {
          row.block_witness = w->second;
        }
      }
      if (ec != nullptr) {
        row.returns_error = ec->err_funcs.count(row.function) != 0;
      }
      if (ls != nullptr) {
        auto lk = ls->locks_acquired.find(row.function);
        if (lk != ls->locks_acquired.end()) {
          row.locks_acquired = lk->second;
        }
      }
      if (cg != nullptr) {
        std::set<std::string> callees;
        for (const CallSite& site : cg->SitesOf(fn)) {
          for (const FuncDecl* callee : site.McCallees()) {
            callees.insert(callee->name);
          }
        }
        row.callees.assign(callees.begin(), callees.end());
      }
      if (pt != nullptr) {
        row.returns_points = pt->FuncNamesInCell(fn, -1);
      }
    } else {
      // Usage row: top-down facts about an extern-declared function.
      if (bs != nullptr) {
        auto b = bs->extern_entry_bits.find(row.function);
        row.entered_atomic = b != bs->extern_entry_bits.end() && (b->second & 2) != 0;
      }
      if (ls != nullptr) {
        row.entered_in_irq =
            std::binary_search(ls->extern_irq_callees.begin(),
                               ls->extern_irq_callees.end(), fname);
      }
      if (pt != nullptr) {
        for (size_t p = 0; p < fn->params.size(); ++p) {
          std::vector<std::string> names = pt->FuncNamesInCell(fn, static_cast<int>(p));
          if (!names.empty()) {
            row.param_points[static_cast<int>(p)] = std::move(names);
          }
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

void AnalysisSession::ComputeLinkStackFacts() {
  link_conflicts_.clear();
  // Definer rows only; first (sorted-module) definer wins a conflicted name.
  std::map<std::string, std::pair<std::string, const FuncSummary*>> definer;
  for (const auto& [key, row] : link_table_.summaries()) {
    if (!row.defined) {
      continue;
    }
    auto [it, inserted] = definer.emplace(row.function, std::make_pair(key.first, &row));
    if (!inserted) {
      link_conflicts_.insert(row.function);
    }
  }
  const int n = static_cast<int>(definer.size());
  std::vector<std::string> names;
  std::vector<std::string> owner;
  std::vector<int64_t> frames;
  names.reserve(static_cast<size_t>(n));
  std::map<std::string, int> index;
  for (const auto& [fname, def] : definer) {
    index[fname] = static_cast<int>(names.size());
    names.push_back(fname);
    owner.push_back(def.first);
    frames.push_back(def.second->frame_size);
  }
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  std::vector<uint8_t> self_loop(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (const std::string& callee : definer[names[static_cast<size_t>(i)]].second->callees) {
      auto it = index.find(callee);
      if (it == index.end()) {
        continue;  // builtin or never-defined name: no frame, no edge
      }
      if (it->second == i) {
        self_loop[static_cast<size_t>(i)] = 1;
      }
      adj[static_cast<size_t>(i)].push_back(it->second);
    }
  }

  // Tarjan in sorted-name order (src/support/scc.h) — literally the same
  // condensation code StackCheck runs per module, applied corpus-wide.
  SccCondensation scc = TarjanScc(adj);
  const std::vector<int>& scc_of = scc.scc_of;
  const std::vector<std::vector<int>>& scc_members = scc.members;

  const size_t scc_count = scc_members.size();
  std::vector<int64_t> weight(scc_count, 0);
  std::vector<uint8_t> cyclic(scc_count, 0);
  std::vector<uint8_t> multi_module(scc_count, 0);
  std::vector<std::vector<int>> succs(scc_count);
  for (size_t s = 0; s < scc_count; ++s) {
    std::set<std::string> mods;
    for (int v : scc_members[s]) {
      weight[s] += frames[static_cast<size_t>(v)];
      mods.insert(owner[static_cast<size_t>(v)]);
      if (self_loop[static_cast<size_t>(v)]) {
        cyclic[s] = 1;
      }
    }
    if (scc_members[s].size() > 1) {
      cyclic[s] = 1;
    }
    multi_module[s] = mods.size() > 1 ? 1 : 0;
  }
  for (int v = 0; v < n; ++v) {
    for (int w : adj[static_cast<size_t>(v)]) {
      int sv = scc_of[static_cast<size_t>(v)];
      int sw = scc_of[static_cast<size_t>(w)];
      if (sv != sw) {
        succs[static_cast<size_t>(sv)].push_back(sw);
      }
    }
  }
  // Tarjan emits SCCs in reverse topological order: successors of s always
  // have smaller scc ids, so one ascending sweep computes the depths.
  std::vector<int64_t> depth(scc_count, 0);
  for (size_t s = 0; s < scc_count; ++s) {
    int64_t deepest = 0;
    for (int succ : succs[s]) {
      deepest = std::max(deepest, depth[static_cast<size_t>(succ)]);
    }
    depth[s] = weight[s] + deepest;
  }

  for (int v = 0; v < n; ++v) {
    FuncSummary* row =
        link_table_.FindSummary(owner[static_cast<size_t>(v)], names[static_cast<size_t>(v)]);
    if (row == nullptr) {
      continue;
    }
    size_t s = static_cast<size_t>(scc_of[static_cast<size_t>(v)]);
    row->stack_below = depth[s];
    row->cross_recursive = cyclic[s] != 0 && multi_module[s] != 0;
  }
}

std::set<std::string> AnalysisSession::LinkedComponentOf(
    const std::set<std::string>& roots) const {
  std::map<std::string, std::vector<std::string>> definers;
  std::map<std::string, std::vector<std::string>> referencers;
  for (const auto& [mname, st] : modules_) {
    if (!st->have_link_names) {
      continue;
    }
    for (const std::string& f : st->defined_names) {
      definers[f].push_back(mname);
    }
    for (const std::string& f : st->extern_refs) {
      referencers[f].push_back(mname);
    }
  }
  std::set<std::string> out;
  std::vector<std::string> work(roots.begin(), roots.end());
  while (!work.empty()) {
    std::string m = std::move(work.back());
    work.pop_back();
    if (!out.insert(m).second) {
      continue;
    }
    auto it = modules_.find(m);
    if (it == modules_.end() || !it->second->have_link_names) {
      continue;
    }
    for (const std::string& f : it->second->defined_names) {
      for (const std::string& user : referencers[f]) {
        if (out.count(user) == 0) {
          work.push_back(user);
        }
      }
    }
    for (const std::string& f : it->second->extern_refs) {
      for (const std::string& def : definers[f]) {
        if (out.count(def) == 0) {
          work.push_back(def);
        }
      }
    }
  }
  return out;
}

AnalysisSession::LinkTableSnapshot AnalysisSession::SnapshotLinkTable() const {
  LinkTableSnapshot snap;
  for (const auto& [key, row] : link_table_.summaries()) {
    snap[key] = {row.Canonical(), row.defined, row.cross_recursive, row.stack_below};
  }
  return snap;
}

std::set<std::string> AnalysisSession::DiffLinkTable(const LinkTableSnapshot& before,
                                                     const LinkTableSnapshot& after) const {
  // Mark exactly the importers of changed facts dirty: a changed definer
  // row dirties the modules that declare the function extern; a changed
  // usage row dirties its definer; changed link-stage stack facts feed back
  // into the definer itself when a cross-module cycle appears or
  // disappears.
  std::set<std::string> dirty;
  auto visit_changed = [this, &dirty](const std::pair<std::string, std::string>& key,
                                      const LinkRowState* oldr, const LinkRowState* newr) {
    const std::string& exporter = key.first;
    const std::string& fname = key.second;
    bool defined = newr != nullptr ? newr->defined : oldr->defined;
    for (const auto& [mname, st] : modules_) {
      if (mname == exporter || !st->have_link_names) {
        continue;
      }
      if (defined ? st->extern_refs.count(fname) != 0
                  : st->defined_names.count(fname) != 0) {
        dirty.insert(mname);
      }
    }
    if (defined) {
      bool xrec_changed =
          (oldr == nullptr ? false : oldr->cross_recursive) !=
              (newr == nullptr ? false : newr->cross_recursive) ||
          ((oldr != nullptr && oldr->cross_recursive) &&
           (newr != nullptr && newr->cross_recursive) &&
           oldr->stack_below != newr->stack_below);
      if (xrec_changed) {
        dirty.insert(exporter);
      }
    }
  };
  for (const auto& [key, oldr] : before) {
    auto it = after.find(key);
    if (it == after.end()) {
      visit_changed(key, &oldr, nullptr);
    } else if (it->second.canon != oldr.canon) {
      visit_changed(key, &oldr, &it->second);
    }
  }
  for (const auto& [key, newr] : after) {
    if (before.count(key) == 0) {
      visit_changed(key, nullptr, &newr);
    }
  }
  return dirty;
}

SessionResult AnalysisSession::RunLinked() {
  link_stats_ = LinkStats{};

  // Retraction safety. A monotone fixpoint cannot un-derive facts, and a
  // stale "f may block" row can keep supporting itself around a
  // cross-module cycle after the edit that justified it is gone. So every
  // edit clears the whole cross-module dependency component containing the
  // edited modules — their rows are re-derived from below, while modules
  // outside the component keep their converged facts and cached results.
  std::set<std::string> source_dirty;
  for (auto& [name, st] : modules_) {
    if (st->dirty) {
      source_dirty.insert(name);
    }
  }
  if (!linked_ever_) {
    link_table_ = AnnoDb();
    for (auto& [name, st] : modules_) {
      (void)name;
      st->dirty = true;
    }
  } else if (!source_dirty.empty()) {
    for (const std::string& m : LinkedComponentOf(source_dirty)) {
      link_table_.RetractModule(m);
      Invalidate(m);
    }
  }

  // Safety cap: facts grow monotonically within a linked run, so the
  // fixpoint terminates on its own; the cap only guards against a future
  // non-monotone exporter bug turning into an infinite loop.
  const int max_rounds = static_cast<int>(modules_.size()) * 4 + 8;
  SessionResult result;
  for (;;) {
    // Cancellation boundary between rounds (Run() also checks between
    // modules): an aborted fixpoint reports cancelled, leaves the dirty
    // modules dirty, and skips the summary re-export — the table keeps the
    // last fully-exported round, so a resumed RunLinked() re-derives from a
    // consistent base.
    if (cancel_requested()) {
      link_stats_.cancelled = true;
      result.cancelled = true;
      break;
    }
    ++link_stats_.rounds;
    // One span per fixpoint round (dirty count attached once the diff is
    // known) plus a round-latency histogram — the fixpoint's progress curve
    // in a Perfetto view.
    trace::Span round_span("session.link_round",
                           {"round", static_cast<int64_t>(link_stats_.rounds)});
    const uint64_t round_t0 = trace::Enabled() ? MonotonicNowNs() : 0;
    result = Run();
    if (result.cancelled) {
      link_stats_.cancelled = true;
      break;
    }
    link_stats_.module_analyses += result.modules_analyzed;

    LinkTableSnapshot before = SnapshotLinkTable();
    for (auto& [name, st] : modules_) {
      if (!st->analyzed_now) {
        continue;
      }
      link_table_.RetractModule(name);  // the table holds only summary rows
      for (FuncSummary& row : ExtractSummaries(name, *st)) {
        link_table_.AddSummary(std::move(row));
      }
    }
    ComputeLinkStackFacts();

    std::set<std::string> dirty = DiffLinkTable(before, SnapshotLinkTable());
    round_span.AddArg({"dirty", static_cast<int64_t>(dirty.size())});
    if (trace::Enabled()) {
      trace::GetHistogram("session.link_round_us")
          ->Record((MonotonicNowNs() - round_t0) / 1000);
      trace::GetCounter("session.dirty_modules")->Add(dirty.size());
    }
    if (dirty.empty()) {
      link_stats_.converged = true;
      break;
    }
    // Invalidate BEFORE the cap check: if the cap fires, the unconverged
    // modules stay dirty, so a follow-up RunLinked() resumes the fixpoint
    // instead of reporting the stale table as converged.
    for (const std::string& m : dirty) {
      Invalidate(m);
    }
    if (link_stats_.rounds >= max_rounds) {
      break;
    }
  }

  link_stats_.summary_rows = static_cast<int>(link_table_.summaries().size());
  for (const auto& [mname, st] : modules_) {
    if (!st->have_link_names) {
      continue;
    }
    for (const auto& [nname, nst] : modules_) {
      if (mname == nname || !nst->have_link_names) {
        continue;
      }
      for (const std::string& f : st->extern_refs) {
        if (nst->defined_names.count(f) != 0) {
          ++link_stats_.cross_edges;
          break;
        }
      }
    }
  }
  linked_ever_ = true;

  if (!link_stats_.converged && !link_stats_.cancelled) {
    Finding f;
    f.tool = "session";
    f.severity = FindingSeverity::kError;
    f.message = "cross-module link fixpoint did not converge within " +
                std::to_string(max_rounds) + " rounds";
    result.findings.push_back(std::move(f));
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
  AnnoDb merged;
  for (auto& [name, st] : modules_) {
    if (!st->ok || st->ctx == nullptr) {
      continue;
    }
    AnnoDb db = AnnoDb::Extract(*st->ctx, &st->result);
    db.StampModule(name);
    std::vector<Finding> stamped = st->result.findings;
    for (Finding& f : stamped) {
      f.module = name;
    }
    db.SetFindings(std::move(stamped), &st->ctx->sm());
    merged.Merge(db);
  }
  // The summary fact table rides along: the converged link table when the
  // session has linked, else fresh per-module rows (no corpus stack facts —
  // those need the link fixpoint).
  if (linked_ever_) {
    merged.Merge(link_table_);
  } else {
    for (auto& [name, st] : modules_) {
      for (FuncSummary& row : ExtractSummaries(name, *st)) {
        merged.AddSummary(std::move(row));
      }
    }
  }
  return merged;
}

const Compilation* AnalysisSession::CompilationFor(const std::string& name) const {
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second->comp.get();
}

ModuleStats AnalysisSession::StatsFor(const std::string& name) const {
  auto it = modules_.find(name);
  return it == modules_.end() ? ModuleStats{} : it->second->stats;
}

PipelineRun AnalysisSession::TakeModule(const std::string& name) {
  PipelineRun run;
  auto it = modules_.find(name);
  if (it == modules_.end()) {
    return run;
  }
  ModuleState& st = *it->second;
  if (st.ctx != nullptr) {
    // The session (hints storage, pool) will not outlive these artifacts.
    st.ctx->SetIncrementalHints(nullptr);
    st.ctx->AttachPool(nullptr);
  }
  run.comp = std::move(st.comp);
  run.ctx = std::move(st.ctx);
  run.result = std::move(st.result);
  modules_.erase(it);
  return run;
}

// ---------------------------------------------------------------------------
// The pipeline-level shims: one code path for one-shot and corpus runs.
// ---------------------------------------------------------------------------

PipelineRun Pipeline::CompileAndRun(const std::vector<SourceFile>& files) const {
  AnalysisSession session(*this, /*track_incremental=*/false);
  session.AddModule("", files);
  session.Run();
  return session.TakeModule("");
}

AnalysisSession PipelineBuilder::BuildSession() const {
  AnalysisSession session(pipeline_);
  for (const ModuleSources& m : modules_) {
    session.AddModule(m);
  }
  return session;
}

}  // namespace ivy
