#include "src/tool/session.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
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
  TableChanged();
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

SessionResult AnalysisSession::Collect() const {
  // The deterministic corpus merge, in sorted-module-name order: one copy
  // of each finding for its module's result, one stamped for the merge.
  trace::Span span("session.collect");
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

// The corpus's function names as its modules wrote them, ranked once: the
// distinct written names in sorted order, and each func_id's rank among
// them. Rows, callees and points-to sets order and deduplicate by rank, so
// the export compares, hashes and rewrites no name after this.
struct NameRanks {
  std::vector<std::string> names;  // rank -> written name, sorted
  std::vector<int> of_id;          // func_id -> rank

  // `defined`: the defined functions sorted by name (the call graph's row
  // order), or none; the rest of the canonical functions sort here.
  NameRanks(const Sema& sema, const std::vector<const FuncDecl*>& defined)
      : of_id(sema.funcs().size(), -1) {
    std::vector<const FuncDecl*> rest;
    for (const FuncDecl* fn : sema.funcs()) {
      if (defined.empty() || fn->body == nullptr) {
        rest.push_back(fn);
      }
    }
    auto by = [](const FuncDecl* a, const FuncDecl* b) { return a->name < b->name; };
    std::sort(rest.begin(), rest.end(), by);
    std::vector<const FuncDecl*> by_name(defined.size() + rest.size());
    std::merge(defined.begin(), defined.end(), rest.begin(), rest.end(), by_name.begin(), by);
    // A private spelling name$$m sorts right after the name it respells.
    for (const FuncDecl* fn : by_name) {
      std::string name = PublicNames(fn->name);
      if (names.empty() || names.back() != name) {
        names.push_back(std::move(name));
      }
      of_id[static_cast<size_t>(fn->func_id)] = static_cast<int>(names.size()) - 1;
    }
  }

  // The sorted, distinct ranks of `ids`, a list of func_ids.
  std::vector<int> Ranks(std::vector<int> ids) const {
    for (int& id : ids) {
      id = of_id[static_cast<size_t>(id)];
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }
  std::vector<std::string> Names(const std::vector<int>& ranks) const {
    std::vector<std::string> out;
    out.reserve(ranks.size());
    for (int rank : ranks) {
      out.push_back(names[static_cast<size_t>(rank)]);
    }
    return out;
  }
};

// The corpus stack facts over the definer rows: `definer` maps each rank to
// the row of its first (sorted-module) definer, or -1, and `callees` holds
// every row's callee ranks. Tarjan over the ranks in name order (the
// condensation StackCheck runs per module, src/support/scc.h; a rank with
// no definer row has no frame and no edges), depths summed bottom-up, and
// the members of cyclic SCCs spanning modules marked cross_recursive.
void StackFacts(const std::vector<int>& definer, const std::vector<std::vector<int>>& callees,
                std::vector<FuncSummary>* rows) {
  std::vector<std::vector<int>> adj(definer.size());
  std::vector<uint8_t> self_loop(definer.size(), 0);
  for (size_t v = 0; v < definer.size(); ++v) {
    if (definer[v] < 0) {
      continue;
    }
    for (int w : callees[static_cast<size_t>(definer[v])]) {
      if (definer[static_cast<size_t>(w)] >= 0) {
        self_loop[v] |= static_cast<size_t>(w) == v ? 1 : 0;
        adj[v].push_back(w);
      }
    }
  }
  // Components come out in reverse topological order: successors of s have
  // smaller ids, so one ascending sweep computes the depths.
  SccCondensation scc = TarjanScc(adj);
  std::vector<int64_t> depth(scc.members.size(), 0);
  for (size_t s = 0; s < scc.members.size(); ++s) {
    const int first = definer[static_cast<size_t>(scc.members[s][0])];
    if (first < 0) {
      continue;  // a lone rank without a definer row
    }
    int64_t deepest = 0;
    bool cyclic = scc.members[s].size() > 1;
    bool multi_module = false;
    for (int v : scc.members[s]) {
      const FuncSummary& row = (*rows)[static_cast<size_t>(definer[static_cast<size_t>(v)])];
      depth[s] += row.frame_size;
      multi_module |= row.module != (*rows)[static_cast<size_t>(first)].module;
      cyclic |= self_loop[static_cast<size_t>(v)] != 0;
      for (int w : adj[static_cast<size_t>(v)]) {
        const size_t sw = static_cast<size_t>(scc.scc_of[static_cast<size_t>(w)]);
        deepest = sw != s ? std::max(deepest, depth[sw]) : deepest;
      }
    }
    depth[s] += deepest;
    for (int v : scc.members[s]) {
      FuncSummary& row = (*rows)[static_cast<size_t>(definer[static_cast<size_t>(v)])];
      row.stack_below = depth[s];
      row.cross_recursive = cyclic && multi_module;
    }
  }
}

// The summary rows of every module of one analyzed program, in the table's
// (module, function) order: a definer row per function a module defines, a
// usage row per non-builtin function it declares without defining, each
// under the name the module wrote (see PublicNames), definer rows with the
// corpus stack facts. Everything is keyed by module index and func_id.
std::vector<FuncSummary> ExportSummaries(AnalysisContext& ctx, const PipelineResult& result,
                                         const ModuleMap& map) {
  const BlockStopReport* bs = DetailOf<BlockStopReport>(result, "blockstop");
  const ErrCheckReport* ec = DetailOf<ErrCheckReport>(result, "errcheck");
  const LockSafeReport* ls = DetailOf<LockSafeReport>(result, "locksafe");
  // Read-only views of what the analyses already built; never force a build
  // here (a pipeline without the consuming pass exports no such facts).
  const CallGraph* cg = ctx.callgraph_builds() > 0 ? &ctx.callgraph() : nullptr;
  const PointsTo* pt = ctx.pointsto_builds() > 0 ? &ctx.pointsto() : nullptr;
  static const std::vector<const FuncDecl*> kNone;
  const std::vector<const FuncDecl*>& defined = cg != nullptr ? cg->DefinedFuncs() : kNone;
  const NameRanks ranks(ctx.sema(), defined);
  auto id = [](const FuncDecl* fn) { return static_cast<size_t>(fn->func_id); };

  auto flag = [](const std::vector<uint8_t>* v, size_t i) {
    return v != nullptr && i < v->size() && (*v)[i] != 0;
  };
  const std::vector<uint8_t>* returns_error = ec != nullptr ? &ec->returns_error : nullptr;
  const std::vector<uint8_t>* in_irq = ls != nullptr ? &ls->irq_reachable : nullptr;

  // Usage facts keyed by (calling module, callee rank): atomic entry from the
  // context bits the module's own functions pass in, irq entry from its
  // irq-reachable functions, and the points-to sets of its arguments.
  struct Usage {
    bool atomic = false;
    bool irq = false;
    std::map<int, std::vector<int>> args;  // parameter -> func_ids
  };
  std::vector<std::map<int, Usage>> usage(map.names.size());
  if (bs != nullptr) {
    for (const auto& [file_callee, bits] : bs->cross_file_entry_bits) {
      const int m = map.Of(file_callee.first);
      if ((bits & 2) != 0 && m >= 0) {
        const size_t callee = static_cast<size_t>(file_callee.second);
        usage[static_cast<size_t>(m)][ranks.of_id[callee]].atomic = true;
      }
    }
  }
  for (const FuncDecl* fn : defined) {
    const int m = map.Of(fn->loc.file);
    if (m < 0) {
      continue;
    }
    for (const CallSite& site : cg->SitesOf(fn)) {
      // trigger_irq(h, arg) hands `arg` to the handler's first parameter.
      const size_t skip = site.is_irq_dispatch ? 1 : 0;
      for (const FuncDecl* callee : cg->Targets(site)) {
        if (callee->body != nullptr && map.Of(callee->loc.file) == m) {
          continue;  // a call within the module
        }
        Usage& u = usage[static_cast<size_t>(m)][ranks.of_id[id(callee)]];
        u.irq |= flag(in_irq, id(fn));
        for (size_t p = 0; pt != nullptr && p < callee->params.size() &&
                           p + skip < site.expr->args.size();
             ++p) {
          pt->FuncIdsOfExpr(site.expr->args[p + skip], &u.args[static_cast<int>(p)]);
        }
      }
    }
  }

  // Per module, its defined and declared functions by rank, each through its
  // canonical declaration; a definition stands for its rank, else the
  // first declaration does.
  struct Entry {
    int rank;
    bool declared;
    const FuncDecl* fn;
  };
  std::vector<std::vector<Entry>> entries(map.names.size());
  for (const FuncDecl* fn : ctx.prog().funcs) {
    if (const int m = map.Of(fn->loc.file); m >= 0) {
      const FuncDecl* canon = fn->func_id >= 0 ? fn : ctx.sema().func_map().at(fn->name);
      entries[static_cast<size_t>(m)].push_back(
          {ranks.of_id[id(canon)], fn->body == nullptr, canon});
    }
  }

  std::vector<FuncSummary> out;
  std::vector<std::vector<int>> callees;             // per row: callee ranks
  std::vector<int> definer(ranks.names.size(), -1);  // rank -> its first definer row
  out.reserve(ctx.prog().funcs.size());
  callees.reserve(ctx.prog().funcs.size());
  for (size_t m = 0; m < map.names.size(); ++m) {
    std::vector<Entry>& list = entries[m];
    std::stable_sort(list.begin(), list.end(), [](const Entry& a, const Entry& b) {
      return std::tie(a.rank, a.declared) < std::tie(b.rank, b.declared);
    });
    list.erase(std::unique(list.begin(), list.end(),
                           [](const Entry& a, const Entry& b) { return a.rank == b.rank; }),
               list.end());
    for (const Entry& e : list) {
      if (e.declared && e.fn->is_builtin) {
        continue;
      }
      const bool is_def = !e.declared;
      const FuncDecl* fn = e.fn;
      FuncSummary row;
      row.module = *map.names[m];
      row.function = ranks.names[static_cast<size_t>(e.rank)];
      row.defined = is_def;
      callees.emplace_back();
      if (!is_def) {
        if (auto it = usage[m].find(e.rank); it != usage[m].end()) {
          row.entered_atomic = it->second.atomic;
          row.entered_in_irq = it->second.irq;
          for (const auto& [p, ids] : it->second.args) {
            if (!ids.empty()) {
              row.param_points[p] = ranks.Names(ranks.Ranks(ids));
            }
          }
        }
        out.push_back(std::move(row));
        continue;
      }
      if (definer[static_cast<size_t>(e.rank)] < 0) {
        definer[static_cast<size_t>(e.rank)] = static_cast<int>(out.size());
      }
      row.blocking = fn->attrs.blocking;
      row.noblock = fn->attrs.noblock;
      row.blocking_if_param = fn->attrs.blocking_if_param;
      row.errcodes = fn->attrs.errcodes;
      row.frame_size = id(fn) < ctx.module().funcs.size() ? ctx.module().funcs[id(fn)].frame_size
                                                          : fn->frame_size;
      if (bs != nullptr && id(fn) < bs->witness_by_id.size()) {
        const std::string& witness = bs->witness_by_id[id(fn)];
        row.may_block = !witness.empty();
        row.block_witness = PublicNames(witness);
      }
      row.returns_error = flag(returns_error, id(fn));
      if (ls != nullptr && id(fn) < ls->locks_acquired.size()) {
        row.locks_acquired = ls->locks_acquired[id(fn)];
      }
      if (cg != nullptr) {
        std::vector<int> ids;
        for (const FuncDecl* callee : cg->Callees(fn)) {
          ids.push_back(callee->func_id);
        }
        callees.back() = ranks.Ranks(std::move(ids));
        row.callees = ranks.Names(callees.back());
      }
      if (pt != nullptr) {
        std::vector<int> ids;
        pt->ReturnFuncIds(fn, &ids);
        row.returns_points = ranks.Names(ranks.Ranks(std::move(ids)));
      }
      out.push_back(std::move(row));
    }
  }
  trace::Span span("link.stack");
  StackFacts(definer, callees, &out);
  return out;
}

// The module a finding belongs to: its location's file, or — without a
// location — the module that defines witness[0] (a function, else the
// first global of that name in a module's file, from `global_module`).
// Anything else goes to the first module.
int ModuleOfFinding(const Finding& f, const AnalysisContext& ctx, const ModuleMap& map,
                    const std::unordered_map<std::string_view, int>& global_module) {
  int m = map.Of(f.loc.file);
  if (m < 0 && !f.witness.empty()) {
    auto it = ctx.sema().func_map().find(f.witness[0]);
    if (it != ctx.sema().func_map().end() && it->second->body != nullptr) {
      m = map.Of(it->second->loc.file);
    }
    if (auto g = global_module.find(f.witness[0]); m < 0 && g != global_module.end()) {
      m = g->second;
    }
  }
  return std::max(m, 0);
}

// Splits a corpus run's result into the per-module results a module-local
// run reports: each finding moved once into its module's `findings`, in
// the pipeline's merge order, with module-local file ids and the names the
// module wrote. The modules' ToolResults share the corpus run's details,
// metrics and summaries. `map` holds at least one module.
std::vector<PipelineResult> RegroupFindings(PipelineResult corpus, const AnalysisContext& ctx,
                                            const ModuleMap& map) {
  std::vector<PipelineResult> out(map.names.size());
  std::unordered_map<std::string_view, int> global_module;
  for (const VarDecl* g : ctx.prog().globals) {
    if (const int m = map.Of(g->loc.file); m >= 0) {
      global_module.emplace(g->name, m);
    }
  }
  for (Finding& f : corpus.findings) {
    PipelineResult& r = out[static_cast<size_t>(ModuleOfFinding(f, ctx, map, global_module))];
    f.loc.file = map.Local(f.loc.file);
    f.message = PublicNames(std::move(f.message));
    for (std::string& w : f.witness) {
      w = PublicNames(std::move(w));
    }
    r.findings.push_back(std::move(f));
  }
  for (PipelineResult& r : out) {
    r.results = corpus.results;
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
      {
        // The repository facts, each stamped with the module declaring it.
        trace::Span extract("link.extract");
        link_table_ = AnnoDb::Extract(*comp, DetailOf<BlockStopReport>(corpus, "blockstop"),
                                      [&map](SourceLoc loc) -> const std::string* {
                                        const int m = map.Of(loc.file);
                                        return m < 0 ? nullptr : map.names[m];
                                      });
      }
      {
        trace::Span summaries("link.summaries");
        for (FuncSummary& row : ExportSummaries(*ctx, corpus, map)) {
          link_table_.AddSummary(std::move(row));
        }
      }
      trace::Span regroup("link.regroup");
      per_module = RegroupFindings(std::move(corpus), *ctx, map);
    }
    TableChanged();
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
  {
    // Freeing the corpus program and its analyses costs a few ms a round
    // (the IR's per-instruction vectors most of all); the span shows it.
    trace::Span teardown("link.teardown");
    ctx.reset();
    comp.reset();
  }
  linked_ = true;
  return true;
}

void AnalysisSession::TableChanged() {
  // Each written name's rows, in module order (a stable sort of the table's
  // (module, function) order): a name with several definer rows is a
  // conflict, and a usage row of a name other modules define makes an
  // (importer, definer) edge with each of them.
  struct Row {
    std::string_view function;
    int module;
    bool defined;
  };
  std::vector<Row> rows;
  const std::string* module = nullptr;
  for (const auto& [key, row] : link_table_.summaries()) {
    const int m = rows.empty() ? 0 : rows.back().module + (*module != key.first ? 1 : 0);
    module = &key.first;
    rows.push_back({key.second, m, row.defined});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.function < b.function; });
  link_conflicts_.clear();
  std::set<std::pair<int, int>> edges;
  std::vector<int> definers;
  for (size_t begin = 0, end = 0; begin < rows.size(); begin = end) {
    definers.clear();
    for (end = begin; end < rows.size() && rows[end].function == rows[begin].function; ++end) {
      if (rows[end].defined) {
        definers.push_back(rows[end].module);
      }
    }
    if (definers.size() > 1) {
      link_conflicts_.emplace_hint(link_conflicts_.end(), rows[begin].function);
    }
    for (size_t i = begin; i < end; ++i) {
      for (size_t d = 0; !rows[i].defined && d < definers.size(); ++d) {
        edges.insert({rows[i].module, definers[d]});
      }
    }
  }
  cross_edges_ = static_cast<int>(edges.size());
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
  link_stats_.cross_edges = cross_edges_;
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
