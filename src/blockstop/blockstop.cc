#include "src/blockstop/blockstop.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "src/vm/builtins.h"

namespace ivy {

namespace {
constexpr int64_t kGfpWait = 1;
const char* const kAnnotated = "annotated blocking";

// Compiled-body ops: an AllSites() index, or one of the state-stack ops
// below (larger than any site index).
constexpr uint32_t kNoSite = UINT32_MAX;
constexpr uint32_t kPush = UINT32_MAX - 1;     // push a copy of the state
constexpr uint32_t kSwap = UINT32_MAX - 2;     // swap the state with the top
constexpr uint32_t kJoinPop = UINT32_MAX - 3;  // join the top into the state, pop

// Compiles one body in the order the state walk visits it: operands before
// their call; a branch or loop pushes the state after its condition, runs
// its body (and a for's step) on a copy, and joins that copy back, an if's
// else branch starting from the pushed state. The parser sets init, cond,
// step and else only on these kinds.
struct BodyCompiler {
  const std::vector<uint32_t>& site_of_expr;  // Expr::id -> AllSites() index
  std::vector<uint32_t>* ops;

  void Expr(const ivy::Expr* e) {
    if (e == nullptr) {
      return;
    }
    Expr(e->a);
    Expr(e->b);
    Expr(e->c);
    for (const ivy::Expr* arg : e->args) {
      Expr(arg);
    }
    if (e->kind == ExprKind::kCall && e->id < site_of_expr.size() &&
        site_of_expr[e->id] != kNoSite) {
      ops->push_back(site_of_expr[e->id]);
    }
  }

  void Stmt(const ivy::Stmt* s) {
    if (s == nullptr) {
      return;
    }
    const bool branch = s->kind == StmtKind::kIf || s->kind == StmtKind::kWhile ||
                        s->kind == StmtKind::kDoWhile || s->kind == StmtKind::kFor;
    Stmt(s->init);
    Expr(s->expr);
    Expr(s->decl != nullptr ? s->decl->init : nullptr);
    Expr(s->cond);
    if (branch) {
      ops->push_back(kPush);
    }
    Stmt(s->then_stmt);
    Expr(s->step);
    if (s->kind == StmtKind::kIf) {
      ops->push_back(kSwap);
    }
    Stmt(s->else_stmt);
    if (branch) {
      ops->push_back(kJoinPop);
    }
    for (const ivy::Stmt* child : s->body) {
      Stmt(child);
    }
  }
};
}  // namespace

BlockStop::BlockStop(const Program* /*prog*/, const Sema* /*sema*/, const CallGraph* cg)
    : cg_(cg) {
  const std::vector<CallSite>& sites = cg_->AllSites();
  uint32_t exprs = 0;
  for (const CallSite& site : sites) {
    exprs = std::max(exprs, site.expr->id + 1);
  }
  static const std::pair<Builtin, Effect> kEffects[] = {
      {Builtin::kLocalIrqDisable, {2, 0}}, {Builtin::kLocalIrqSave, {2, 0}},
      {Builtin::kLocalIrqEnable, {1, 0}},  {Builtin::kLocalIrqRestore, {3, 0}},
      {Builtin::kSpinLockIrqsave, {2, 1}}, {Builtin::kSpinUnlockIrqrestore, {3, -1}},
      {Builtin::kSpinLock, {0, 1}},        {Builtin::kSpinUnlock, {0, -1}}};
  std::vector<uint32_t> site_of_expr(exprs, kNoSite);
  effect_.resize(sites.size());
  for (size_t s = 0; s < sites.size(); ++s) {
    site_of_expr[sites[s].expr->id] = static_cast<uint32_t>(s);
    const int id = sites[s].builtin != nullptr ? sites[s].builtin->builtin_id : -1;
    for (const auto& [builtin, effect] : kEffects) {
      effect_[s] = id == static_cast<int>(builtin) ? effect : effect_[s];
    }
  }
  BodyCompiler compiler{site_of_expr, &body_ops_};
  body_offsets_.push_back(0);
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    compiler.Stmt(fn->body);
    body_offsets_.push_back(static_cast<uint32_t>(body_ops_.size()));
  }
}

bool BlockStop::CallMayBlock(const FuncDecl* callee, const ExprList& args,
                             const FuncDecl* caller) const {
  if (callee == nullptr) {
    return false;
  }
  if (callee->attrs.blocking) {
    return true;
  }
  if (callee->is_builtin && BuiltinIsBlocking(static_cast<Builtin>(callee->builtin_id))) {
    return true;
  }
  int flag_param = callee->attrs.blocking_if_param;
  if (flag_param >= 0) {
    if (static_cast<size_t>(flag_param) >= args.size()) {
      return true;  // missing flag argument: be conservative
    }
    const Expr* flag = args[static_cast<size_t>(flag_param)];
    if (flag->is_const) {
      return (flag->int_val & kGfpWait) != 0;
    }
    // Pass-through wrappers: `kmalloc(size, flags)` inside a function itself
    // annotated blocking_if(flags) stays conditional — it is the *wrapper's*
    // call sites that decide.
    if (caller != nullptr && caller->attrs.blocking_if_param >= 0 &&
        flag->kind == ExprKind::kIdent && flag->sym != nullptr &&
        flag->sym->kind == SymKind::kParam &&
        flag->sym->param_index == caller->attrs.blocking_if_param) {
      return false;
    }
    return true;  // unknown flag expression: conservative
  }
  return !callee->is_builtin && IsMayBlock(callee);
}

const FuncDecl* BlockStop::BlockingCauseOf(const FuncDecl* fn) const {
  for (const CallSite& site : cg_->SitesOf(fn)) {
    if (site.is_irq_dispatch) {
      continue;  // handlers run in irq context; dispatch itself won't sleep
    }
    const ExprList& args = site.expr->args;
    if (site.builtin != nullptr && CallMayBlock(site.builtin, args, fn)) {
      return site.builtin;
    }
    for (const FuncDecl* t : cg_->Targets(site)) {
      // A noblock candidate of an indirect call carries the paper's
      // assert_nonatomic() run-time check: the assertion that it is never
      // reached on an atomic path also cuts may-block propagation through
      // this (points-to-imprecise) edge. Direct calls propagate normally.
      if (site.direct == nullptr && t->attrs.noblock) {
        continue;
      }
      if (CallMayBlock(t, args, fn)) {
        return t;
      }
    }
  }
  return nullptr;
}

void BlockStop::Reset() {
  mayblock_evals_ = 0;
  mayblock_.assign(cg_->id_count(), 0);
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    if (fn->attrs.blocking && fn->func_id >= 0) {
      mayblock_[static_cast<size_t>(fn->func_id)] = 1;
    }
  }
}

void BlockStop::ComputeMayBlock() {
  const std::vector<const FuncDecl*>& funcs = cg_->DefinedFuncs();
  // Conditionally-blocking wrappers are decided at their call sites, so they
  // never enter the worklist. `queued` keeps each function in it at most
  // once at a time.
  std::deque<size_t> work;
  std::vector<uint8_t> queued(funcs.size(), 0);
  for (size_t i = 0; i < funcs.size(); ++i) {
    if (!funcs[i]->attrs.blocking && funcs[i]->attrs.blocking_if_param < 0) {
      work.push_back(i);
      queued[i] = 1;
    }
  }
  while (!work.empty()) {
    const FuncDecl* fn = funcs[work.front()];
    queued[work.front()] = 0;
    work.pop_front();
    ++mayblock_evals_;
    if (BlockingCauseOf(fn) == nullptr) {
      continue;
    }
    mayblock_[static_cast<size_t>(fn->func_id)] = 1;
    for (const FuncDecl* caller : cg_->CallersOf(fn)) {
      const int c = cg_->IndexOf(caller);
      if (c >= 0 && !queued[static_cast<size_t>(c)] && !IsMayBlock(caller) &&
          caller->attrs.blocking_if_param < 0) {
        work.push_back(static_cast<size_t>(c));
        queued[static_cast<size_t>(c)] = 1;
      }
    }
  }
}

void BlockStop::ComputeMayBlockReference() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FuncDecl* fn : cg_->DefinedFuncs()) {
      if (IsMayBlock(fn) || fn->attrs.blocking_if_param >= 0) {
        continue;
      }
      ++mayblock_evals_;
      if (BlockingCauseOf(fn) != nullptr) {
        mayblock_[static_cast<size_t>(fn->func_id)] = 1;
        changed = true;
      }
    }
  }
}

void BlockStop::EvaluateEntry(size_t fn_index, uint8_t entry_bit, Found* found) {
  const FuncDecl* fn = cg_->DefinedFuncs()[fn_index];
  const std::vector<CallSite>& sites = cg_->AllSites();
  const uint8_t entry_irq = entry_bit == 1 ? 1 : 2;
  IrqState st;
  st.irq = entry_irq;
  stack_.clear();
  entered_.clear();
  for (uint32_t k = body_offsets_[fn_index]; k < body_offsets_[fn_index + 1]; ++k) {
    const uint32_t s = body_ops_[k];
    if (s == kPush) {
      stack_.push_back(st);
      continue;
    }
    if (s == kSwap || s == kJoinPop) {
      std::swap(st, stack_.back());
      if (s == kJoinPop) {
        st.Join(stack_.back());
        stack_.pop_back();
      }
      continue;
    }
    // A call site, seen in the state before the call.
    const CallSite& site = sites[s];
    const bool atomic = st.Atomic();
    const int callee_bits = ((st.irq & 1) != 0 && st.spin == 0 ? 1 : 0) | (atomic ? 2 : 0);
    for (const FuncDecl* callee : cg_->Targets(site)) {
      // A noblock callee's run-time check asserts non-atomic entry.
      const int bits = callee->attrs.noblock ? callee_bits & 1 : callee_bits;
      const uint8_t add = static_cast<uint8_t>(bits | (site.is_irq_dispatch ? 2 : 0));
      if (add == 0) {
        continue;
      }
      entered_.push_back({callee, add});
      if (!callee->is_builtin &&
          (callee->body == nullptr || callee->loc.file != fn->loc.file)) {
        found->cross[{fn->loc.file, callee->func_id}] |= add;
      }
    }
    if (atomic && !site.is_irq_dispatch && found->at_site[s] == 0) {
      // The first blocker in builtin, direct, indirect order, and the first
      // one without a run-time check.
      const FuncDecl* first = nullptr;
      const FuncDecl* surviving = nullptr;
      auto consider = [&](const FuncDecl* b) {
        if (CallMayBlock(b, site.expr->args, fn)) {
          first = first != nullptr ? first : b;
          surviving = surviving != nullptr || b->attrs.noblock ? surviving : b;
        }
      };
      if (site.builtin != nullptr) {
        consider(site.builtin);
      }
      for (const FuncDecl* t : cg_->Targets(site)) {
        consider(t);
      }
      if (first != nullptr) {
        found->at_site[s] = 1;
        found->candidates.push_back(
            {s, static_cast<uint32_t>(fn_index), surviving != nullptr ? surviving : first,
             surviving == nullptr || (site.direct == nullptr && site.builtin == nullptr),
             surviving == nullptr});
      }
    }
    const Effect e = effect_[s];
    if (e.irq != 0) {
      st.irq = e.irq == 3 ? entry_irq : e.irq;
    }
    st.spin = std::max(0, st.spin + e.spin);
  }
}

BlockStopReport BlockStop::ReportShell() const {
  BlockStopReport report;
  report.num_defined_funcs = static_cast<int>(cg_->DefinedFuncs().size());
  report.callgraph_edges = cg_->edge_count();
  report.indirect_sites = cg_->indirect_site_count();
  report.indirect_target_total = cg_->indirect_target_total();
  report.mayblock_evals = mayblock_evals_;
  report.witness_by_id.resize(cg_->id_count());
  // Witnesses come from the *final* may-block set: the first cause in site
  // order.
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    if (fn->attrs.noblock) {
      ++report.runtime_checks;
    }
    if (!IsMayBlock(fn)) {
      continue;
    }
    const FuncDecl* cause = fn->attrs.blocking ? nullptr : BlockingCauseOf(fn);
    report.witness_by_id[static_cast<size_t>(fn->func_id)] =
        cause != nullptr ? "calls " + cause->name : kAnnotated;
  }
  return report;
}

void BlockStop::FinishReport(BlockStopReport* report, Found found) const {
  // The report's total order (caller, callee, location), on ids:
  // DefinedFuncs() is in name order and a witness follows from its callee.
  const std::vector<CallSite>& sites = cg_->AllSites();
  auto key = [&sites](const Candidate& c) {
    const SourceLoc& loc = sites[c.site].expr->loc;
    return std::tie(c.caller, c.callee->name, loc.file, loc.line, loc.col, c.via_indirect);
  };
  std::sort(found.candidates.begin(), found.candidates.end(),
            [&key](const Candidate& a, const Candidate& b) { return key(a) < key(b); });
  for (const Candidate& c : found.candidates) {
    BlockingViolation v;
    v.loc = sites[c.site].expr->loc;
    v.caller = cg_->DefinedFuncs()[c.caller]->name;
    v.callee = c.callee->name;
    v.witness = !c.callee->is_builtin && IsMayBlock(c.callee)
                    ? report->witness_by_id[static_cast<size_t>(c.callee->func_id)]
                    : kAnnotated;
    v.via_indirect = c.via_indirect;
    (c.silenced ? report->silenced : report->violations).push_back(std::move(v));
  }
  report->cross_file_entry_bits = std::move(found.cross);
}

BlockStopReport BlockStop::Run() {
  Reset();
  ComputeMayBlock();
  BlockStopReport report = ReportShell();

  // Interprocedural context fixpoint as a search over (function, entry-bit)
  // pairs: bit 1 = entered with irqs on, bit 2 = entered atomically. A
  // pair's effects depend only on the function body and the frozen
  // may-block set, never on other contexts, so each pair is evaluated once:
  // when it is seeded or when its bit first appears. Effects apply as soon
  // as a pair is evaluated; context bits only grow and violations keep the
  // first report per site, so the order pairs are taken in cannot matter.
  const size_t n = cg_->DefinedFuncs().size();
  std::vector<uint8_t> contexts(n, 1);
  std::vector<std::pair<size_t, uint8_t>> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pending.push_back({i, uint8_t{1}});
  }
  for (const FuncDecl* fn : cg_->irq_entries()) {
    if (!fn->attrs.noblock) {
      const size_t i = static_cast<size_t>(cg_->IndexOf(fn));
      contexts[i] |= 2;
      pending.push_back({i, uint8_t{2}});
    }
  }
  Found found;
  found.at_site.assign(cg_->AllSites().size(), 0);
  while (!pending.empty()) {
    const auto [i, entry_bit] = pending.back();
    pending.pop_back();
    EvaluateEntry(i, entry_bit, &found);
    for (const auto& [callee, add] : entered_) {
      const int c = cg_->IndexOf(callee);
      if (c < 0) {
        continue;  // declared-only callee: never walked here
      }
      uint8_t& bits = contexts[static_cast<size_t>(c)];
      const uint8_t grown = static_cast<uint8_t>(add & ~bits);
      bits |= add;
      for (uint8_t bit : {uint8_t{1}, uint8_t{2}}) {
        if ((grown & bit) != 0) {
          pending.push_back({static_cast<size_t>(c), bit});
        }
      }
    }
  }
  FinishReport(&report, std::move(found));
  return report;
}

BlockStopReport BlockStop::RunReference() {
  Reset();
  ComputeMayBlockReference();
  BlockStopReport report = ReportShell();

  // Re-evaluates every (function, entry-bit) pair each round until no
  // context bit grows.
  const std::vector<const FuncDecl*>& funcs = cg_->DefinedFuncs();
  std::map<const FuncDecl*, uint8_t> contexts;
  for (const FuncDecl* fn : funcs) {
    contexts[fn] = 1;
  }
  for (const FuncDecl* fn : cg_->irq_entries()) {
    if (!fn->attrs.noblock) {
      contexts[fn] |= 2;
    }
  }
  Found found;
  found.at_site.assign(cg_->AllSites().size(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < funcs.size(); ++i) {
      const uint8_t entries = contexts[funcs[i]];
      for (uint8_t entry_bit : {uint8_t{1}, uint8_t{2}}) {
        if ((entries & entry_bit) == 0) {
          continue;
        }
        EvaluateEntry(i, entry_bit, &found);
        for (const auto& [callee, add] : entered_) {
          uint8_t& bits = contexts[callee];
          if ((bits | add) != bits) {
            bits |= add;
            changed = true;
          }
        }
      }
    }
  }
  FinishReport(&report, std::move(found));
  return report;
}

int64_t BlockStopReport::MayBlockCount() const {
  return std::count_if(witness_by_id.begin(), witness_by_id.end(),
                       [](const std::string& w) { return !w.empty(); });
}

std::string BlockStopReport::ToString() const {
  std::string out;
  out += "BlockStop: " + std::to_string(num_defined_funcs) + " functions, " +
         std::to_string(callgraph_edges) + " call edges, " + std::to_string(indirect_sites) +
         " indirect sites (" + std::to_string(indirect_target_total) + " candidate targets), " +
         std::to_string(MayBlockCount()) + " may-block functions\n";
  out += "  potential bugs (blocking call in atomic context): " +
         std::to_string(violations.size()) + "\n";
  for (const BlockingViolation& v : violations) {
    out += "    " + v.caller + " -> " + v.callee + " (" + v.witness + ")" +
           (v.via_indirect ? " [via function pointer]" : "") + "\n";
  }
  out += "  false positives silenced by " + std::to_string(runtime_checks) +
         " run-time checks: " + std::to_string(silenced.size()) + "\n";
  for (const BlockingViolation& v : silenced) {
    out += "    " + v.caller + " -> " + v.callee + " (" + v.witness + ") [silenced]\n";
  }
  return out;
}

std::vector<Finding> BlockStopReport::ToFindings() const {
  std::vector<Finding> out;
  auto convert = [](const BlockingViolation& v, FindingSeverity sev,
                    const std::string& suffix) {
    Finding f;
    f.tool = "blockstop";
    f.severity = sev;
    f.loc = v.loc;
    f.message = "call may block in atomic context" + suffix +
                (v.via_indirect ? " [via function pointer]" : "");
    f.witness = {v.caller, v.callee, v.witness};
    return f;
  };
  for (const BlockingViolation& v : violations) {
    out.push_back(convert(v, FindingSeverity::kError, ""));
  }
  for (const BlockingViolation& v : silenced) {
    out.push_back(convert(v, FindingSeverity::kNote, " (silenced by run-time check)"));
  }
  return out;
}

}  // namespace ivy
