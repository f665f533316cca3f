#include "src/blockstop/blockstop.h"

#include <algorithm>
#include <deque>
#include <tuple>

#include "src/vm/builtins.h"

namespace ivy {

namespace {
constexpr int64_t kGfpWait = 1;

// Total order on violations: strategy-independent output bytes. The key is
// unique per call site (locs differ at least in column), so any collection
// order sorts to the same sequence.
bool ViolationLess(const BlockingViolation& a, const BlockingViolation& b) {
  return std::tie(a.caller, a.callee, a.loc.file, a.loc.line, a.loc.col, a.witness,
                  a.via_indirect) < std::tie(b.caller, b.callee, b.loc.file, b.loc.line,
                                             b.loc.col, b.witness, b.via_indirect);
}

// Records the context bits `caller` passes into a callee declared or
// defined outside its file. An OR over every evaluated (function,
// entry-bit) pair: both fixpoints evaluate the same pairs, so the order
// they do it in cannot matter.
void NoteCrossFileEntry(const FuncDecl* caller, const FuncDecl* callee, uint8_t bits,
                        BlockStopReport* report) {
  if (!callee->is_builtin &&
      (callee->body == nullptr || callee->loc.file != caller->loc.file)) {
    report->cross_file_entry_bits[{caller->loc.file, callee->name}] |= bits;
  }
}
}  // namespace

BlockStop::BlockStop(const Program* prog, const Sema* sema, const CallGraph* cg)
    : prog_(prog), sema_(sema), cg_(cg) {
  const std::vector<const FuncDecl*>& funcs = cg_->DefinedFuncs();
  for (size_t i = 0; i < funcs.size(); ++i) {
    for (const CallSite& site : cg_->SitesOf(funcs[i])) {
      site_index_[site.expr] = &site;
    }
    if (funcs[i]->func_id >= 0) {
      const size_t id = static_cast<size_t>(funcs[i]->func_id);
      if (id >= index_of_id_.size()) {
        index_of_id_.resize(id + 1, -1);
      }
      index_of_id_[id] = static_cast<int>(i);
    }
  }
}

int BlockStop::IndexOf(const FuncDecl* fn) const {
  const size_t id = static_cast<size_t>(fn->func_id);
  return fn->func_id >= 0 && id < index_of_id_.size() ? index_of_id_[id] : -1;
}

const CallSite* BlockStop::SiteFor(const Expr* e) const {
  auto it = site_index_.find(e);
  return it == site_index_.end() ? nullptr : it->second;
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
  if (!callee->is_builtin && mayblock_.count(callee) != 0) {
    return true;
  }
  return false;
}

std::string BlockStop::WitnessFor(const FuncDecl* fn) const {
  auto it = witness_.find(fn);
  return it != witness_.end() ? it->second : "annotated blocking";
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
    if (site.direct != nullptr && CallMayBlock(site.direct, args, fn)) {
      return site.direct;
    }
    for (const FuncDecl* t : site.indirect) {
      // A noblock candidate carries the paper's assert_nonatomic() run-time
      // check: the assertion that it is never actually reached on an atomic
      // path also cuts may-block propagation through this
      // (points-to-imprecise) edge. Direct calls still propagate normally.
      if (t->attrs.noblock) {
        continue;
      }
      if (CallMayBlock(t, args, fn)) {
        return t;
      }
    }
  }
  return nullptr;
}

void BlockStop::ComputeMayBlock() {
  const std::vector<const FuncDecl*>& funcs = cg_->DefinedFuncs();
  // Conditionally-blocking wrappers are decided at their call sites, so they
  // never enter the worklist. `queued` keeps each function in it at most
  // once at a time.
  std::deque<size_t> work;
  std::vector<uint8_t> queued(funcs.size(), 0);
  for (size_t i = 0; i < funcs.size(); ++i) {
    if (funcs[i]->attrs.blocking) {
      mayblock_.insert(funcs[i]);
    } else if (funcs[i]->attrs.blocking_if_param < 0) {
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
    mayblock_.insert(fn);
    for (const FuncDecl* caller : cg_->CallersOf(fn)) {
      const int c = IndexOf(caller);
      if (c >= 0 && !queued[static_cast<size_t>(c)] && mayblock_.count(caller) == 0 &&
          caller->attrs.blocking_if_param < 0) {
        work.push_back(static_cast<size_t>(c));
        queued[static_cast<size_t>(c)] = 1;
      }
    }
  }
}

void BlockStop::ComputeMayBlockReference() {
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    if (fn->attrs.blocking) {
      mayblock_.insert(fn);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FuncDecl* fn : cg_->DefinedFuncs()) {
      if (mayblock_.count(fn) != 0 || fn->attrs.blocking_if_param >= 0) {
        continue;
      }
      ++mayblock_evals_;
      if (BlockingCauseOf(fn) != nullptr) {
        mayblock_.insert(fn);
        changed = true;
      }
    }
  }
}

std::string BlockStop::WitnessOf(const FuncDecl* fn) const {
  if (fn->attrs.blocking) {
    return "annotated blocking";
  }
  const FuncDecl* cause = BlockingCauseOf(fn);
  return cause != nullptr ? "calls " + cause->name : "annotated blocking";
}

void BlockStop::AssignWitnesses() {
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    if (mayblock_.count(fn) != 0) {
      witness_[fn] = WitnessOf(fn);
    }
  }
}

void BlockStop::WalkExpr(const FuncDecl* fn, const Expr* e, IrqState* st, uint8_t entry_irq,
                         std::vector<std::pair<const Expr*, IrqState>>* out) const {
  if (e == nullptr) {
    return;
  }
  WalkExpr(fn, e->a, st, entry_irq, out);
  WalkExpr(fn, e->b, st, entry_irq, out);
  WalkExpr(fn, e->c, st, entry_irq, out);
  for (const Expr* arg : e->args) {
    WalkExpr(fn, arg, st, entry_irq, out);
  }
  if (e->kind != ExprKind::kCall) {
    return;
  }
  out->push_back({e, *st});
  const CallSite* site = SiteFor(e);
  if (site == nullptr || site->builtin == nullptr) {
    return;
  }
  const std::string& name = site->builtin->name;
  if (name == "local_irq_disable" || name == "local_irq_save") {
    st->irq = 2;
  } else if (name == "local_irq_enable") {
    st->irq = 1;
  } else if (name == "local_irq_restore") {
    st->irq = entry_irq;
  } else if (name == "spin_lock_irqsave") {
    st->irq = 2;
    st->spin += 1;
  } else if (name == "spin_unlock_irqrestore") {
    st->irq = entry_irq;
    st->spin = std::max(0, st->spin - 1);
  } else if (name == "spin_lock") {
    st->spin += 1;
  } else if (name == "spin_unlock") {
    st->spin = std::max(0, st->spin - 1);
  }
}

void BlockStop::WalkStmt(const FuncDecl* fn, const Stmt* s, IrqState* st, uint8_t entry_irq,
                         std::vector<std::pair<const Expr*, IrqState>>* out) const {
  if (s == nullptr) {
    return;
  }
  switch (s->kind) {
    case StmtKind::kIf: {
      WalkExpr(fn, s->cond, st, entry_irq, out);
      IrqState then_st = *st;
      WalkStmt(fn, s->then_stmt, &then_st, entry_irq, out);
      IrqState else_st = *st;
      WalkStmt(fn, s->else_stmt, &else_st, entry_irq, out);
      *st = then_st;
      st->Join(else_st);
      return;
    }
    case StmtKind::kWhile:
    case StmtKind::kDoWhile: {
      WalkExpr(fn, s->cond, st, entry_irq, out);
      IrqState body = *st;
      WalkStmt(fn, s->then_stmt, &body, entry_irq, out);
      st->Join(body);
      return;
    }
    case StmtKind::kFor: {
      WalkStmt(fn, s->init, st, entry_irq, out);
      WalkExpr(fn, s->cond, st, entry_irq, out);
      IrqState body = *st;
      WalkStmt(fn, s->then_stmt, &body, entry_irq, out);
      WalkExpr(fn, s->step, &body, entry_irq, out);
      st->Join(body);
      return;
    }
    default: {
      WalkExpr(fn, s->expr, st, entry_irq, out);
      if (s->decl != nullptr) {
        WalkExpr(fn, s->decl->init, st, entry_irq, out);
      }
      WalkStmt(fn, s->init, st, entry_irq, out);
      WalkStmt(fn, s->then_stmt, st, entry_irq, out);
      WalkStmt(fn, s->else_stmt, st, entry_irq, out);
      for (const Stmt* child : s->body) {
        WalkStmt(fn, child, st, entry_irq, out);
      }
      return;
    }
  }
}

std::vector<std::pair<const FuncDecl*, uint8_t>> BlockStop::EvaluateEntry(
    const FuncDecl* fn, uint8_t entry_bit, Violations* found) const {
  std::vector<std::pair<const FuncDecl*, uint8_t>> out;
  IrqState st;
  st.irq = entry_bit == 1 ? 1 : 2;
  st.spin = 0;
  uint8_t entry_irq = st.irq;
  std::vector<std::pair<const Expr*, IrqState>> sites;
  WalkStmt(fn, fn->body, &st, entry_irq, &sites);
  for (auto& [expr, state] : sites) {
    const CallSite* site = SiteFor(expr);
    if (site == nullptr) {
      continue;
    }
    bool atomic = state.Atomic();
    // Context propagation into Mini-C callees.
    uint8_t callee_bits = 0;
    if ((state.irq & 1) != 0 && state.spin == 0) {
      callee_bits |= 1;
    }
    if (atomic) {
      callee_bits |= 2;
    }
    for (const FuncDecl* callee : site->McCallees()) {
      uint8_t add = callee_bits;
      if (callee->attrs.noblock) {
        add &= 1;  // its runtime check asserts non-atomic entry
      }
      if (site->is_irq_dispatch) {
        add |= 2;
      }
      if (add != 0) {
        out.push_back({callee, add});
      }
    }
    if (!atomic || site->is_irq_dispatch) {
      continue;
    }
    // Violation detection at this atomic site.
    const ExprList& args = expr->args;
    std::vector<const FuncDecl*> blockers;
    if (site->builtin != nullptr && CallMayBlock(site->builtin, args, fn)) {
      blockers.push_back(site->builtin);
    }
    if (site->direct != nullptr && CallMayBlock(site->direct, args, fn)) {
      blockers.push_back(site->direct);
    }
    for (const FuncDecl* t : site->indirect) {
      if (CallMayBlock(t, args, fn)) {
        blockers.push_back(t);
      }
    }
    if (blockers.empty()) {
      continue;
    }
    std::vector<const FuncDecl*> surviving;
    for (const FuncDecl* b : blockers) {
      if (!b->attrs.noblock) {
        surviving.push_back(b);
      }
    }
    BlockingViolation v;
    v.loc = expr->loc;
    v.caller = fn->name;
    if (!surviving.empty()) {
      v.callee = surviving[0]->name;
      v.witness = WitnessFor(surviving[0]);
      v.via_indirect = site->direct == nullptr && site->builtin == nullptr;
      found->reported.emplace(expr, std::move(v));
    } else {
      v.callee = blockers[0]->name;
      v.witness = WitnessFor(blockers[0]);
      v.via_indirect = true;
      found->silenced.emplace(expr, std::move(v));
    }
  }
  return out;
}

BlockStopReport BlockStop::ReportShell() const {
  BlockStopReport report;
  report.num_defined_funcs = static_cast<int>(cg_->DefinedFuncs().size());
  report.callgraph_edges = cg_->edge_count();
  report.indirect_sites = cg_->indirect_site_count();
  report.indirect_target_total = cg_->indirect_target_total();
  report.mayblock_evals = mayblock_evals_;
  for (const FuncDecl* fn : mayblock_) {
    report.mayblock.insert(fn->name);
    report.mayblock_witness[fn->name] = WitnessFor(fn);
  }
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    if (fn->attrs.noblock) {
      ++report.runtime_checks;
    }
  }
  return report;
}

void BlockStop::FinishReport(BlockStopReport* report, Violations found) const {
  for (auto& [expr, v] : found.reported) {
    report->violations.push_back(std::move(v));
  }
  for (auto& [expr, v] : found.silenced) {
    report->silenced.push_back(std::move(v));
  }
  std::sort(report->violations.begin(), report->violations.end(), ViolationLess);
  std::sort(report->silenced.begin(), report->silenced.end(), ViolationLess);
}

BlockStopReport BlockStop::Run() {
  mayblock_.clear();
  witness_.clear();
  ComputeMayBlock();
  AssignWitnesses();
  BlockStopReport report = ReportShell();

  // Interprocedural context fixpoint as a search over (function, entry-bit)
  // pairs: bit 1 = entered with irqs on, bit 2 = entered atomically. A
  // pair's effects depend only on the function body and the frozen
  // may-block set, never on other contexts, so each pair is evaluated once:
  // when it is seeded or when its bit first appears. Effects apply as soon
  // as a pair is evaluated; context bits only grow and violations keep the
  // first report per site, so the order pairs are taken in cannot matter.
  const std::vector<const FuncDecl*>& funcs = cg_->DefinedFuncs();
  std::vector<uint8_t> contexts(funcs.size(), 1);
  std::vector<std::pair<size_t, uint8_t>> pending;
  pending.reserve(funcs.size());
  for (size_t i = 0; i < funcs.size(); ++i) {
    pending.push_back({i, uint8_t{1}});
  }
  for (const FuncDecl* fn : cg_->irq_entries()) {
    const int i = IndexOf(fn);
    if (i >= 0 && !fn->attrs.noblock) {
      contexts[static_cast<size_t>(i)] |= 2;
      pending.push_back({static_cast<size_t>(i), uint8_t{2}});
    }
  }
  Violations found;
  while (!pending.empty()) {
    const auto [i, entry_bit] = pending.back();
    pending.pop_back();
    for (auto& [callee, add] : EvaluateEntry(funcs[i], entry_bit, &found)) {
      NoteCrossFileEntry(funcs[i], callee, add, &report);
      const int c = IndexOf(callee);
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
  mayblock_.clear();
  witness_.clear();
  ComputeMayBlockReference();
  AssignWitnesses();
  BlockStopReport report = ReportShell();

  // Re-evaluates every (function, entry-bit) pair each round until no
  // context bit grows.
  std::map<const FuncDecl*, uint8_t> contexts;
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    contexts[fn] = 1;
  }
  for (const FuncDecl* fn : cg_->irq_entries()) {
    if (!fn->attrs.noblock) {
      contexts[fn] |= 2;
    }
  }
  Violations found;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FuncDecl* fn : cg_->DefinedFuncs()) {
      const uint8_t entries = contexts[fn];
      for (uint8_t entry_bit : {uint8_t{1}, uint8_t{2}}) {
        if ((entries & entry_bit) == 0) {
          continue;
        }
        for (auto& [callee, add] : EvaluateEntry(fn, entry_bit, &found)) {
          NoteCrossFileEntry(fn, callee, add, &report);
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

std::string BlockStopReport::ToString() const {
  std::string out;
  out += "BlockStop: " + std::to_string(num_defined_funcs) + " functions, " +
         std::to_string(callgraph_edges) + " call edges, " + std::to_string(indirect_sites) +
         " indirect sites (" + std::to_string(indirect_target_total) + " candidate targets), " +
         std::to_string(mayblock.size()) + " may-block functions\n";
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
