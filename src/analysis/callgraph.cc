#include "src/analysis/callgraph.h"

#include <algorithm>

#include "src/vm/builtins.h"

namespace ivy {

CallGraph CallGraph::Build(const Program& /*prog*/, const Sema& sema, const PointsTo& pt) {
  CallGraph cg;
  for (const FuncDecl* fn : sema.funcs()) {
    if (fn->body != nullptr) {
      cg.defined_.push_back(fn);
    }
  }
  std::sort(cg.defined_.begin(), cg.defined_.end(),
            [](const FuncDecl* a, const FuncDecl* b) { return a->name < b->name; });
  const size_t ids = sema.funcs().size();
  cg.index_of_id_.assign(ids, -1);
  cg.is_irq_entry_.assign(ids, 0);
  cg.site_offsets_.push_back(0);
  for (size_t i = 0; i < cg.defined_.size(); ++i) {
    const FuncDecl* fn = cg.defined_[i];
    cg.index_of_id_[static_cast<size_t>(fn->func_id)] = static_cast<int>(i);
    cg.is_irq_entry_[static_cast<size_t>(fn->func_id)] |= fn->attrs.interrupt_handler;
    cg.Walk(fn->body, pt);
    cg.site_offsets_.push_back(static_cast<uint32_t>(cg.sites_.size()));
  }
  // Unique callees per caller in first-site order, each deduplicated by the
  // last caller that recorded it; every (callee, caller) edge is counted.
  std::vector<uint32_t> seen_by(ids, 0);  // func_id -> 1 + last caller position
  cg.callee_offsets_.push_back(0);
  cg.caller_offsets_.assign(ids + 1, 0);
  for (uint32_t i = 0; i < cg.defined_.size(); ++i) {
    for (const CallSite& site : cg.SitesOf(cg.defined_[i])) {
      for (const FuncDecl* callee : cg.Targets(site)) {
        if (uint32_t& seen = seen_by[static_cast<size_t>(callee->func_id)]; seen != i + 1) {
          seen = i + 1;
          cg.callees_.push_back(callee);
          ++cg.caller_offsets_[static_cast<size_t>(callee->func_id) + 1];
        }
      }
    }
    cg.callee_offsets_.push_back(static_cast<uint32_t>(cg.callees_.size()));
  }
  // Callers per callee in DefinedFuncs() order: a counting sort of those
  // edges, caller by caller.
  for (size_t id = 0; id < ids; ++id) {
    cg.caller_offsets_[id + 1] += cg.caller_offsets_[id];
  }
  std::vector<uint32_t> next(cg.caller_offsets_.begin(), cg.caller_offsets_.end() - 1);
  cg.callers_.resize(cg.callees_.size());
  for (const FuncDecl* fn : cg.defined_) {
    for (const FuncDecl* callee : cg.Callees(fn)) {
      cg.callers_[next[static_cast<size_t>(callee->func_id)]++] = fn;
    }
    if (cg.is_irq_entry_[static_cast<size_t>(fn->func_id)]) {
      cg.irq_entries_.push_back(fn);
    }
  }
  return cg;
}

void CallGraph::WalkExpr(const Expr* e, const PointsTo& pt) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == ExprKind::kCall) {
    CallSite site;
    site.expr = e;
    site.targets_begin = static_cast<uint32_t>(targets_.size());
    const FuncDecl* callee = e->a->func;
    if (callee == nullptr) {
      const std::vector<const FuncDecl*>& cands = pt.TargetsOf(e);
      targets_.insert(targets_.end(), cands.begin(), cands.end());
      ++indirect_sites_;
      indirect_targets_ += static_cast<int64_t>(cands.size());
      edges_ += static_cast<int64_t>(cands.size());
    } else if (!callee->is_builtin) {
      site.direct = callee;
      targets_.push_back(callee);
      ++edges_;
    } else {
      site.builtin = callee;
      if (callee->builtin_id == static_cast<int>(Builtin::kTriggerIrq) && !e->args.empty()) {
        site.is_irq_dispatch = true;
        const std::vector<const FuncDecl*>& handlers = pt.HandlerTargets(e->args[0]);
        targets_.insert(targets_.end(), handlers.begin(), handlers.end());
        if (const FuncDecl* named = e->args[0]->func) {
          targets_.push_back(named);
        }
        for (size_t t = site.targets_begin; t < targets_.size(); ++t) {
          is_irq_entry_[static_cast<size_t>(targets_[t]->func_id)] = 1;
        }
        indirect_targets_ += static_cast<int64_t>(targets_.size() - site.targets_begin);
      }
    }
    site.targets_end = static_cast<uint32_t>(targets_.size());
    sites_.push_back(site);
  }
  WalkExpr(e->a, pt);
  WalkExpr(e->b, pt);
  WalkExpr(e->c, pt);
  for (const Expr* arg : e->args) {
    WalkExpr(arg, pt);
  }
}

void CallGraph::Walk(const Stmt* s, const PointsTo& pt) {
  if (s == nullptr) {
    return;
  }
  WalkExpr(s->expr, pt);
  WalkExpr(s->cond, pt);
  WalkExpr(s->step, pt);
  if (s->decl != nullptr) {
    WalkExpr(s->decl->init, pt);
  }
  Walk(s->init, pt);
  Walk(s->then_stmt, pt);
  Walk(s->else_stmt, pt);
  for (const Stmt* child : s->body) {
    Walk(child, pt);
  }
}

}  // namespace ivy
