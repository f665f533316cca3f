#include "src/analysis/callgraph.h"

namespace ivy {

namespace {

const FuncDecl* NamedCallee(const Sema& sema, const Expr* callee) {
  if (callee == nullptr || callee->kind != ExprKind::kIdent || callee->sym != nullptr) {
    return nullptr;
  }
  auto it = sema.func_map().find(callee->str_val);
  return it == sema.func_map().end() ? nullptr : it->second;
}

}  // namespace

CallGraph CallGraph::Build(const Program& /*prog*/, const Sema& sema, const PointsTo& pt) {
  CallGraph cg;
  for (const auto& [name, fn] : sema.func_map()) {
    if (fn->body == nullptr) {
      continue;
    }
    cg.defined_.push_back(fn);
    if (fn->attrs.interrupt_handler) {
      cg.irq_entries_.insert(fn);
    }
  }
  std::sort(cg.defined_.begin(), cg.defined_.end(),
            [](const FuncDecl* a, const FuncDecl* b) { return a->name < b->name; });
  for (const FuncDecl* fn : cg.defined_) {
    cg.Walk(fn, fn->body, sema, pt);
  }
  // Reverse edges, deduplicated, callers in DefinedFuncs() order (the outer
  // loop order) so worklist consumers stay deterministic.
  std::set<std::pair<const FuncDecl*, const FuncDecl*>> seen;
  for (const FuncDecl* fn : cg.defined_) {
    for (const CallSite& site : cg.SitesOf(fn)) {
      for (const FuncDecl* callee : site.McCallees()) {
        if (seen.insert({callee, fn}).second) {
          cg.callers_[callee].push_back(fn);
        }
      }
    }
  }
  return cg;
}

void CallGraph::WalkExpr(const FuncDecl* caller, const Expr* e, const Sema& sema,
                         const PointsTo& pt) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == ExprKind::kCall) {
    CallSite site;
    site.expr = e;
    site.loc = e->loc;
    site.caller = caller;
    const FuncDecl* callee = NamedCallee(sema, e->a);
    if (callee != nullptr) {
      if (callee->is_builtin) {
        site.builtin = callee;
        if (callee->name == "trigger_irq" && !e->args.empty()) {
          site.is_irq_dispatch = true;
          site.indirect = pt.HandlerTargets(e->args[0]);
          if (const FuncDecl* named = NamedCallee(sema, e->args[0])) {
            site.indirect.push_back(named);
          }
          for (const FuncDecl* h : site.indirect) {
            irq_entries_.insert(h);
          }
          indirect_targets_ += static_cast<int64_t>(site.indirect.size());
        }
      } else {
        site.direct = callee;
        ++edges_;
      }
    } else {
      site.indirect = pt.TargetsOf(e);
      ++indirect_sites_;
      indirect_targets_ += static_cast<int64_t>(site.indirect.size());
      edges_ += static_cast<int64_t>(site.indirect.size());
    }
    sites_[caller].push_back(site);
  }
  WalkExpr(caller, e->a, sema, pt);
  WalkExpr(caller, e->b, sema, pt);
  WalkExpr(caller, e->c, sema, pt);
  for (const Expr* arg : e->args) {
    WalkExpr(caller, arg, sema, pt);
  }
}

void CallGraph::Walk(const FuncDecl* caller, const Stmt* s, const Sema& sema,
                     const PointsTo& pt) {
  if (s == nullptr) {
    return;
  }
  WalkExpr(caller, s->expr, sema, pt);
  WalkExpr(caller, s->cond, sema, pt);
  WalkExpr(caller, s->step, sema, pt);
  if (s->decl != nullptr) {
    WalkExpr(caller, s->decl->init, sema, pt);
  }
  Walk(caller, s->init, sema, pt);
  Walk(caller, s->then_stmt, sema, pt);
  Walk(caller, s->else_stmt, sema, pt);
  for (const Stmt* child : s->body) {
    Walk(caller, child, sema, pt);
  }
}

const std::vector<CallSite>& CallGraph::SitesOf(const FuncDecl* fn) const {
  auto it = sites_.find(fn);
  return it == sites_.end() ? empty_ : it->second;
}

const std::vector<const FuncDecl*>& CallGraph::CallersOf(const FuncDecl* fn) const {
  auto it = callers_.find(fn);
  return it == callers_.end() ? empty_funcs_ : it->second;
}

std::set<const FuncDecl*> CallGraph::Callees(const FuncDecl* fn) const {
  std::set<const FuncDecl*> out;
  for (const CallSite& site : SitesOf(fn)) {
    if (site.direct != nullptr) {
      out.insert(site.direct);
    }
    for (const FuncDecl* t : site.indirect) {
      out.insert(t);
    }
  }
  return out;
}

}  // namespace ivy
