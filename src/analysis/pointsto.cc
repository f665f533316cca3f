#include "src/analysis/pointsto.h"

#include <algorithm>

#include "src/vm/builtins.h"

namespace ivy {

PointsTo::PointsTo(const Program* prog, const Sema* sema, bool field_sensitive)
    : prog_(prog), sema_(sema), field_sensitive_(field_sensitive) {}

int PointsTo::NewNode() {
  node_funcs_.emplace_back();
  edges_.emplace_back();
  return static_cast<int>(node_funcs_.size()) - 1;
}

int PointsTo::VarNode(const Symbol* sym) {
  auto [it, inserted] = var_nodes_.emplace(sym, -1);
  if (inserted) {
    it->second = NewNode();
  }
  return it->second;
}

int PointsTo::FieldNode(const RecordDecl* rec, int field_index) {
  int idx = field_sensitive_ ? field_index : -1;
  auto [it, inserted] = field_nodes_.emplace(std::make_pair(rec, idx), -1);
  if (inserted) {
    it->second = NewNode();
  }
  return it->second;
}

int PointsTo::RetNode(const FuncDecl* fn) {
  auto [it, inserted] = ret_nodes_.emplace(fn, -1);
  if (inserted) {
    it->second = NewNode();
  }
  return it->second;
}

int PointsTo::VarNode(const Symbol* sym) const {
  auto it = var_nodes_.find(sym);
  return it == var_nodes_.end() ? -1 : it->second;
}

int PointsTo::FieldNode(const RecordDecl* rec, int field_index) const {
  auto it = field_nodes_.find({rec, field_sensitive_ ? field_index : -1});
  return it == field_nodes_.end() ? -1 : it->second;
}

int PointsTo::RetNode(const FuncDecl* fn) const {
  auto it = ret_nodes_.find(fn);
  return it == ret_nodes_.end() ? -1 : it->second;
}

template <typename Self>
int PointsTo::NodeOf(Self* self, const Expr* e) {
  // Arrays collapse to the cell of the array expression itself; `(*fp)(...)`
  // and casts read their operand's cell.
  while (e != nullptr && (e->kind == ExprKind::kIndex || e->kind == ExprKind::kDeref ||
                          e->kind == ExprKind::kCast)) {
    e = e->a;
  }
  if (e != nullptr && e->kind == ExprKind::kIdent && e->sym != nullptr) {
    return self->VarNode(e->sym);
  }
  if (e != nullptr && e->kind == ExprKind::kMember && e->field != nullptr &&
      e->field_record != nullptr) {
    return self->FieldNode(e->field_record, e->field->index);
  }
  return -1;
}

template <typename Self, typename OnFunc, typename OnNode>
void PointsTo::ForEachSource(Self* self, const Expr* e, const OnFunc& on_func,
                             const OnNode& on_node) {
  if (e == nullptr) {
    return;
  }
  if (e->func != nullptr) {
    on_func(e->func);
    return;
  }
  switch (e->kind) {
    case ExprKind::kCond:
      ForEachSource(self, e->b, on_func, on_node);
      ForEachSource(self, e->c, on_func, on_node);
      return;
    case ExprKind::kCast:
      ForEachSource(self, e->a, on_func, on_node);
      return;
    case ExprKind::kAssign:
      ForEachSource(self, e->b, on_func, on_node);  // value of an assignment is its rhs
      return;
    case ExprKind::kCall:
      if (e->a->func != nullptr) {
        on_node(self->RetNode(e->a->func));
      } else if (auto site = self->site_of_expr_.find(e); site != self->site_of_expr_.end()) {
        on_node(self->sites_[static_cast<size_t>(site->second)].ret_node);
      }
      return;
    default:
      on_node(NodeOf(self, e));
  }
}

int PointsTo::NodeOfExpr(const Expr* e) { return NodeOf(this, e); }

void PointsTo::AddEdge(int src, int dst) {
  if (src < 0 || dst < 0 || src == dst) {
    return;
  }
  edges_[static_cast<size_t>(src)].push_back(dst);
}

void PointsTo::AddFunc(int node, const FuncDecl* fn) {
  if (node < 0 || fn == nullptr || fn->func_id < 0) {
    return;
  }
  node_funcs_[static_cast<size_t>(node)].insert(fn->func_id);
}

void PointsTo::FlowInto(const Expr* rhs, int dst) {
  if (dst >= 0) {
    ForEachSource(
        this, rhs, [&](const FuncDecl* fn) { AddFunc(dst, fn); },
        [&](int src) { AddEdge(src, dst); });
  }
}

void PointsTo::GenCall(const Expr* e) {
  const FuncDecl* callee = e->a->func;
  if (callee != nullptr) {
    // Special-case the interrupt dispatcher: its handler argument is an
    // indirect callee with one parameter.
    if (callee->builtin_id == static_cast<int>(Builtin::kTriggerIrq) && !e->args.empty()) {
      IndirectSite site;
      site.call = e->args[0];
      site.callee_node = NodeOfExpr(e->args[0]);
      if (e->args.size() > 1) {
        site.args.push_back(e->args[1]);
      }
      site.ret_node = NewNode();
      site_of_expr_[e->args[0]] = static_cast<int>(sites_.size());
      sites_.push_back(site);
      // The handler reference itself may be a function name.
      if (const FuncDecl* h = e->args[0]->func) {
        int handler_node = site.callee_node;
        if (handler_node < 0) {
          handler_node = NewNode();
        }
        AddFunc(handler_node, h);
        int idx = site_of_expr_[e->args[0]];
        sites_[static_cast<size_t>(idx)].callee_node = handler_node;
      }
      return;
    }
    // Direct call: bind arguments to parameters.
    for (size_t i = 0; i < e->args.size() && i < callee->params.size(); ++i) {
      FlowInto(e->args[i], VarNode(callee->params[i]));
    }
    return;
  }
  // Indirect call site.
  IndirectSite site;
  site.call = e;
  site.callee_node = NodeOfExpr(e->a);
  for (const Expr* a : e->args) {
    site.args.push_back(a);
  }
  site.ret_node = NewNode();
  site_of_expr_[e] = static_cast<int>(sites_.size());
  sites_.push_back(site);
}

void PointsTo::GenExpr(const Expr* e) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == ExprKind::kAssign && e->assign_op == BinOp::kNone) {
    FlowInto(e->b, NodeOfExpr(e->a));
  }
  if (e->kind == ExprKind::kCall) {
    GenCall(e);
  }
  GenExpr(e->a);
  GenExpr(e->b);
  GenExpr(e->c);
  for (const Expr* arg : e->args) {
    GenExpr(arg);
  }
}

void PointsTo::GenStmt(const Stmt* s) {
  if (s == nullptr) {
    return;
  }
  if (s->kind == StmtKind::kDecl && s->decl != nullptr && s->decl->init != nullptr &&
      s->decl->sym != nullptr) {
    FlowInto(s->decl->init, VarNode(s->decl->sym));
  }
  if (s->kind == StmtKind::kReturn && s->expr != nullptr && cur_fn_ != nullptr) {
    FlowInto(s->expr, RetNode(cur_fn_));
  }
  GenExpr(s->expr);
  GenExpr(s->cond);
  GenExpr(s->step);
  if (s->decl != nullptr) {
    GenExpr(s->decl->init);
  }
  GenStmt(s->init);
  GenStmt(s->then_stmt);
  GenStmt(s->else_stmt);
  for (const Stmt* child : s->body) {
    GenStmt(child);
  }
}

void PointsTo::Solve() {
  for (const FuncDecl* fn : sema_->funcs()) {
    if (fn->body != nullptr) {
      cur_fn_ = fn;
      GenStmt(fn->body);
    }
  }
  cur_fn_ = nullptr;
  for (const VarDecl* g : prog_->globals) {
    if (g->init != nullptr && g->sym != nullptr) {
      FlowInto(g->init, VarNode(g->sym));
    }
  }

  // Fixpoint: propagate function sets along edges; expand indirect sites.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t n = 0; n < edges_.size(); ++n) {
      for (int d : edges_[n]) {
        const size_t dst = static_cast<size_t>(d);
        for (int f : node_funcs_[n]) {
          if (node_funcs_[dst].insert(f).second) {
            changed = true;
            ++propagations_;
          }
        }
      }
    }
    for (IndirectSite& site : sites_) {
      if (site.callee_node < 0) {
        continue;
      }
      // Copy: binding below creates nodes, which reallocates node_funcs_ and
      // would invalidate a by-reference iteration.
      const std::set<int> fids = node_funcs_[static_cast<size_t>(site.callee_node)];
      for (int fid : fids) {
        if (site.bound.count(fid) != 0) {
          continue;
        }
        site.bound.insert(fid);
        changed = true;
        const FuncDecl* target = sema_->funcs()[static_cast<size_t>(fid)];
        for (size_t i = 0; i < site.args.size() && i < target->params.size(); ++i) {
          FlowInto(site.args[i], VarNode(target->params[i]));
        }
        AddEdge(RetNode(target), site.ret_node);
      }
    }
  }

  // Materialize resolved target lists.
  for (const IndirectSite& site : sites_) {
    std::vector<const FuncDecl*> targets;
    if (site.callee_node >= 0) {
      for (int fid : node_funcs_[static_cast<size_t>(site.callee_node)]) {
        targets.push_back(sema_->funcs()[static_cast<size_t>(fid)]);
      }
    }
    std::sort(targets.begin(), targets.end(),
              [](const FuncDecl* a, const FuncDecl* b) { return a->name < b->name; });
    resolved_[site.call] = std::move(targets);
  }
}

const std::vector<const FuncDecl*>& PointsTo::TargetsOf(const Expr* call) const {
  auto it = resolved_.find(call);
  return it == resolved_.end() ? empty_ : it->second;
}

void PointsTo::ReturnFuncIds(const FuncDecl* fn, std::vector<int>* out) const {
  if (auto it = ret_nodes_.find(fn); it != ret_nodes_.end()) {
    const std::set<int>& ids = node_funcs_[static_cast<size_t>(it->second)];
    out->insert(out->end(), ids.begin(), ids.end());
  }
}

void PointsTo::FuncIdsOfExpr(const Expr* e, std::vector<int>* out) const {
  ForEachSource(
      this, e, [out](const FuncDecl* fn) { out->push_back(fn->func_id); },
      [&](int node) {
        if (node >= 0) {
          const std::set<int>& ids = node_funcs_[static_cast<size_t>(node)];
          out->insert(out->end(), ids.begin(), ids.end());
        }
      });
}

}  // namespace ivy
