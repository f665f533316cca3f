#include "src/locksafe/locksafe.h"

#include <algorithm>
#include <deque>
#include <functional>

namespace ivy {

LockSafe::LockSafe(const Program* prog, const Sema* sema, const CallGraph* cg)
    : prog_(prog), sema_(sema), cg_(cg) {}

std::string LockSafe::LockName(const Expr* arg) {
  // spin_lock(&EXPR): name the lock by its structural path.
  const Expr* e = arg;
  if (e != nullptr && e->kind == ExprKind::kAddrOf) {
    e = e->a;
  }
  if (e == nullptr) {
    return "<unknown>";
  }
  if (e->kind == ExprKind::kMember && e->field_record != nullptr) {
    return e->field_record->name + "." + std::string(e->str_val);
  }
  if (e->kind == ExprKind::kIdent && e->sym != nullptr) {
    if (e->sym->kind == SymKind::kGlobal) {
      return e->sym->name;
    }
    return "<local:" + e->sym->name + ">";
  }
  return "<unknown>";
}

void LockSafe::WalkExpr(const FuncDecl* fn, const Expr* e, Ctx* ctx, Collector* out) const {
  if (e == nullptr) {
    return;
  }
  WalkExpr(fn, e->a, ctx, out);
  WalkExpr(fn, e->b, ctx, out);
  WalkExpr(fn, e->c, ctx, out);
  for (const Expr* arg : e->args) {
    WalkExpr(fn, arg, ctx, out);
  }
  if (e->kind != ExprKind::kCall || e->a->kind != ExprKind::kIdent || e->args.empty()) {
    return;
  }
  std::string_view callee = e->a->str_val;
  bool is_acquire = callee == "spin_lock" || callee == "spin_lock_irqsave" ||
                    callee == "mutex_lock";
  bool is_release = callee == "spin_unlock" || callee == "spin_unlock_irqrestore" ||
                    callee == "mutex_unlock";
  bool irqsafe = callee == "spin_lock_irqsave";
  if (!is_acquire && !is_release) {
    return;
  }
  std::string name = LockName(e->args[0]);
  if (is_acquire) {
    for (const std::string& held : ctx->held) {
      if (held != name && out->edge_set.insert({held, name}).second) {
        out->edges.push_back(LockOrderEdge{held, name, e->loc, fn->name});
      }
    }
    ctx->held.push_back(name);
    out->locks_by_func[fn->func_id].insert(name);
    int& bits = out->lock_ctx[name];
    if (ctx->in_irq) {
      bits |= 1;
    } else if (!irqsafe) {
      bits |= 2;  // process context without disabling interrupts
    }
  } else {
    auto it = std::find(ctx->held.rbegin(), ctx->held.rend(), name);
    if (it != ctx->held.rend()) {
      ctx->held.erase(std::next(it).base());
    }
  }
}

void LockSafe::WalkStmt(const FuncDecl* fn, const Stmt* s, Ctx* ctx, Collector* out) const {
  if (s == nullptr) {
    return;
  }
  WalkExpr(fn, s->expr, ctx, out);
  WalkExpr(fn, s->cond, ctx, out);
  WalkExpr(fn, s->step, ctx, out);
  if (s->decl != nullptr) {
    WalkExpr(fn, s->decl->init, ctx, out);
  }
  WalkStmt(fn, s->init, ctx, out);
  WalkStmt(fn, s->then_stmt, ctx, out);
  WalkStmt(fn, s->else_stmt, ctx, out);
  for (const Stmt* child : s->body) {
    WalkStmt(fn, child, ctx, out);
  }
}

void LockSafe::WalkFunction(const FuncDecl* fn, bool in_irq, Collector* out) const {
  Ctx ctx;
  ctx.in_irq = in_irq;
  WalkStmt(fn, fn->body, &ctx, out);
}

void LockSafe::FindCycles(const std::set<std::pair<std::string, std::string>>& graph,
                          std::vector<std::vector<std::string>>* cycles) {
  // Report each 2-cycle (the ABBA pattern) and longer cycles via DFS.
  std::map<std::string, std::vector<std::string>> succ;
  for (const auto& [a, b] : graph) {
    succ[a].push_back(b);
  }
  std::set<std::pair<std::string, std::string>> seen_pair;
  for (const auto& [a, b] : graph) {
    if (graph.count({b, a}) != 0 && a < b && seen_pair.insert({a, b}).second) {
      cycles->push_back({a, b});
    }
  }
  // Longer cycles: bounded DFS from each node.
  for (const auto& [start, outs] : succ) {
    std::vector<std::string> path{start};
    std::deque<std::pair<std::string, size_t>> stack;
    (void)outs;
    std::function<void(const std::string&)> dfs = [&](const std::string& node) {
      if (path.size() > 4) {
        return;
      }
      for (const std::string& next : succ[node]) {
        if (next == start && path.size() > 2) {
          std::vector<std::string> cycle = path;
          // Canonicalize: only report if start is the smallest element.
          if (*std::min_element(cycle.begin(), cycle.end()) == start) {
            cycles->push_back(cycle);
          }
          continue;
        }
        if (std::find(path.begin(), path.end(), next) == path.end()) {
          path.push_back(next);
          dfs(next);
          path.pop_back();
        }
      }
    };
    dfs(start);
  }
}

void LockSafe::ComputeIrqReachable(std::vector<uint8_t>* reachable) const {
  // IRQ-reachable defined functions: BFS from interrupt entries over the
  // call graph.
  reachable->assign(cg_->id_count(), 0);
  std::deque<const FuncDecl*> work(cg_->irq_entries().begin(), cg_->irq_entries().end());
  while (!work.empty()) {
    const FuncDecl* fn = work.front();
    work.pop_front();
    uint8_t& seen = (*reachable)[static_cast<size_t>(fn->func_id)];
    if (fn->body == nullptr || seen != 0) {
      continue;
    }
    seen = 1;
    for (const FuncDecl* callee : cg_->Callees(fn)) {
      work.push_back(callee);
    }
  }
}

void LockSafe::BuildReport(const Collector& all, LockSafeReport* out) const {
  LockSafeReport& report = *out;
  report.edges = all.edges;
  report.locks_seen = static_cast<int>(all.lock_ctx.size());
  FindCycles(all.edge_set, &report.deadlock_cycles);
  for (const auto& [name, bits] : all.lock_ctx) {
    if ((bits & 1) != 0 && (bits & 2) != 0) {
      report.irq_unsafe_locks.push_back(name);
    }
  }
  report.locks_acquired.resize(cg_->id_count());
  for (const auto& [id, locks] : all.locks_by_func) {
    report.locks_acquired[static_cast<size_t>(id)].assign(locks.begin(), locks.end());
  }
}

LockSafeReport LockSafe::Run() {
  LockSafeReport report;
  ComputeIrqReachable(&report.irq_reachable);
  Collector all;
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    WalkFunction(fn, report.irq_reachable[static_cast<size_t>(fn->func_id)] != 0, &all);
  }
  BuildReport(all, &report);
  return report;
}

LockSafeReport LockSafe::ValidateRuntime(const Machine& vm, const IrModule& module) {
  auto name_of = [&module](uint64_t addr) -> std::string {
    for (const GlobalSlot& g : module.globals) {
      if (addr >= g.addr && addr < g.addr + static_cast<uint64_t>(g.size)) {
        return g.decl != nullptr ? std::string(g.decl->name) : "<global>";
      }
    }
    return "heap@" + std::to_string(addr);
  };
  LockSafeReport report;
  std::set<std::pair<std::string, std::string>> graph;
  for (const auto& [a, b] : vm.lock_order_edges()) {
    std::string na = name_of(a);
    std::string nb = name_of(b);
    if (graph.insert({na, nb}).second) {
      report.edges.push_back(LockOrderEdge{na, nb, SourceLoc{}, "<runtime>"});
    }
  }
  FindCycles(graph, &report.deadlock_cycles);
  for (const auto& [addr, usage] : vm.lock_usage()) {
    if (usage.in_irq && usage.process_irqs_on) {
      report.irq_unsafe_locks.push_back(name_of(addr));
    }
  }
  report.locks_seen = static_cast<int>(vm.lock_usage().size());
  return report;
}

std::string LockSafeReport::ToString() const {
  std::string out;
  out += "LockSafe: " + std::to_string(locks_seen) + " locks, " +
         std::to_string(edges.size()) + " order edges\n";
  out += "  potential deadlocks (inconsistent lock order): " +
         std::to_string(deadlock_cycles.size()) + "\n";
  for (const auto& cycle : deadlock_cycles) {
    out += "    cycle:";
    for (const std::string& l : cycle) {
      out += " " + l + " ->";
    }
    out += " " + cycle.front() + "\n";
  }
  out += "  spinlocks acquired in IRQ context AND in process context with irqs on: " +
         std::to_string(irq_unsafe_locks.size()) + "\n";
  for (const std::string& l : irq_unsafe_locks) {
    out += "    " + l + "\n";
  }
  return out;
}

std::vector<Finding> LockSafeReport::ToFindings(const std::string& origin) const {
  std::vector<Finding> out;
  for (const auto& cycle : deadlock_cycles) {
    Finding f;
    f.tool = "locksafe";
    f.severity = FindingSeverity::kError;
    f.message = "potential deadlock: inconsistent lock order (" + origin + ")";
    f.witness = cycle;
    // Anchor the finding at an edge that is actually part of the cycle
    // (held -> acquired matches a consecutive pair of cycle locks).
    bool anchored = false;
    for (size_t i = 0; i < cycle.size() && !anchored; ++i) {
      const std::string& held = cycle[i];
      const std::string& acquired = cycle[(i + 1) % cycle.size()];
      for (const LockOrderEdge& e : edges) {
        if (e.held == held && e.acquired == acquired) {
          f.loc = e.loc;
          anchored = true;
          break;
        }
      }
    }
    out.push_back(std::move(f));
  }
  for (const std::string& lock : irq_unsafe_locks) {
    Finding f;
    f.tool = "locksafe";
    f.severity = FindingSeverity::kWarning;
    f.message = "lock '" + lock + "' acquired in IRQ context and in process context with interrupts on (" +
                origin + ")";
    f.witness = {lock};
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace ivy
