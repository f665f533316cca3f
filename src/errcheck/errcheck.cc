#include "src/errcheck/errcheck.h"

namespace ivy {

bool ErrCheck::ReturnsNegativeConstant(const Stmt* s) const {
  if (s == nullptr) {
    return false;
  }
  if (s->kind == StmtKind::kReturn && s->expr != nullptr && s->expr->is_const &&
      s->expr->int_val < 0) {
    return true;
  }
  if (ReturnsNegativeConstant(s->init) || ReturnsNegativeConstant(s->then_stmt) ||
      ReturnsNegativeConstant(s->else_stmt)) {
    return true;
  }
  for (const Stmt* child : s->body) {
    if (ReturnsNegativeConstant(child)) {
      return true;
    }
  }
  return false;
}

bool ErrCheck::ExprMentions(const Expr* e, const Symbol* sym) {
  if (e == nullptr) {
    return false;
  }
  if (e->kind == ExprKind::kIdent && e->sym == sym) {
    return true;
  }
  if (ExprMentions(e->a, sym) || ExprMentions(e->b, sym) || ExprMentions(e->c, sym)) {
    return true;
  }
  for (const Expr* arg : e->args) {
    if (ExprMentions(arg, sym)) {
      return true;
    }
  }
  return false;
}

bool ErrCheck::SymTestedIn(const Stmt* s, const Symbol* sym) {
  if (s == nullptr) {
    return false;
  }
  if (s->cond != nullptr && ExprMentions(s->cond, sym)) {
    return true;
  }
  // A return propagating the value counts as handled (the caller checks).
  if (s->kind == StmtKind::kReturn && s->expr != nullptr && ExprMentions(s->expr, sym)) {
    return true;
  }
  if (SymTestedIn(s->init, sym) || SymTestedIn(s->then_stmt, sym) ||
      SymTestedIn(s->else_stmt, sym)) {
    return true;
  }
  for (const Stmt* child : s->body) {
    if (SymTestedIn(child, sym)) {
      return true;
    }
  }
  return false;
}

void ErrCheck::ScanStmt(const FuncDecl* fn, const Stmt* s, const Stmt* func_body,
                        ErrCheckReport* report) {
  if (s == nullptr) {
    return;
  }
  auto callee_of = [report](const Expr* e) -> const FuncDecl* {
    const FuncDecl* callee = e != nullptr && e->kind == ExprKind::kCall ? e->a->func : nullptr;
    return callee != nullptr && report->returns_error[static_cast<size_t>(callee->func_id)] != 0
               ? callee
               : nullptr;
  };
  // Case 1: bare expression statement discarding an error-returning call.
  if (s->kind == StmtKind::kExpr) {
    if (const FuncDecl* callee = callee_of(s->expr)) {
      report->findings.push_back(
          ErrCheckFinding{s->expr->loc, fn->name, callee->name, "discarded"});
    } else if (s->expr != nullptr && s->expr->kind == ExprKind::kAssign) {
      // Case 2: result assigned but the variable never tested afterwards.
      if (const FuncDecl* assigned = callee_of(s->expr->b)) {
        const Expr* lhs = s->expr->a;
        if (lhs->kind == ExprKind::kIdent && lhs->sym != nullptr &&
            !SymTestedIn(func_body, lhs->sym)) {
          report->findings.push_back(
              ErrCheckFinding{s->expr->loc, fn->name, assigned->name, "never-tested"});
        } else {
          ++report->checked_sites;
        }
      }
    }
  }
  // Case 3: declaration with an error-returning initializer.
  if (s->kind == StmtKind::kDecl && s->decl != nullptr) {
    if (const FuncDecl* callee = callee_of(s->decl->init)) {
      if (s->decl->sym != nullptr && !SymTestedIn(func_body, s->decl->sym)) {
        report->findings.push_back(
            ErrCheckFinding{s->decl->loc, fn->name, callee->name, "never-tested"});
      } else {
        ++report->checked_sites;
      }
    }
  }
  // Results consumed directly by conditions count as checked.
  if (s->cond != nullptr && s->cond->kind == ExprKind::kCall && callee_of(s->cond) != nullptr) {
    ++report->checked_sites;
  }
  ScanStmt(fn, s->init, func_body, report);
  ScanStmt(fn, s->then_stmt, func_body, report);
  ScanStmt(fn, s->else_stmt, func_body, report);
  for (const Stmt* child : s->body) {
    ScanStmt(fn, child, func_body, report);
  }
}

ErrCheckReport ErrCheck::Run() {
  ErrCheckReport report;
  report.returns_error.assign(cg_->id_count(), 0);
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    const bool annotated = !fn->attrs.errcodes.empty();
    if (annotated || (fn->type != nullptr && fn->type->ret != nullptr &&
                      fn->type->ret->IsInteger() && ReturnsNegativeConstant(fn->body))) {
      report.returns_error[static_cast<size_t>(fn->func_id)] = 1;
      ++(annotated ? report.annotated_funcs : report.inferred_funcs);
    }
  }
  report.err_returning_funcs = report.annotated_funcs + report.inferred_funcs;
  for (const FuncDecl* fn : cg_->DefinedFuncs()) {
    ScanStmt(fn, fn->body, fn->body, &report);
  }
  return report;
}

std::string ErrCheckReport::ToString() const {
  std::string out = "ErrCheck: " + std::to_string(err_returning_funcs) +
                    " error-returning functions (" + std::to_string(annotated_funcs) +
                    " annotated with errcode(), " + std::to_string(inferred_funcs) +
                    " inferred from negative constant returns)\n";
  out += "  call sites that test the result: " + std::to_string(checked_sites) + "\n";
  out += "  unchecked error results: " + std::to_string(findings.size()) + "\n";
  for (const ErrCheckFinding& f : findings) {
    out += "    [" + f.kind + "] " + f.caller + " ignores result of " + f.callee + "\n";
  }
  return out;
}

std::vector<Finding> ErrCheckReport::ToFindings() const {
  std::vector<Finding> out;
  for (const ErrCheckFinding& e : findings) {
    Finding f;
    f.tool = "errcheck";
    f.severity = FindingSeverity::kWarning;
    f.loc = e.loc;
    f.message = "error code from '" + e.callee + "' is " + e.kind;
    f.witness = {e.caller, e.callee};
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace ivy
