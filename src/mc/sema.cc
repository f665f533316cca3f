#include "src/mc/sema.h"

#include <algorithm>

namespace ivy {

Sema::Sema(Program* prog, DiagEngine* diags, BuiltinResolver builtins)
    : prog_(prog), diags_(diags), builtins_(std::move(builtins)) {}

bool Sema::Run() {
  AssignTypeIds();
  std::vector<RecordDecl*> in_progress;
  for (RecordDecl* rec : prog_->records) {
    LayoutRecord(rec, &in_progress);
  }
  for (RecordDecl* rec : prog_->records) {
    ResolveFieldAnnotations(rec);
  }
  CollectGlobals();
  for (FuncDecl* fn : prog_->funcs) {
    if (fn->body != nullptr) {
      CheckFunction(fn);
    }
  }
  return diags_->ok();
}

void Sema::AssignTypeIds() {
  int next = 0;
  for (RecordDecl* rec : prog_->records) {
    rec->type_id = next++;
  }
}

bool Sema::LayoutRecord(RecordDecl* rec, std::vector<RecordDecl*>* in_progress) {
  if (rec->size > 0 || rec->fields.empty()) {
    if (!rec->complete) {
      // Incomplete records are fine as pointer targets only; size stays 0 and
      // any attempt to use them by value errors below.
    }
    return rec->size > 0;
  }
  if (std::find(in_progress->begin(), in_progress->end(), rec) != in_progress->end()) {
    diags_->Error(rec->loc, "record '" + rec->name + "' recursively contains itself", "sema");
    return false;
  }
  in_progress->push_back(rec);
  int64_t offset = 0;
  int64_t align = 1;
  int64_t max_field = 0;
  for (RecordField& f : rec->fields) {
    // Recursively lay out nested record fields first.
    const Type* ft = f.type;
    if (ft->IsRecord()) {
      LayoutRecord(ft->record, in_progress);
      if (ft->record->size == 0) {
        diags_->Error(f.loc, "field '" + f.name + "' has incomplete type", "sema");
      }
    }
    if (ft->IsArray() && ft->elem->IsRecord()) {
      LayoutRecord(ft->elem->record, in_progress);
    }
    int64_t fa = TypeAlign(ft);
    int64_t fs = TypeSize(ft);
    align = std::max(align, fa);
    if (rec->is_union) {
      f.offset = 0;
      max_field = std::max(max_field, fs);
    } else {
      offset = (offset + fa - 1) / fa * fa;
      f.offset = offset;
      offset += fs;
    }
  }
  int64_t raw = rec->is_union ? max_field : offset;
  rec->align = align;
  rec->size = (raw + align - 1) / align * align;
  if (rec->size == 0) {
    rec->size = align;
  }
  in_progress->pop_back();
  return true;
}

void Sema::ResolveAnnotExprInRecord(Expr* e, RecordDecl* rec) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == ExprKind::kIdent) {
    auto ec = prog_->enum_consts.find(e->str_val);
    if (ec != prog_->enum_consts.end()) {
      e->kind = ExprKind::kIntLit;
      e->int_val = ec->second;
      e->is_const = true;
      e->type = prog_->IntType();
      return;
    }
    const RecordField* f = rec->FindField(e->str_val);
    if (f == nullptr && rec->parent_struct != nullptr) {
      f = rec->parent_struct->FindField(e->str_val);
      if (f != nullptr) {
        e->field_record = rec->parent_struct;
      }
    } else if (f != nullptr) {
      e->field_record = rec;
    }
    if (f == nullptr) {
      diags_->Error(e->loc,
                    "annotation refers to unknown field '" + std::string(e->str_val) +
                        "' of record '" + rec->name + "'",
                    "sema");
      return;
    }
    e->field = f;
    e->type = f->type;
    return;
  }
  ResolveAnnotExprInRecord(e->a, rec);
  ResolveAnnotExprInRecord(e->b, rec);
  ResolveAnnotExprInRecord(e->c, rec);
  for (Expr* arg : e->args) {
    ResolveAnnotExprInRecord(arg, rec);
  }
  if (e->kind == ExprKind::kIntLit) {
    e->is_const = true;
    e->type = prog_->IntType();
  }
}

void Sema::ResolveFieldAnnotations(RecordDecl* rec) {
  // `when` guards on a union's members resolve against the *parent* struct;
  // count/bound annotations on a struct field resolve against sibling fields.
  RecordDecl* scope = rec;
  for (RecordField& f : rec->fields) {
    if (f.when != nullptr) {
      if (rec->parent_struct == nullptr) {
        diags_->Error(f.loc, "'when' guard outside an inline union", "sema");
      } else {
        ResolveAnnotExprInRecord(f.when, rec->parent_struct);
        stats_.annotation_sites++;
        stats_.annotated_lines.insert({f.loc.file, f.loc.line});
      }
    }
    const Type* t = f.type;
    while (t != nullptr && (t->IsPointer() || t->IsArray())) {
      if (t->IsPointer()) {
        if (t->annot.count != nullptr) {
          ResolveAnnotExprInRecord(t->annot.count, scope);
        }
        if (t->annot.lo != nullptr) {
          ResolveAnnotExprInRecord(t->annot.lo, scope);
        }
        if (t->annot.hi != nullptr) {
          ResolveAnnotExprInRecord(t->annot.hi, scope);
        }
        if (t->annot.bounds != BoundsKind::kSingle || t->annot.opt || t->annot.trusted) {
          stats_.annotation_sites++;
          stats_.annotated_lines.insert({f.loc.file, f.loc.line});
        }
        t = t->pointee;
      } else {
        t = t->elem;
      }
    }
  }
}

void Sema::PushScope() { scopes_.emplace_back(); }

void Sema::PopScope() { scopes_.pop_back(); }

Symbol* Sema::Declare(std::string_view name, Symbol* sym) {
  auto& scope = scopes_.back();
  auto [it, inserted] = scope.emplace(name, sym);
  if (!inserted) {
    diags_->Error(sym->loc, "redeclaration of '" + std::string(name) + "'", "sema");
  }
  return it->second;
}

Symbol* Sema::Lookup(std::string_view name) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) {
      return found->second;
    }
  }
  auto g = global_scope_.find(name);
  return g == global_scope_.end() ? nullptr : g->second;
}

void Sema::CollectGlobals() {
  // Functions: merge declarations with definitions; detect duplicates.
  for (FuncDecl* fn : prog_->funcs) {
    auto it = func_map_.find(fn->name);
    if (it == func_map_.end()) {
      func_map_[fn->name] = fn;
    } else {
      FuncDecl* prev = it->second;
      if (prev->body != nullptr && fn->body != nullptr) {
        diags_->Error(fn->loc, "redefinition of function '" + fn->name + "'", "sema");
      } else if (fn->body != nullptr) {
        // Definition supersedes declaration; keep attributes from both.
        fn->attrs.blocking = fn->attrs.blocking || prev->attrs.blocking;
        fn->attrs.noblock = fn->attrs.noblock || prev->attrs.noblock;
        fn->attrs.interrupt_handler =
            fn->attrs.interrupt_handler || prev->attrs.interrupt_handler;
        if (fn->attrs.blocking_if_param < 0) {
          fn->attrs.blocking_if_param = prev->attrs.blocking_if_param;
        }
        if (fn->attrs.errcodes.empty()) {
          fn->attrs.errcodes = prev->attrs.errcodes;
        }
        func_map_[fn->name] = fn;
      }
    }
  }
  // Assign dense ids to canonical functions and resolve builtins.
  for (FuncDecl* fn : prog_->funcs) {
    if (func_map_[fn->name] != fn) {
      fn->func_id = -1;
      continue;
    }
    fn->func_id = static_cast<int>(funcs_.size());
    funcs_.push_back(fn);
    if (fn->body == nullptr) {
      int bid = builtins_ ? builtins_(fn->name) : -1;
      if (bid >= 0) {
        fn->is_builtin = true;
        fn->builtin_id = bid;
      }
    }
    if (fn->attrs.blocking || fn->attrs.blocking_if_param >= 0 || fn->attrs.noblock ||
        fn->attrs.interrupt_handler || !fn->attrs.errcodes.empty()) {
      stats_.annotation_sites++;
      stats_.annotated_lines.insert({fn->loc.file, fn->loc.line});
    }
    if (fn->attrs.trusted) {
      stats_.trusted_funcs++;
    }
  }
  // Globals.
  for (VarDecl* g : prog_->globals) {
    if (global_scope_.count(g->name) != 0 || func_map_.count(g->name) != 0) {
      diags_->Error(g->loc, "redeclaration of global '" + std::string(g->name) + "'", "sema");
      continue;
    }
    Symbol* sym = prog_->NewSymbol();
    sym->name = std::string(g->name);
    sym->kind = SymKind::kGlobal;
    sym->type = g->type;
    sym->var = g;
    sym->loc = g->loc;
    g->sym = sym;
    global_scope_[g->name] = sym;
    NoteAnnotations(g->type, g->loc);
    if (g->init != nullptr) {
      CheckExpr(g->init);
      if (!g->init->is_const && g->init->kind != ExprKind::kStrLit) {
        diags_->Error(g->init->loc, "global initializer must be constant", "sema");
      }
      CheckCompat(g->type, g->init, g->init->loc, "global initializer");
    }
  }
  // Global pointer annotations may refer to other globals: resolve them now
  // using the (complete) global scope.
  scopes_.clear();
  PushScope();
  for (VarDecl* g : prog_->globals) {
    CheckAnnotTypeInScope(g->type, g->loc);
  }
  PopScope();
}

void Sema::NoteAnnotations(const Type* t, SourceLoc loc) {
  while (t != nullptr) {
    if (t->IsPointer()) {
      if (t->annot.bounds != BoundsKind::kSingle || t->annot.opt || t->annot.trusted) {
        stats_.annotation_sites++;
        stats_.annotated_lines.insert({loc.file, loc.line});
      }
      t = t->pointee;
    } else if (t->IsArray()) {
      t = t->elem;
    } else {
      return;
    }
  }
}

void Sema::CheckAnnotTypeInScope(const Type* t, SourceLoc loc) {
  while (t != nullptr) {
    if (t->IsPointer()) {
      if (t->annot.count != nullptr && t->annot.count->type == nullptr) {
        CheckExpr(t->annot.count);
        if (t->annot.count->type != nullptr && !t->annot.count->type->IsInteger() &&
            !t->annot.count->type->IsError()) {
          diags_->Error(loc, "count() expression must have integer type", "sema");
        }
      }
      if (t->annot.lo != nullptr && t->annot.lo->type == nullptr) {
        CheckExpr(t->annot.lo);
      }
      if (t->annot.hi != nullptr && t->annot.hi->type == nullptr) {
        CheckExpr(t->annot.hi);
      }
      t = t->pointee;
    } else if (t->IsArray()) {
      t = t->elem;
    } else {
      return;
    }
  }
}

void Sema::CheckFunction(FuncDecl* fn) {
  cur_fn_ = fn;
  next_local_id_ = 0;
  trusted_depth_ = fn->attrs.trusted ? 1 : 0;
  // Kernel calling convention: records travel by pointer, never by value.
  if (fn->type->ret != nullptr && fn->type->ret->IsRecord()) {
    diags_->Error(fn->loc, "functions cannot return records by value", "sema");
  }
  for (const Symbol* p : fn->params) {
    if (p->type != nullptr && p->type->IsRecord()) {
      diags_->Error(p->loc.IsValid() ? p->loc : fn->loc,
                    "record parameters must be passed by pointer", "sema");
    }
  }
  scopes_.clear();
  PushScope();
  for (Symbol* p : fn->params) {
    if (!p->name.empty()) {
      Declare(p->name, p);
    }
    p->local_id = next_local_id_++;
  }
  // Parameter annotations (e.g. `char* count(n) buf, int n`) may refer to
  // sibling parameters, so resolve them after all are in scope.
  for (Symbol* p : fn->params) {
    CheckAnnotTypeInScope(p->type, p->loc);
    NoteAnnotations(p->type, fn->loc);
  }
  if (fn->attrs.trusted) {
    NoteTrustedLines(fn->body);
  }
  CheckStmt(fn->body);
  PopScope();
  cur_fn_ = nullptr;
}

void Sema::NoteTrustedLines(const Stmt* s) {
  if (s == nullptr) {
    return;
  }
  stats_.trusted_lines.insert({s->loc.file, s->loc.line});
  if (s->expr != nullptr) {
    stats_.trusted_lines.insert({s->expr->loc.file, s->expr->loc.line});
  }
  NoteTrustedLines(s->init);
  NoteTrustedLines(s->then_stmt);
  NoteTrustedLines(s->else_stmt);
  for (const Stmt* child : s->body) {
    NoteTrustedLines(child);
  }
}

void Sema::CheckStmt(Stmt* s) {
  if (s == nullptr) {
    return;
  }
  switch (s->kind) {
    case StmtKind::kExpr:
      CheckExpr(s->expr);
      return;
    case StmtKind::kDecl: {
      VarDecl* d = s->decl;
      Symbol* sym = prog_->NewSymbol();
      sym->name = std::string(d->name);
      sym->kind = SymKind::kLocal;
      sym->type = d->type;
      sym->var = d;
      sym->loc = d->loc;
      sym->local_id = next_local_id_++;
      d->sym = sym;
      if (d->init != nullptr) {
        CheckExpr(d->init);
      }
      Declare(d->name, sym);
      CheckAnnotTypeInScope(d->type, d->loc);
      NoteAnnotations(d->type, d->loc);
      if (d->init != nullptr) {
        CheckCompat(d->type, d->init, d->init->loc, "initializer");
      }
      return;
    }
    case StmtKind::kIf:
      CheckExpr(s->cond);
      CheckStmt(s->then_stmt);
      CheckStmt(s->else_stmt);
      return;
    case StmtKind::kWhile:
    case StmtKind::kDoWhile:
      CheckExpr(s->cond);
      ++loop_depth_;
      CheckStmt(s->then_stmt);
      --loop_depth_;
      return;
    case StmtKind::kFor:
      PushScope();
      CheckStmt(s->init);
      if (s->cond != nullptr) {
        CheckExpr(s->cond);
      }
      if (s->step != nullptr) {
        CheckExpr(s->step);
      }
      ++loop_depth_;
      CheckStmt(s->then_stmt);
      --loop_depth_;
      PopScope();
      return;
    case StmtKind::kReturn: {
      const Type* ret = cur_fn_->type->ret;
      if (s->expr != nullptr) {
        CheckExpr(s->expr);
        if (ret->IsVoid()) {
          diags_->Error(s->loc, "return with value in void function", "sema");
        } else {
          CheckCompat(ret, s->expr, s->loc, "return value");
        }
      } else if (!ret->IsVoid()) {
        diags_->Error(s->loc, "return without value in non-void function", "sema");
      }
      return;
    }
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      if (loop_depth_ == 0) {
        diags_->Error(s->loc, "break/continue outside loop", "sema");
      }
      return;
    case StmtKind::kSeq: {
      for (Stmt* child : s->body) {
        CheckStmt(child);
      }
      return;
    }
    case StmtKind::kBlock:
    case StmtKind::kDelayedFree: {
      PushScope();
      for (Stmt* child : s->body) {
        CheckStmt(child);
      }
      PopScope();
      return;
    }
    case StmtKind::kTrusted: {
      ++trusted_depth_;
      ++stats_.trusted_blocks;
      NoteTrustedLines(s);
      PushScope();
      for (Stmt* child : s->body) {
        CheckStmt(child);
      }
      PopScope();
      --trusted_depth_;
      return;
    }
    case StmtKind::kEmpty:
      return;
  }
}

void Sema::MarkTrusted(Expr* e) {
  if (trusted_depth_ > 0) {
    e->in_trusted = true;
  }
}

bool Sema::IsLvalue(const Expr* e) const {
  switch (e->kind) {
    case ExprKind::kIdent:
      return e->sym != nullptr &&
             (e->sym->kind == SymKind::kGlobal || e->sym->kind == SymKind::kLocal ||
              e->sym->kind == SymKind::kParam);
    case ExprKind::kDeref:
    case ExprKind::kIndex:
      return true;
    case ExprKind::kMember:
      return e->is_arrow || IsLvalue(e->a);
    default:
      return false;
  }
}

bool Sema::CompatQuiet(const Type* dst, const Expr* src) const {
  const Type* st = src->type;
  if (dst == nullptr || st == nullptr || dst->IsError() || st->IsError()) {
    return true;  // avoid cascades
  }
  if (SameType(dst, st)) {
    return true;
  }
  if (dst->IsInteger() && st->IsInteger()) {
    return true;
  }
  if (dst->IsPointer() && src->IsNullConst()) {
    return true;
  }
  if (dst->IsPointer() && st->IsPointer()) {
    if (SameType(dst->pointee, st->pointee)) {
      return true;
    }
    // void* <-> T* (the kmalloc idiom).
    if (dst->pointee->IsVoid() || st->pointee->IsVoid()) {
      return true;
    }
    // Trusted pointers absorb anything (that is their job).
    if (dst->annot.trusted || st->annot.trusted) {
      return true;
    }
    return false;
  }
  // Array-to-pointer decay.
  if (dst->IsPointer() && st->IsArray() && SameType(dst->pointee, st->elem)) {
    return true;
  }
  // Function designator to function pointer.
  if (dst->IsFuncPointer() && st->IsFunc() && SameType(dst->pointee, st)) {
    return true;
  }
  if (dst->IsFuncPointer() && st->IsFuncPointer() && SameType(dst->pointee, st->pointee)) {
    return true;
  }
  return false;
}

bool Sema::CheckCompat(const Type* dst, Expr* src, SourceLoc loc, const char* what) {
  if (CompatQuiet(dst, src)) {
    return true;
  }
  if (trusted_depth_ > 0) {
    // Trusted code may do representation-changing assignments; Deputy counts
    // them rather than checking them.
    return true;
  }
  diags_->Error(loc,
                std::string("incompatible types in ") + what + ": cannot convert " +
                    TypeToString(src->type) + " to " + TypeToString(dst),
                "sema");
  return false;
}

void Sema::FoldConst(Expr* e) {
  switch (e->kind) {
    case ExprKind::kIntLit:
      e->is_const = true;
      return;
    case ExprKind::kUnary: {
      if (e->a->is_const) {
        switch (e->un_op) {
          case UnOp::kNeg:
            e->int_val = -e->a->int_val;
            break;
          case UnOp::kLogNot:
            e->int_val = e->a->int_val == 0 ? 1 : 0;
            break;
          case UnOp::kBitNot:
            e->int_val = ~e->a->int_val;
            break;
        }
        e->is_const = true;
      }
      return;
    }
    case ExprKind::kBinary: {
      if (e->a->is_const && e->b->is_const) {
        int64_t a = e->a->int_val;
        int64_t b = e->b->int_val;
        int64_t r = 0;
        bool ok = true;
        switch (e->bin_op) {
          case BinOp::kAdd:
            r = a + b;
            break;
          case BinOp::kSub:
            r = a - b;
            break;
          case BinOp::kMul:
            r = a * b;
            break;
          case BinOp::kDiv:
            ok = b != 0;
            r = ok ? a / b : 0;
            break;
          case BinOp::kRem:
            ok = b != 0;
            r = ok ? a % b : 0;
            break;
          case BinOp::kShl:
            r = a << b;
            break;
          case BinOp::kShr:
            r = a >> b;
            break;
          case BinOp::kLt:
            r = a < b;
            break;
          case BinOp::kGt:
            r = a > b;
            break;
          case BinOp::kLe:
            r = a <= b;
            break;
          case BinOp::kGe:
            r = a >= b;
            break;
          case BinOp::kEq:
            r = a == b;
            break;
          case BinOp::kNe:
            r = a != b;
            break;
          case BinOp::kBitAnd:
            r = a & b;
            break;
          case BinOp::kBitOr:
            r = a | b;
            break;
          case BinOp::kBitXor:
            r = a ^ b;
            break;
          case BinOp::kLogAnd:
            r = (a != 0 && b != 0) ? 1 : 0;
            break;
          case BinOp::kLogOr:
            r = (a != 0 || b != 0) ? 1 : 0;
            break;
          case BinOp::kNone:
            ok = false;
            break;
        }
        if (ok) {
          e->int_val = r;
          e->is_const = true;
        }
      }
      return;
    }
    default:
      return;
  }
}

const Type* Sema::CheckMember(Expr* e) {
  const Type* base = CheckExpr(e->a);
  RecordDecl* rec = nullptr;
  if (e->is_arrow) {
    if (base->IsPointer() && base->pointee->IsRecord()) {
      rec = base->pointee->record;
    } else if (!base->IsError()) {
      diags_->Error(e->loc, "'->' applied to non-record-pointer " + TypeToString(base), "sema");
    }
  } else {
    if (base->IsRecord()) {
      rec = base->record;
    } else if (!base->IsError()) {
      diags_->Error(e->loc, "'.' applied to non-record " + TypeToString(base), "sema");
    }
  }
  if (rec == nullptr) {
    return prog_->NewType(TypeKind::kError);
  }
  const RecordField* f = rec->FindField(e->str_val);
  if (f == nullptr) {
    diags_->Error(e->loc,
                  "no field '" + std::string(e->str_val) + "' in record '" + rec->name + "'",
                  "sema");
    return prog_->NewType(TypeKind::kError);
  }
  e->field = f;
  e->field_record = rec;
  // Deputy union rule: accessing a member of a union without a `when` guard
  // is illegal outside trusted code (§2.1: "misuse of unions").
  if (rec->is_union && f->when == nullptr && trusted_depth_ == 0) {
    diags_->Error(e->loc,
                  "access to union member '" + f->name +
                      "' without a when() guard requires trusted code",
                  "sema");
  }
  return f->type;
}

const Type* Sema::CheckCast(Expr* e) {
  const Type* src = CheckExpr(e->a);
  const Type* dst = e->cast_type;
  if (src->IsError() || dst->IsError()) {
    return dst;
  }
  bool ok = false;
  if (dst->IsInteger() && (src->IsInteger() || src->IsPointer())) {
    ok = true;  // pointer-to-int reads are unchecked but create no pointer
  } else if (dst->IsPointer() && src->IsInteger()) {
    // Forging a pointer from an integer breaks soundness: trusted only.
    ok = e->a->IsNullConst() || dst->annot.trusted || trusted_depth_ > 0;
    if (ok && !e->a->IsNullConst()) {
      ++stats_.trusted_casts;
      e->in_trusted = true;
    }
    if (!ok) {
      diags_->Error(e->loc, "cast from int to pointer requires 'trusted'", "sema");
    }
    return dst;
  } else if (dst->IsPointer() && src->IsPointer()) {
    if (SameType(dst->pointee, src->pointee) || dst->pointee->IsVoid() ||
        src->pointee->IsVoid() || dst->pointee->IsChar() || src->pointee->IsChar()) {
      ok = true;  // char*/void* are the kernel's byte-view escape hatches
    } else if (dst->annot.trusted || src->annot.trusted || trusted_depth_ > 0) {
      ok = true;
      ++stats_.trusted_casts;
      e->in_trusted = true;
    } else {
      diags_->Error(e->loc,
                    "cast between incompatible pointer types " + TypeToString(src) + " -> " +
                        TypeToString(dst) + " requires 'trusted'",
                    "sema");
      return dst;
    }
  } else if (dst->IsPointer() && src->IsArray() && SameType(dst->pointee, src->elem)) {
    ok = true;
  } else if (dst->IsVoid()) {
    ok = true;  // (void)expr discards
  } else if (dst->IsInteger() && src->IsInteger()) {
    ok = true;
  }
  if (!ok) {
    diags_->Error(e->loc,
                  "illegal cast " + TypeToString(src) + " -> " + TypeToString(dst), "sema");
  }
  return dst;
}

const Type* Sema::CheckCall(Expr* e) {
  // Direct call through a function name?
  const Type* fty = nullptr;
  if (e->a->kind == ExprKind::kIdent) {
    auto it = func_map_.find(e->a->str_val);
    if (it != func_map_.end()) {
      e->a->type = it->second->type;
      e->a->sym = nullptr;
      e->a->func = it->second;
      e->a->str_val = it->second->name;
      fty = it->second->type;
      MarkTrusted(e->a);
    }
  }
  if (fty == nullptr) {
    const Type* callee = CheckExpr(e->a);
    if (callee->IsFuncPointer()) {
      fty = callee->pointee;
    } else if (callee->IsFunc()) {
      fty = callee;
    } else {
      if (!callee->IsError()) {
        diags_->Error(e->loc, "call of non-function " + TypeToString(callee), "sema");
      }
      for (Expr* arg : e->args) {
        CheckExpr(arg);
      }
      return prog_->NewType(TypeKind::kError);
    }
  }
  size_t nparams = fty->params.size();
  if (e->args.size() < nparams || (e->args.size() > nparams && !fty->varargs)) {
    diags_->Error(e->loc,
                  "call supplies " + std::to_string(e->args.size()) + " arguments, expected " +
                      std::to_string(nparams) + (fty->varargs ? "+" : ""),
                  "sema");
  }
  for (size_t i = 0; i < e->args.size(); ++i) {
    CheckExpr(e->args[i]);
    if (i < nparams) {
      CheckCompat(fty->params[i], e->args[i], e->args[i]->loc, "argument");
    }
  }
  return fty->ret;
}

const Type* Sema::CheckBinary(Expr* e) {
  const Type* a = CheckExpr(e->a);
  const Type* b = CheckExpr(e->b);
  if (a->IsError() || b->IsError()) {
    return prog_->NewType(TypeKind::kError);
  }
  switch (e->bin_op) {
    case BinOp::kAdd:
      if (a->IsPointer() && b->IsInteger()) {
        return a;
      }
      if (a->IsInteger() && b->IsPointer()) {
        return b;
      }
      if (a->IsArray() && b->IsInteger()) {
        Type* p = prog_->PtrTo(a->elem);
        return p;
      }
      break;
    case BinOp::kSub:
      if (a->IsPointer() && b->IsInteger()) {
        return a;
      }
      if (a->IsPointer() && b->IsPointer()) {
        return prog_->IntType();
      }
      break;
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kGt:
    case BinOp::kLe:
    case BinOp::kGe:
      if ((a->IsPointer() || a->IsInteger() || a->IsFunc()) &&
          (b->IsPointer() || b->IsInteger() || b->IsFunc())) {
        FoldConst(e);
        return prog_->IntType();
      }
      break;
    case BinOp::kLogAnd:
    case BinOp::kLogOr:
      if ((a->IsPointer() || a->IsInteger()) && (b->IsPointer() || b->IsInteger())) {
        FoldConst(e);
        return prog_->IntType();
      }
      break;
    default:
      break;
  }
  if (a->IsInteger() && b->IsInteger()) {
    FoldConst(e);
    return prog_->IntType();
  }
  diags_->Error(e->loc,
                "invalid operands to binary operator: " + TypeToString(a) + " and " +
                    TypeToString(b),
                "sema");
  return prog_->NewType(TypeKind::kError);
}

const Type* Sema::CheckAssign(Expr* e) {
  const Type* lhs = CheckExpr(e->a);
  CheckExpr(e->b);
  if (!IsLvalue(e->a)) {
    diags_->Error(e->loc, "assignment target is not an lvalue", "sema");
  }
  if (lhs != nullptr && (lhs->IsRecord() || lhs->IsArray())) {
    diags_->Error(e->loc, "whole-record/array assignment is not supported; use memcpy", "sema");
  }
  if (e->assign_op == BinOp::kNone) {
    CheckCompat(lhs, e->b, e->loc, "assignment");
  } else {
    // Compound assignment: lhs op= rhs. Pointers only support += / -=.
    if (lhs->IsPointer()) {
      if (e->assign_op != BinOp::kAdd && e->assign_op != BinOp::kSub) {
        diags_->Error(e->loc, "invalid compound assignment on pointer", "sema");
      } else if (e->b->type != nullptr && !e->b->type->IsInteger()) {
        diags_->Error(e->loc, "pointer += requires integer operand", "sema");
      }
    } else if (!lhs->IsInteger() ||
               (e->b->type != nullptr && !e->b->type->IsInteger())) {
      diags_->Error(e->loc, "compound assignment requires integer operands", "sema");
    }
  }
  return lhs;
}

const Type* Sema::CheckExpr(Expr* e) {
  if (e == nullptr) {
    return prog_->NewType(TypeKind::kError);
  }
  if (e->type != nullptr) {
    return e->type;  // already checked (annotation expressions)
  }
  MarkTrusted(e);
  const Type* t = nullptr;
  switch (e->kind) {
    case ExprKind::kIntLit:
      e->is_const = true;
      t = prog_->IntType();
      break;
    case ExprKind::kStrLit: {
      Type* p = prog_->PtrTo(prog_->CharType());
      p->annot.bounds = BoundsKind::kNullterm;
      t = p;
      break;
    }
    case ExprKind::kNull: {
      Type* p = prog_->PtrTo(prog_->VoidType());
      p->annot.opt = true;
      t = p;
      break;
    }
    case ExprKind::kIdent: {
      auto ec = prog_->enum_consts.find(e->str_val);
      if (ec != prog_->enum_consts.end()) {
        e->int_val = ec->second;
        e->is_const = true;
        t = prog_->IntType();
        break;
      }
      Symbol* sym = Lookup(e->str_val);
      if (sym != nullptr) {
        e->sym = sym;
        t = sym->type;
        break;
      }
      auto fn = func_map_.find(e->str_val);
      if (fn != func_map_.end()) {
        e->func = fn->second;
        t = fn->second->type;  // function designator
        break;
      }
      diags_->Error(e->loc, "use of undeclared identifier '" + std::string(e->str_val) + "'",
                    "sema");
      t = prog_->NewType(TypeKind::kError);
      break;
    }
    case ExprKind::kUnary: {
      const Type* a = CheckExpr(e->a);
      if (e->un_op == UnOp::kLogNot) {
        if (!a->IsInteger() && !a->IsPointer() && !a->IsError()) {
          diags_->Error(e->loc, "'!' requires scalar operand", "sema");
        }
      } else if (!a->IsInteger() && !a->IsError()) {
        diags_->Error(e->loc, "unary operator requires integer operand", "sema");
      }
      FoldConst(e);
      t = prog_->IntType();
      break;
    }
    case ExprKind::kBinary:
      t = CheckBinary(e);
      break;
    case ExprKind::kAssign:
      t = CheckAssign(e);
      break;
    case ExprKind::kCond: {
      CheckExpr(e->a);
      const Type* b = CheckExpr(e->b);
      const Type* c = CheckExpr(e->c);
      if (b->IsPointer()) {
        t = b;
      } else if (c->IsPointer()) {
        t = c;
      } else if (b->IsFunc()) {
        t = prog_->PtrTo(b);  // `cond ? f : g` over function designators
      } else if (c->IsFunc()) {
        t = prog_->PtrTo(c);
      } else {
        t = prog_->IntType();
      }
      break;
    }
    case ExprKind::kCall:
      t = CheckCall(e);
      break;
    case ExprKind::kIndex: {
      const Type* base = CheckExpr(e->a);
      const Type* idx = CheckExpr(e->b);
      if (!idx->IsInteger() && !idx->IsError()) {
        diags_->Error(e->loc, "array index must be integer", "sema");
      }
      if (base->IsArray()) {
        t = base->elem;
      } else if (base->IsPointer()) {
        if (base->pointee->IsVoid()) {
          diags_->Error(e->loc, "cannot index void*", "sema");
          t = prog_->NewType(TypeKind::kError);
        } else {
          t = base->pointee;
        }
      } else {
        if (!base->IsError()) {
          diags_->Error(e->loc, "subscripted value is not array or pointer", "sema");
        }
        t = prog_->NewType(TypeKind::kError);
      }
      break;
    }
    case ExprKind::kMember:
      t = CheckMember(e);
      break;
    case ExprKind::kDeref: {
      const Type* a = CheckExpr(e->a);
      if (a->IsPointer()) {
        if (a->pointee->IsVoid()) {
          diags_->Error(e->loc, "cannot dereference void*", "sema");
          t = prog_->NewType(TypeKind::kError);
        } else {
          t = a->pointee;
        }
      } else {
        if (!a->IsError()) {
          diags_->Error(e->loc, "cannot dereference non-pointer " + TypeToString(a), "sema");
        }
        t = prog_->NewType(TypeKind::kError);
      }
      break;
    }
    case ExprKind::kAddrOf: {
      const Type* a = CheckExpr(e->a);
      if (!IsLvalue(e->a)) {
        diags_->Error(e->loc, "cannot take address of rvalue", "sema");
      }
      if (e->a->kind == ExprKind::kIdent && e->a->sym != nullptr) {
        e->a->sym->address_taken = true;
      }
      t = prog_->PtrTo(a);
      break;
    }
    case ExprKind::kCast:
      t = CheckCast(e);
      break;
    case ExprKind::kSizeof: {
      const Type* target = e->cast_type;
      if (target == nullptr) {
        target = CheckExpr(e->a);
      }
      e->int_val = TypeSize(target);
      e->is_const = true;
      t = prog_->IntType();
      break;
    }
    case ExprKind::kIncDec: {
      const Type* a = CheckExpr(e->a);
      if (!IsLvalue(e->a)) {
        diags_->Error(e->loc, "++/-- requires an lvalue", "sema");
      }
      if (!a->IsInteger() && !a->IsPointer() && !a->IsError()) {
        diags_->Error(e->loc, "++/-- requires integer or pointer", "sema");
      }
      t = a;
      break;
    }
  }
  e->type = t;
  return t;
}

}  // namespace ivy
