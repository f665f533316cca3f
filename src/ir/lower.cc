#include "src/ir/lower.h"

namespace ivy {

namespace {

// VM memory map constants (shared with the VM; see src/vm/vm.h).
constexpr uint64_t kGlobalBase = 4096;

uint8_t AccessSize(const Type* t) { return t->IsChar() ? 1 : 8; }

bool IsAllocBuiltinName(const std::string& name) {
  return name == "kmalloc" || name == "vmalloc" || name == "alloc_page_raw";
}

}  // namespace

Lowerer::Lowerer(const Program* prog, const Sema* sema, DiagEngine* diags, LowerOptions opts)
    : prog_(prog), sema_(sema), diags_(diags), opts_(opts), facts_(opts.discharge) {}

IrModule Lowerer::Lower() {
  IrModule m;
  module_ = &m;
  LayoutGlobals(&m);
  m.funcs.resize(sema_->funcs().size());
  // Lowered in func_map() order: Deputy's diagnostics, and so the findings,
  // come out in this order.
  for (const auto& [name, fn] : sema_->func_map()) {
    IrFunc& out = m.funcs[static_cast<size_t>(fn->func_id)];
    out.decl = fn;
    if (fn->body != nullptr) {
      LowerFunc(fn, &out);
    }
  }
  m.checks_emitted = check_stats_.TotalEmitted();
  m.checks_discharged = check_stats_.TotalDischarged();
  module_ = nullptr;
  return m;
}

void Lowerer::CollectPtrOffsets(const Type* t, int64_t base, std::vector<int64_t>* out) {
  switch (t->kind) {
    case TypeKind::kPointer:
      out->push_back(base);
      return;
    case TypeKind::kArray: {
      int64_t esz = TypeSize(t->elem);
      for (int64_t i = 0; i < t->array_len; ++i) {
        CollectPtrOffsets(t->elem, base + i * esz, out);
      }
      return;
    }
    case TypeKind::kRecord: {
      for (const RecordField& f : t->record->fields) {
        CollectPtrOffsets(f.type, base + f.offset, out);
      }
      return;
    }
    default:
      return;
  }
}

void Lowerer::LayoutGlobals(IrModule* m) {
  uint64_t addr = kGlobalBase;
  for (const VarDecl* g : prog_->globals) {
    if (g->sym == nullptr) {
      continue;
    }
    int64_t align = TypeAlign(g->type);
    int64_t size = TypeSize(g->type);
    addr = (addr + static_cast<uint64_t>(align) - 1) / static_cast<uint64_t>(align) *
           static_cast<uint64_t>(align);
    GlobalSlot slot;
    slot.decl = g;
    slot.addr = addr;
    slot.size = size;
    if (g->type->IsRecord()) {
      slot.type_id = g->type->record->type_id;
    }
    CollectPtrOffsets(g->type, 0, &slot.ptr_offsets);
    g->sym->global_addr = static_cast<int64_t>(addr);
    m->globals.push_back(slot);
    addr += static_cast<uint64_t>(size);
    // Intern string-literal initializers so the VM can resolve them.
    if (g->init != nullptr && g->init->kind == ExprKind::kStrLit) {
      m->string_pool.emplace_back(g->init->str_val);
    }
  }
  m->globals_end = addr;  // string addresses assigned lazily, after this
}

void Lowerer::LowerFunc(const FuncDecl* fn, IrFunc* out) {
  fn_ = out;
  decl_ = fn;
  next_reg_ = 0;
  frame_top_ = 0;
  cur_block_ = 0;
  break_stack_.clear();
  continue_stack_.clear();
  facts_ = FactEnv(opts_.discharge);
  out->blocks.clear();
  out->blocks.emplace_back();

  for (Symbol* p : fn->params) {
    int64_t off = AllocSlot(p->type);
    p->frame_offset = off;
    out->param_offsets.push_back(off);
    out->param_sizes.push_back(AccessSize(p->type));
    if (p->type->IsPointer()) {
      out->ptr_slots.push_back(off);
    }
  }
  LowerStmt(fn->body);
  // Implicit return (void functions or fall-through).
  Instr& ret = Emit(Op::kRet, fn->loc);
  ret.a = -1;
  out->num_regs = next_reg_;
  out->frame_size = (frame_top_ + 15) / 16 * 16;
  const_cast<FuncDecl*>(fn)->frame_size = out->frame_size;
  fn_ = nullptr;
  decl_ = nullptr;
}

int Lowerer::NewReg() { return next_reg_++; }

int Lowerer::NewBlock() {
  fn_->blocks.emplace_back();
  return static_cast<int>(fn_->blocks.size()) - 1;
}

void Lowerer::SetBlock(int b) { cur_block_ = b; }

Instr& Lowerer::Emit(Op op, SourceLoc loc) {
  Block& blk = fn_->blocks[static_cast<size_t>(cur_block_)];
  blk.instrs.emplace_back();
  Instr& i = blk.instrs.back();
  i.op = op;
  i.loc = loc;
  return i;
}

int Lowerer::EmitConst(int64_t v, SourceLoc loc) {
  Instr& i = Emit(Op::kConst, loc);
  i.dst = NewReg();
  i.imm = v;
  return i.dst;
}

int Lowerer::EmitBin2(BinOp op, int a, int b, SourceLoc loc) {
  Instr& i = Emit(Op::kBin, loc);
  i.bin = op;
  i.dst = NewReg();
  i.a = a;
  i.b = b;
  return i.dst;
}

int Lowerer::EmitAddImm(int a, int64_t imm, SourceLoc loc) {
  int c = EmitConst(imm, loc);
  return EmitBin2(BinOp::kAdd, a, c, loc);
}

void Lowerer::EmitJump(int target, SourceLoc loc) {
  Instr& i = Emit(Op::kJump, loc);
  i.imm = target;
}

void Lowerer::EmitBranch(int cond_reg, int then_b, int else_b, SourceLoc loc) {
  Instr& i = Emit(Op::kBranch, loc);
  i.a = cond_reg;
  i.imm = then_b;
  i.imm2 = else_b;
}

int64_t Lowerer::AllocSlot(const Type* t) {
  int64_t align = TypeAlign(t);
  int64_t size = TypeSize(t);
  frame_top_ = (frame_top_ + align - 1) / align * align;
  int64_t off = frame_top_;
  frame_top_ += size;
  return off;
}

bool Lowerer::DeputyOn(const Expr* e) const {
  if (!opts_.deputy) {
    return false;
  }
  if (e != nullptr && e->in_trusted) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Lowerer::LowerStmt(const Stmt* s) {
  if (s == nullptr) {
    return;
  }
  switch (s->kind) {
    case StmtKind::kExpr:
      LowerExpr(s->expr);
      return;
    case StmtKind::kDecl: {
      VarDecl* d = s->decl;
      if (d->sym == nullptr) {
        return;
      }
      d->sym->frame_offset = AllocSlot(d->type);
      if (d->type->IsPointer()) {
        fn_->ptr_slots.push_back(d->sym->frame_offset);
      }
      if (d->init != nullptr) {
        int saved_hint = alloc_type_hint_;
        alloc_type_hint_ = AllocTypeIdFor(d->type);
        int v = LowerRValue(d->init);
        alloc_type_hint_ = saved_hint;
        EmitNarrowing(d->type, d->init, v, d->loc);
        Instr& addr = Emit(Op::kFrameAddr, d->loc);
        addr.dst = NewReg();
        addr.imm = d->sym->frame_offset;
        LValue lv;
        lv.addr = addr.dst;
        lv.size = AccessSize(d->type);
        lv.type = d->type;
        lv.is_ptr = d->type->IsPointer();
        EmitStore(lv, v, d->loc);
        if (d->init->IsNullConst()) {
          // no fact
        } else if (d->type->IsPointer() && facts_.KnownNonNull(d->init)) {
          facts_.AddNonNull("v" + std::to_string(reinterpret_cast<uintptr_t>(d->sym)));
        }
      }
      return;
    }
    case StmtKind::kIf:
      LowerIf(s);
      return;
    case StmtKind::kWhile: {
      int cond_b = NewBlock();
      int body_b = NewBlock();
      int exit_b = NewBlock();
      EmitJump(cond_b, s->loc);
      SetBlock(cond_b);
      int c = LowerRValue(s->cond);
      EmitBranch(c, body_b, exit_b, s->loc);
      SetBlock(body_b);
      break_stack_.push_back(exit_b);
      continue_stack_.push_back(cond_b);
      facts_.Push();
      // `while (p)` / `while (*s)` style conditions give a non-null fact.
      if (s->cond->type != nullptr && s->cond->type->IsPointer()) {
        facts_.AddNonNull(CanonKey(s->cond));
      }
      LowerStmt(s->then_stmt);
      facts_.Pop();
      break_stack_.pop_back();
      continue_stack_.pop_back();
      EmitJump(cond_b, s->loc);
      SetBlock(exit_b);
      facts_.InvalidateMemory();
      return;
    }
    case StmtKind::kDoWhile: {
      int body_b = NewBlock();
      int cond_b = NewBlock();
      int exit_b = NewBlock();
      EmitJump(body_b, s->loc);
      SetBlock(body_b);
      break_stack_.push_back(exit_b);
      continue_stack_.push_back(cond_b);
      facts_.Push();
      LowerStmt(s->then_stmt);
      facts_.Pop();
      break_stack_.pop_back();
      continue_stack_.pop_back();
      EmitJump(cond_b, s->loc);
      SetBlock(cond_b);
      int c = LowerRValue(s->cond);
      EmitBranch(c, body_b, exit_b, s->loc);
      SetBlock(exit_b);
      facts_.InvalidateMemory();
      return;
    }
    case StmtKind::kFor:
      LowerFor(s);
      return;
    case StmtKind::kReturn: {
      Instr* ret = nullptr;
      if (s->expr != nullptr) {
        int v = LowerRValue(s->expr);
        ret = &Emit(Op::kRet, s->loc);
        ret->a = v;
      } else {
        ret = &Emit(Op::kRet, s->loc);
        ret->a = -1;
      }
      // `imm` carries the open delayed-scope count so the VM can unwind.
      ret->imm = delayed_depth_;
      SetBlock(NewBlock());  // unreachable continuation
      return;
    }
    case StmtKind::kBreak:
      if (!break_stack_.empty()) {
        EmitJump(break_stack_.back(), s->loc);
        SetBlock(NewBlock());
      }
      return;
    case StmtKind::kContinue:
      if (!continue_stack_.empty()) {
        EmitJump(continue_stack_.back(), s->loc);
        SetBlock(NewBlock());
      }
      return;
    case StmtKind::kBlock:
    case StmtKind::kSeq:
    case StmtKind::kTrusted:
      for (const Stmt* child : s->body) {
        LowerStmt(child);
      }
      return;
    case StmtKind::kDelayedFree: {
      Emit(Op::kDelayedPush, s->loc);
      ++delayed_depth_;
      for (const Stmt* child : s->body) {
        LowerStmt(child);
      }
      --delayed_depth_;
      Emit(Op::kDelayedPop, s->loc);
      return;
    }
    case StmtKind::kEmpty:
      return;
  }
}

namespace {

// True if every path through `s` leaves the enclosing region (return, break,
// continue, panic). Used for the `if (!p) return;` narrowing idiom.
bool AlwaysExits(const Stmt* s) {
  if (s == nullptr) {
    return false;
  }
  switch (s->kind) {
    case StmtKind::kReturn:
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      return true;
    case StmtKind::kExpr:
      return s->expr != nullptr && s->expr->kind == ExprKind::kCall &&
             s->expr->a->kind == ExprKind::kIdent && s->expr->a->str_val == "panic";
    case StmtKind::kBlock:
    case StmtKind::kTrusted:
      return !s->body.empty() && AlwaysExits(s->body.back());
    case StmtKind::kIf:
      return s->else_stmt != nullptr && AlwaysExits(s->then_stmt) &&
             AlwaysExits(s->else_stmt);
    default:
      return false;
  }
}

}  // namespace

void Lowerer::LowerIf(const Stmt* s) {
  int c = LowerRValue(s->cond);
  int then_b = NewBlock();
  int else_b = s->else_stmt != nullptr ? NewBlock() : -1;
  int exit_b = NewBlock();
  EmitBranch(c, then_b, else_b >= 0 ? else_b : exit_b, s->loc);
  SetBlock(then_b);
  facts_.Push();
  // Condition-derived facts for the then-branch.
  const Expr* cond = s->cond;
  if (cond->type != nullptr && cond->type->IsPointer()) {
    facts_.AddNonNull(CanonKey(cond));
  } else if (cond->kind == ExprKind::kBinary && cond->bin_op == BinOp::kNe &&
             cond->b->IsNullConst()) {
    facts_.AddNonNull(CanonKey(cond->a));
  }
  LowerStmt(s->then_stmt);
  facts_.Pop();
  EmitJump(exit_b, s->loc);
  if (else_b >= 0) {
    SetBlock(else_b);
    facts_.Push();
    LowerStmt(s->else_stmt);
    facts_.Pop();
    EmitJump(exit_b, s->loc);
  }
  SetBlock(exit_b);
  // The kernel's guard idiom: `if (!p) return;` / `if (p == null) return;`
  // establishes p != null for the remainder of the region.
  if (s->else_stmt == nullptr && AlwaysExits(s->then_stmt)) {
    const Expr* guarded = nullptr;
    if (cond->kind == ExprKind::kUnary && cond->un_op == UnOp::kLogNot &&
        cond->a->type != nullptr && cond->a->type->IsPointer()) {
      guarded = cond->a;
    } else if (cond->kind == ExprKind::kBinary && cond->bin_op == BinOp::kEq &&
               cond->b->IsNullConst()) {
      guarded = cond->a;
    }
    if (guarded != nullptr) {
      facts_.AddNonNull(CanonKey(guarded));
    }
  }
}

void Lowerer::LowerFor(const Stmt* s) {
  facts_.Push();
  LowerStmt(s->init);

  // Detect the canonical counted loop: for (i = c0; i < HI; i++) with i and
  // HI unmodified in the body -> range fact i in [c0, HI) for the body.
  const Symbol* ivar = nullptr;
  int64_t lo = 0;
  const Symbol* hi_sym = nullptr;
  int64_t hi_const = 0;
  bool have_range = false;
  if (s->init != nullptr && s->cond != nullptr && s->step != nullptr) {
    const Expr* init_val = nullptr;
    const Symbol* init_sym = nullptr;
    if (s->init->kind == StmtKind::kDecl && s->init->decl != nullptr &&
        s->init->decl->sym != nullptr) {
      init_sym = s->init->decl->sym;
      init_val = s->init->decl->init;
    } else if (s->init->kind == StmtKind::kExpr && s->init->expr != nullptr &&
               s->init->expr->kind == ExprKind::kAssign &&
               s->init->expr->assign_op == BinOp::kNone &&
               s->init->expr->a->kind == ExprKind::kIdent) {
      init_sym = s->init->expr->a->sym;
      init_val = s->init->expr->b;
    }
    const Expr* cond = s->cond;
    bool cond_ok = cond->kind == ExprKind::kBinary &&
                   (cond->bin_op == BinOp::kLt || cond->bin_op == BinOp::kLe) &&
                   cond->a->kind == ExprKind::kIdent && cond->a->sym == init_sym;
    const Expr* step = s->step;
    bool step_ok =
        (step->kind == ExprKind::kIncDec && step->is_inc && step->a->kind == ExprKind::kIdent &&
         step->a->sym == init_sym) ||
        (step->kind == ExprKind::kAssign && step->assign_op == BinOp::kAdd &&
         step->a->kind == ExprKind::kIdent && step->a->sym == init_sym && step->b->is_const &&
         step->b->int_val == 1);
    if (init_sym != nullptr && init_val != nullptr && init_val->is_const && cond_ok && step_ok) {
      std::set<const Symbol*> modified;
      CollectModifiedSymbols(s->then_stmt, &modified);
      const Expr* bound = cond->b;
      bool bound_ok = false;
      if (bound->is_const) {
        hi_const = bound->int_val + (cond->bin_op == BinOp::kLe ? 1 : 0);
        hi_sym = nullptr;
        bound_ok = true;
      } else if (cond->bin_op == BinOp::kLt && bound->kind == ExprKind::kIdent &&
                 bound->sym != nullptr && modified.count(bound->sym) == 0 &&
                 !bound->sym->address_taken) {
        hi_sym = bound->sym;
        bound_ok = true;
      }
      if (bound_ok && modified.count(init_sym) == 0 && !init_sym->address_taken &&
          init_val->int_val >= 0) {
        ivar = init_sym;
        lo = init_val->int_val;
        have_range = true;
      }
    }
  }

  int cond_b = NewBlock();
  int body_b = NewBlock();
  int step_b = NewBlock();
  int exit_b = NewBlock();
  EmitJump(cond_b, s->loc);
  SetBlock(cond_b);
  if (s->cond != nullptr) {
    int c = LowerRValue(s->cond);
    EmitBranch(c, body_b, exit_b, s->loc);
  } else {
    EmitJump(body_b, s->loc);
  }
  SetBlock(body_b);
  break_stack_.push_back(exit_b);
  continue_stack_.push_back(step_b);
  facts_.Push();
  if (have_range) {
    facts_.AddRange(ivar, lo, hi_sym, hi_const);
  }
  LowerStmt(s->then_stmt);
  facts_.Pop();
  break_stack_.pop_back();
  continue_stack_.pop_back();
  EmitJump(step_b, s->loc);
  SetBlock(step_b);
  if (s->step != nullptr) {
    LowerExpr(s->step);
  }
  EmitJump(cond_b, s->loc);
  SetBlock(exit_b);
  facts_.Pop();
  facts_.InvalidateMemory();
}

// ---------------------------------------------------------------------------
// Deputy check emission
// ---------------------------------------------------------------------------

int Lowerer::EvalAnnotExpr(const Expr* e, int base_reg) {
  if (e == nullptr) {
    return EmitConst(0, SourceLoc{});
  }
  if (e->field != nullptr && e->kind == ExprKind::kIdent) {
    // Field-scoped annotation: load field from the record at base_reg.
    if (base_reg < 0) {
      diags_->Error(e->loc, "cannot evaluate field-scoped annotation here", "deputy");
      return EmitConst(0, e->loc);
    }
    int addr = EmitAddImm(base_reg, e->field->offset, e->loc);
    Instr& load = Emit(Op::kLoad, e->loc);
    load.dst = NewReg();
    load.a = addr;
    load.size = AccessSize(e->field->type);
    return load.dst;
  }
  switch (e->kind) {
    case ExprKind::kIntLit:
      return EmitConst(e->int_val, e->loc);
    case ExprKind::kBinary: {
      int a = EvalAnnotExpr(e->a, base_reg);
      int b = EvalAnnotExpr(e->b, base_reg);
      return EmitBin2(e->bin_op, a, b, e->loc);
    }
    default:
      // Locals/params/globals and arbitrary expressions: normal lowering.
      return LowerRValue(const_cast<Expr*>(e));
  }
}

void Lowerer::EmitNarrowing(const Type* dst, const Expr* src, int value_reg, SourceLoc loc) {
  if (!DeputyOn(src) || dst == nullptr || !dst->IsPointer() || dst->annot.opt ||
      dst->annot.trusted) {
    return;
  }
  if (src == nullptr || src->type == nullptr || !src->type->IsPointer() ||
      !src->type->annot.opt) {
    return;  // source already non-null by type
  }
  if (facts_.KnownNonNull(src)) {
    ++check_stats_.nonnull_discharged;
    return;
  }
  Instr& chk = Emit(Op::kCheckNonNull, loc);
  chk.a = value_reg;
  ++check_stats_.nonnull_emitted;
}

int Lowerer::AnnotBaseFor(const Expr* ptr_expr) {
  // For `s->data` the annotation scope base is the address of *s: re-lower
  // the base. (The base was just evaluated for the access itself; one extra
  // evaluation is the price of keeping lowering single-pass. Checks are only
  // emitted when static discharge failed, so this is on the slow path.)
  if (ptr_expr->kind == ExprKind::kMember) {
    if (ptr_expr->is_arrow) {
      return LowerRValue(ptr_expr->a);
    }
    LValue lv = LowerLValue(ptr_expr->a);
    return lv.addr;
  }
  return -1;
}

void Lowerer::EmitNonNull(const Expr* ptr_expr, int ptr_reg, SourceLoc loc) {
  if (!DeputyOn(ptr_expr)) {
    return;
  }
  if (ptr_expr->type != nullptr && ptr_expr->type->IsPointer() &&
      ptr_expr->type->annot.trusted) {
    ++check_stats_.trusted_skipped;
    return;
  }
  // Deputy's default pointer type is non-null: only `opt` pointers need a
  // use-site check. Non-opt pointers are guarded at narrowing points
  // (assignments and call arguments converting opt -> non-opt) instead.
  if (ptr_expr->type != nullptr && ptr_expr->type->IsPointer() &&
      !ptr_expr->type->annot.opt) {
    return;
  }
  if (facts_.KnownNonNull(ptr_expr)) {
    ++check_stats_.nonnull_discharged;
    return;
  }
  std::string key = "nn:" + CanonKey(ptr_expr);
  if (key != "nn:" && facts_.HasDominatingCheck(key)) {
    ++check_stats_.nonnull_discharged;
    return;
  }
  Instr& chk = Emit(Op::kCheckNonNull, loc);
  chk.a = ptr_reg;
  ++check_stats_.nonnull_emitted;
  facts_.AddDominatingCheck(key);
}

void Lowerer::EmitIndexChecks(const Expr* base_expr, int base_reg, const Expr* idx_expr,
                              int idx_reg, SourceLoc loc) {
  if (!DeputyOn(base_expr)) {
    return;
  }
  const Type* bt = base_expr->type;
  if (bt == nullptr) {
    return;
  }
  if (bt->IsArray()) {
    // Fixed array: bounds [0, len).
    if (facts_.KnownInConstRange(idx_expr, bt->array_len)) {
      ++check_stats_.bounds_discharged;
      return;
    }
    int len_reg = EmitConst(bt->array_len, loc);
    Instr& chk = Emit(Op::kCheckBounds, loc);
    chk.a = idx_reg;
    chk.b = -1;  // lo = 0
    chk.c = len_reg;
    chk.imm = 1;
    ++check_stats_.bounds_emitted;
    return;
  }
  if (!bt->IsPointer()) {
    return;
  }
  if (bt->annot.trusted) {
    ++check_stats_.trusted_skipped;
    return;
  }
  EmitNonNull(base_expr, base_reg, loc);
  switch (bt->annot.bounds) {
    case BoundsKind::kSingle: {
      // p[i] on a singleton pointer: only index 0 is legal.
      if (idx_expr->is_const && idx_expr->int_val == 0) {
        ++check_stats_.bounds_discharged;
        return;
      }
      int one_reg = EmitConst(1, loc);
      Instr& chk = Emit(Op::kCheckBounds, loc);
      chk.a = idx_reg;
      chk.b = -1;
      chk.c = one_reg;
      chk.imm = 1;
      ++check_stats_.bounds_emitted;
      return;
    }
    case BoundsKind::kCount: {
      const Expr* count = bt->annot.count;
      if (facts_.KnownInRange(idx_expr, count)) {
        ++check_stats_.bounds_discharged;
        return;
      }
      int base_rec = AnnotBaseFor(base_expr);
      int count_reg = EvalAnnotExpr(count, base_rec);
      Instr& chk = Emit(Op::kCheckBounds, loc);
      chk.a = idx_reg;
      chk.b = -1;
      chk.c = count_reg;
      chk.imm = 1;
      ++check_stats_.bounds_emitted;
      return;
    }
    case BoundsKind::kBound: {
      int base_rec = AnnotBaseFor(base_expr);
      int lo_reg = EvalAnnotExpr(bt->annot.lo, base_rec);
      int hi_reg = EvalAnnotExpr(bt->annot.hi, base_rec);
      // Address-based check: lo <= p + i*w && p + (i+1)*w <= hi.
      int64_t w = TypeSize(bt->pointee);
      int w_reg = EmitConst(w, loc);
      int scaled = EmitBin2(BinOp::kMul, idx_reg, w_reg, loc);
      int addr = EmitBin2(BinOp::kAdd, base_reg, scaled, loc);
      Instr& chk = Emit(Op::kCheckBounds, loc);
      chk.a = addr;
      chk.b = lo_reg;
      chk.c = hi_reg;
      chk.imm = w;
      ++check_stats_.bounds_emitted;
      return;
    }
    case BoundsKind::kNullterm: {
      // Only index 0 may be touched directly on a nullterm pointer; iteration
      // advances the pointer itself (checked at the arithmetic).
      if (!(idx_expr->is_const && idx_expr->int_val == 0)) {
        diags_->Warning(loc, "indexing a nullterm pointer; only [0] is checked", "deputy");
      }
      return;
    }
  }
}

void Lowerer::EmitWhenCheck(const Expr* member_expr, const LValue& union_lv, SourceLoc loc) {
  const RecordField* f = member_expr->field;
  if (f == nullptr || f->when == nullptr || !DeputyOn(member_expr)) {
    return;
  }
  // Parent struct base = union address - union field offset in the parent.
  int parent_base = -1;
  const Expr* union_expr = member_expr->a;
  if (union_expr->kind == ExprKind::kMember && union_expr->field != nullptr) {
    int off_reg = EmitConst(union_expr->field->offset, loc);
    parent_base = EmitBin2(BinOp::kSub, union_lv.addr, off_reg, loc);
  }
  int guard = EvalAnnotExpr(f->when, parent_base);
  Instr& chk = Emit(Op::kCheckWhen, loc);
  chk.a = guard;
  ++check_stats_.when_emitted;
}

void Lowerer::EmitCallSiteChecks(const FuncDecl* /*callee*/, const Type* fty, const Expr* call,
                                 const std::vector<int>& arg_regs) {
  if (!DeputyOn(call)) {
    return;
  }
  for (size_t i = 0; i < fty->params.size() && i < call->args.size(); ++i) {
    const Type* formal = fty->params[i];
    if (!formal->IsPointer() || formal->annot.trusted) {
      continue;
    }
    const Expr* actual = call->args[i];
    if (actual->IsNullConst()) {
      continue;  // null is legal for opt formals; checked below otherwise
    }
    // Narrowing check: an opt actual flowing into a non-opt formal.
    if (!formal->annot.opt && actual->type != nullptr && actual->type->IsPointer() &&
        actual->type->annot.opt) {
      EmitNonNull(actual, arg_regs[i], actual->loc);
    }
    if (formal->annot.bounds != BoundsKind::kCount || formal->annot.count == nullptr) {
      continue;
    }
    // required = value of the count expression; supported shapes: constant or
    // a reference to a sibling parameter.
    const Expr* cexpr = formal->annot.count;
    int required = -1;
    int64_t required_const = -1;
    if (cexpr->is_const) {
      required_const = cexpr->int_val;
    } else if (cexpr->kind == ExprKind::kIdent && cexpr->sym != nullptr &&
               cexpr->sym->kind == SymKind::kParam &&
               cexpr->sym->param_index >= 0 &&
               static_cast<size_t>(cexpr->sym->param_index) < arg_regs.size()) {
      required = arg_regs[static_cast<size_t>(cexpr->sym->param_index)];
    } else {
      continue;  // unsupported count shape at call sites
    }
    // capacity of the actual argument.
    const Type* at = actual->type;
    int64_t cap_const = -1;
    const Expr* cap_expr = nullptr;
    if (at == nullptr) {
      continue;
    }
    if (at->IsArray()) {
      cap_const = at->array_len;
    } else if (at->IsPointer()) {
      if (at->annot.trusted || at->annot.bounds == BoundsKind::kNullterm) {
        continue;  // unknown/unchecked capacity
      }
      if (at->annot.bounds == BoundsKind::kSingle) {
        cap_const = 1;
      } else if (at->annot.bounds == BoundsKind::kCount) {
        cap_expr = at->annot.count;
        if (cap_expr != nullptr && cap_expr->is_const) {
          cap_const = cap_expr->int_val;
          cap_expr = nullptr;
        }
      } else {
        continue;
      }
    } else {
      continue;
    }
    // Static discharge: constant required vs constant capacity.
    if (required_const >= 0 && cap_const >= 0) {
      if (required_const <= cap_const) {
        ++check_stats_.callsite_discharged;
      } else {
        diags_->Error(actual->loc,
                      "argument provides " + std::to_string(cap_const) +
                          " elements but callee requires " + std::to_string(required_const),
                      "deputy");
      }
      continue;
    }
    // Same-symbol discharge: f(buf, n) where buf is count(n) of the same n.
    if (required >= 0 && cap_expr != nullptr && cap_expr->kind == ExprKind::kIdent &&
        cexpr->kind == ExprKind::kIdent) {
      const Expr* actual_count_src = call->args[static_cast<size_t>(
          cexpr->sym->param_index)];
      if (actual_count_src != nullptr && actual_count_src->kind == ExprKind::kIdent &&
          cap_expr->sym != nullptr && actual_count_src->sym == cap_expr->sym) {
        ++check_stats_.callsite_discharged;
        continue;
      }
    }
    int cap_reg;
    if (cap_const >= 0) {
      cap_reg = EmitConst(cap_const, actual->loc);
    } else {
      int base_rec = AnnotBaseFor(actual);
      cap_reg = EvalAnnotExpr(cap_expr, base_rec);
    }
    int req_reg = required >= 0 ? required : EmitConst(required_const, actual->loc);
    Instr& chk = Emit(Op::kCheckBounds, actual->loc);
    chk.a = req_reg;
    chk.b = -1;
    chk.c = cap_reg;
    chk.imm = 0;  // 0 <= required && required <= capacity
    ++check_stats_.callsite_emitted;
  }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

int Lowerer::EmitLoad(const LValue& lv, SourceLoc loc) {
  Instr& i = Emit(Op::kLoad, loc);
  i.dst = NewReg();
  i.a = lv.addr;
  i.size = lv.size;
  return i.dst;
}

void Lowerer::EmitStore(const LValue& lv, int value, SourceLoc loc) {
  Instr& i = Emit(lv.is_ptr ? Op::kStorePtr : Op::kStore, loc);
  i.a = lv.addr;
  i.b = value;
  i.size = lv.size;
}

Lowerer::LValue Lowerer::LowerLValue(const Expr* e) {
  LValue lv;
  lv.type = e->type;
  lv.size = e->type != nullptr ? AccessSize(e->type) : 8;
  lv.is_ptr = e->type != nullptr && e->type->IsPointer();
  switch (e->kind) {
    case ExprKind::kIdent: {
      const Symbol* sym = e->sym;
      if (sym == nullptr) {
        diags_->Error(e->loc, "cannot take lvalue of '" + std::string(e->str_val) + "'", "lower");
        lv.addr = EmitConst(0, e->loc);
        return lv;
      }
      if (sym->kind == SymKind::kGlobal) {
        Instr& i = Emit(Op::kGlobalAddr, e->loc);
        i.dst = NewReg();
        i.imm = sym->global_addr;
        lv.addr = i.dst;
      } else {
        Instr& i = Emit(Op::kFrameAddr, e->loc);
        i.dst = NewReg();
        i.imm = sym->frame_offset;
        lv.addr = i.dst;
      }
      return lv;
    }
    case ExprKind::kDeref: {
      int p = LowerRValue(e->a);
      EmitNonNull(e->a, p, e->loc);
      // Nullterm pointers may always read their current element.
      lv.addr = p;
      return lv;
    }
    case ExprKind::kIndex: {
      const Type* bt = e->a->type;
      int base;
      if (bt != nullptr && bt->IsArray()) {
        LValue alv = LowerLValue(e->a);
        base = alv.addr;
      } else {
        base = LowerRValue(e->a);
      }
      int idx = LowerRValue(e->b);
      EmitIndexChecks(e->a, base, e->b, idx, e->loc);
      int64_t w = TypeSize(e->type);
      int w_reg = EmitConst(w, e->loc);
      int scaled = EmitBin2(BinOp::kMul, idx, w_reg, e->loc);
      lv.addr = EmitBin2(BinOp::kAdd, base, scaled, e->loc);
      return lv;
    }
    case ExprKind::kMember: {
      int base;
      LValue union_lv;
      if (e->is_arrow) {
        base = LowerRValue(e->a);
        EmitNonNull(e->a, base, e->loc);
      } else {
        LValue alv = LowerLValue(e->a);
        base = alv.addr;
      }
      union_lv.addr = base;
      if (e->field != nullptr && e->field->when != nullptr) {
        EmitWhenCheck(e, union_lv, e->loc);
      }
      int64_t off = e->field != nullptr ? e->field->offset : 0;
      lv.addr = off != 0 ? EmitAddImm(base, off, e->loc) : base;
      return lv;
    }
    case ExprKind::kCast: {
      // Lvalue cast appears in trusted code only; address of operand.
      LValue inner = LowerLValue(e->a);
      lv.addr = inner.addr;
      return lv;
    }
    default:
      diags_->Error(e->loc, "expression is not an lvalue", "lower");
      lv.addr = EmitConst(0, e->loc);
      return lv;
  }
}

int Lowerer::LowerShortCircuit(const Expr* e) {
  // a && b / a || b with proper short-circuit evaluation.
  int result_slot = NewReg();  // virtual: we use blocks + moves
  int rhs_b = NewBlock();
  int short_b = NewBlock();
  int exit_b = NewBlock();
  int a = LowerRValue(e->a);
  // Normalize to 0/1.
  int zero_a = EmitConst(0, e->loc);
  int norm_a = EmitBin2(BinOp::kNe, a, zero_a, e->loc);
  if (e->bin_op == BinOp::kLogAnd) {
    EmitBranch(norm_a, rhs_b, short_b, e->loc);
  } else {
    EmitBranch(norm_a, short_b, rhs_b, e->loc);
  }
  SetBlock(short_b);
  Instr& cshort = Emit(Op::kConst, e->loc);
  cshort.dst = result_slot;
  cshort.imm = e->bin_op == BinOp::kLogAnd ? 0 : 1;
  EmitJump(exit_b, e->loc);
  SetBlock(rhs_b);
  int b = LowerRValue(e->b);
  int zero_b = EmitConst(0, e->loc);
  Instr& nb = Emit(Op::kBin, e->loc);
  nb.bin = BinOp::kNe;
  nb.dst = result_slot;
  nb.a = b;
  nb.b = zero_b;
  EmitJump(exit_b, e->loc);
  SetBlock(exit_b);
  return result_slot;
}

int Lowerer::LowerCond(const Expr* e) {
  int result = NewReg();
  int then_b = NewBlock();
  int else_b = NewBlock();
  int exit_b = NewBlock();
  int c = LowerRValue(e->a);
  EmitBranch(c, then_b, else_b, e->loc);
  SetBlock(then_b);
  int tv = LowerRValue(e->b);
  Instr& mt = Emit(Op::kMove, e->loc);
  mt.dst = result;
  mt.a = tv;
  EmitJump(exit_b, e->loc);
  SetBlock(else_b);
  int ev = LowerRValue(e->c);
  Instr& me = Emit(Op::kMove, e->loc);
  me.dst = result;
  me.a = ev;
  EmitJump(exit_b, e->loc);
  SetBlock(exit_b);
  return result;
}

int Lowerer::LowerIncDec(const Expr* e) {
  LValue lv = LowerLValue(e->a);
  int old = EmitLoad(lv, e->loc);
  int64_t delta = 1;
  if (e->a->type != nullptr && e->a->type->IsPointer()) {
    delta = TypeSize(e->a->type->pointee);
    // Nullterm iteration: s++ must not step past the terminator.
    if (DeputyOn(e) && e->a->type->annot.bounds == BoundsKind::kNullterm && e->is_inc) {
      Instr& chk = Emit(Op::kCheckNtAdvance, e->loc);
      chk.a = old;
      ++check_stats_.nt_emitted;
    }
  }
  int delta_reg = EmitConst(delta, e->loc);
  int updated = EmitBin2(e->is_inc ? BinOp::kAdd : BinOp::kSub, old, delta_reg, e->loc);
  EmitStore(lv, updated, e->loc);
  if (e->a->kind == ExprKind::kIdent) {
    facts_.InvalidateSymbol(e->a->sym);
  } else {
    facts_.InvalidateMemory();
  }
  return e->is_prefix ? updated : old;
}

int Lowerer::LowerCall(const Expr* e) {
  // The callee: builtin, direct, or (null) indirect.
  const FuncDecl* callee = e->a->func;
  const Type* fty = callee != nullptr ? callee->type
                    : (e->a->type != nullptr && e->a->type->IsFuncPointer())
                        ? e->a->type->pointee
                        : e->a->type;
  std::vector<int> arg_regs;
  arg_regs.reserve(e->args.size());
  for (const Expr* arg : e->args) {
    arg_regs.push_back(LowerRValue(arg));
  }
  if (fty != nullptr && fty->IsFunc()) {
    EmitCallSiteChecks(callee, fty, e, arg_regs);
  }
  facts_.InvalidateMemory();
  if (callee != nullptr && callee->is_builtin) {
    Instr& i = Emit(Op::kIntrinsic, e->loc);
    i.dst = NewReg();
    i.imm = callee->builtin_id;
    i.args = std::move(arg_regs);
    if (IsAllocBuiltinName(callee->name)) {
      i.alloc_type_id = alloc_type_hint_;
    }
    return i.dst;
  }
  if (callee != nullptr) {
    if (callee->body == nullptr) {
      // Extern function from another module: legal for static analysis
      // (incremental porting); the VM traps if the call actually executes.
      diags_->Warning(e->loc, "call to undefined function '" + callee->name + "'", "lower");
    }
    Instr& i = Emit(Op::kCall, e->loc);
    i.dst = NewReg();
    i.imm = callee->func_id;
    i.args = std::move(arg_regs);
    return i.dst;
  }
  // Indirect call through a function pointer value.
  int fp = LowerRValue(e->a);
  EmitNonNull(e->a, fp, e->loc);
  Instr& i = Emit(Op::kCallInd, e->loc);
  i.dst = NewReg();
  i.a = fp;
  i.args = std::move(arg_regs);
  return i.dst;
}

int Lowerer::LowerRValue(const Expr* e) {
  // Array lvalues decay to their address in value context.
  if (e->type != nullptr && e->type->IsArray()) {
    LValue lv = LowerLValue(e);
    return lv.addr;
  }
  return LowerExpr(e);
}

int Lowerer::LowerExpr(const Expr* e) {
  if (e == nullptr) {
    return EmitConst(0, SourceLoc{});
  }
  switch (e->kind) {
    case ExprKind::kIntLit:
      return EmitConst(e->int_val, e->loc);
    case ExprKind::kNull:
      return EmitConst(0, e->loc);
    case ExprKind::kStrLit: {
      Instr& i = Emit(Op::kStrConst, e->loc);
      i.dst = NewReg();
      i.imm = static_cast<int64_t>(module_->string_pool.size());
      module_->string_pool.emplace_back(e->str_val);
      return i.dst;
    }
    case ExprKind::kIdent: {
      if (e->is_const) {  // enum constant
        return EmitConst(e->int_val, e->loc);
      }
      if (e->func != nullptr) {
        // Function designator -> function pointer constant.
        Instr& i = Emit(Op::kFuncConst, e->loc);
        i.dst = NewReg();
        i.imm = e->func->func_id;
        return i.dst;
      }
      if (e->sym == nullptr) {
        return EmitConst(0, e->loc);
      }
      LValue lv = LowerLValue(e);
      return EmitLoad(lv, e->loc);
    }
    case ExprKind::kUnary: {
      int a = LowerRValue(e->a);
      Instr& i = Emit(Op::kUn, e->loc);
      i.un = e->un_op;
      i.dst = NewReg();
      i.a = a;
      return i.dst;
    }
    case ExprKind::kBinary: {
      if (e->bin_op == BinOp::kLogAnd || e->bin_op == BinOp::kLogOr) {
        return LowerShortCircuit(e);
      }
      // Pointer arithmetic scales by element size.
      const Type* at = e->a->type;
      const Type* bt = e->b->type;
      bool a_ptr = at != nullptr && (at->IsPointer() || at->IsArray());
      bool b_ptr = bt != nullptr && (bt->IsPointer() || bt->IsArray());
      int a = LowerRValue(e->a);
      int b = LowerRValue(e->b);
      if ((e->bin_op == BinOp::kAdd || e->bin_op == BinOp::kSub) && a_ptr && !b_ptr) {
        const Type* elem = at->IsPointer() ? at->pointee : at->elem;
        int64_t w = TypeSize(elem);
        // Nullterm advance check: s + 1 requires *s != 0.
        if (DeputyOn(e) && at->IsPointer() && at->annot.bounds == BoundsKind::kNullterm &&
            e->bin_op == BinOp::kAdd) {
          Instr& chk = Emit(Op::kCheckNtAdvance, e->loc);
          chk.a = a;
          ++check_stats_.nt_emitted;
        }
        if (w != 1) {
          int w_reg = EmitConst(w, e->loc);
          b = EmitBin2(BinOp::kMul, b, w_reg, e->loc);
        }
      }
      if (e->bin_op == BinOp::kSub && a_ptr && b_ptr) {
        const Type* elem = at->IsPointer() ? at->pointee : at->elem;
        int64_t w = TypeSize(elem);
        int diff = EmitBin2(BinOp::kSub, a, b, e->loc);
        if (w == 1) {
          return diff;
        }
        int w_reg = EmitConst(w, e->loc);
        return EmitBin2(BinOp::kDiv, diff, w_reg, e->loc);
      }
      return EmitBin2(e->bin_op, a, b, e->loc);
    }
    case ExprKind::kAssign: {
      int value;
      if (e->assign_op == BinOp::kNone) {
        // Allocation typing: p = (T*)kmalloc(...) / p = kmalloc(...).
        const Type* lt = e->a->type;
        int saved_hint = alloc_type_hint_;
        alloc_type_hint_ = AllocTypeIdFor(lt);
        value = LowerRValue(e->b);
        alloc_type_hint_ = saved_hint;
      } else {
        LValue lv0 = LowerLValue(e->a);
        int old = EmitLoad(lv0, e->loc);
        int rhs = LowerRValue(e->b);
        // Pointer += scales like pointer arithmetic.
        if (e->a->type != nullptr && e->a->type->IsPointer()) {
          int64_t w = TypeSize(e->a->type->pointee);
          if (DeputyOn(e) && e->a->type->annot.bounds == BoundsKind::kNullterm &&
              e->assign_op == BinOp::kAdd) {
            Instr& chk = Emit(Op::kCheckNtAdvance, e->loc);
            chk.a = old;
            ++check_stats_.nt_emitted;
          }
          if (w != 1) {
            int w_reg = EmitConst(w, e->loc);
            rhs = EmitBin2(BinOp::kMul, rhs, w_reg, e->loc);
          }
        }
        int updated = EmitBin2(e->assign_op, old, rhs, e->loc);
        EmitStore(lv0, updated, e->loc);
        if (e->a->kind == ExprKind::kIdent) {
          facts_.InvalidateSymbol(e->a->sym);
        } else {
          facts_.InvalidateMemory();
        }
        return updated;
      }
      EmitNarrowing(e->a->type, e->b, value, e->loc);
      LValue lv = LowerLValue(e->a);
      // Char stores truncate.
      if (lv.size == 1) {
        int mask_reg = EmitConst(0xff, e->loc);
        value = EmitBin2(BinOp::kBitAnd, value, mask_reg, e->loc);
      }
      EmitStore(lv, value, e->loc);
      if (e->a->kind == ExprKind::kIdent) {
        facts_.InvalidateSymbol(e->a->sym);
        if (e->a->type != nullptr && e->a->type->IsPointer() && facts_.KnownNonNull(e->b)) {
          facts_.AddNonNull(CanonKey(e->a));
        }
      } else {
        facts_.InvalidateMemory();
      }
      return value;
    }
    case ExprKind::kCond:
      return LowerCond(e);
    case ExprKind::kCall:
      return LowerCall(e);
    case ExprKind::kIndex:
    case ExprKind::kMember:
    case ExprKind::kDeref: {
      if (e->type != nullptr && e->type->IsRecord()) {
        // Record-valued access: its "value" is its address (used by nested
        // member paths; records are never loaded whole).
        LValue lv = LowerLValue(e);
        return lv.addr;
      }
      LValue lv = LowerLValue(e);
      return EmitLoad(lv, e->loc);
    }
    case ExprKind::kAddrOf: {
      LValue lv = LowerLValue(e->a);
      return lv.addr;
    }
    case ExprKind::kCast: {
      int saved_hint = alloc_type_hint_;
      alloc_type_hint_ = AllocTypeIdFor(e->cast_type);
      int v = LowerRValue(e->a);
      alloc_type_hint_ = saved_hint;
      if (e->cast_type != nullptr && e->cast_type->IsChar()) {
        int mask_reg = EmitConst(0xff, e->loc);
        return EmitBin2(BinOp::kBitAnd, v, mask_reg, e->loc);
      }
      return v;
    }
    case ExprKind::kSizeof:
      return EmitConst(e->int_val, e->loc);
    case ExprKind::kIncDec:
      return LowerIncDec(e);
  }
  return EmitConst(0, e->loc);
}

int Lowerer::AllocTypeIdFor(const Type* t) {
  if (t == nullptr || !t->IsPointer()) {
    return -1;
  }
  const Type* p = t->pointee;
  if (p->IsRecord()) {
    return p->record->type_id;
  }
  if (p->IsPointer()) {
    return -3;  // array of pointers: every word is a pointer
  }
  if (p->IsInteger() || p->IsVoid()) {
    return -2;  // pointer-free payload
  }
  return -1;
}

}  // namespace ivy
