#include "src/analysis/fingerprint.h"

#include <string_view>

#include "src/mc/types.h"

namespace ivy {
namespace {

// FNV-1a, 64-bit. Streams tagged bytes so "ab"+"c" and "a"+"bc" differ.
class Fp {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (i * 8)));
    }
  }
  void Mix(int64_t v) { Mix(static_cast<uint64_t>(v)); }
  void Mix(int v) { Mix(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Mix(std::string_view s) {
    Mix(static_cast<uint64_t>(s.size()));
    for (char c : s) {
      Byte(static_cast<uint8_t>(c));
    }
  }
  void Tag(uint8_t t) { Byte(t); }
  uint64_t hash() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= kFnvPrime;
  }
  uint64_t h_ = kFnvOffset;
};

void MixExpr(Fp* fp, const Expr* e);

// Structural type hash — no string rendering (this runs for every local
// declaration). Records are mixed by name/id, not by
// recursing into fields: field changes are the preamble fingerprint's job,
// and stopping there keeps recursive record types finite.
void MixType(Fp* fp, const Type* t) {
  if (t == nullptr) {
    fp->Tag(0);
    return;
  }
  fp->Tag(1);
  fp->Mix(static_cast<int>(t->kind));
  switch (t->kind) {
    case TypeKind::kPointer:
      fp->Mix(static_cast<int>(t->annot.bounds));
      fp->Tag(static_cast<uint8_t>((t->annot.opt ? 1 : 0) | (t->annot.trusted ? 2 : 0)));
      MixExpr(fp, t->annot.count);
      MixExpr(fp, t->annot.lo);
      MixExpr(fp, t->annot.hi);
      MixType(fp, t->pointee);
      return;
    case TypeKind::kArray:
      fp->Mix(t->array_len);
      MixType(fp, t->elem);
      return;
    case TypeKind::kRecord:
      if (t->record != nullptr) {
        fp->Mix(t->record->name);
        fp->Mix(t->record->type_id);
        fp->Tag(t->record->is_union ? 1 : 0);
      }
      return;
    case TypeKind::kFunc:
      MixType(fp, t->ret);
      fp->Mix(static_cast<uint64_t>(t->params.size()));
      for (const Type* p : t->params) {
        MixType(fp, p);
      }
      fp->Tag(t->varargs ? 1 : 0);
      return;
    default:
      return;
  }
}

// Recursive expression mix — used only off the hot path (preamble records /
// globals and the annotation expressions reachable from MixType). Function
// bodies go through the linear slab walk below instead.
void MixExpr(Fp* fp, const Expr* e) {
  if (e == nullptr) {
    fp->Tag(0);
    return;
  }
  fp->Tag(1);
  fp->Mix(static_cast<int>(e->kind));
  fp->Mix(e->int_val);
  fp->Mix(e->str_val);
  fp->Mix(static_cast<int>(e->bin_op));
  fp->Mix(static_cast<int>(e->assign_op));
  fp->Mix(static_cast<int>(e->un_op));
  fp->Tag(static_cast<uint8_t>((e->is_arrow ? 1 : 0) | (e->is_inc ? 2 : 0) |
                               (e->is_prefix ? 4 : 0)));
  if (e->kind == ExprKind::kCast || e->kind == ExprKind::kSizeof) {
    MixType(fp, e->cast_type);
  }
  MixExpr(fp, e->a);
  MixExpr(fp, e->b);
  MixExpr(fp, e->c);
  fp->Mix(static_cast<uint64_t>(e->args.size()));
  for (const Expr* arg : e->args) {
    MixExpr(fp, arg);
  }
}

void MixSignature(Fp* fp, const FuncDecl* fn) {
  fp->Mix(fn->name);
  MixType(fp, fn->type);
  fp->Mix(static_cast<uint64_t>(fn->params.size()));
  for (const Symbol* p : fn->params) {
    fp->Mix(p->name);
    MixType(fp, p->type);
  }
  fp->Tag(static_cast<uint8_t>((fn->attrs.blocking ? 1 : 0) | (fn->attrs.noblock ? 2 : 0) |
                               (fn->attrs.interrupt_handler ? 4 : 0) |
                               (fn->attrs.trusted ? 8 : 0)));
  fp->Mix(fn->attrs.blocking_if_param);
  fp->Mix(static_cast<uint64_t>(fn->attrs.errcodes.size()));
  for (int64_t code : fn->attrs.errcodes) {
    fp->Mix(static_cast<uint64_t>(code));
  }
}

}  // namespace

FunctionFingerprint FingerprintFunctionFull(const Program& prog, const FuncDecl* fn) {
  FunctionFingerprint out;
  Fp fp;
  MixSignature(&fp, fn);
  out.sig = fp.hash();  // the signature is a prefix of the full stream

  // Linear slab walk. Tree shape is captured by mixing child ids relative to
  // the span start (kNoNode for null), so the hash is independent of where
  // the function's nodes sit in the module-wide slabs; string content enters
  // through the interner's cached content hashes. No pointer is chased and
  // no node outside [begin, end) is touched.
  const uint32_t eb = fn->expr_begin;
  const uint32_t sb = fn->stmt_begin;
  const uint32_t db = fn->decl_begin;
  auto rel_e = [eb](const Expr* e) -> uint64_t {
    return e == nullptr ? kNoNode : e->id - eb;
  };
  auto rel_s = [sb](const Stmt* s) -> uint64_t {
    return s == nullptr ? kNoNode : s->id - sb;
  };

  fp.Mix(static_cast<uint64_t>(fn->expr_end - eb));
  for (uint32_t i = eb; i < fn->expr_end; ++i) {
    const Expr* e = prog.ExprAt(ExprId{i});
    fp.Mix(static_cast<int>(e->kind));
    fp.Mix(e->int_val);
    fp.Mix(e->str_id == kNoStr ? uint64_t{0} : prog.StrHash(e->str_id));
    fp.Mix(static_cast<int>(e->bin_op));
    fp.Mix(static_cast<int>(e->assign_op));
    fp.Mix(static_cast<int>(e->un_op));
    fp.Tag(static_cast<uint8_t>((e->is_arrow ? 1 : 0) | (e->is_inc ? 2 : 0) |
                                (e->is_prefix ? 4 : 0)));
    if (e->kind == ExprKind::kCast || e->kind == ExprKind::kSizeof) {
      MixType(&fp, e->cast_type);
    }
    fp.Mix(rel_e(e->a));
    fp.Mix(rel_e(e->b));
    fp.Mix(rel_e(e->c));
    fp.Mix(static_cast<uint64_t>(e->args.size()));
    for (const Expr* arg : e->args) {
      fp.Mix(rel_e(arg));
    }
    if (e->kind == ExprKind::kIdent && !e->no_refs) {
      out.refs.insert(std::string(e->str_val));
    }
  }

  fp.Mix(static_cast<uint64_t>(fn->stmt_end - sb));
  for (uint32_t i = sb; i < fn->stmt_end; ++i) {
    const Stmt* s = prog.StmtAt(StmtId{i});
    fp.Mix(static_cast<int>(s->kind));
    fp.Mix(rel_e(s->expr));
    fp.Mix(s->decl == nullptr ? kNoNode : uint64_t{s->decl->id - db});
    fp.Mix(rel_s(s->init));
    fp.Mix(rel_e(s->cond));
    fp.Mix(rel_e(s->step));
    fp.Mix(rel_s(s->then_stmt));
    fp.Mix(rel_s(s->else_stmt));
    fp.Mix(static_cast<uint64_t>(s->body.size()));
    for (const Stmt* child : s->body) {
      fp.Mix(rel_s(child));
    }
  }

  fp.Mix(static_cast<uint64_t>(fn->decl_end - db));
  for (uint32_t i = db; i < fn->decl_end; ++i) {
    const VarDecl* d = prog.DeclAt(DeclId{i});
    fp.Mix(d->name_id == kNoStr ? uint64_t{0} : prog.StrHash(d->name_id));
    MixType(&fp, d->type);
    fp.Mix(rel_e(d->init));
  }

  fp.Mix(rel_s(fn->body));  // which stmt is the body root
  out.full = fp.hash();
  return out;
}

uint64_t FingerprintFunction(const Program& prog, const FuncDecl* fn) {
  return FingerprintFunctionFull(prog, fn).full;
}

uint64_t FingerprintSignature(const FuncDecl* fn) {
  Fp fp;
  MixSignature(&fp, fn);
  return fp.hash();
}

uint64_t FingerprintPreamble(const Program& prog) {
  Fp fp;
  fp.Mix(static_cast<uint64_t>(prog.records.size()));
  for (const RecordDecl* rec : prog.records) {
    fp.Mix(rec->name);
    fp.Tag(rec->is_union ? 1 : 0);
    fp.Mix(static_cast<uint64_t>(rec->fields.size()));
    for (const RecordField& f : rec->fields) {
      fp.Mix(f.name);
      MixType(&fp, f.type);
      MixExpr(&fp, f.when);
    }
  }
  fp.Mix(static_cast<uint64_t>(prog.globals.size()));
  for (const VarDecl* g : prog.globals) {
    fp.Mix(g->name);
    MixType(&fp, g->type);
    MixExpr(&fp, g->init);
  }
  return fp.hash();
}

std::set<std::string> ReferencedNames(const Program& prog, const FuncDecl* fn) {
  return FingerprintFunctionFull(prog, fn).refs;
}

}  // namespace ivy
