// Abstract syntax tree for Mini-C.
//
// Nodes are "fat" tagged structs stored in per-module arena slabs owned by
// Program (src/mc/arena.h). Every Expr/Stmt/VarDecl carries its dense slab
// index (`id`), assigned in parse order: consumers traverse via the embedded
// pointers as before, while fingerprinting and the span machinery iterate
// the slabs linearly through the typed ExprId/StmtId/DeclId handles. The
// tree survives for the whole pipeline (sema annotates it in place; lowering,
// the points-to analysis and the analyses all read it). Nodes are trivially
// destructible — identifier spellings are interned string_views into arena
// bytes and child lists are arena arrays — so an abandoned (error-path)
// parse frees completely when the Program drops its arena.
#ifndef SRC_MC_AST_H_
#define SRC_MC_AST_H_

#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/mc/arena.h"
#include "src/mc/types.h"
#include "src/support/source.h"

namespace ivy {

struct FuncDecl;
struct Stmt;
struct Symbol;
struct VarDecl;

enum class ExprKind {
  kIntLit,   // int_val (type int or char)
  kStrLit,   // str_val; type char* nullterm
  kNull,     // null pointer constant
  kIdent,    // str_val = name; sym or func set by sema
  kUnary,    // un_op a
  kBinary,   // a bin_op b
  kAssign,   // a = b, or compound a op= b (assign_op)
  kCond,     // a ? b : c
  kCall,     // a(args...); a is kIdent for direct calls or any fn-ptr expr
  kIndex,    // a[b]
  kMember,   // a.field / a->field (is_arrow)
  kDeref,    // *a
  kAddrOf,   // &a
  kCast,     // (cast_type) a
  kSizeof,   // sizeof(type) or sizeof(expr); folded to int_val by sema
  kIncDec,   // ++/-- pre/post (is_inc, is_prefix)
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kRem,
  kShl, kShr,
  kLt, kGt, kLe, kGe, kEq, kNe,
  kBitAnd, kBitOr, kBitXor,
  kLogAnd, kLogOr,
  kNone,  // used as assign_op for plain '='
};

enum class UnOp { kNeg, kLogNot, kBitNot };

// Arena-allocated child list: one bump allocation, no destructor. Iterates
// like the std::vector it replaced.
struct ExprList {
  Expr** items = nullptr;
  uint32_t count = 0;
  uint32_t size() const { return count; }
  bool empty() const { return count == 0; }
  Expr* operator[](size_t i) const { return items[i]; }
  Expr* back() const { return items[count - 1]; }
  Expr* const* begin() const { return items; }
  Expr* const* end() const { return items + count; }
};

struct StmtList {
  Stmt** items = nullptr;
  uint32_t count = 0;
  uint32_t size() const { return count; }
  bool empty() const { return count == 0; }
  Stmt* operator[](size_t i) const { return items[i]; }
  Stmt* back() const { return items[count - 1]; }
  Stmt* const* begin() const { return items; }
  Stmt* const* end() const { return items + count; }
};

struct Expr {
  ExprKind kind = ExprKind::kIntLit;
  uint32_t id = kNoNode;   // own index in the Expr slab (ExprId{id})
  SourceLoc loc;
  uint32_t str_id = kNoStr;    // str_val's interner id (packed beside loc)
  const Type* type = nullptr;  // set by sema

  int64_t int_val = 0;
  // Identifier spelling, string value, or member name: a view into the
  // module's interned string bytes. Fingerprinting mixes the content hash
  // of its interner id, str_id, in O(1).
  std::string_view str_val;
  Expr* a = nullptr;
  Expr* b = nullptr;
  Expr* c = nullptr;
  ExprList args;
  BinOp bin_op = BinOp::kNone;
  BinOp assign_op = BinOp::kNone;
  UnOp un_op = UnOp::kNeg;
  bool is_arrow = false;
  bool is_inc = false;
  bool is_prefix = false;
  // Annotation / const-evaluated subtree: identifiers here are not "name
  // references" for dirty-bit purposes (parity with the old recursive
  // fingerprint walk, which skipped these subtrees when collecting refs).
  bool no_refs = false;
  const Type* cast_type = nullptr;  // kCast / kSizeof(type)

  // Sema results. Sema is the only layer that resolves a name: later
  // layers read `sym` or `func` and never look a spelling up again.
  Symbol* sym = nullptr;                  // kIdent naming a variable/parameter
  const FuncDecl* func = nullptr;         // kIdent naming a function: the canonical decl
  const RecordField* field = nullptr;     // kMember resolution
  RecordDecl* field_record = nullptr;     // record containing `field`
  bool in_trusted = false;                // lexically inside trusted code
  bool is_const = false;                  // compile-time constant (int_val valid)

  bool IsNullConst() const {
    return kind == ExprKind::kNull || (kind == ExprKind::kIntLit && int_val == 0);
  }
};

enum class StmtKind {
  kExpr,
  kDecl,     // local variable declaration
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kBlock,
  kSeq,          // statement sequence without its own scope (multi-declarators)
  kTrusted,      // trusted { ... }: Deputy emits no checks inside
  kDelayedFree,  // delayed_free { ... }: CCount defers frees to scope end
  kEmpty,
};

// A variable declaration (local or global).
struct VarDecl {
  std::string_view name;       // interned
  uint32_t name_id = kNoStr;
  uint32_t id = kNoNode;       // own index in the VarDecl slab (DeclId{id})
  const Type* type = nullptr;
  Expr* init = nullptr;
  Symbol* sym = nullptr;
  SourceLoc loc;
  bool is_global = false;
};

struct Stmt {
  StmtKind kind = StmtKind::kEmpty;
  uint32_t id = kNoNode;        // own index in the Stmt slab (StmtId{id})
  SourceLoc loc;
  Expr* expr = nullptr;         // kExpr, kReturn (nullable), conditions
  VarDecl* decl = nullptr;      // kDecl
  Stmt* init = nullptr;         // kFor
  Expr* cond = nullptr;         // kIf/kWhile/kDoWhile/kFor (kFor may be null)
  Expr* step = nullptr;         // kFor
  Stmt* then_stmt = nullptr;    // kIf / loop body
  Stmt* else_stmt = nullptr;    // kIf
  StmtList body;                // kBlock/kTrusted/kDelayedFree
};

// Arena teardown is bulk chunk frees; nothing here may own heap memory.
static_assert(std::is_trivially_destructible_v<Expr>,
              "Expr must stay trivially destructible (arena-allocated)");
static_assert(std::is_trivially_destructible_v<Stmt>,
              "Stmt must stay trivially destructible (arena-allocated)");
static_assert(std::is_trivially_destructible_v<VarDecl>,
              "VarDecl must stay trivially destructible (arena-allocated)");

enum class SymKind { kGlobal, kLocal, kParam, kEnumConst, kTypedefName };

// A named entity. Sema interns one Symbol per declaration.
struct Symbol {
  std::string name;
  SymKind kind = SymKind::kLocal;
  const Type* type = nullptr;
  VarDecl* var = nullptr;    // kGlobal / kLocal / kParam
  int64_t enum_value = 0;    // kEnumConst
  int param_index = -1;      // kParam
  SourceLoc loc;
  bool address_taken = false;

  // Lowering results.
  int64_t frame_offset = -1;   // locals/params: offset in the VM stack frame
  int64_t global_addr = 0;     // globals: absolute address in VM memory
  int local_id = -1;           // dense per-function numbering (analysis cells)
};

// Function attributes (BlockStop / ErrCheck / trust annotations, §2.3, §3.1).
struct FuncAttrs {
  bool blocking = false;            // may sleep unconditionally
  int blocking_if_param = -1;       // blocks iff this param has GFP_WAIT set
  bool noblock = false;             // carries the run-time "not atomic" check
  bool interrupt_handler = false;   // entered with interrupts disabled
  bool trusted = false;             // whole function trusted (E1 accounting)
  std::vector<int64_t> errcodes;    // error codes this function may return
};

struct FuncDecl {
  std::string name;
  const Type* type = nullptr;  // kFunc type
  std::vector<Symbol*> params;
  Stmt* body = nullptr;  // null for extern declarations / builtins
  FuncAttrs attrs;
  SourceLoc loc;
  bool is_builtin = false;
  int builtin_id = -1;  // index into the VM builtin table
  int func_id = -1;     // dense program-wide id
  // Set by lowering: total bytes of locals + params (StackCheck input).
  int64_t frame_size = 0;

  // Slab span: every Expr/Stmt/VarDecl of this function's definition lives
  // in the half-open id ranges below (parse allocates function bodies
  // contiguously; sema never allocates nodes). The span is the unit the
  // linear fingerprint walks, and serializes as six integers.
  uint32_t expr_begin = 0, expr_end = 0;
  uint32_t stmt_begin = 0, stmt_end = 0;
  uint32_t decl_begin = 0, decl_end = 0;
};

// Node + list + string storage for one module's AST. Dropping it frees the
// whole tree in O(chunks); see src/mc/arena.h for the layout.
struct AstArena {
  AstArena() : interner(&bytes) {}
  AstArena(const AstArena&) = delete;
  AstArena& operator=(const AstArena&) = delete;

  BumpArena bytes;        // child lists + interned string bytes
  NodeSlab<Expr> exprs;
  NodeSlab<Stmt> stmts;
  NodeSlab<VarDecl> decls;
  StringInterner interner;

  size_t TotalBytes() const {
    return bytes.reserved_bytes() + exprs.bytes() + stmts.bytes() +
           decls.bytes();
  }
};

// A whole Mini-C program: arena plus top-level declarations. Created by the
// Parser, completed by Sema, then read-only.
class Program {
 public:
  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  Expr* NewExpr(ExprKind kind, SourceLoc loc);
  Stmt* NewStmt(StmtKind kind, SourceLoc loc);
  Type* NewType(TypeKind kind);
  VarDecl* NewVarDecl();
  RecordDecl* NewRecord();
  FuncDecl* NewFunc();
  Symbol* NewSymbol();

  // Index access: id <-> node. Ids are dense, assigned in parse order.
  Expr* ExprAt(ExprId id) { return arena_.exprs.At(id.v); }
  const Expr* ExprAt(ExprId id) const { return arena_.exprs.At(id.v); }
  Stmt* StmtAt(StmtId id) { return arena_.stmts.At(id.v); }
  const Stmt* StmtAt(StmtId id) const { return arena_.stmts.At(id.v); }
  VarDecl* DeclAt(DeclId id) { return arena_.decls.At(id.v); }
  const VarDecl* DeclAt(DeclId id) const { return arena_.decls.At(id.v); }
  uint32_t expr_count() const { return arena_.exprs.size(); }
  uint32_t stmt_count() const { return arena_.stmts.size(); }
  uint32_t decl_count() const { return arena_.decls.size(); }

  // String interning. StrHash is the cached content hash fingerprints mix.
  StrRef Intern(std::string_view s) { return arena_.interner.Intern(s); }
  uint64_t StrHash(uint32_t str_id) const {
    return arena_.interner.Hash(str_id);
  }

  // Copies a scratch vector into an arena-owned array.
  ExprList MakeExprList(const std::vector<Expr*>& v);
  StmtList MakeStmtList(const std::vector<Stmt*>& v);

  // Marks every Expr allocated since `begin` as an annotation/const-eval
  // node (excluded from reference collection; see Expr::no_refs).
  void MarkExprsNoRefs(uint32_t begin);

  const AstArena& arena() const { return arena_; }

  // Canonical primitive types.
  const Type* IntType();
  const Type* CharType();
  const Type* VoidType();
  // A fresh pointer type (annotations make pointers non-internable).
  Type* PtrTo(const Type* pointee);

  std::vector<RecordDecl*> records;
  std::vector<FuncDecl*> funcs;
  std::vector<VarDecl*> globals;
  // Enum constants and typedefs, for lookup in sema and the cast parser.
  // Keyed by interned views (stable for the Program's lifetime), so lookups
  // from Expr::str_val need no temporary std::string.
  std::unordered_map<std::string_view, int64_t> enum_consts;
  std::unordered_map<std::string_view, const Type*> typedefs;

  FuncDecl* FindFunc(std::string_view name) const;
  RecordDecl* FindRecord(std::string_view name) const;

 private:
  template <typename T>
  T* Alloc(std::vector<std::unique_ptr<T>>* pool) {
    pool->push_back(std::make_unique<T>());
    return pool->back().get();
  }

  AstArena arena_;
  std::vector<std::unique_ptr<Type>> type_pool_;
  std::vector<std::unique_ptr<RecordDecl>> record_pool_;
  std::vector<std::unique_ptr<FuncDecl>> func_pool_;
  std::vector<std::unique_ptr<Symbol>> sym_pool_;
  const Type* int_type_ = nullptr;
  const Type* char_type_ = nullptr;
  const Type* void_type_ = nullptr;
};

}  // namespace ivy

#endif  // SRC_MC_AST_H_
