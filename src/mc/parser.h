// Recursive-descent parser for Mini-C.
//
// The parser builds the AST and raw (unresolved) types, including Deputy
// annotation expressions, which Sema later resolves in the right scope
// (sibling record fields for field annotations, enclosing function scope for
// local/parameter annotations).
#ifndef SRC_MC_PARSER_H_
#define SRC_MC_PARSER_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "src/mc/ast.h"
#include "src/mc/token.h"
#include "src/support/diag.h"

namespace ivy {

class Parser {
 public:
  // Parses tokens into `prog`, appending to any declarations already present
  // (multiple files are parsed into one Program, mirroring CIL's
  // whole-program merge of the kernel).
  Parser(Program* prog, std::vector<Token> tokens, DiagEngine* diags);

  // Borrowing variant: parses a token stream owned elsewhere without
  // copying it. `tokens` must outlive the parser (a caller that lexes once
  // and parses the same stream repeatedly, such as a benchmark, uses this).
  Parser(Program* prog, const std::vector<Token>* tokens, DiagEngine* diags);

  // Self-referential when constructed by value (tokens_ points at
  // owned_tokens_), so copying or moving would dangle.
  Parser(const Parser&) = delete;
  Parser& operator=(const Parser&) = delete;

  // Parses the whole token stream. Errors are reported to the DiagEngine;
  // parsing continues after errors where possible (statement-level sync).
  void ParseTranslationUnit();

 private:
  const Token& Cur() const { return (*tokens_)[pos_]; }
  const Token& Ahead(int n) const;
  bool At(Tok t) const { return Cur().kind == t; }
  // Annotation keywords (count, opt, bound, ...) double as ordinary
  // identifiers in name positions, so kernel code like `rq.count` parses.
  bool AtIdentLike() const;
  void Advance();
  bool Accept(Tok t);
  bool Expect(Tok t, const char* context);
  void SyncToSemi();

  // Types.
  bool AtTypeStart() const;
  const Type* ParseType();
  const Type* ParseBaseType();
  void ParsePtrAnnots(PtrAnnot* annot);

  // Top-level declarations.
  void ParseTopLevel();
  void ParseTypedef();
  void ParseRecord(bool is_union);
  RecordDecl* ParseRecordBody(RecordDecl* rec, RecordDecl* parent_struct);
  void ParseEnum();
  void ParseFuncOrGlobal();
  void ParseFuncRest(const Type* ret, const std::string& name, SourceLoc loc);
  FuncAttrs ParseFuncAttrs();
  const Type* ParseArraySuffix(const Type* base);

  // Statements.
  Stmt* ParseStmt();
  Stmt* ParseBlock(StmtKind kind);
  Stmt* ParseDeclStmt();

  // Expressions.
  Expr* ParseExpr();
  Expr* ParseAssign();
  Expr* ParseCond();
  Expr* ParseBinary(int min_prec);
  Expr* ParseUnary();
  Expr* ParsePostfix(Expr* base);
  Expr* ParsePrimary();
  bool EvalConstInt(Expr* e, int64_t* out) const;

  // Interns `s` into the program arena and stores the view + interner id on
  // the node.
  void SetStr(Expr* e, const std::string& s) {
    StrRef r = prog_->Intern(s);
    e->str_val = r.view;
    e->str_id = r.id;
  }
  void SetName(VarDecl* d, const std::string& s) {
    StrRef r = prog_->Intern(s);
    d->name = r.view;
    d->name_id = r.id;
  }
  // Parses an annotation / const-evaluated expression: everything allocated
  // by `body()` is marked Expr::no_refs (not a name reference for dirty-bit
  // purposes; see src/mc/ast.h).
  template <typename F>
  Expr* ParseNoRefExpr(F&& body) {
    uint32_t mark = prog_->expr_count();
    Expr* e = body();
    prog_->MarkExprsNoRefs(mark);
    return e;
  }

  Program* prog_;
  std::vector<Token> owned_tokens_;           // set by the by-value ctor
  const std::vector<Token>* tokens_ = nullptr;  // always valid; may borrow
  DiagEngine* diags_;
  size_t pos_ = 0;
  int anon_union_count_ = 0;
  // Slab-span marks taken at ParseFuncOrGlobal entry (before the return type,
  // whose annotation expressions belong to the function). ParseFuncRest turns
  // them into the FuncDecl's {expr,stmt,decl}_{begin,end} ranges.
  uint32_t func_expr_mark_ = 0;
  uint32_t func_stmt_mark_ = 0;
  uint32_t func_decl_mark_ = 0;
  // Parameter name seen in the last blocking_if(...) attribute; resolved to a
  // parameter index once the full parameter list is known.
  std::string blocking_if_name_;
};

}  // namespace ivy

#endif  // SRC_MC_PARSER_H_
