// ErrCheck (§3.1, third future analysis): "a simple analysis for ensuring
// that error codes are properly checked at call sites. Programmers can
// annotate each function with the set of codes that the function could
// return, or the programmer could simply indicate to the compiler that
// negative constant return values are error codes. Then a flow-sensitive
// analysis at call sites could verify that each of the error codes are
// accounted for."
//
// Error-returning functions come from two sources, exactly as the paper
// proposes: explicit `errcode(...)` annotations, and inference (a function
// whose body returns a negative constant). A call site passes if its result
// is (a) tested by a later condition mentioning the receiving variable,
// (b) consumed directly by a condition or return, or (c) explicitly cast to
// void. Discarded or never-tested results are findings.
#ifndef SRC_ERRCHECK_ERRCHECK_H_
#define SRC_ERRCHECK_ERRCHECK_H_

#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/mc/ast.h"
#include "src/tool/finding.h"

namespace ivy {

struct ErrCheckFinding {
  SourceLoc loc;
  std::string caller;
  std::string callee;
  std::string kind;  // "discarded" or "never-tested"
};

struct ErrCheckReport {
  std::vector<ErrCheckFinding> findings;
  int err_returning_funcs = 0;   // annotated + inferred
  int annotated_funcs = 0;
  int inferred_funcs = 0;
  int checked_sites = 0;         // call sites that do test the result
  // By FuncDecl::func_id: 1 for a *defined* error-returning function
  // (annotated or inferred). The one classification table: the call-site
  // scan reads it, and the summary rows export it as returns_error.
  std::vector<uint8_t> returns_error;

  std::string ToString() const;

  // Unified-pipeline view: every unchecked error return is a warning with
  // witness caller -> callee.
  std::vector<Finding> ToFindings() const;
};

class ErrCheck {
 public:
  explicit ErrCheck(const CallGraph* cg) : cg_(cg) {}

  // Two phases: classify the error-returning functions into
  // returns_error, then scan every call site (callees as sema resolved
  // them) against it, in DefinedFuncs() order.
  ErrCheckReport Run();

 private:
  bool ReturnsNegativeConstant(const Stmt* s) const;
  // Collects all reads of `sym` in conditions within `s`.
  static bool SymTestedIn(const Stmt* s, const Symbol* sym);
  static bool ExprMentions(const Expr* e, const Symbol* sym);
  void ScanStmt(const FuncDecl* fn, const Stmt* s, const Stmt* func_body,
                ErrCheckReport* report);

  const CallGraph* cg_;
};

}  // namespace ivy

#endif  // SRC_ERRCHECK_ERRCHECK_H_
