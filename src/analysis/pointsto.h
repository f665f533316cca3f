// Whole-program points-to analysis for function pointers (§2.3).
//
// BlockStop's call graph "must account for calls through function pointers;
// we use a whole-program points-to analysis to determine which functions a
// given pointer could refer to." This is an inclusion-based (Andersen-style),
// field-based analysis: every variable and every record field is an abstract
// cell, function constants flow through assignment/parameter/return edges,
// and indirect call sites are resolved on the fly (newly discovered callees
// add their parameter/return bindings until a fixpoint).
//
// The `field_sensitive` switch is the paper's precision story: the simple
// (field-insensitive) variant merges all fields of a record into one cell,
// which is what produces BlockStop's false positives ("mostly due to the
// overly-conservative points-to analysis of function pointers"); the
// field-sensitive variant is the improvement the paper proposes (A2).
//
// Function names come resolved from sema (Expr::func), and a cell's facts
// are func_ids read back through Sema::funcs(). Constraints are generated
// in func_id order; the solution does not depend on it (id sets are
// std::sets, target lists are sorted by name).
#ifndef SRC_ANALYSIS_POINTSTO_H_
#define SRC_ANALYSIS_POINTSTO_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mc/ast.h"
#include "src/mc/sema.h"

namespace ivy {

class PointsTo {
 public:
  PointsTo(const Program* prog, const Sema* sema, bool field_sensitive);

  // Builds constraints from every function body and solves to fixpoint.
  void Solve();

  // Candidate callees of an indirect call expression (kCall whose callee is
  // not a direct function name), or candidate handlers of a trigger_irq(h,
  // ...) site, keyed by its handler expression `h`. Empty if the site was
  // never seen.
  const std::vector<const FuncDecl*>& TargetsOf(const Expr* call) const;

  // Post-solve reads for the link table's summary rows, materializing no
  // cell: the func_ids of the functions `fn` may return, and of those an
  // expression's value may carry, read the way the solve flows it into a
  // destination cell (a call argument, say). Both append to `out`.
  void ReturnFuncIds(const FuncDecl* fn, std::vector<int>* out) const;
  void FuncIdsOfExpr(const Expr* e, std::vector<int>* out) const;

  int node_count() const { return static_cast<int>(node_funcs_.size()); }
  // Successful fact insertions along edges during the solve fixpoint; the
  // function constants the constraints state directly are not counted.
  int64_t solve_propagations() const { return propagations_; }

 private:
  int NewNode();
  int VarNode(const Symbol* sym);
  int FieldNode(const RecordDecl* rec, int field_index);
  int RetNode(const FuncDecl* fn);
  // Post-solve lookups of the same cells: the node, or -1 if never made.
  int VarNode(const Symbol* sym) const;
  int FieldNode(const RecordDecl* rec, int field_index) const;
  int RetNode(const FuncDecl* fn) const;
  // The one reading of an expression's value, shared by constraint
  // generation (Self = PointsTo: cells are created as read) and the
  // post-solve reads (Self = const PointsTo: cells are only looked up).
  // NodeOf is the cell an lvalue reads; ForEachSource calls on_func for a
  // function the value names and on_node for each cell it flows from.
  template <typename Self>
  static int NodeOf(Self* self, const Expr* e);
  template <typename Self, typename OnFunc, typename OnNode>
  static void ForEachSource(Self* self, const Expr* e, const OnFunc& on_func,
                            const OnNode& on_node);
  int NodeOfExpr(const Expr* e);
  void AddEdge(int src, int dst);
  void AddFunc(int node, const FuncDecl* fn);
  // Flows the value of `rhs` into `dst` (a node id).
  void FlowInto(const Expr* rhs, int dst);
  void GenStmt(const Stmt* s);
  void GenExpr(const Expr* e);
  void GenCall(const Expr* e);

  const Program* prog_;
  const Sema* sema_;
  bool field_sensitive_;
  const FuncDecl* cur_fn_ = nullptr;

  std::unordered_map<const Symbol*, int> var_nodes_;
  std::map<std::pair<const RecordDecl*, int>, int> field_nodes_;
  std::unordered_map<const FuncDecl*, int> ret_nodes_;
  std::vector<std::set<int>> node_funcs_;       // node -> set of func ids
  std::vector<std::vector<int>> edges_;         // node -> successor nodes

  struct IndirectSite {
    const Expr* call = nullptr;         // the kCall expr (or handler expr)
    int callee_node = -1;
    std::vector<const Expr*> args;      // for param binding
    int ret_node = -1;                  // results flow here
    std::set<int> bound;                // func ids already bound
  };
  std::vector<IndirectSite> sites_;
  std::map<const Expr*, int> site_of_expr_;
  std::map<const Expr*, std::vector<const FuncDecl*>> resolved_;
  int64_t propagations_ = 0;
  std::vector<const FuncDecl*> empty_;
};

}  // namespace ivy

#endif  // SRC_ANALYSIS_POINTSTO_H_
