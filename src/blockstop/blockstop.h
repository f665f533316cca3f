// BlockStop (§2.3): a sound whole-program analysis enforcing that the kernel
// never calls a function that may block while interrupts are disabled (or
// while holding a spinlock, or inside an interrupt handler).
//
// Pipeline:
//   1. MAYBLOCK: seed with `blocking` builtins/annotations (plus
//      `blocking_if(flags)` allocators, blocking iff GFP_WAIT may be set at
//      the call site) and propagate backwards over the call graph, through
//      indirect calls resolved by the points-to analysis.
//   2. Atomic contexts: an intraprocedural IRQ/spinlock state walk per
//      function, run under both possible entry states, plus an
//      interprocedural fixpoint over (function, entry-state) contexts seeded
//      by interrupt handlers and trigger_irq targets.
//   3. Violations: an atomic call site whose callee set intersects MAYBLOCK.
//      Candidates annotated `noblock` (they begin with the paper's
//      assert_nonatomic() run-time check) are filtered out; sites whose
//      report disappears purely due to that filter are the "false positives
//      silenced by run-time checks" of the paper (15 in their kernel).
//
// One kernel runs in production, Run(): may-block propagates along a caller
// worklist (CallGraph::CallersOf), so a function is re-examined only after
// one of its callees turned may-block, and the context fixpoint is a
// breadth-first search that evaluates each (function, entry-state) pair
// exactly once, when its bit first appears. RunReference() keeps the naive
// rescan loops as the test oracle. Both fixpoints are monotone, so the two
// converge to the same sets; witnesses come from the *final* may-block set
// and every violation list is sorted by a total order, so the bytes match.
#ifndef SRC_BLOCKSTOP_BLOCKSTOP_H_
#define SRC_BLOCKSTOP_BLOCKSTOP_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/mc/ast.h"
#include "src/tool/finding.h"

namespace ivy {

struct BlockingViolation {
  SourceLoc loc;
  std::string caller;
  std::string callee;   // the may-block function reached at the site
  std::string witness;  // why the callee may block (chain root)
  bool via_indirect = false;
};

struct BlockStopReport {
  std::vector<BlockingViolation> violations;  // survive noblock filtering
  std::vector<BlockingViolation> silenced;    // removed by run-time checks
  std::set<std::string> mayblock;             // names of may-block functions
  int num_defined_funcs = 0;
  int64_t callgraph_edges = 0;
  int64_t indirect_sites = 0;
  int64_t indirect_target_total = 0;
  int runtime_checks = 0;  // functions carrying assert_nonatomic (noblock)
  // Function evaluations the may-block fixpoint made: the worklist's pops
  // for Run(), every round's rescan for RunReference(). Observability only;
  // findings never depend on it.
  int64_t mayblock_evals = 0;
  // Summary exports (AnalysisSession's link table). `mayblock_witness` is
  // the per-function witness under the final may-block set.
  // `cross_file_entry_bits` are the context bits the functions of one
  // source file pass into a callee declared or defined outside that file,
  // keyed by (caller's file id, callee name): bit 1 = may be entered in
  // process context with irqs on, bit 2 = may be entered atomically. The
  // link stage ORs a module's files into its usage rows. Both are
  // strategy-independent.
  std::map<std::string, std::string> mayblock_witness;
  std::map<std::pair<int32_t, std::string>, uint8_t> cross_file_entry_bits;

  std::string ToString() const;

  // The unified-pipeline view: violations become errors, silenced false
  // positives become notes; the witness chain is caller -> callee -> root.
  std::vector<Finding> ToFindings() const;
};

class BlockStop {
 public:
  BlockStop(const Program* prog, const Sema* sema, const CallGraph* cg);

  // The worklist/BFS kernel.
  BlockStopReport Run();

  // The rescan fixpoint: every round re-evaluates every defined function,
  // then every (function, entry-state) pair, until nothing changes. The
  // oracle Run() is tested against; no production caller.
  BlockStopReport RunReference();

  // True if `fn` may (transitively) block. Valid after Run().
  bool MayBlock(const FuncDecl* fn) const { return mayblock_.count(fn) != 0; }

 private:
  struct IrqState {
    uint8_t irq = 1;  // bit 1 = may-be-enabled, bit 2 = may-be-disabled
    int spin = 0;     // spinlocks held (max over joined paths)
    bool Atomic() const { return (irq & 2) != 0 || spin > 0; }
    void Join(const IrqState& o) {
      irq |= o.irq;
      spin = spin > o.spin ? spin : o.spin;
    }
  };

  // Violation candidates by call site. A site's candidate does not depend
  // on the entry state it was found under, so the first one kept is final.
  struct Violations {
    std::map<const Expr*, BlockingViolation> reported;
    std::map<const Expr*, BlockingViolation> silenced;
  };
  // Evaluates one (function, entry-state) pair: returns the context bits it
  // passes into Mini-C callees and adds the violation candidates at its
  // atomic sites to `found`. Depends only on the function body and the
  // frozen may-block set, so the rescan rounds and the search agree per pair.
  std::vector<std::pair<const FuncDecl*, uint8_t>> EvaluateEntry(const FuncDecl* fn,
                                                                 uint8_t entry_bit,
                                                                 Violations* found) const;

  // True if a call to `callee` with argument exprs `args` may block.
  bool CallMayBlock(const FuncDecl* callee, const ExprList& args,
                    const FuncDecl* caller) const;
  // First blocking cause of `fn` under the current may-block set (site
  // order), or nullptr. The shared predicate behind both propagation loops.
  const FuncDecl* BlockingCauseOf(const FuncDecl* fn) const;
  // The witness string for one may-block function under the *final* set —
  // one definition for both fixpoints, so wording changes cannot split the
  // byte-identical contract.
  std::string WitnessOf(const FuncDecl* fn) const;
  void ComputeMayBlock();           // caller worklist
  void ComputeMayBlockReference();  // rescan rounds
  // Witnesses derived from the *final* may-block set: first cause in site
  // order. Strategy-independent by construction.
  void AssignWitnesses();
  BlockStopReport ReportShell() const;
  void FinishReport(BlockStopReport* report, Violations found) const;
  const CallSite* SiteFor(const Expr* e) const;
  // Position of `fn` in DefinedFuncs(), or -1 for a function without a body.
  int IndexOf(const FuncDecl* fn) const;
  void WalkExpr(const FuncDecl* fn, const Expr* e, IrqState* st, uint8_t entry_irq,
                std::vector<std::pair<const Expr*, IrqState>>* out) const;
  void WalkStmt(const FuncDecl* fn, const Stmt* s, IrqState* st, uint8_t entry_irq,
                std::vector<std::pair<const Expr*, IrqState>>* out) const;
  std::string WitnessFor(const FuncDecl* fn) const;

  const Program* prog_;
  const Sema* sema_;
  const CallGraph* cg_;
  int64_t mayblock_evals_ = 0;
  std::set<const FuncDecl*> mayblock_;
  std::map<const FuncDecl*, std::string> witness_;
  std::map<const Expr*, const CallSite*> site_index_;
  std::vector<int> index_of_id_;  // FuncDecl::func_id -> DefinedFuncs() position
};

}  // namespace ivy

#endif  // SRC_BLOCKSTOP_BLOCKSTOP_H_
