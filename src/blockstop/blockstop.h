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
// State is dense: may-block bits by func_id, bodies compiled once to
// site-index ops, candidates first-wins per site; names and witness strings
// are rendered once, when the report is built.
#ifndef SRC_BLOCKSTOP_BLOCKSTOP_H_
#define SRC_BLOCKSTOP_BLOCKSTOP_H_

#include <cstdint>
#include <map>
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
  int num_defined_funcs = 0;
  int64_t callgraph_edges = 0;
  int64_t indirect_sites = 0;
  int64_t indirect_target_total = 0;
  int runtime_checks = 0;  // functions carrying assert_nonatomic (noblock)
  // Function evaluations the may-block fixpoint made: the worklist's pops
  // for Run(), every round's rescan for RunReference(). Observability only;
  // findings never depend on it.
  int64_t mayblock_evals = 0;
  // Summary exports (AnalysisSession's link table), by id. `witness_by_id`
  // is the one may-block view: by FuncDecl::func_id, the function's witness
  // under the final may-block set, "" if it cannot block.
  // `cross_file_entry_bits` are the context bits the functions of one
  // source file pass into a callee declared or defined outside that file,
  // keyed by (caller's file id, callee func_id): bit 1 = may be entered in
  // process context with irqs on, bit 2 = may be entered atomically. The
  // link stage ORs a module's files into its usage rows. Both are
  // strategy-independent.
  std::vector<std::string> witness_by_id;
  std::map<std::pair<int32_t, int>, uint8_t> cross_file_entry_bits;

  // The number of may-block functions: the non-empty witnesses.
  int64_t MayBlockCount() const;
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
  // What a builtin call does to the state: irq 0 = keep, 1 = on, 2 = off,
  // 3 = back to the entry state; spin is added (floored at 0).
  struct Effect {
    uint8_t irq = 0;
    int8_t spin = 0;
  };
  // The candidate at one atomic site: the first one per site is final.
  struct Candidate {
    uint32_t site;    // CallGraph::AllSites() index
    uint32_t caller;  // DefinedFuncs() position
    const FuncDecl* callee;
    bool via_indirect;
    bool silenced;
  };
  // What the context fixpoint collects across (function, entry-state) pairs.
  struct Found {
    std::vector<uint8_t> at_site;  // AllSites() index -> a candidate is kept
    std::vector<Candidate> candidates;
    std::map<std::pair<int32_t, int>, uint8_t> cross;  // cross_file_entry_bits
  };
  // Runs one (function, entry-state) pair's compiled body: fills `entered_`
  // with the context bits passed into Mini-C callees, and adds its atomic
  // sites' candidates and its cross-file entries to `found`. Depends only on
  // the body and the frozen may-block set, so both fixpoints agree per pair.
  void EvaluateEntry(size_t fn_index, uint8_t entry_bit, Found* found);

  // True if a call to `callee` with argument exprs `args` may block.
  bool CallMayBlock(const FuncDecl* callee, const ExprList& args,
                    const FuncDecl* caller) const;
  // First blocking cause of `fn` under the current may-block set (site
  // order), or nullptr. The shared predicate behind both propagation loops.
  const FuncDecl* BlockingCauseOf(const FuncDecl* fn) const;
  bool IsMayBlock(const FuncDecl* fn) const {
    return fn->func_id >= 0 && mayblock_[static_cast<size_t>(fn->func_id)] != 0;
  }
  // Clears the may-block set back to its `blocking` seeds.
  void Reset();
  void ComputeMayBlock();           // caller worklist
  void ComputeMayBlockReference();  // rescan rounds
  // Counts, and the may-block witnesses, each rendered once.
  BlockStopReport ReportShell() const;
  void FinishReport(BlockStopReport* report, Found found) const;

  const CallGraph* cg_;
  int64_t mayblock_evals_ = 0;
  std::vector<uint8_t> mayblock_;       // by func_id
  std::vector<Effect> effect_;          // AllSites() index -> its builtin's effect
  // Compiled bodies: call sites in walk order plus state-stack ops.
  std::vector<uint32_t> body_ops_;
  std::vector<uint32_t> body_offsets_;  // by DefinedFuncs() position
  // EvaluateEntry's reused buffers.
  std::vector<IrqState> stack_;
  std::vector<std::pair<const FuncDecl*, uint8_t>> entered_;
};

}  // namespace ivy

#endif  // SRC_BLOCKSTOP_BLOCKSTOP_H_
