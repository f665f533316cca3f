// LockSafe (§3.1, first future analysis): "a hybrid checking tool for
// verifying lock safety in Linux. In addition to checking that deadlocks are
// impossible by verifying that the code uses a consistent locking order,
// this analysis will check Linux-specific invariants such as the requirement
// that the same spinlock is not acquired in interrupts and in process
// context with interrupts turned on."
//
// Locks are named structurally ("net_device.stats_lock", "rq.lock") — the
// paper's "light annotations will be used to name the locks" realized from
// the declarations themselves. The static half walks each function tracking
// the held set and builds a lock-order graph; cycles are potential
// deadlocks. The dynamic half validates the same properties against the
// orders and contexts the VM actually observed (Vm::lock_order_edges /
// lock_usage).
#ifndef SRC_LOCKSAFE_LOCKSAFE_H_
#define SRC_LOCKSAFE_LOCKSAFE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/mc/ast.h"
#include "src/tool/finding.h"
#include "src/vm/machine.h"

namespace ivy {

struct LockOrderEdge {
  std::string held;
  std::string acquired;
  SourceLoc loc;
  std::string func;
};

struct LockSafeReport {
  std::vector<LockOrderEdge> edges;
  // Each cycle is a sequence of lock names forming a potential ABBA deadlock.
  std::vector<std::vector<std::string>> deadlock_cycles;
  // Locks acquired both in IRQ context and in process context with IRQs on.
  std::vector<std::string> irq_unsafe_locks;
  int locks_seen = 0;
  // Summary exports (AnalysisSession's link table). `irq_reachable`: the
  // defined functions the irq-context checks treat as reachable from an
  // interrupt entry. `locks_acquired`: per defined function, the sorted lock
  // names its body acquires (the summary schema's lock-delta facts;
  // informational for the repository).
  std::set<std::string> irq_reachable;
  std::map<std::string, std::vector<std::string>> locks_acquired;

  std::string ToString() const;

  // Unified-pipeline view: deadlock cycles are errors (witness = the lock
  // cycle), IRQ-unsafe locks are warnings. `origin` distinguishes the static
  // walk from the runtime validator in merged reports.
  std::vector<Finding> ToFindings(const std::string& origin = "static") const;
};

class LockSafe {
 public:
  LockSafe(const Program* prog, const Sema* sema, const CallGraph* cg);

  // Walks every defined function in DefinedFuncs() order; lock-order edges
  // keep their first-occurrence order.
  LockSafeReport Run();

  // Validates the runtime-observed lock behaviour of a finished VM run
  // against the same two properties. Lock addresses are rendered through the
  // module's global table where possible.
  // Accepts any Machine (tree Vm or bytecode BcVm): the runtime lock facts
  // live on the shared runtime core, so both interpreters feed the same
  // validator.
  static LockSafeReport ValidateRuntime(const Machine& vm, const IrModule& module);

 private:
  struct Ctx {
    std::vector<std::string> held;
    bool in_irq = false;
  };
  // What one walk collects: lock-order edges (deduplicated first-seen),
  // plus per-lock context bits (bit 1 = irq, bit 2 = process irqs-on).
  struct Collector {
    std::vector<LockOrderEdge> edges;
    std::set<std::pair<std::string, std::string>> edge_set;
    std::map<std::string, int> lock_ctx;
    std::map<std::string, std::set<std::string>> locks_by_func;
  };
  void ComputeIrqReachable();
  void WalkFunction(const FuncDecl* fn, Collector* out) const;
  void WalkStmt(const FuncDecl* fn, const Stmt* s, Ctx* ctx, Collector* out) const;
  void WalkExpr(const FuncDecl* fn, const Expr* e, Ctx* ctx, Collector* out) const;
  LockSafeReport BuildReport(const Collector& all) const;
  static std::string LockName(const Expr* arg);
  static void FindCycles(const std::set<std::pair<std::string, std::string>>& graph,
                         std::vector<std::vector<std::string>>* cycles);

  const Program* prog_;
  const Sema* sema_;
  const CallGraph* cg_;
  std::set<const FuncDecl*> irq_reachable_;
};

}  // namespace ivy

#endif  // SRC_LOCKSAFE_LOCKSAFE_H_
