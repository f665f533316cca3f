// Whole-program call graph (§2.3): direct calls, builtin calls, and
// indirect calls resolved by the points-to analysis. "Once we know which
// functions can be called where, we can begin to analyze important
// control-flow properties" — BlockStop, StackCheck and ErrCheck all consume
// this structure. It is stored as dense tables (docs/ARCHITECTURE.md):
// every query is an array index and none allocates.
#ifndef SRC_ANALYSIS_CALLGRAPH_H_
#define SRC_ANALYSIS_CALLGRAPH_H_

#include <cstdint>
#include <vector>

#include "src/analysis/pointsto.h"
#include "src/mc/ast.h"
#include "src/mc/sema.h"

namespace ivy {

// A read-only [begin, end) view into one of CallGraph's flat arrays.
template <typename T>
struct Slice {
  const T* first = nullptr;
  const T* last = nullptr;
  const T* begin() const { return first; }
  const T* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
};

struct CallSite {
  const Expr* expr = nullptr;
  const FuncDecl* direct = nullptr;   // defined Mini-C callee
  const FuncDecl* builtin = nullptr;  // builtin callee (declaration)
  // CallGraph::Targets(): `direct` alone, or the candidates of a fn-ptr
  // call or of trigger_irq's handler argument. Never both.
  uint32_t targets_begin = 0;
  uint32_t targets_end = 0;
  bool is_irq_dispatch = false;  // trigger_irq(handler, ...)
};

class CallGraph {
 public:
  static CallGraph Build(const Program& prog, const Sema& sema, const PointsTo& pt);

  // Defined functions sorted by name: the row order of the tables below.
  const std::vector<const FuncDecl*>& DefinedFuncs() const { return defined_; }
  // Position of `fn` in DefinedFuncs(), or -1 for a function without a body.
  int IndexOf(const FuncDecl* fn) const {
    const size_t id = static_cast<size_t>(fn->func_id);
    return fn->func_id >= 0 && id < index_of_id_.size() ? index_of_id_[id] : -1;
  }
  // One past the largest FuncDecl::func_id, for tables indexed by it.
  size_t id_count() const { return index_of_id_.size(); }

  // Every call site, grouped by caller in DefinedFuncs() order.
  const std::vector<CallSite>& AllSites() const { return sites_; }
  // `fn`'s call sites in walk order.
  Slice<CallSite> SitesOf(const FuncDecl* fn) const {
    return Row(site_offsets_, sites_, IndexOf(fn));
  }
  // All Mini-C functions `site` may enter.
  Slice<const FuncDecl*> Targets(const CallSite& site) const {
    return {targets_.data() + site.targets_begin, targets_.data() + site.targets_end};
  }
  // Unique Mini-C callees of `fn` (through any site), in first-site order.
  Slice<const FuncDecl*> Callees(const FuncDecl* fn) const {
    return Row(callee_offsets_, callees_, IndexOf(fn));
  }
  // Reverse adjacency: every defined function with a site (direct or
  // indirect, irq dispatch included) that may enter `fn`. Deterministic:
  // callers appear in DefinedFuncs() order, each once. Worklist solvers
  // (e.g. BlockStop's may-block propagation) use this to rescan only the
  // callers of functions whose facts changed.
  Slice<const FuncDecl*> CallersOf(const FuncDecl* fn) const {
    return Row(caller_offsets_, callers_,
               static_cast<size_t>(fn->func_id) < id_count() ? fn->func_id : -1);
  }

  int64_t edge_count() const { return edges_; }
  int64_t indirect_site_count() const { return indirect_sites_; }
  // Total candidate count across indirect sites (precision metric, A2).
  int64_t indirect_target_total() const { return indirect_targets_; }

  // Defined functions entered with interrupts disabled (trigger_irq targets
  // and `interrupt_handler`-annotated functions), in DefinedFuncs() order.
  const std::vector<const FuncDecl*>& irq_entries() const { return irq_entries_; }

 private:
  template <typename T>
  static Slice<T> Row(const std::vector<uint32_t>& offsets, const std::vector<T>& flat,
                      int row) {
    return row < 0 ? Slice<T>{}
                   : Slice<T>{flat.data() + offsets[row], flat.data() + offsets[row + 1]};
  }
  void Walk(const Stmt* s, const PointsTo& pt);
  void WalkExpr(const Expr* e, const PointsTo& pt);

  std::vector<const FuncDecl*> defined_;
  std::vector<int> index_of_id_;          // func_id -> DefinedFuncs() position
  std::vector<CallSite> sites_;
  std::vector<uint32_t> site_offsets_;    // by DefinedFuncs() position
  std::vector<const FuncDecl*> targets_;  // CallSite::targets_begin/end
  std::vector<uint32_t> callee_offsets_;  // by DefinedFuncs() position
  std::vector<const FuncDecl*> callees_;
  std::vector<uint32_t> caller_offsets_;  // by func_id
  std::vector<const FuncDecl*> callers_;
  std::vector<uint8_t> is_irq_entry_;     // by func_id
  std::vector<const FuncDecl*> irq_entries_;
  int64_t edges_ = 0;
  int64_t indirect_sites_ = 0;
  int64_t indirect_targets_ = 0;
};

}  // namespace ivy

#endif  // SRC_ANALYSIS_CALLGRAPH_H_
