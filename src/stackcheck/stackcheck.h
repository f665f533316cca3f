// StackCheck (§3.1, second future analysis): "the call graph built for
// BlockStop can be used to prevent stack overflow. Given a sound call graph
// and information about the size of each stack frame, as in the Capriccio
// thread package, we can ensure that every possible chain of function calls
// stays within its allotted 4 or 8 kB of stack space. ... For recursive
// calls, run-time checks will be needed."
//
// Frame sizes come from lowering (IrFunc::frame_size). The call graph is
// condensed into strongly connected components first (iterative Tarjan over
// DefinedFuncs() order — deterministic); the worst-case depth is the longest
// path in the condensation DAG, where an SCC's weight is the sum of its
// members' frames (each cycle's frames counted once — the static bound is
// advisory there anyway, because functions on cycles cannot be bounded
// statically and are reported as needing the run-time check, the VM's
// kCheckStack trap). Per-entry depths are a memoized longest-path search
// over that DAG.
#ifndef SRC_STACKCHECK_STACKCHECK_H_
#define SRC_STACKCHECK_STACKCHECK_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/callgraph.h"
#include "src/ir/ir.h"
#include "src/tool/finding.h"

namespace ivy {

struct StackCheckReport {
  // Worst-case stack bytes per entry point (conservative over all paths).
  std::map<std::string, int64_t> entry_depths;
  // Functions participating in recursion: need run-time checks.
  std::set<std::string> recursive;
  // Requested entry points that name no defined function, in request order.
  // Skipped, and reported so a typo cannot under-analyze without a trace.
  std::vector<std::string> missing_entries;
  int64_t worst_case = 0;
  std::string worst_entry;
  int64_t budget = 8192;  // the paper's 4 or 8 kB
  bool fits_budget = false;

  std::string ToString() const;

  // Unified-pipeline view: each skipped entry is a warning (witness = the
  // name), a budget overrun is an error (witness = the worst entry point),
  // each recursive function a warning (needs the run-time kCheckStack trap,
  // as the paper prescribes).
  std::vector<Finding> ToFindings() const;
};

class StackCheck {
 public:
  StackCheck(const CallGraph* cg, const IrModule* module, int64_t budget = 8192);

  // Analyzes the given entry points (default: every defined function is a
  // potential kernel entry; syscalls and IRQ handlers are reported first).
  // Names in `entries` that are not defined functions are skipped and
  // listed in the report's missing_entries.
  StackCheckReport Run(const std::vector<std::string>& entries);

 private:
  // Builds the SCC condensation (idempotent).
  void Prepare();
  // Longest path from `scc` through the condensation, memoized in `memo`.
  int64_t DepthOfScc(int scc, std::vector<int64_t>* memo) const;
  // The defined functions `entries` names (all of them for an empty list);
  // every other name goes to `missing`.
  std::vector<const FuncDecl*> ResolveRoots(const std::vector<std::string>& entries,
                                            std::vector<std::string>* missing) const;

  const CallGraph* cg_;
  const IrModule* module_;
  int64_t budget_;

  // Condensation, valid after Prepare().
  bool prepared_ = false;
  std::vector<int> scc_of_;                 // DefinedFuncs() position -> scc id
  std::vector<int64_t> scc_weight_;         // sum of member frame sizes
  std::vector<uint8_t> scc_cyclic_;         // size > 1 or self-loop
  std::vector<std::vector<int>> scc_succs_; // deduped, ascending
  std::vector<std::vector<int>> scc_members_;  // function indices, ascending
};

}  // namespace ivy

#endif  // SRC_STACKCHECK_STACKCHECK_H_
