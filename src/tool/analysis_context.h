// The shared analysis cache behind the pass pipeline (§3.1: "the call graph
// built for BlockStop can be used to prevent stack overflow").
//
// The seed built the points-to results and the call graph once *per tool* —
// four times or more for a full run over the corpus. AnalysisContext owns
// them, computes each exactly once on first request (thread-safe, so the
// parallel scheduler's passes can all demand them), and hands out const
// references. The build counters exist so tests and benches can assert the
// compute-once property instead of trusting it.
#ifndef SRC_TOOL_ANALYSIS_CONTEXT_H_
#define SRC_TOOL_ANALYSIS_CONTEXT_H_

#include <atomic>
#include <memory>
#include <mutex>

#include "src/analysis/callgraph.h"
#include "src/analysis/pointsto.h"
#include "src/driver/compiler.h"

namespace ivy {

class Machine;

class AnalysisContext {
 public:
  // Does not take ownership; `comp` must outlive the context. The precision
  // switch is fixed per context: one context = one points-to variant.
  explicit AnalysisContext(Compilation* comp, bool field_sensitive = true);
  ~AnalysisContext();

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  Compilation& comp() { return *comp_; }
  const Compilation& comp() const { return *comp_; }
  const Program& prog() const { return comp_->prog; }
  const Sema& sema() const { return *comp_->sema; }
  const IrModule& module() const { return comp_->module; }
  const SourceManager& sm() const { return comp_->sm; }
  bool field_sensitive() const { return field_sensitive_; }

  // Memoized: the first caller (from any thread) builds, everyone else
  // reuses. callgraph() implies pointsto().
  const PointsTo& pointsto();
  const CallGraph& callgraph();

  // Optional runtime results for the hybrid tools (LockSafe's dynamic half,
  // CCount's free audit). Any Machine qualifies — the tree Vm and the
  // bytecode BcVm expose identical runtime facts. Not owned; may stay null
  // for static-only runs.
  void AttachVm(const Machine* vm) { vm_ = vm; }
  const Machine* vm() const { return vm_; }

  int pointsto_builds() const { return pt_builds_.load(); }
  int callgraph_builds() const { return cg_builds_.load(); }

 private:
  Compilation* comp_;
  bool field_sensitive_;
  const Machine* vm_ = nullptr;

  std::once_flag pt_once_;
  std::once_flag cg_once_;
  std::unique_ptr<PointsTo> pt_;
  std::unique_ptr<CallGraph> cg_;
  std::atomic<int> pt_builds_{0};
  std::atomic<int> cg_builds_{0};
};

}  // namespace ivy

#endif  // SRC_TOOL_ANALYSIS_CONTEXT_H_
