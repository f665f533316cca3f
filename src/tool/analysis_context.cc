#include "src/tool/analysis_context.h"

#include "src/support/trace.h"

namespace ivy {

AnalysisContext::AnalysisContext(Compilation* comp, bool field_sensitive)
    : comp_(comp), field_sensitive_(field_sensitive) {}

AnalysisContext::~AnalysisContext() = default;

const PointsTo& AnalysisContext::pointsto() {
  std::call_once(pt_once_, [this] {
    trace::Span span("an.pointsto");
    pt_ = std::make_unique<PointsTo>(&comp_->prog, comp_->sema.get(), field_sensitive_);
    pt_->Solve();
    pt_builds_.fetch_add(1);
  });
  return *pt_;
}

const CallGraph& AnalysisContext::callgraph() {
  std::call_once(cg_once_, [this] {
    const PointsTo& pt = pointsto();
    trace::Span span("an.callgraph");
    cg_ = std::make_unique<CallGraph>(CallGraph::Build(comp_->prog, *comp_->sema, pt));
    cg_builds_.fetch_add(1);
  });
  return *cg_;
}

}  // namespace ivy
