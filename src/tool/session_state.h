// AnalysisSession's per-module state — split out of session.cc so the
// persistent-store half of the session (session_store.cc: SaveStore /
// LoadStore) can share it. Private to the session
// implementation; nothing outside src/tool should include this.
#ifndef SRC_TOOL_SESSION_STATE_H_
#define SRC_TOOL_SESSION_STATE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/tool/session.h"

namespace ivy {

struct AnalysisSession::ModuleState {
  std::vector<SourceFile> files;
  bool dirty = true;
  bool ok = false;
  bool analyzed_now = false;  // analyzed during the current RunLinked()
  std::string compile_errors;
  std::unique_ptr<Compilation> comp;  // the module's view (see CompilationFor)
  PipelineResult result;  // findings in result.findings only (see ModuleRunResult)
};

}  // namespace ivy

#endif  // SRC_TOOL_SESSION_STATE_H_
