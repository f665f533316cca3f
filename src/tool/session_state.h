// AnalysisSession's per-module state — split out of session.cc so the
// persistent-store half of the session (session_store.cc: SaveStore /
// LoadStore) can share it. Private to the session
// implementation; nothing outside src/tool should include this.
#ifndef SRC_TOOL_SESSION_STATE_H_
#define SRC_TOOL_SESSION_STATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/tool/session.h"

namespace ivy {

struct AnalysisSession::ModuleState {
  std::vector<SourceFile> files;
  bool dirty = true;
  bool ok = false;
  bool analyzed_now = false;  // analyzed during the current Run()/RunLinked()
  std::string compile_errors;

  // Name-keyed snapshots from the last successful analysis: the inputs to
  // the next run's dirty bits and warm starts.
  bool have_snapshot = false;
  uint64_t preamble_fp = 0;
  std::map<std::string, uint64_t> func_fps;
  std::map<std::string, uint64_t> sig_fps;
  std::map<std::string, std::set<std::string>> func_refs;
  PointsToSnapshot pt_snapshot;
  std::map<std::string, uint64_t> callee_hashes;
  bool have_mayblock = false;
  std::set<std::string> prev_mayblock;

  ModuleStats stats;

  // Declaration order matters: `ctx` points into `hints` and `comp`, so it
  // must be destroyed first.
  IncrementalHints hints;
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<AnalysisContext> ctx;
  PipelineResult result;
};

}  // namespace ivy

#endif  // SRC_TOOL_SESSION_STATE_H_
