// AnalysisSession: the corpus-level pipeline API (the paper's "apply sound
// static analysis at a large scale" made long-lived).
//
// A session owns a corpus of named modules and each module's last results.
// RunLinked() compiles every module into one program and analyzes it once,
// so calls between modules are ordinary calls:
//
//   AnalysisSession session = PipelineBuilder()
//                                 .AllTools()
//                                 .ForEachModule(modules)
//                                 .BuildSession();
//   SessionResult cold = session.RunLinked();    // analyzes the corpus
//   session.ReplaceFunction("net", "udp_sendmsg", edited_definition);
//   SessionResult next = session.RunLinked();    // re-analyzes the corpus
//
// Determinism contract (extends the pipeline's): the merged findings are
// byte-identical regardless of module registration order and whether the
// corpus was re-analyzed or its results reused. Modules merge in sorted-name
// order; within a module the pipeline's request-order merge applies.
//
// Reuse granularity: the corpus. With no module dirty, RunLinked() reuses
// every module's cached result verbatim; any edit re-analyzes the corpus
// cold, exactly as a fresh session would.
#ifndef SRC_TOOL_SESSION_H_
#define SRC_TOOL_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/tool/pipeline.h"

namespace ivy {

// Per-module outcome of one RunLinked(). `result` is the module's share of
// the corpus run, with unstamped findings.
struct ModuleRunResult {
  std::string module;
  bool ok = false;          // compiled successfully
  bool reanalyzed = false;  // analyzed by this run (false: cache reused)
  PipelineResult result;
  std::string compile_errors;
};

struct SessionResult {
  std::vector<ModuleRunResult> modules;  // sorted by module name
  // Every module's findings concatenated in that same order, each stamped
  // with its module name (Finding::module) — the corpus-level merge.
  // Compile failures contribute a severity-error finding from tool
  // "session" so they can never vanish silently.
  std::vector<Finding> findings;
  int modules_analyzed = 0;
  int modules_reused = 0;
  int compile_failures = 0;
  // True when RequestCancel() aborted the run: the result is INCOMPLETE
  // (unanalyzed modules contribute stale or empty findings) and must be
  // discarded. The abandoned modules stay dirty, so the next RunLinked()
  // resumes exactly where the cancel hit.
  bool cancelled = false;

  const ModuleRunResult* ModuleFor(const std::string& name) const;
  int ErrorCount() const;
};

// Outcome counters of the last RunLinked().
struct LinkStats {
  int rounds = 0;              // 1 for every completed link (0 if cancelled)
  int module_analyses = 0;     // modules the link analyzed: all or none
  int summary_rows = 0;        // rows in the link table
  int cross_edges = 0;         // (importer, definer) module pairs
  bool converged = false;      // the link completed (false if cancelled)
  bool cancelled = false;      // RequestCancel() aborted the link
};

class AnalysisSession {
 public:
  explicit AnalysisSession(Pipeline pipeline);
  ~AnalysisSession();

  AnalysisSession(AnalysisSession&&) = default;
  AnalysisSession& operator=(AnalysisSession&&) = default;

  // Registers (or replaces) a module. Names key provenance and must be
  // unique; re-adding an existing name replaces its sources and marks it
  // dirty — unless the new sources are byte-identical to a clean module's,
  // which is a no-op (analysis is deterministic, so the cached state is
  // exactly what re-analysis would produce; this is what lets a daemon
  // re-seed its corpus after LoadStore without discarding the warm start).
  void AddModule(const std::string& name, std::vector<SourceFile> files);
  void AddModule(ModuleSources module);
  bool RemoveModule(const std::string& name);

  // Marks a module for re-analysis: the next RunLinked() re-analyzes the
  // corpus cold.
  void Invalidate(const std::string& name);

  // Textually replaces one top-level function definition inside the
  // module's sources with `new_definition` (a complete definition including
  // signature and body) and invalidates the module. The replaced range runs
  // from the definition's first token (its return type, on whatever line)
  // to the closing brace of its body. Returns false if the module or a
  // definition of `function` was not found.
  bool ReplaceFunction(const std::string& module, const std::string& function,
                       const std::string& new_definition);

  // Wholesale source replacement + Invalidate (for arbitrary edits).
  bool ReplaceModuleSources(const std::string& name, std::vector<SourceFile> files);

  // The link stage: every module's files compiled as one program (prelude,
  // then the modules in name order) and analyzed once, so calls between
  // modules are ordinary calls. Each finding goes to the module of its
  // location's file (with no location: the module defining witness[0]) with
  // the file id a module-local compile would give it; the link table is the
  // export view of the run (see AnnoDb's FuncSummary). A module that fails
  // to compile leaves the corpus and reports "failed to compile"; a function
  // defined in several modules keeps its first definer's body and is
  // reported once.
  //
  // Determinism contract: findings are byte-identical regardless of module
  // registration order, and render canonically equal to the merged-source
  // program's (see tests/session_linked_test.cc and docs/ARCHITECTURE.md).
  //
  // With no module dirty since the last link or a matching LoadStore,
  // RunLinked() analyzes nothing (module_analyses == 0); any edit re-runs
  // the whole corpus.
  SessionResult RunLinked();
  const LinkStats& link_stats() const { return link_stats_; }

  // Persistent warm start (src/store/store.h). SaveStore snapshots every
  // module's sources and findings and the link table; LoadStore restores
  // them into a fresh session, so the next RunLinked() analyzes nothing when
  // no source changed and produces byte-identical findings. LoadStore
  // returns false — and leaves the session as-is, cold — on a
  // missing/corrupt/stale-digest store; the caller just runs cold. Modules
  // whose current sources differ from the stored ones keep the session's
  // sources and stay dirty.
  bool SaveStore(const std::string& path, std::string* err) const;
  bool LoadStore(const std::string& path, std::string* err);

  // Hash of the analysis recipe (pass plan, per-tool options, points-to
  // precision): stores carry it so facts computed under one recipe are never
  // warm-started into another.
  uint64_t CorpusDigest() const;

  // Cooperative cancellation for an in-flight RunLinked() on another thread
  // (the annod server's shutdown-while-relinking path). Checked before the
  // frontend and before the passes — never mid-kernel — so a cancelled run
  // stops at the next boundary, leaves every module dirty, publishes
  // nothing partial, and reports
  // cancelled=true. The flag is sticky until ClearCancel(); a cancelled
  // session is resumable, not poisoned.
  void RequestCancel() { cancel_->store(true, std::memory_order_release); }
  void ClearCancel() { cancel_->store(false, std::memory_order_release); }
  bool cancel_requested() const { return cancel_->load(std::memory_order_acquire); }

  // The link table (empty before the first RunLinked): the summary rows,
  // plus the corpus run's function and record facts stamped by module (a
  // table restored by LoadStore has rows only). It is merged into
  // ExportAnnoDb()'s repository view.
  const AnnoDb& link_table() const { return link_table_; }

  // The §3.2 repository view of the whole corpus: the link table's facts,
  // findings stamped with module provenance (so a consumer can
  // RetractModule + re-merge without touching other modules' records).
  AnnoDb ExportAnnoDb();

  size_t module_count() const { return modules_.size(); }
  const Pipeline& pipeline() const { return pipeline_; }

  // The module's view of its last analysis (null before the first): its
  // own sources and diagnostics, no AST — the corpus program has that.
  // Callers render finding locations and compile errors through ->sm; file
  // ids are the ones a module-local compile would give.
  const Compilation* CompilationFor(const std::string& name) const;

 private:
  struct ModuleState;  // defined in session_state.h

  // RunLinked()'s merge of every module's cached result.
  SessionResult Collect() const;
  // RunLinked()'s analysis: compiles and analyzes the corpus as one program
  // and publishes the per-module results and the link table. False (and
  // nothing published) when cancelled.
  bool AnalyzeCorpus();

  // Corpus-level stack facts over the current table (condensation of the
  // exported call edges; cross-module cyclic SCC members marked recursive),
  // and the names with more than one definer row (link_conflicts_).
  void ComputeLinkStackFacts();

  Pipeline pipeline_;
  // shared_ptr, not a member atomic: the session stays movable, and
  // RequestCancel() from another thread races only with the atomic load,
  // never with the pointer (which changes only under single-threaded moves).
  std::shared_ptr<std::atomic<bool>> cancel_;
  // std::map: sorted iteration is what makes every merge order-independent
  // of registration order. Node stability also keeps ModuleState addresses
  // valid across inserts.
  std::map<std::string, std::unique_ptr<ModuleState>> modules_;
  // The link stage's table and its outcome counters. Per-module findings
  // stay with the modules and are merged on ExportAnnoDb().
  AnnoDb link_table_;
  // True while the table and every clean module's result come from one
  // RunLinked() over the current module set (false after RemoveModule).
  bool linked_ = false;
  LinkStats link_stats_;
  // Function names defined in more than one module; surfaced as session
  // findings by RunLinked.
  std::set<std::string> link_conflicts_;
};

}  // namespace ivy

#endif  // SRC_TOOL_SESSION_H_
