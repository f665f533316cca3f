// The unified tool pipeline (the driver redesign): a fluent PipelineBuilder
// configures which passes run and with what options, Pipeline::Compile runs
// the frontend (lex/parse/sema/lower — what the old free Compile() did), and
// Pipeline::RunTools schedules every configured pass over one shared
// AnalysisContext. Passes that declared their analyses via Requires() run in
// parallel (std::async) — results are still merged in request order, so
// parallel and serial runs produce byte-identical finding lists.
//
// Corpus scale lives one layer up: PipelineBuilder::ForEachModule(...) +
// BuildSession() produce an AnalysisSession (src/tool/session.h) that
// compiles N named modules as one program and analyzes it once with this
// pipeline. CompileAndRun is the one-program path: Compile, MakeContext,
// RunTools.
//
// The old entry points survive as shims: Compile()/CompileOne() in
// src/driver/compiler.h delegate here, and the flat ToolConfig maps onto a
// builder via PipelineBuilder::FromToolConfig.
#ifndef SRC_TOOL_PIPELINE_H_
#define SRC_TOOL_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/driver/compiler.h"
#include "src/tool/analysis_context.h"
#include "src/tool/finding.h"
#include "src/tool/tool_pass.h"

namespace ivy {

class AnalysisSession;

// One named corpus member: what AnalysisSession compiles and analyzes as a
// unit. Names are the provenance key (Finding::module) and must be unique
// within a session.
struct ModuleSources {
  std::string name;
  std::vector<SourceFile> files;
};

// A corpus compile spells module m's private copy of `name` as name + kPrivateMark + m.
inline constexpr std::string_view kPrivateMark = "$$";
// `text` with every private spelling turned back into the name the module
// wrote — what the module's own compile would have printed.
std::string PublicNames(std::string text);

// Merged output of one RunTools call. `results` holds one entry per
// configured pass in request order; `findings` is the concatenation of every
// pass's findings in that same order (the deterministic merge).
struct PipelineResult {
  std::vector<ToolResult> results;
  std::vector<Finding> findings;
  bool parallel = false;
  int pointsto_builds = 0;   // snapshot of the context counters after the run
  int callgraph_builds = 0;

  const ToolResult* ResultFor(const std::string& tool) const;
  int ErrorCount() const;

  Json ToJson(const SourceManager* sm = nullptr) const;
  std::string ToString(const SourceManager* sm = nullptr) const;
};

// A compiled program together with the pipeline artifacts that analyzed it.
struct PipelineRun {
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<AnalysisContext> ctx;  // declared after comp: destroyed first
  PipelineResult result;
};

class Pipeline {
 public:
  // Frontend only: source -> Compilation (never null; check ->ok).
  //
  // With `file_module`, the files are a corpus of modules compiled as one
  // program (AnalysisSession::RunLinked): (*file_module)[id] is the module
  // index of the compilation's file `id` (-1 for the prelude). The corpus
  // links the way separately compiled modules do:
  //  - a struct, union or enum definition an earlier module already made,
  //    token for token (the shared-header idiom), is that same type;
  //  - a global that several modules declare with one type, at most one of
  //    them initialized ("int x;" beside "extern int x;"), is one object;
  //  - any other name a later module defines again — a function, a global
  //    of another type, a record tag or an enum constant defined
  //    differently — becomes private to that module (see PublicNames): the
  //    module's own code keeps binding to its definition, and every other
  //    module links to the first definer's.
  std::unique_ptr<Compilation> Compile(const std::vector<SourceFile>& files,
                                       const std::vector<int>* file_module = nullptr) const;

  // Context at this pipeline's configured points-to precision. Prefer this
  // over constructing AnalysisContext directly so FieldSensitive() cannot
  // silently diverge from the context the tools actually run against.
  std::unique_ptr<AnalysisContext> MakeContext(Compilation* comp) const;

  // Runs every configured pass over `ctx`. Unknown tool names become
  // severity-error findings attributed to tool "pipeline".
  PipelineResult RunTools(AnalysisContext& ctx) const;

  // Compile + analyze in one step. If compilation fails, `result` is empty
  // and `ctx` is null.
  PipelineRun CompileAndRun(const std::vector<SourceFile>& files) const;

  // The schedule RunTools would execute: required analyses first (in
  // dependency order, each exactly once), then the passes in request order.
  // Entries look like "analysis:callgraph" and "pass:blockstop".
  std::vector<std::string> Plan() const;

  const ToolConfig& config() const { return config_; }
  const std::vector<std::string>& tools() const { return tools_; }
  const std::map<std::string, ToolOptions>& tool_options() const { return options_; }
  bool parallel() const { return parallel_; }
  bool field_sensitive() const { return field_sensitive_; }
  // Always 1: every pass has one kernel. Kept only because
  // ivybench/driver.cc still reads it; delete it at the next change to the
  // benchmark.
  int shard_functions() const { return 1; }

 private:
  friend class PipelineBuilder;

  ToolConfig config_;                 // frontend + VM knobs (legacy bag)
  std::vector<std::string> tools_;    // pass names, request order
  std::map<std::string, ToolOptions> options_;
  bool parallel_ = true;
  bool field_sensitive_ = true;
};

class PipelineBuilder {
 public:
  // Enables a pass by registry name (deduplicated; first request wins the
  // position, later options replace earlier ones).
  PipelineBuilder& Tool(const std::string& name);
  PipelineBuilder& Tool(const std::string& name, ToolOptions opts);
  // Every registered pass, in sorted-name order.
  PipelineBuilder& AllTools();

  // Schedules VM workload functions as the dynamic "workload" pass: each
  // spec is "fn" or "fn:arg:arg..." and runs in its own bytecode VM (over
  // one shared compiled image) on the pass's own worker pool; `boot` is an
  // optional spec executed first in every workload VM (e.g.
  // "boot_kernel:5"). Traps, might-sleep violations, and CCount bad frees
  // observed by the runs become findings — stamped with module provenance
  // by sessions, like any static pass's.
  PipelineBuilder& RunWorkload(const std::vector<std::string>& fns,
                               const std::string& boot = std::string());

  PipelineBuilder& Parallel(bool on);
  PipelineBuilder& FieldSensitive(bool on);

  // Frontend / VM knobs (the surviving ToolConfig fields).
  PipelineBuilder& Deputy(bool on);
  PipelineBuilder& Discharge(bool on);
  PipelineBuilder& CCount(bool on);
  PipelineBuilder& Smp(bool on);
  PipelineBuilder& TrackLocals(bool on);
  PipelineBuilder& RcWidthBits(int bits);
  PipelineBuilder& IncludePrelude(bool on);
  // Maps the legacy flat config onto a builder (the Compile() shim).
  static PipelineBuilder FromToolConfig(const ToolConfig& config);

  // Corpus mode: registers named modules for BuildSession(). The session
  // then compiles every module as one program and runs the configured
  // passes over the whole corpus; the session's merged
  // findings are byte-identical regardless of module registration order.
  // Appends to any modules registered earlier; duplicate names
  // replace the earlier sources.
  PipelineBuilder& ForEachModule(std::vector<ModuleSources> modules);

  // Builds a long-lived AnalysisSession over the configured pipeline and
  // the ForEachModule corpus (possibly empty — AddModule later). Defined in
  // src/tool/session.cc.
  AnalysisSession BuildSession() const;

  Pipeline Build() const { return pipeline_; }

 private:
  Pipeline pipeline_;
  std::vector<ModuleSources> modules_;
};

}  // namespace ivy

#endif  // SRC_TOOL_PIPELINE_H_
