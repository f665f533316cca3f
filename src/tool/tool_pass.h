// The uniform pass interface every tool implements. The seed gave each tool
// a bespoke entry point (`BlockStop::Run()`, `StackCheck::Run(entries)`,
// `LockSafe::ValidateRuntime(vm, module)`, ...); a ToolPass normalizes them
// to name() / Requires() / Run(AnalysisContext&, findings) -> ToolResult so the driver
// can run any set of tools — including ones registered by code the
// driver has never heard of — over one shared analysis cache.
#ifndef SRC_TOOL_TOOL_PASS_H_
#define SRC_TOOL_TOOL_PASS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/tool/finding.h"

namespace ivy {

class AnalysisContext;

// The shared analyses a pass may declare in Requires(). The pipeline
// computes each required analysis exactly once (through the AnalysisContext
// cache) before any pass runs, so passes never race on a cold cache and
// never trigger a rebuild.
enum class AnalysisKind {
  kPointsTo,
  kCallGraph,  // implies kPointsTo
};

// Per-tool option bag (replaces one-flag-per-tool fields in the old flat
// ToolConfig). Stringly-typed on purpose: options survive serialization and
// unknown keys are ignored by passes that don't understand them.
class ToolOptions {
 public:
  ToolOptions() = default;

  ToolOptions& Set(const std::string& key, std::string value) {
    kv_[key] = std::move(value);
    return *this;
  }
  ToolOptions& SetInt(const std::string& key, int64_t value) {
    return Set(key, std::to_string(value));
  }

  bool Has(const std::string& key) const { return kv_.count(key) != 0; }
  std::string GetString(const std::string& key, const std::string& def = "") const;
  int64_t GetInt(const std::string& key, int64_t def = 0) const;

  const std::map<std::string, std::string>& entries() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

class ToolPass {
 public:
  virtual ~ToolPass() = default;

  virtual std::string name() const = 0;

  // Shared analyses this pass consumes; the pipeline computes them first.
  virtual std::vector<AnalysisKind> Requires() const { return {}; }

  // Runs the pass: appends its findings to `findings` and returns the rest
  // of its result. The pipeline keeps every pass's findings in one list,
  // PipelineResult::findings.
  virtual ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) = 0;
  // Runs the pass for its metrics, summary and detail and drops its findings
  // (ivybench/driver.cc times each pass this way).
  ToolResult Run(AnalysisContext& ctx) {
    std::vector<Finding> dropped;
    return Run(ctx, &dropped);
  }

  // Called by the pipeline before Run with the tool's option bag.
  void Configure(ToolOptions opts) { options_ = std::move(opts); }
  const ToolOptions& options() const { return options_; }

 private:
  ToolOptions options_;
};

}  // namespace ivy

#endif  // SRC_TOOL_TOOL_PASS_H_
