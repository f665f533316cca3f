// Diagnostics engine shared by the frontend and all analyses.
//
// The paper's tools (Deputy, CCount, BlockStop) report three flavours of output:
// hard errors (illegal programs), warnings (potential soundness violations that
// will be backed by run-time checks), and notes. We keep all of them so tests
// and benches can assert on exact counts.
#ifndef SRC_SUPPORT_DIAG_H_
#define SRC_SUPPORT_DIAG_H_

#include <string>
#include <vector>

#include "src/support/source.h"

namespace ivy {

enum class Severity {
  kNote,
  kWarning,
  kError,
};

// A single rendered diagnostic.
struct Diagnostic {
  Severity severity = Severity::kError;
  SourceLoc loc;
  std::string message;
  // Which tool produced it ("parse", "sema", "deputy", "ccount", "blockstop",
  // "locksafe", "stackcheck", "errcheck"). Used by reports and tests.
  std::string tool;
};

// Collects diagnostics for one compilation. Cheap to copy pointers to; owned
// by the driver and threaded through every pass.
class DiagEngine {
 public:
  explicit DiagEngine(const SourceManager* sm) : sm_(sm) {}

  void Error(SourceLoc loc, const std::string& msg, const std::string& tool = "sema");
  void Warning(SourceLoc loc, const std::string& msg, const std::string& tool = "sema");
  void Note(SourceLoc loc, const std::string& msg, const std::string& tool = "sema");

  int error_count() const { return errors_; }
  int warning_count() const { return warnings_; }
  bool ok() const { return errors_ == 0; }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  // Number of warnings produced by a given tool.
  int CountFor(const std::string& tool, Severity sev) const;

  // Renders all diagnostics, one per line, for logs and examples.
  std::string Render() const;

  // True if any diagnostic message contains `needle` (test helper).
  bool Contains(const std::string& needle) const;

  void Add(Severity sev, SourceLoc loc, const std::string& msg, const std::string& tool);

 private:

  const SourceManager* sm_;
  std::vector<Diagnostic> diags_;
  int errors_ = 0;
  int warnings_ = 0;
};

}  // namespace ivy

#endif  // SRC_SUPPORT_DIAG_H_
