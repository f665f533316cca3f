// The Ivy driver: assembles source files (prelude + kernel modules + test
// snippets) into one whole program, runs the frontend and the enabled tools,
// and produces an executable IrModule plus a configured VM.
//
// This mirrors the paper's workflow: "we replace gcc with deputy in the
// kernel makefiles" (§2.1) — here, one Compile() call is the whole-kernel
// build, and ToolConfig selects which soundness tools are in play.
#ifndef SRC_DRIVER_COMPILER_H_
#define SRC_DRIVER_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ccount/layouts.h"
#include "src/ir/ir.h"
#include "src/ir/lower.h"
#include "src/mc/ast.h"
#include "src/mc/sema.h"
#include "src/support/diag.h"
#include "src/support/source.h"
#include "src/bc/bcvm.h"
#include "src/vm/vm.h"

namespace ivy {

struct SourceFile {
  std::string name;
  std::string text;
};

// Which tools are enabled for a build+run. Deputy choices affect lowering
// (check emission); CCount choices affect the VM run.
//
// This is the legacy flat bag; new code should configure builds through
// PipelineBuilder (src/tool/pipeline.h), which adds per-tool option bags,
// pass selection by registry name, and parallel scheduling. Compile() and
// CompileOne() below delegate there.
struct ToolConfig {
  bool deputy = true;
  bool discharge = true;
  bool ccount = false;
  bool smp = false;
  bool track_locals = false;
  int rc_width_bits = 8;
  bool include_prelude = true;
};

// One compiled program: owns every stage's artifacts.
class Compilation {
 public:
  SourceManager sm;
  std::unique_ptr<DiagEngine> diags;
  Program prog;
  std::unique_ptr<Sema> sema;
  IrModule module;
  TypeLayoutRegistry layouts;
  ToolConfig config;
  CheckStats check_stats;
  bool ok = false;

  // Renders all diagnostics (for examples and error reporting). Null-safe:
  // a default-constructed Compilation has no DiagEngine yet.
  std::string Errors() const { return diags ? diags->Render() : std::string(); }
};

// Compiles `files` (prepending the prelude unless disabled). Never returns
// null; check `->ok`.
std::unique_ptr<Compilation> Compile(const std::vector<SourceFile>& files,
                                     const ToolConfig& config);

// Convenience: compile a single snippet named "input.mc".
std::unique_ptr<Compilation> CompileOne(const std::string& text, const ToolConfig& config);

// Builds a VM for the compilation with cost/feature settings derived from
// the ToolConfig (plus any overrides the caller makes afterwards).
std::unique_ptr<Vm> MakeVm(const Compilation& comp, VmConfig vm_cfg = VmConfig{});

// Same settings derivation, but compiles the module to ivybc bytecode and
// returns the fast interpreter. `bc` may be a module compiled earlier (e.g.
// shared across workload functions); when null, one is compiled here.
// Returns null only if bytecode compilation fails (capacity limits).
std::unique_ptr<BcVm> MakeBcVm(const Compilation& comp, VmConfig vm_cfg = VmConfig{},
                               std::shared_ptr<const BcModule> bc = nullptr,
                               std::string* err = nullptr);

}  // namespace ivy

#endif  // SRC_DRIVER_COMPILER_H_
