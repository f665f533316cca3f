// The builtin tool passes: thin ToolPass adapters over the existing tool
// modules, registered under the names the paper uses. Each pass pulls its
// analyses from the shared AnalysisContext (never rebuilding them), converts
// the tool's report to unified Findings, and keeps the original report
// reachable through ToolResult::DetailAs<> for legacy callers. The workload
// pass at the bottom is the dynamic stage: it runs bytecode VMs instead of
// static analyses, but reports through the same schema.
//
// Adding another tool is this file's pattern in ~30 lines: subclass
// ToolPass, convert your report, add one ToolPassRegistrar. See
// docs/ARCHITECTURE.md.
#include <cstdlib>
#include <memory>
#include <sstream>

#include "src/bc/bcvm.h"
#include "src/bc/compile.h"
#include "src/blockstop/blockstop.h"
#include "src/ccount/layouts.h"
#include "src/deputy/facts.h"
#include "src/errcheck/errcheck.h"
#include "src/locksafe/locksafe.h"
#include "src/stackcheck/stackcheck.h"
#include "src/tool/analysis_context.h"
#include "src/tool/registry.h"
#include "src/vm/heap.h"
#include "src/vm/vm.h"

namespace ivy {
namespace {

// The comma-separated items of `list`, trimmed; blank items are dropped.
// Trimming matters: "a, b" must mean {"a", "b"}, since a spaced name that
// silently matched nothing would under-analyze without a trace.
std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  for (std::string item; std::getline(ss, item, ',');) {
    if (const size_t first = item.find_first_not_of(" \t"); first != std::string::npos) {
      out.push_back(item.substr(first, item.find_last_not_of(" \t") - first + 1));
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// deputy: type-safety checks + static discharge (§2.1). The work happened at
// lowering time; this pass surfaces the check statistics and the deputy
// diagnostics through the unified schema.
// --------------------------------------------------------------------------
class DeputyPass : public ToolPass {
 public:
  std::string name() const override { return "deputy"; }

  ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) override {
    ToolResult r(name());
    const CheckStats& cs = ctx.comp().check_stats;
    r.SetMetric("nonnull_emitted", cs.nonnull_emitted);
    r.SetMetric("nonnull_discharged", cs.nonnull_discharged);
    r.SetMetric("bounds_emitted", cs.bounds_emitted);
    r.SetMetric("bounds_discharged", cs.bounds_discharged);
    r.SetMetric("when_emitted", cs.when_emitted);
    r.SetMetric("nt_emitted", cs.nt_emitted);
    r.SetMetric("callsite_emitted", cs.callsite_emitted);
    r.SetMetric("callsite_discharged", cs.callsite_discharged);
    r.SetMetric("trusted_skipped", cs.trusted_skipped);
    r.SetMetric("total_emitted", cs.TotalEmitted());
    r.SetMetric("total_discharged", cs.TotalDischarged());
    for (const Diagnostic& d : ctx.comp().diags->diagnostics()) {
      if (d.tool != "deputy") {
        continue;
      }
      Finding f;
      f.tool = name();
      f.severity = d.severity == Severity::kError ? FindingSeverity::kError
                   : d.severity == Severity::kNote ? FindingSeverity::kNote
                                                   : FindingSeverity::kWarning;
      f.loc = d.loc;
      f.message = d.message;
      findings->push_back(std::move(f));
    }
    r.set_summary("Deputy: " + std::to_string(cs.TotalEmitted()) + " run-time checks, " +
                  std::to_string(cs.TotalDischarged()) + " discharged statically");
    r.SetDetail(cs);
    return r;
  }
};

// --------------------------------------------------------------------------
// ccount: the free audit (§2.2). The static half is the derived type-layout
// registry; the dynamic half (bad frees observed by the VM) reports when a
// finished run is attached to the context.
// --------------------------------------------------------------------------
class CCountPass : public ToolPass {
 public:
  std::string name() const override { return "ccount"; }

  ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) override {
    ToolResult r(name());
    const TypeLayoutRegistry& layouts = ctx.comp().layouts;
    r.SetMetric("layouts", layouts.count());
    r.SetMetric("pointer_bearing_layouts", layouts.PointerBearingCount());
    std::string summary = "CCount: " + std::to_string(layouts.PointerBearingCount()) +
                          " pointer-bearing layouts of " + std::to_string(layouts.count());
    if (const Machine* vm = ctx.vm()) {
      const HeapStats& hs = vm->heap().stats();
      r.SetMetric("allocs", hs.allocs);
      r.SetMetric("frees_attempted", hs.frees_attempted);
      r.SetMetric("frees_good", hs.frees_good);
      r.SetMetric("frees_bad", hs.frees_bad);
      r.SetMetric("frees_deferred", hs.frees_deferred);
      r.SetMetric("rc_increments", hs.rc_increments);
      r.SetMetric("rc_decrements", hs.rc_decrements);
      for (const auto& [key, site] : vm->heap().bad_free_sites()) {
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kWarning;
        f.loc = site.loc;
        f.message = "bad free (" + std::to_string(site.count) + "x, " +
                    std::to_string(site.inbound_refs) +
                    " residual references) — object leaked, kernel kept running";
        findings->push_back(std::move(f));
      }
      summary += "; " + std::to_string(hs.frees_good) + "/" +
                 std::to_string(hs.frees_attempted) + " frees verified good";
      r.SetDetail(hs);
    }
    r.set_summary(summary);
    return r;
  }
};

// --------------------------------------------------------------------------
// blockstop (§2.3).
// --------------------------------------------------------------------------
class BlockStopPass : public ToolPass {
 public:
  std::string name() const override { return "blockstop"; }

  std::vector<AnalysisKind> Requires() const override {
    return {AnalysisKind::kPointsTo, AnalysisKind::kCallGraph};
  }

  ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) override {
    const CallGraph& cg = ctx.callgraph();
    BlockStopReport report = BlockStop(&ctx.prog(), &ctx.sema(), &cg).Run();
    ToolResult r(name());
    for (Finding& f : report.ToFindings()) {
      findings->push_back(std::move(f));
    }
    r.SetMetric("defined_funcs", report.num_defined_funcs);
    r.SetMetric("callgraph_edges", report.callgraph_edges);
    r.SetMetric("indirect_sites", report.indirect_sites);
    r.SetMetric("indirect_target_total", report.indirect_target_total);
    r.SetMetric("mayblock_funcs", report.MayBlockCount());
    r.SetMetric("violations", static_cast<int64_t>(report.violations.size()));
    r.SetMetric("silenced", static_cast<int64_t>(report.silenced.size()));
    r.SetMetric("runtime_checks", report.runtime_checks);
    // Observability only: findings never depend on it.
    r.SetMetric("mayblock_evals", report.mayblock_evals);
    r.set_summary(report.ToString());
    r.SetDetail(std::move(report));
    return r;
  }
};

// --------------------------------------------------------------------------
// locksafe (§3.1): static lock-order walk, plus the runtime validator when a
// finished VM run is attached.
// --------------------------------------------------------------------------
class LockSafePass : public ToolPass {
 public:
  std::string name() const override { return "locksafe"; }

  std::vector<AnalysisKind> Requires() const override {
    return {AnalysisKind::kCallGraph};
  }

  ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) override {
    const CallGraph& cg = ctx.callgraph();
    LockSafeReport report = LockSafe(&ctx.prog(), &ctx.sema(), &cg).Run();
    ToolResult r(name());
    for (Finding& f : report.ToFindings("static")) {
      findings->push_back(std::move(f));
    }
    r.SetMetric("locks_seen", report.locks_seen);
    r.SetMetric("order_edges", static_cast<int64_t>(report.edges.size()));
    r.SetMetric("deadlock_cycles", static_cast<int64_t>(report.deadlock_cycles.size()));
    r.SetMetric("irq_unsafe_locks", static_cast<int64_t>(report.irq_unsafe_locks.size()));
    std::string summary = report.ToString();
    if (const Machine* vm = ctx.vm()) {
      LockSafeReport rt = LockSafe::ValidateRuntime(*vm, ctx.module());
      for (Finding& f : rt.ToFindings("runtime")) {
        findings->push_back(std::move(f));
      }
      r.SetMetric("runtime_deadlock_cycles",
                  static_cast<int64_t>(rt.deadlock_cycles.size()));
      r.SetMetric("runtime_irq_unsafe_locks",
                  static_cast<int64_t>(rt.irq_unsafe_locks.size()));
      summary += "  (runtime validation)\n" + rt.ToString();
    }
    r.set_summary(summary);
    r.SetDetail(std::move(report));
    return r;
  }
};

// --------------------------------------------------------------------------
// stackcheck (§3.1). Options: "budget" (bytes, default 8192 — the paper's
// 8 kB), "entries" (comma-separated entry points; default all defined
// functions, since any of them may be a kernel entry). An entry that names
// no defined function is skipped with a warning.
// --------------------------------------------------------------------------
class StackCheckPass : public ToolPass {
 public:
  std::string name() const override { return "stackcheck"; }

  std::vector<AnalysisKind> Requires() const override {
    return {AnalysisKind::kCallGraph};
  }

  ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) override {
    const CallGraph& cg = ctx.callgraph();
    int64_t budget = options().GetInt("budget", 8192);
    const std::vector<std::string> entries = SplitList(options().GetString("entries"));
    StackCheckReport report = StackCheck(&cg, &ctx.module(), budget).Run(entries);
    ToolResult r(name());
    for (Finding& f : report.ToFindings()) {
      findings->push_back(std::move(f));
    }
    r.SetMetric("worst_case", report.worst_case);
    r.SetMetric("budget", report.budget);
    r.SetMetric("entries", static_cast<int64_t>(report.entry_depths.size()));
    r.SetMetric("recursive_funcs", static_cast<int64_t>(report.recursive.size()));
    r.SetMetric("fits_budget", report.fits_budget ? 1 : 0);
    r.set_summary(report.ToString());
    r.SetDetail(std::move(report));
    return r;
  }
};

// --------------------------------------------------------------------------
// errcheck (§3.1).
// --------------------------------------------------------------------------
class ErrCheckPass : public ToolPass {
 public:
  std::string name() const override { return "errcheck"; }

  std::vector<AnalysisKind> Requires() const override {
    return {AnalysisKind::kCallGraph};
  }

  ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) override {
    const CallGraph& cg = ctx.callgraph();
    ErrCheckReport report = ErrCheck(&ctx.prog(), &ctx.sema(), &cg).Run();
    ToolResult r(name());
    for (Finding& f : report.ToFindings()) {
      findings->push_back(std::move(f));
    }
    r.SetMetric("err_returning_funcs", report.err_returning_funcs);
    r.SetMetric("annotated_funcs", report.annotated_funcs);
    r.SetMetric("inferred_funcs", report.inferred_funcs);
    r.SetMetric("checked_sites", report.checked_sites);
    r.SetMetric("unchecked_sites", static_cast<int64_t>(report.findings.size()));
    r.set_summary(report.ToString());
    r.SetDetail(std::move(report));
    return r;
  }
};

// --------------------------------------------------------------------------
// workload: the dynamic stage of the pipeline. Runs VM workload functions —
// compiled once to ivybc bytecode, executed by one BcVm per function, in
// spec order — as a pipeline pass, and turns what the runs observe
// (traps, might-sleep-in-atomic, CCount bad frees) into findings that merge
// and persist like any static pass's. Options:
//   "fns"       comma-separated workload specs, each "fn" or "fn:arg:arg..."
//   "boot"      one spec run first in every workload VM (e.g. "boot_kernel:5")
//   "max_steps" per-VM watchdog override
// With no "fns" the pass is a no-op, so it is safe under AllTools().
// --------------------------------------------------------------------------
struct WorkloadSpec {
  std::string fn;
  std::vector<int64_t> args;
};

std::vector<WorkloadSpec> ParseWorkloadSpecs(const std::string& joined) {
  std::vector<WorkloadSpec> out;
  for (const std::string& item : SplitList(joined)) {
    WorkloadSpec spec;
    std::stringstream parts(item);
    std::string tok;
    while (std::getline(parts, tok, ':')) {
      if (spec.fn.empty()) {
        spec.fn = tok;
      } else {
        spec.args.push_back(std::strtoll(tok.c_str(), nullptr, 10));
      }
    }
    if (!spec.fn.empty()) {
      out.push_back(std::move(spec));
    }
  }
  return out;
}

std::string DescribeTrap(const std::string& what, const VmResult& r) {
  return what + " trapped: " + TrapKindName(r.trap) + ": " + r.trap_msg;
}

class WorkloadPass : public ToolPass {
 public:
  std::string name() const override { return "workload"; }

  ToolResult Run(AnalysisContext& ctx, std::vector<Finding>* findings) override {
    ToolResult r(name());
    std::vector<WorkloadSpec> specs = ParseWorkloadSpecs(options().GetString("fns"));
    if (specs.empty()) {
      r.set_summary("Workload: no workload functions configured");
      return r;
    }
    std::vector<WorkloadSpec> boots = ParseWorkloadSpecs(options().GetString("boot"));
    const WorkloadSpec* boot = boots.empty() ? nullptr : &boots.front();

    Compilation& comp = ctx.comp();
    std::string err;
    std::shared_ptr<const BcModule> bc = CompileToBc(comp.module, &err);
    if (bc == nullptr) {
      Finding f;
      f.tool = name();
      f.severity = FindingSeverity::kError;
      f.message = "bytecode compilation failed: " + err;
      findings->push_back(std::move(f));
      r.set_summary("Workload: bytecode compilation failed");
      return r;
    }
    VmConfig vcfg;
    vcfg.ccount = comp.config.ccount;
    vcfg.smp = comp.config.smp;
    vcfg.track_locals = comp.config.track_locals;
    vcfg.rc_width_bits = comp.config.rc_width_bits;
    vcfg.max_steps = options().GetInt("max_steps", vcfg.max_steps);

    // One run per spec, in spec order, each in its own VM over the shared
    // bytecode module.
    int64_t ran = 0;
    int64_t traps = 0;
    int64_t bad_free_sites = 0;
    int64_t cycles = 0;
    int64_t steps = 0;
    for (const WorkloadSpec& spec : specs) {
      const std::string& fn = spec.fn;
      if (bc->FindFunc(fn) < 0) {
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kWarning;
        f.message = "workload function '" + fn + "' is not defined; skipped";
        f.witness = {fn};
        findings->push_back(std::move(f));
        continue;
      }
      BcVm vm(bc, &comp.layouts, vcfg);
      if (boot != nullptr) {
        const VmResult booted = vm.Call(boot->fn, boot->args);
        if (!booted.ok) {
          Finding f;
          f.tool = name();
          f.severity = FindingSeverity::kError;
          f.loc = booted.trap_loc;
          f.message = DescribeTrap("workload boot '" + boot->fn + "'", booted);
          f.witness = {fn};
          findings->push_back(std::move(f));
          ++traps;
          continue;
        }
      }
      const VmResult result = vm.Call(fn, spec.args);
      ++ran;
      cycles += result.cycles;
      steps += result.steps;
      if (!result.ok) {
        ++traps;
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kError;
        f.loc = result.trap_loc;
        f.message = DescribeTrap("workload '" + fn + "'", result);
        f.witness = {fn};
        findings->push_back(std::move(f));
      }
      for (const auto& [key, site] : vm.heap().bad_free_sites()) {
        ++bad_free_sites;
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kWarning;
        f.loc = site.loc;
        f.message = "bad free (" + std::to_string(site.count) + "x, " +
                    std::to_string(site.inbound_refs) +
                    " residual references) — object leaked, kernel kept running";
        f.witness = {fn};
        findings->push_back(std::move(f));
      }
    }
    r.SetMetric("functions", static_cast<int64_t>(specs.size()));
    r.SetMetric("ran", ran);
    r.SetMetric("traps", traps);
    r.SetMetric("bad_free_sites", bad_free_sites);
    r.SetMetric("cycles", cycles);
    r.SetMetric("steps", steps);
    r.SetMetric("image_words", static_cast<int64_t>(bc->code.size()));
    r.set_summary("Workload (ivybc): " + std::to_string(specs.size()) + " functions, " +
                  std::to_string(traps) + " traps, " + std::to_string(bad_free_sites) +
                  " bad-free sites");
    return r;
  }
};

template <typename PassT>
ToolRegistry::Factory FactoryFor() {
  return [] { return std::make_unique<PassT>(); };
}

const ToolPassRegistrar kDeputyReg("deputy", FactoryFor<DeputyPass>());
const ToolPassRegistrar kCCountReg("ccount", FactoryFor<CCountPass>());
const ToolPassRegistrar kBlockStopReg("blockstop", FactoryFor<BlockStopPass>());
const ToolPassRegistrar kLockSafeReg("locksafe", FactoryFor<LockSafePass>());
const ToolPassRegistrar kStackCheckReg("stackcheck", FactoryFor<StackCheckPass>());
const ToolPassRegistrar kErrCheckReg("errcheck", FactoryFor<ErrCheckPass>());
const ToolPassRegistrar kWorkloadReg("workload", FactoryFor<WorkloadPass>());

}  // namespace

// See registry.cc: referenced from ToolRegistry::Instance() so that linking
// the registry always links the builtin passes (and their registrars) too.
void EnsureBuiltinPassesLinked() {}

}  // namespace ivy
