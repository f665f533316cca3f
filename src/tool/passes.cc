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
#include <map>
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
#include "src/tool/function_sharder.h"
#include "src/tool/registry.h"
#include "src/vm/heap.h"
#include "src/vm/vm.h"

namespace ivy {
namespace {

// The "shards" option (injected pipeline-wide by PipelineBuilder::
// ShardFunctions, overridable per tool): 1 = serial reference kernels,
// 0 = hardware concurrency, n = that many shards. Findings are byte-
// identical for every value; only wall-clock changes.
int ShardsFromOptions(const ToolOptions& options) {
  int64_t shards = options.GetInt("shards", 1);
  return shards < 0 ? 1 : static_cast<int>(shards);
}

// The worker pool for a sharded kernel: the shared one a pipeline run or
// session attached to the context (TaskGroup keeps concurrent passes
// isolated on it), else a pass-local pool as before.
struct PoolRef {
  WorkQueue* pool = nullptr;
  std::unique_ptr<WorkQueue> owned;
};
PoolRef PoolFor(AnalysisContext& ctx, const FunctionSharder& sharder) {
  PoolRef r;
  r.pool = ctx.pool();
  if (r.pool == nullptr) {
    r.owned = std::make_unique<WorkQueue>(sharder.worker_count());
    r.pool = r.owned.get();
  }
  return r;
}

// --------------------------------------------------------------------------
// deputy: type-safety checks + static discharge (§2.1). The work happened at
// lowering time; this pass surfaces the check statistics and the deputy
// diagnostics through the unified schema.
// --------------------------------------------------------------------------
class DeputyPass : public ToolPass {
 public:
  std::string name() const override { return "deputy"; }

  ToolResult Run(AnalysisContext& ctx) override {
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
      r.AddFinding(std::move(f));
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

  ToolResult Run(AnalysisContext& ctx) override {
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
        r.AddFinding(std::move(f));
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

  ToolResult Run(AnalysisContext& ctx) override {
    const CallGraph& cg = ctx.callgraph();
    BlockStop bs(&ctx.prog(), &ctx.sema(), &cg);
    int shards = ShardsFromOptions(options());
    BlockStopReport report;
    if (shards == 1) {
      report = bs.Run();
    } else {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      PoolRef pool = PoolFor(ctx, sharder);
      report = bs.Run(sharder, *pool.pool);
      shards = sharder.shard_count();
    }
    ToolResult r(name());
    r.SetMetric("shards", shards);
    for (Finding& f : report.ToFindings()) {
      r.AddFinding(std::move(f));
    }
    r.SetMetric("defined_funcs", report.num_defined_funcs);
    r.SetMetric("callgraph_edges", report.callgraph_edges);
    r.SetMetric("indirect_sites", report.indirect_sites);
    r.SetMetric("indirect_target_total", report.indirect_target_total);
    r.SetMetric("mayblock_funcs", static_cast<int64_t>(report.mayblock.size()));
    r.SetMetric("violations", static_cast<int64_t>(report.violations.size()));
    r.SetMetric("silenced", static_cast<int64_t>(report.silenced.size()));
    r.SetMetric("runtime_checks", report.runtime_checks);
    // Strategy-dependent observability (rounds and evals differ between the
    // serial rescan loop and the sharded worklist/BFS); findings never
    // depend on either.
    r.SetMetric("context_rounds", report.context_rounds);
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

  ToolResult Run(AnalysisContext& ctx) override {
    const CallGraph& cg = ctx.callgraph();
    LockSafe ls(&ctx.prog(), &ctx.sema(), &cg);
    int shards = ShardsFromOptions(options());
    LockSafeReport report;
    if (shards == 1) {
      report = ls.Run();
    } else {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      PoolRef pool = PoolFor(ctx, sharder);
      report = ls.Run(sharder, *pool.pool);
      shards = sharder.shard_count();
    }
    ToolResult r(name());
    r.SetMetric("shards", shards);
    for (Finding& f : report.ToFindings("static")) {
      r.AddFinding(std::move(f));
    }
    r.SetMetric("locks_seen", report.locks_seen);
    r.SetMetric("order_edges", static_cast<int64_t>(report.edges.size()));
    r.SetMetric("deadlock_cycles", static_cast<int64_t>(report.deadlock_cycles.size()));
    r.SetMetric("irq_unsafe_locks", static_cast<int64_t>(report.irq_unsafe_locks.size()));
    std::string summary = report.ToString();
    if (const Machine* vm = ctx.vm()) {
      LockSafeReport rt = LockSafe::ValidateRuntime(*vm, ctx.module());
      for (Finding& f : rt.ToFindings("runtime")) {
        r.AddFinding(std::move(f));
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
// functions, since any of them may be a kernel entry).
// --------------------------------------------------------------------------
class StackCheckPass : public ToolPass {
 public:
  std::string name() const override { return "stackcheck"; }

  std::vector<AnalysisKind> Requires() const override {
    return {AnalysisKind::kCallGraph};
  }

  ToolResult Run(AnalysisContext& ctx) override {
    const CallGraph& cg = ctx.callgraph();
    int64_t budget = options().GetInt("budget", 8192);
    std::vector<std::string> entries;
    if (options().Has("entries")) {
      std::stringstream ss(options().GetString("entries"));
      std::string entry;
      while (std::getline(ss, entry, ',')) {
        // Trim whitespace: "a, b" must mean {"a","b"} — a spaced name that
        // silently matches nothing would under-analyze without a trace.
        size_t first = entry.find_first_not_of(" \t");
        size_t last = entry.find_last_not_of(" \t");
        if (first != std::string::npos) {
          entries.push_back(entry.substr(first, last - first + 1));
        }
      }
    }
    StackCheck sc(&cg, &ctx.module(), budget);
    int shards = ShardsFromOptions(options());
    StackCheckReport report;
    if (shards == 1) {
      report = sc.Run(entries);
    } else {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      PoolRef pool = PoolFor(ctx, sharder);
      report = sc.Run(entries, sharder, *pool.pool);
      shards = sharder.shard_count();
    }
    ToolResult r(name());
    r.SetMetric("shards", shards);
    for (Finding& f : report.ToFindings()) {
      r.AddFinding(std::move(f));
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

  ToolResult Run(AnalysisContext& ctx) override {
    const CallGraph& cg = ctx.callgraph();
    ErrCheck ec(&ctx.prog(), &ctx.sema(), &cg);
    int shards = ShardsFromOptions(options());
    ErrCheckReport report;
    if (shards == 1) {
      report = ec.Run();
    } else {
      FunctionSharder sharder(cg.DefinedFuncs(), shards);
      PoolRef pool = PoolFor(ctx, sharder);
      report = ec.Run(sharder, *pool.pool);
      shards = sharder.shard_count();
    }
    ToolResult r(name());
    r.SetMetric("shards", shards);
    for (Finding& f : report.ToFindings()) {
      r.AddFinding(std::move(f));
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
// compiled once to ivybc bytecode, executed by one BcVm per function — as a
// scheduled pass on the shared WorkQueue, and turns what the runs observe
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
  std::stringstream ss(joined);
  std::string item;
  while (std::getline(ss, item, ',')) {
    size_t first = item.find_first_not_of(" \t");
    if (first == std::string::npos) {
      continue;
    }
    size_t last = item.find_last_not_of(" \t");
    item = item.substr(first, last - first + 1);
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

  ToolResult Run(AnalysisContext& ctx) override {
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
      r.AddFinding(std::move(f));
      r.set_summary("Workload: bytecode compilation failed");
      return r;
    }
    VmConfig vcfg;
    vcfg.ccount = comp.config.ccount;
    vcfg.smp = comp.config.smp;
    vcfg.track_locals = comp.config.track_locals;
    vcfg.rc_width_bits = comp.config.rc_width_bits;
    vcfg.max_steps = options().GetInt("max_steps", vcfg.max_steps);

    // One run per spec, each in its own VM over the shared bytecode module.
    // Slots are index-addressed and merged in spec order after the barrier,
    // so parallel and serial runs report byte-identical findings.
    struct Slot {
      bool missing = false;
      bool boot_failed = false;
      VmResult boot;
      VmResult result;
      HeapStats heap;
      std::map<std::pair<int, int>, BadFreeSite> bad_frees;
      int64_t might_sleep_checks = 0;
    };
    std::vector<Slot> slots(specs.size());
    auto run_one = [&](size_t i) {
      Slot& slot = slots[i];
      const WorkloadSpec& spec = specs[i];
      if (bc->FindFunc(spec.fn) < 0) {
        slot.missing = true;
        return;
      }
      BcVm vm(bc, &comp.layouts, vcfg);
      if (boot != nullptr) {
        slot.boot = vm.Call(boot->fn, boot->args);
        if (!slot.boot.ok) {
          slot.boot_failed = true;
          return;
        }
      }
      slot.result = vm.Call(spec.fn, spec.args);
      slot.heap = vm.heap().stats();
      slot.bad_frees = vm.heap().bad_free_sites();
      slot.might_sleep_checks = vm.might_sleep_checks();
    };
    WorkQueue* pool = ctx.pool();
    std::unique_ptr<WorkQueue> owned;
    if (pool == nullptr) {
      owned = std::make_unique<WorkQueue>(0);
      pool = owned.get();
    }
    {
      TaskGroup group(*pool);
      for (size_t i = 0; i < specs.size(); ++i) {
        group.Submit([&run_one, i] { run_one(i); });
      }
      group.Wait();
    }

    int64_t ran = 0;
    int64_t traps = 0;
    int64_t bad_free_sites = 0;
    int64_t cycles = 0;
    int64_t steps = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const Slot& slot = slots[i];
      const std::string& fn = specs[i].fn;
      if (slot.missing) {
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kWarning;
        f.message = "workload function '" + fn + "' is not defined; skipped";
        f.witness = {fn};
        r.AddFinding(std::move(f));
        continue;
      }
      if (slot.boot_failed) {
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kError;
        f.loc = slot.boot.trap_loc;
        f.message = DescribeTrap("workload boot '" + boot->fn + "'", slot.boot);
        f.witness = {fn};
        r.AddFinding(std::move(f));
        ++traps;
        continue;
      }
      ++ran;
      cycles += slot.result.cycles;
      steps += slot.result.steps;
      if (!slot.result.ok) {
        ++traps;
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kError;
        f.loc = slot.result.trap_loc;
        f.message = DescribeTrap("workload '" + fn + "'", slot.result);
        f.witness = {fn};
        r.AddFinding(std::move(f));
      }
      for (const auto& [key, site] : slot.bad_frees) {
        ++bad_free_sites;
        Finding f;
        f.tool = name();
        f.severity = FindingSeverity::kWarning;
        f.loc = site.loc;
        f.message = "bad free (" + std::to_string(site.count) + "x, " +
                    std::to_string(site.inbound_refs) +
                    " residual references) — object leaked, kernel kept running";
        f.witness = {fn};
        r.AddFinding(std::move(f));
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
