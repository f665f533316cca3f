// Tests for the §3.1 future analyses: LockSafe, StackCheck and ErrCheck.
#include <gtest/gtest.h>

#include "src/analysis/callgraph.h"
#include "src/driver/compiler.h"
#include "src/errcheck/errcheck.h"
#include "src/kernel/corpus.h"
#include "src/locksafe/locksafe.h"
#include "src/stackcheck/stackcheck.h"
#include "src/tool/analysis_context.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

// The shared-cache idiom: one AnalysisContext per compilation, every tool
// pulls the same memoized call graph.
struct Analyzed {
  std::unique_ptr<Compilation> comp;
  std::unique_ptr<AnalysisContext> ctx;
  const CallGraph* cg = nullptr;
};

Analyzed Build(const std::string& src) {
  Analyzed a;
  a.comp = CompileOne(src, ToolConfig{});
  EXPECT_TRUE(a.comp->ok) << a.comp->Errors();
  a.ctx = std::make_unique<AnalysisContext>(a.comp.get(), /*field_sensitive=*/true);
  a.cg = &a.ctx->callgraph();
  return a;
}

TEST(LockSafe, DetectsAbbaInversion) {
  const char* src = R"(
    int la;
    int lb;
    void path1(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); }
    void path2(void) { spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb); }
  )";
  Analyzed a = Build(src);
  LockSafe ls(&a.comp->prog, a.comp->sema.get(), a.cg);
  LockSafeReport r = ls.Run();
  ASSERT_EQ(r.deadlock_cycles.size(), 1u);
  EXPECT_EQ(r.deadlock_cycles[0].size(), 2u);
}

TEST(LockSafe, ConsistentOrderIsClean) {
  const char* src = R"(
    int la;
    int lb;
    void path1(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); }
    void path2(void) { spin_lock(&la); spin_unlock(&la); spin_lock(&lb); spin_unlock(&lb); }
  )";
  Analyzed a = Build(src);
  LockSafe ls(&a.comp->prog, a.comp->sema.get(), a.cg);
  EXPECT_TRUE(ls.Run().deadlock_cycles.empty());
}

TEST(LockSafe, IrqVsProcessInvariant) {
  const char* src = R"(
    typedef void h_fn(int x);
    int stats;
    void handler(int x) interrupt_handler { spin_lock(&stats); spin_unlock(&stats); }
    void reader(void) { spin_lock(&stats); spin_unlock(&stats); }  // irqs on!
  )";
  Analyzed a = Build(src);
  LockSafe ls(&a.comp->prog, a.comp->sema.get(), a.cg);
  LockSafeReport r = ls.Run();
  ASSERT_EQ(r.irq_unsafe_locks.size(), 1u);
  EXPECT_EQ(r.irq_unsafe_locks[0], "stats");
}

TEST(LockSafe, IrqsaveUsageIsSafe) {
  const char* src = R"(
    typedef void h_fn(int x);
    int stats;
    void handler(int x) interrupt_handler { spin_lock(&stats); spin_unlock(&stats); }
    void reader(void) {
      int f = spin_lock_irqsave(&stats);   // disables irqs: safe
      spin_unlock_irqrestore(&stats, f);
    }
  )";
  Analyzed a = Build(src);
  LockSafe ls(&a.comp->prog, a.comp->sema.get(), a.cg);
  EXPECT_TRUE(ls.Run().irq_unsafe_locks.empty());
}

TEST(LockSafe, RuntimeValidatorSeesStructNames) {
  const char* src = R"(
    int la;
    int lb;
    int main(void) {
      spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la);
      spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb);
      return 0;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm = MakeVm(*comp);
  ASSERT_TRUE(vm->Call("main").ok);
  LockSafeReport r = LockSafe::ValidateRuntime(*vm, comp->module);
  EXPECT_EQ(r.deadlock_cycles.size(), 1u);
}

TEST(StackCheck, SumsDeepestChain) {
  const char* src = R"(
    void leaf(void) { int pad[8]; pad[0] = 0; }          // 64-byte frame
    void mid(void) { int pad[16]; pad[0] = 0; leaf(); }  // 128 + 64
    void top(void) { mid(); }
  )";
  Analyzed a = Build(src);
  StackCheck sc(a.cg, &a.comp->module, 8192);
  StackCheckReport r = sc.Run({"top"});
  EXPECT_TRUE(r.fits_budget);
  // leaf=64, mid=128+pad, top has no locals: depth = frames summed.
  EXPECT_GE(r.entry_depths["top"], 64 + 128);
  EXPECT_LE(r.entry_depths["top"], 64 + 144 + 16);
}

TEST(StackCheck, BudgetExceededFlagged) {
  const char* src = R"(
    void huge(void) { int pad[2000]; pad[0] = 0; }
    void top(void) { huge(); }
  )";
  Analyzed a = Build(src);
  StackCheck sc(a.cg, &a.comp->module, 8192);
  StackCheckReport r = sc.Run({"top"});
  EXPECT_FALSE(r.fits_budget);
  EXPECT_GT(r.worst_case, 8192);
}

TEST(StackCheck, RecursionNeedsRuntimeChecks) {
  const char* src = R"(
    int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
    int top(void) { return fact(5); }
  )";
  Analyzed a = Build(src);
  StackCheck sc(a.cg, &a.comp->module, 8192);
  StackCheckReport r = sc.Run({"top"});
  EXPECT_FALSE(r.fits_budget);
  EXPECT_EQ(r.recursive.count("fact"), 1u);
}

TEST(StackCheck, IndirectCallsIncluded) {
  const char* src = R"(
    typedef void op_fn(void);
    op_fn* opt hook;
    void fat(void) { int pad[100]; pad[0] = 0; }
    void install(void) { hook = fat; }
    void top(void) {
      op_fn* opt f = hook;
      if (f) { f(); }
    }
  )";
  Analyzed a = Build(src);
  StackCheck sc(a.cg, &a.comp->module, 8192);
  StackCheckReport r = sc.Run({"top"});
  EXPECT_GE(r.entry_depths["top"], 800);
}

TEST(StackCheck, UndefinedEntryIsReportedNotDropped) {
  // A typo in the entry list must not under-analyze without a trace: the
  // defined entries are analyzed, the bogus one becomes one warning.
  SynthCorpusOptions opt;
  opt.functions = 48;
  opt.seed = 5;
  Analyzed a = Build(GenerateSynthCorpus(opt));
  StackCheck sc(a.cg, &a.comp->module);
  StackCheckReport r = sc.Run({SynthFuncName(0), SynthFuncName(7), "no_such_entry"});
  EXPECT_EQ(r.entry_depths.size(), 2u);
  EXPECT_EQ(r.missing_entries, std::vector<std::string>{"no_such_entry"});
  int skipped = 0;
  for (const Finding& f : r.ToFindings()) {
    if (f.message.find("is not a defined function") == std::string::npos) {
      continue;
    }
    ++skipped;
    EXPECT_EQ(f.severity, FindingSeverity::kWarning);
    EXPECT_EQ(f.message, "stackcheck entry 'no_such_entry' is not a defined function; skipped");
    EXPECT_EQ(f.witness, std::vector<std::string>{"no_such_entry"});
  }
  EXPECT_EQ(skipped, 1);
}

TEST(ErrCheck, DiscardedResultFlagged) {
  const char* src = R"(
    int may_fail(void) errcode(-5) { return -5; }
    void careless(void) { may_fail(); }
  )";
  Analyzed a = Build(src);
  ErrCheck ec(&a.comp->prog, a.comp->sema.get(), a.cg);
  ErrCheckReport r = ec.Run();
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, "discarded");
  EXPECT_EQ(r.findings[0].caller, "careless");
}

TEST(ErrCheck, TestedResultIsClean) {
  const char* src = R"(
    int may_fail(void) errcode(-5) { return -5; }
    int careful(void) {
      int r = may_fail();
      if (r < 0) { return r; }
      return 0;
    }
  )";
  Analyzed a = Build(src);
  ErrCheck ec(&a.comp->prog, a.comp->sema.get(), a.cg);
  ErrCheckReport r = ec.Run();
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.checked_sites, 1);
}

TEST(ErrCheck, NeverTestedAssignmentFlagged) {
  const char* src = R"(
    int may_fail(void) errcode(-5) { return -5; }
    int sloppy(void) {
      int r = may_fail();
      return 0;   // r never consulted
    }
  )";
  Analyzed a = Build(src);
  ErrCheck ec(&a.comp->prog, a.comp->sema.get(), a.cg);
  ErrCheckReport r = ec.Run();
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].kind, "never-tested");
}

TEST(ErrCheck, NegativeConstantReturnsInferred) {
  // The paper's alternative: "negative constant return values are error
  // codes" without any annotation.
  const char* src = R"(
    int lookup(int k) { if (k < 0) { return -2; } return k; }
    void uses(void) { lookup(5); }
  )";
  Analyzed a = Build(src);
  ErrCheck ec(&a.comp->prog, a.comp->sema.get(), a.cg);
  ErrCheckReport r = ec.Run();
  EXPECT_EQ(r.inferred_funcs, 1);
  EXPECT_EQ(r.findings.size(), 1u);
}

TEST(ErrCheck, PropagatedReturnIsHandled) {
  const char* src = R"(
    int may_fail(void) errcode(-5) { return -5; }
    int forwards(void) { return may_fail(); }   // caller will check
  )";
  Analyzed a = Build(src);
  ErrCheck ec(&a.comp->prog, a.comp->sema.get(), a.cg);
  EXPECT_TRUE(ec.Run().findings.empty());
}

TEST(FutureAnalyses, CorpusFindsPlantedIssues) {
  auto comp = CompileKernel(ToolConfig{});
  ASSERT_TRUE(comp->ok);
  AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
  const CallGraph& cg = ctx.callgraph();

  LockSafe ls(&comp->prog, comp->sema.get(), &cg);
  LockSafeReport lr = ls.Run();
  EXPECT_GE(lr.deadlock_cycles.size(), 1u) << "netdev tx/stats inversion";
  EXPECT_GE(lr.irq_unsafe_locks.size(), 1u) << "stats_lock irq invariant";

  StackCheck sc(&cg, &comp->module, 8192);
  StackCheckReport sr = sc.Run({"boot_kernel", "syscall_entry"});
  EXPECT_TRUE(sr.recursive.empty());
  EXPECT_LE(sr.worst_case, 8192);

  ErrCheck ec(&comp->prog, comp->sema.get(), &cg);
  ErrCheckReport er = ec.Run();
  EXPECT_GT(er.err_returning_funcs, 10);
  EXPECT_GT(er.findings.size(), 5u);

  // All three tools shared one call graph build.
  EXPECT_EQ(ctx.callgraph_builds(), 1);
}

}  // namespace
}  // namespace ivy
