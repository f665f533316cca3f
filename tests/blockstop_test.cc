// BlockStop unit tests (§2.3): blocking-set propagation, GFP_WAIT handling,
// IRQ-state tracking, interrupt contexts, and the noblock run-time-check
// silencing semantics. The property tests at the bottom hold the worklist/BFS
// kernel, Run(), to its rescan reference, RunReference(), byte for byte over
// seeded random corpora.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/blockstop/blockstop.h"
#include "src/driver/compiler.h"
#include "src/tool/analysis_context.h"
#include "src/tool/pipeline.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

BlockStopReport Analyze(const std::string& src, bool field_sensitive = false) {
  auto comp = CompileOne(src, ToolConfig{});
  EXPECT_TRUE(comp->ok) << comp->Errors();
  AnalysisContext ctx(comp.get(), field_sensitive);
  BlockStop bs(&comp->prog, comp->sema.get(), &ctx.callgraph());
  return bs.Run();
}

TEST(BlockStop, DirectBlockingCallUnderSpinlock) {
  const char* src = R"(
    int lk;
    void bad(void) {
      spin_lock(&lk);
      msleep(10);
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].callee, "msleep");
}

TEST(BlockStop, BlockingAfterUnlockIsFine) {
  const char* src = R"(
    int lk;
    void good(void) {
      spin_lock(&lk);
      spin_unlock(&lk);
      msleep(10);
    }
  )";
  EXPECT_TRUE(Analyze(src).violations.empty());
}

TEST(BlockStop, IrqDisableRegionTracked) {
  const char* src = R"(
    void bad(void) {
      local_irq_disable();
      schedule();
      local_irq_enable();
    }
    void good(void) {
      local_irq_disable();
      local_irq_enable();
      schedule();
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "bad");
}

TEST(BlockStop, TransitiveBlockingPropagates) {
  const char* src = R"(
    int lk;
    void leaf(void) { wait_event(&lk); }
    void mid(void) { leaf(); }
    void outer(void) {
      spin_lock(&lk);
      mid();
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  // The outer violation plus the cascade through the atomic context
  // propagated into mid and leaf (each call site is reported once).
  ASSERT_GE(r.violations.size(), 1u);
  bool outer_found = false;
  for (const BlockingViolation& v : r.violations) {
    if (v.caller == "outer" && v.callee == "mid") {
      outer_found = true;
    }
  }
  EXPECT_TRUE(outer_found);
  EXPECT_TRUE(r.mayblock.count("mid") == 1);
  EXPECT_TRUE(r.mayblock.count("leaf") == 1);
}

TEST(BlockStop, GfpWaitConstantsDecideKmalloc) {
  const char* src = R"(
    int lk;
    void atomic_alloc_ok(void) {
      spin_lock(&lk);
      void* p = kmalloc(64, GFP_ATOMIC);
      kfree(p);
      spin_unlock(&lk);
    }
    void wait_alloc_bad(void) {
      spin_lock(&lk);
      void* p = kmalloc(64, GFP_KERNEL);
      kfree(p);
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "wait_alloc_bad");
}

TEST(BlockStop, BlockingIfWrapperStaysConditional) {
  // A kmalloc wrapper annotated blocking_if(flags) is decided at ITS call
  // sites, not at the kmalloc call inside it.
  const char* src = R"(
    int lk;
    void* my_alloc(int size, int flags) blocking_if(flags) {
      return kmalloc(size, flags);
    }
    void ok(void) {
      spin_lock(&lk);
      void* p = my_alloc(32, GFP_ATOMIC);
      kfree(p);
      spin_unlock(&lk);
    }
    void bad(void) {
      spin_lock(&lk);
      void* p = my_alloc(32, GFP_KERNEL);
      kfree(p);
      spin_unlock(&lk);
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "bad");
}

TEST(BlockStop, InterruptHandlerContextIsAtomic) {
  const char* src = R"(
    void handler(int x) interrupt_handler {
      might_sleep();
    }
  )";
  BlockStopReport r = Analyze(src);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].caller, "handler");
}

TEST(BlockStop, AtomicContextPropagatesToCallees) {
  const char* src = R"(
    void helper(void) { might_sleep(); }
    void handler(int x) interrupt_handler { helper(); }
  )";
  BlockStopReport r = Analyze(src);
  // Two findings rolled up: handler calls may-block helper; helper itself
  // blocks in an atomic-entered context.
  ASSERT_GE(r.violations.size(), 1u);
  bool found = false;
  for (const BlockingViolation& v : r.violations) {
    if (v.caller == "handler" && v.callee == "helper") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BlockStop, NoblockRuntimeCheckSilencesIndirectFp) {
  const char* src = R"(
    typedef int op_fn(int x);
    struct ops { op_fn* opt sleeper; op_fn* opt fast; };
    struct ops table;
    int lk;
    int sleepy(int x) noblock { assert_nonatomic(); msleep(x); return 0; }
    int quick(int x) { return x; }
    void init(void) { table.sleeper = sleepy; table.fast = quick; }
    void atomic_dispatch(int x) {
      spin_lock(&lk);
      op_fn* opt f = table.fast;   // insensitive ptsto also sees `sleepy`
      if (f) { f(x); }
      spin_unlock(&lk);
    }
  )";
  BlockStopReport insens = Analyze(src, /*field_sensitive=*/false);
  EXPECT_TRUE(insens.violations.empty());
  ASSERT_EQ(insens.silenced.size(), 1u);
  EXPECT_EQ(insens.silenced[0].callee, "sleepy");
  EXPECT_EQ(insens.runtime_checks, 1);

  BlockStopReport sens = Analyze(src, /*field_sensitive=*/true);
  EXPECT_TRUE(sens.violations.empty());
  EXPECT_TRUE(sens.silenced.empty()) << "field sensitivity removes the FP entirely";
}

TEST(BlockStop, SpinLockIrqsaveRestoresEntryState) {
  const char* src = R"(
    int lk;
    void fine(void) {
      int flags = spin_lock_irqsave(&lk);
      spin_unlock_irqrestore(&lk, flags);
      msleep(1);
    }
  )";
  EXPECT_TRUE(Analyze(src).violations.empty());
}

TEST(BlockStop, BranchJoinIsConservative) {
  const char* src = R"(
    int lk;
    void maybe_atomic(int c) {
      if (c) {
        spin_lock(&lk);
      }
      schedule();   // atomic on one path: must be reported
      if (c) {
        spin_unlock(&lk);
      }
    }
  )";
  BlockStopReport r = Analyze(src);
  EXPECT_EQ(r.violations.size(), 1u);
}

TEST(BlockStop, DynamicBackstopTrapsAtRuntime) {
  // The hybrid story: the same bug, executed, hits the VM's might_sleep trap.
  const char* src = R"(
    int lk;
    int main(void) {
      spin_lock(&lk);
      msleep(1);
      spin_unlock(&lk);
      return 0;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm = MakeVm(*comp);
  VmResult r = vm->Call("main");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kMightSleepAtomic);
}

TEST(BlockStop, AssertNonatomicPanicsWhenAssertionWrong) {
  const char* src = R"(
    int lk;
    int checked(void) noblock { assert_nonatomic(); return 0; }
    int main(void) {
      local_irq_disable();
      int r = checked();   // the run-time check the paper inserted fires
      local_irq_enable();
      return r;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm = MakeVm(*comp);
  VmResult r = vm->Call("main");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kPanic);
}

// ---------------------------------------------------------------------------
// Kernel vs reference: findings JSON, may-block sets, witnesses and the
// per-file entry bits the link table exports must all be byte-identical.
// ---------------------------------------------------------------------------

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

// Runs both fixpoints over `comp` and compares everything they report;
// returns the kernel's report so callers can check the property is not
// vacuous.
BlockStopReport ExpectKernelMatchesReference(Compilation* comp, const std::string& what) {
  AnalysisContext ctx(comp);
  const CallGraph& cg = ctx.callgraph();
  BlockStopReport kernel = BlockStop(&comp->prog, comp->sema.get(), &cg).Run();
  BlockStopReport reference = BlockStop(&comp->prog, comp->sema.get(), &cg).RunReference();
  EXPECT_EQ(Dump(kernel.ToFindings()), Dump(reference.ToFindings())) << what;
  EXPECT_EQ(kernel.mayblock, reference.mayblock) << what;
  EXPECT_EQ(kernel.mayblock_witness, reference.mayblock_witness) << what;
  EXPECT_EQ(kernel.cross_file_entry_bits, reference.cross_file_entry_bits) << what;
  EXPECT_EQ(kernel.ToString(), reference.ToString()) << what;
  return kernel;
}

TEST(BlockStopKernel, MatchesReferenceOnSeededCorpora) {
  for (uint64_t seed : {1u, 7u, 42u, 99u, 1234u}) {
    SynthCorpusOptions opt;
    opt.functions = 48 + static_cast<int>(seed % 5) * 16;
    opt.seed = seed;
    opt.hook_tables = static_cast<int>(seed % 3);
    auto comp = CompileOne(GenerateSynthCorpus(opt), ToolConfig{});
    ASSERT_TRUE(comp->ok) << "seed " << seed << ": " << comp->Errors();
    BlockStopReport r = ExpectKernelMatchesReference(comp.get(), "seed " + std::to_string(seed));
    // Not vacuous: the generator plants real violations and at least one
    // silenced note (the noblock hook).
    EXPECT_FALSE(r.violations.empty()) << "seed " << seed;
    EXPECT_FALSE(r.silenced.empty()) << "seed " << seed;
  }
}

TEST(BlockStopKernel, MatchesReferenceOnMixedDirectionBlocks) {
  // The benchmark's worst-case profile: chain direction alternates per
  // block, so the rescan loop needs many rounds while the worklist and the
  // search run once per edge — where the two diverge if they ever will.
  SynthCorpusOptions opt;
  opt.functions = 96;
  opt.seed = 17;
  opt.fanout_span = 4;
  opt.mid_blocking_every = 0;
  opt.descending_blocks = true;
  opt.block = 16;
  auto comp = CompileOne(GenerateSynthCorpus(opt), ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  BlockStopReport r = ExpectKernelMatchesReference(comp.get(), "mixed-direction");
  EXPECT_FALSE(r.violations.empty());
  EXPECT_GT(r.mayblock.size(), 10u);
}

TEST(BlockStopKernel, MatchesReferenceAcrossFiles) {
  // A multi-file corpus, so the per-file entry bits into extern callees are
  // populated and compared too.
  for (uint64_t seed : {3u, 5u}) {
    LinkedCorpusOptions opt;
    opt.modules = 4;
    opt.functions = 28;
    opt.seed = seed;
    Pipeline p = PipelineBuilder().Build();
    auto comp = p.Compile(MergedLinkedSources(GenerateLinkedCorpus(opt)));
    ASSERT_TRUE(comp->ok) << "seed " << seed << ": " << comp->Errors();
    BlockStopReport r =
        ExpectKernelMatchesReference(comp.get(), "linked seed " + std::to_string(seed));
    EXPECT_FALSE(r.cross_file_entry_bits.empty()) << "seed " << seed;
    bool atomic_entry = false;
    for (const auto& [key, bits] : r.cross_file_entry_bits) {
      atomic_entry = atomic_entry || (bits & 2) != 0;
    }
    EXPECT_TRUE(atomic_entry) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ivy
