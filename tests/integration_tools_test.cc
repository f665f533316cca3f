// Cross-tool integration: all three soundness tools cooperating on one
// program, exactly the paper's composition story — Deputy's type safety makes
// the points-to analysis sound, CCount protects the heap the other analyses
// assume, and the run-time halves back up the static halves.
#include <gtest/gtest.h>

#include "src/annodb/annodb.h"
#include "src/blockstop/blockstop.h"
#include "src/driver/compiler.h"
#include "src/kernel/corpus.h"
#include "src/tool/analysis_context.h"
#include "tests/mayblock_by_name.h"

namespace ivy {
namespace {

TEST(Integration, AllToolsOnOneDriver) {
  const char* src = R"(
    // A toy driver exercising all three tools at once.
    typedef int ring_op(struct ring* r, int v);

    struct ring {
      int cap;
      int head;
      int lock;
      int* count(cap) opt slots;
      ring_op* opt push;
    };

    struct ring* opt the_ring;

    int ring_push(struct ring* r, int v) {
      spin_lock(&r->lock);
      if (r->head < r->cap) {
        int* count(r->cap) opt s = r->slots;
        if (s) {
          s[r->head] = v;
          r->head = r->head + 1;
        }
      }
      spin_unlock(&r->lock);
      return r->head;
    }

    int ring_create(int cap) {
      struct ring* r = (struct ring*)kmalloc(sizeof(struct ring), GFP_KERNEL);
      if (!r) { return -12; }
      r->cap = cap;
      r->slots = (int*)kmalloc(cap * sizeof(int), GFP_KERNEL);
      r->push = ring_push;
      the_ring = r;
      return 0;
    }

    int ring_destroy(void) {
      struct ring* opt r = the_ring;
      if (!r) { return -22; }
      the_ring = null;
      int* opt s = r->slots;
      r->slots = null;
      r->push = null;
      kfree((void*)s);
      kfree(r);
      return 0;
    }

    int main(void) {
      if (ring_create(16) != 0) { return -1; }
      struct ring* opt r = the_ring;
      if (!r) { return -2; }
      ring_op* opt op = r->push;
      if (op) {
        for (int i = 0; i < 16; i++) { op(r, i * i); }
      }
      int used = r->head;
      if (ring_destroy() != 0) { return -3; }
      return used * 100 + __bad_frees();
    }
  )";
  ToolConfig cfg;
  cfg.ccount = true;
  auto comp = CompileOne(src, cfg);
  ASSERT_TRUE(comp->ok) << comp->Errors();

  // Dynamic: runs clean, all frees verify.
  auto vm = MakeVm(*comp);
  VmResult r = vm->Call("main");
  ASSERT_TRUE(r.ok) << TrapKindName(r.trap) << ": " << r.trap_msg;
  EXPECT_EQ(r.value, 1600);
  EXPECT_EQ(vm->heap().stats().frees_good, 2);

  // Static: the ring_push fn-ptr resolves, and no blocking-in-atomic exists
  // (kmalloc(GFP_KERNEL) happens outside the lock).
  AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
  BlockStop bs(&comp->prog, comp->sema.get(), &ctx.callgraph());
  BlockStopReport report = bs.Run();
  EXPECT_TRUE(report.violations.empty());
  EXPECT_TRUE(MayBlockByName(*comp->sema, report, "ring_create"));  // GFP_KERNEL alloc
  EXPECT_FALSE(MayBlockByName(*comp->sema, report, "ring_push"));   // lock-only path
}

TEST(Integration, BuggyVariantCaughtByAllThree) {
  const char* src = R"(
    struct item { struct item* opt next; int v; };
    struct item* opt inventory;
    int lk;

    // Bug 1 (BlockStop): allocates with GFP_KERNEL under a spinlock.
    int restock(void) {
      spin_lock(&lk);
      struct item* it = (struct item*)kmalloc(sizeof(struct item), GFP_ATOMIC);
      if (it) {
        it->next = inventory;
        inventory = it;
      }
      spin_unlock(&lk);
      return 0;
    }

    // Bug 2 (CCount): frees the head while the list still links it.
    int shrink(void) {
      struct item* opt head = inventory;
      if (!head) { return 0; }
      kfree(head);   // inventory still points at it
      return __bad_frees();
    }

    // Bug 3 (Deputy): off-by-one over a counted buffer.
    int tally(int* count(n) book, int n) {
      int s = 0;
      int i = 0;
      while (i <= n) {   // <= : one past the end
        s += book[i];
        i = i + 1;
      }
      return s;
    }

    int main(void) {
      restock();
      int bad = shrink();
      int book[4];
      return bad + tally(book, 4);
    }
  )";
  ToolConfig cfg;
  cfg.ccount = true;
  auto comp = CompileOne(src, cfg);
  ASSERT_TRUE(comp->ok) << comp->Errors();

  // Deputy's run-time check stops the overrun (after CCount logged the bad
  // free without stopping the kernel — log-and-leak semantics).
  auto vm = MakeVm(*comp);
  VmResult r = vm->Call("main");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kBounds);
  EXPECT_EQ(vm->heap().stats().frees_bad, 1);
}

TEST(Integration, CorpusRunsUnderEveryToolCombination) {
  for (int mode = 0; mode < 8; ++mode) {
    ToolConfig cfg;
    cfg.deputy = (mode & 1) != 0;
    cfg.ccount = (mode & 2) != 0;
    cfg.smp = (mode & 4) != 0;
    auto comp = CompileKernel(cfg);
    ASSERT_TRUE(comp->ok) << "mode " << mode << "\n" << comp->Errors();
    auto vm = MakeVm(*comp);
    VmResult boot = vm->Call("boot_kernel", {3});
    ASSERT_TRUE(boot.ok) << "mode " << mode << ": " << boot.trap_msg;
    VmResult use = vm->Call("light_use", {8});
    ASSERT_TRUE(use.ok) << "mode " << mode << ": " << use.trap_msg;
  }
}

TEST(Integration, AnnoDbRoundTripOnCorpus) {
  auto comp = CompileKernel(ToolConfig{});
  ASSERT_TRUE(comp->ok);
  AnalysisContext ctx(comp.get(), /*field_sensitive=*/false);
  BlockStop bs(&comp->prog, comp->sema.get(), &ctx.callgraph());
  BlockStopReport report = bs.Run();
  AnnoDb db = AnnoDb::Extract(*comp, &report);
  EXPECT_GT(db.funcs().size(), 100u);
  EXPECT_GT(db.records().size(), 15u);
  std::string err;
  AnnoDb back = AnnoDb::FromJson(Json::Parse(db.ToJson().Dump(), &err));
  EXPECT_TRUE(err.empty());
  EXPECT_EQ(back.funcs().size(), db.funcs().size());
  EXPECT_TRUE(back.funcs().at("read_chan").may_block);
  EXPECT_TRUE(back.funcs().at("read_chan").noblock);
}

TEST(Integration, DeterministicAcrossCompilations) {
  // Two independent compilations and runs of the same corpus produce
  // identical cycle counts — the reproducibility claim behind every table.
  ToolConfig cfg;
  cfg.ccount = true;
  auto c1 = CompileKernel(cfg);
  auto c2 = CompileKernel(cfg);
  ASSERT_TRUE(c1->ok && c2->ok);
  auto v1 = MakeVm(*c1);
  auto v2 = MakeVm(*c2);
  VmResult r1 = v1->Call("boot_kernel", {7});
  VmResult r2 = v2->Call("boot_kernel", {7});
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_EQ(v1->heap().stats().frees_good, v2->heap().stats().frees_good);
}

}  // namespace
}  // namespace ivy
