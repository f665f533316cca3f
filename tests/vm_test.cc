// VM runtime model tests: IRQ state, spinlocks, interrupt dispatch, user
// copies, traps, determinism, and the cost model's observability.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "src/driver/compiler.h"
#include "src/kernel/corpus.h"

namespace ivy {
namespace {

VmResult RunSrc(const std::string& src, ToolConfig cfg = ToolConfig{}) {
  auto comp = CompileOne(src, cfg);
  EXPECT_TRUE(comp->ok) << comp->Errors();
  if (!comp->ok) {
    return VmResult{};
  }
  auto vm = MakeVm(*comp);
  return vm->Call("main");
}

TEST(VmRuntime, IrqSaveRestoreNesting) {
  const char* src = R"(
    int main(void) {
      int before = irqs_disabled();
      int f1 = local_irq_save();
      int inside = irqs_disabled();
      int f2 = local_irq_save();   // nested save sees disabled
      local_irq_restore(f2);       // restores to disabled
      int still = irqs_disabled();
      local_irq_restore(f1);       // restores to enabled
      int after = irqs_disabled();
      return before * 1000 + inside * 100 + still * 10 + after;
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 110);
}

TEST(VmRuntime, RecursiveSpinlockDeadlocks) {
  const char* src = R"(
    int lk;
    int main(void) {
      spin_lock(&lk);
      spin_lock(&lk);
      return 0;
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kDeadlock);
}

TEST(VmRuntime, UnlockOfUnheldLockTraps) {
  VmResult r = RunSrc("int lk; int main(void) { spin_unlock(&lk); return 0; }");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kAssertFail);
}

TEST(VmRuntime, TriggerIrqRunsHandlerAtomically) {
  const char* src = R"(
    typedef void h_fn(int x);
    int seen_disabled;
    int arg_seen;
    void handler(int x) {
      arg_seen = x;
      seen_disabled = irqs_disabled();
    }
    int main(void) {
      trigger_irq(handler, 7);
      // After dispatch interrupts are back on.
      return arg_seen * 100 + seen_disabled * 10 + irqs_disabled();
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 710);
}

TEST(VmRuntime, BlockingInsideHandlerTraps) {
  const char* src = R"(
    typedef void h_fn(int x);
    void handler(int x) { schedule(); }
    int main(void) { trigger_irq(handler, 0); return 0; }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kMightSleepAtomic);
}

TEST(VmRuntime, CopyToFromUserRoundTrip) {
  const char* src = R"(
    int main(void) {
      char out[16];
      char in[16];
      for (int i = 0; i < 16; i++) { out[i] = 'A' + i; }
      copy_to_user(4096, out, 16);
      copy_from_user(in, 4096, 16);
      int ok = 1;
      for (int i = 0; i < 16; i++) {
        if (in[i] != 'A' + i) { ok = 0; }
      }
      return ok;
    }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 1);
}

TEST(VmRuntime, PrintkFormats) {
  const char* src = R"(
    int main(void) {
      printk("d=%d x=%x c=%c s=%s pct=%% done\n", -5, 255, 'Q', "str");
      return 0;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm = MakeVm(*comp);
  ASSERT_TRUE(vm->Call("main").ok);
  EXPECT_EQ(vm->log(), "d=-5 x=ff c=Q s=str pct=% done\n");
}

TEST(VmRuntime, PanicCarriesMessage) {
  VmResult r = RunSrc(R"(int main(void) { panic("it broke"); return 0; })");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kPanic);
  EXPECT_NE(r.trap_msg.find("it broke"), std::string::npos);
}

TEST(VmRuntime, StackOverflowOnRunawayRecursion) {
  const char* src = R"(
    int deep(int n) {
      int pad[64];
      pad[0] = n;
      return deep(n + 1) + pad[0];
    }
    int main(void) { return deep(0); }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kStackOverflow);
}

TEST(VmRuntime, WatchdogStopsInfiniteLoop) {
  const char* src = "int main(void) { while (1) { } return 0; }";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  VmConfig vcfg;
  vcfg.max_steps = 100000;
  auto vm = MakeVm(*comp, vcfg);
  VmResult r = vm->Call("main");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kTimeout);
}

TEST(VmRuntime, DeterministicCycles) {
  const char* src = R"(
    int work(void) {
      int s = 0;
      for (int i = 0; i < 100; i++) { s += i * i; }
      return s;
    }
    int main(void) { return work(); }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm1 = MakeVm(*comp);
  auto vm2 = MakeVm(*comp);
  VmResult r1 = vm1->Call("main");
  VmResult r2 = vm2->Call("main");
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_EQ(r1.value, r2.value);
}

TEST(VmRuntime, SmpCostsOnlyAffectRcUpdates) {
  const char* src = R"(
    struct node { int v; };
    struct node* opt g;
    int main(void) {
      for (int i = 0; i < 50; i++) {
        struct node* n = (struct node*)kmalloc(sizeof(struct node), GFP_KERNEL);
        g = n;
        g = null;
        kfree(n);
      }
      return 0;
    }
  )";
  ToolConfig up;
  up.ccount = true;
  ToolConfig smp = up;
  smp.smp = true;
  auto cup = CompileOne(src, up);
  auto csmp = CompileOne(src, smp);
  ASSERT_TRUE(cup->ok);
  auto vup = MakeVm(*cup);
  auto vsmp = MakeVm(*csmp);
  VmResult r1 = vup->Call("main");
  VmResult r2 = vsmp->Call("main");
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_GT(r2.cycles, r1.cycles) << "locked refcount ops must cost more";
  EXPECT_EQ(r1.steps, r2.steps) << "instruction stream is identical";
}

TEST(VmRuntime, WildPointerMemFaultInTrustedCode) {
  const char* src = R"(
    int main(void) {
      trusted {
        int* trusted p = (int*)99999999999;
        return *p;
      }
    }
  )";
  VmResult r = RunSrc(src);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.trap, TrapKind::kMemFault);
}

TEST(VmRuntime, LockOrderEdgesRecorded) {
  const char* src = R"(
    int a;
    int b;
    int main(void) {
      spin_lock(&a);
      spin_lock(&b);
      spin_unlock(&b);
      spin_unlock(&a);
      return 0;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto vm = MakeVm(*comp);
  ASSERT_TRUE(vm->Call("main").ok);
  EXPECT_EQ(vm->lock_order_edges().size(), 1u);
}

TEST(VmRuntime, GlobalInitializersApplied) {
  const char* src = R"(
    int base = 41;
    char* nullterm tag = "xyz";
    int tail(char* nullterm s) {
      int n = 0;
      while (*s) { s = s + 1; n = n + 1; }
      return n;
    }
    int main(void) { return base + tail(tag); }
  )";
  VmResult r = RunSrc(src);
  ASSERT_TRUE(r.ok) << r.trap_msg;
  EXPECT_EQ(r.value, 44);
}

// Resident pages of this process: the second field of /proc/self/statm.
int64_t ResidentPages() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0;
  int64_t resident = -1;
  statm >> size >> resident;
  return resident;
}

// Making a Memory writes none of it: a 256 MiB one (plus its 16 MiB shadow)
// leaves the process's resident set nearly where it was, and every byte
// still reads as zero.
TEST(VmMemory, ConstructionTouchesNoPages) {
  constexpr uint64_t kBytes = 256ull << 20;
  const int64_t before = ResidentPages();
  ASSERT_GT(before, 0);
  Memory mem(kBytes);
  const int64_t grown = (ResidentPages() - before) * sysconf(_SC_PAGESIZE);
  EXPECT_LT(grown, int64_t{64} << 20);
  for (uint64_t addr = 4096; addr + 8 <= kBytes; addr += kBytes / 97) {
    EXPECT_EQ(mem.Read(addr, 8), 0) << addr;
    EXPECT_EQ(mem.Rc(addr), 0) << addr;
  }
  EXPECT_EQ(mem.Read(kBytes - 8, 8), 0);
  EXPECT_EQ(mem.Rc(kBytes - 1), 0);
}

// The high-water marks are machine state like cycles: the tree VM and two
// bytecode VMs booting the same kernel report the same values.
TEST(VmMemory, HighWaterMarksMatchAcrossInterpreters) {
  auto comp = CompileKernel(ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  auto tree = MakeVm(*comp);
  ASSERT_TRUE(tree->Call("boot_kernel", {5}).ok);
  EXPECT_GT(tree->heap_top_bytes(), 0u);
  EXPECT_GT(tree->stack_peak_bytes(), 0u);
  for (int i = 0; i < 2; ++i) {
    auto bc = MakeBcVm(*comp);
    ASSERT_NE(bc, nullptr);
    ASSERT_TRUE(bc->Call("boot_kernel", {5}).ok);
    EXPECT_EQ(bc->heap_top_bytes(), tree->heap_top_bytes()) << "bytecode VM " << i;
    EXPECT_EQ(bc->stack_peak_bytes(), tree->stack_peak_bytes()) << "bytecode VM " << i;
  }
}

}  // namespace
}  // namespace ivy
