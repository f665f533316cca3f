// F1: the three §3.1 "future analyses" demonstrated on the kernel corpus:
// LockSafe (deadlock order + the spinlock-vs-IRQ invariant), StackCheck
// (Capriccio-style stack bounding over the BlockStop call graph), and
// ErrCheck (error-code checking at call sites).
#include <cstdio>

#include "src/errcheck/errcheck.h"
#include "src/kernel/corpus.h"
#include "src/locksafe/locksafe.h"
#include "src/stackcheck/stackcheck.h"
#include "src/tool/analysis_context.h"

int main() {
  ivy::ToolConfig cfg;
  auto comp = ivy::CompileKernel(cfg);
  if (!comp->ok) {
    std::fprintf(stderr, "compile failed\n%s", comp->Errors().c_str());
    return 1;
  }
  ivy::AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
  const ivy::CallGraph& cg = ctx.callgraph();

  std::printf("F1: the paper's proposed future analyses, running on the corpus\n");
  std::printf("================================================================\n\n");

  ivy::LockSafe locksafe(&cg);
  ivy::LockSafeReport ls = locksafe.Run();
  std::printf("%s\n", ls.ToString().c_str());

  ivy::StackCheck stackcheck(&cg, &comp->module, 8192);
  ivy::StackCheckReport sc = stackcheck.Run(
      {"syscall_entry", "boot_kernel", "timer_tick", "e1000_interrupt", "vfs_read",
       "tcp_sendmsg", "light_use"});
  std::printf("%s\n", sc.ToString().c_str());

  ivy::ErrCheck errcheck(&cg);
  ivy::ErrCheckReport ec = errcheck.Run();
  std::printf("%s", ec.ToString().c_str());

  // Runtime half of LockSafe: validate the orders the VM actually observed.
  auto vm = ivy::MakeVm(*comp);
  if (vm->Call("boot_kernel", {5}).ok && vm->Call("light_use", {32}).ok) {
    ivy::LockSafeReport rt = ivy::LockSafe::ValidateRuntime(*vm, comp->module);
    std::printf("\nLockSafe (runtime validation over a boot + light-use run):\n%s",
                rt.ToString().c_str());
  }
  return 0;
}
