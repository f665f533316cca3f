// The shared kernel-runtime core under both Ivy interpreters. The
// tree-walking Vm (src/vm/vm.h) and the bytecode BcVm (src/bc/bcvm.h) differ
// only in how they fetch and decode instructions; everything observable —
// memory layout, the CCount heap, cycle accounting, IRQ/spinlock state, trap
// kinds and messages, intrinsic semantics — lives here, implemented exactly
// once. That single implementation is what makes the two interpreters'
// VmResult identity a structural property instead of a test-enforced hope.
//
// Derived interpreters provide three hooks: ExecEntry (run a function to
// completion), ExecIrqHandler (the trigger_irq re-entry into the dispatch
// loop), and the function table size for indirect-call validation.
#ifndef SRC_VM_MACHINE_H_
#define SRC_VM_MACHINE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ccount/layouts.h"
#include "src/ir/ir.h"
#include "src/vm/builtins.h"
#include "src/vm/cost.h"
#include "src/vm/heap.h"
#include "src/vm/memory.h"

namespace ivy {

struct VmConfig {
  bool ccount = false;        // maintain refcounts + verify frees
  bool smp = false;           // refcount updates use locked-op cost
  bool track_locals = false;  // count references from stack slots (footnote 2)
  int rc_width_bits = 8;      // shadow counter width (A3 ablation)
  bool atomic_sleep_check = true;  // might_sleep() traps in atomic context
  uint64_t mem_bytes = 64ull << 20;
  uint64_t stack_bytes = 1ull << 20;
  int64_t stack_limit = 256 << 10;  // kCheckStack budget (bytes)
  int64_t max_steps = 400'000'000;  // deterministic watchdog
  // Opt-in per-opcode execution counts (BcVm only; the tree VM has no
  // opcode stream). Pure observation: profiling on vs off must leave
  // cycles/steps/traps byte-identical — asserted in bcvm_diff_test.
  bool profile = false;
  CostModel cost;
};

struct VmResult {
  bool ok = false;
  int64_t value = 0;
  TrapKind trap = TrapKind::kNone;
  SourceLoc trap_loc;
  std::string trap_msg;
  int64_t cycles = 0;
  int64_t steps = 0;
};

// How each spinlock/mutex has been used; input to LockSafe's IRQ invariant.
struct LockUsage {
  bool in_irq = false;            // acquired inside an interrupt handler
  bool process_irqs_on = false;   // acquired in process context, IRQs enabled
  bool process_irqs_off = false;  // acquired in process context, IRQs disabled
};

// One AST-independent global initializer: what SetupMemory writes before any
// code runs. The tree VM derives these from the AST each construction; the
// bytecode compiler bakes them into the image so a decoded BcModule can run
// without the frontend artifacts.
struct GlobalInit {
  uint64_t addr = 0;
  uint8_t size = 8;        // 1 or 8
  uint8_t is_string = 0;   // value is a string_pool index when set
  int64_t value = 0;
};

// Extracts the AST-derived global initializers from a lowered module — the
// tree VM applies them directly; the bytecode compiler bakes them into the
// image.
std::vector<GlobalInit> GlobalInitsFromModule(const IrModule& m);

class Machine {
 public:
  Machine(const TypeLayoutRegistry* layouts, VmConfig cfg);
  virtual ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Runs `name(args...)` to completion (or trap). The machine keeps all
  // state (memory, heap, cycles) across calls, so a boot function followed
  // by workload functions models one kernel run.
  VmResult Call(const std::string& name, const std::vector<int64_t>& args = {});
  VmResult CallId(int func_id, const std::vector<int64_t>& args = {});

  int64_t cycles() const { return cycles_; }
  int64_t steps() const { return steps_; }
  Heap& heap() { return *heap_; }
  const Heap& heap() const { return *heap_; }
  Memory& memory() { return *mem_; }
  const std::string& log() const { return log_; }
  void ClearLog() { log_.clear(); }
  bool irqs_enabled() const { return irq_enabled_; }
  int64_t context_switches() const { return ctx_switches_; }

  // High-water marks of the two growing regions, in bytes from their base:
  // the heap's bump pointer and the deepest frame push so far.
  uint64_t heap_top_bytes() const { return heap_->top() - mem_->heap_base; }
  uint64_t stack_peak_bytes() const { return stack_peak_ - mem_->stack_base; }

  // LockSafe runtime inputs.
  const std::set<std::pair<uint64_t, uint64_t>>& lock_order_edges() const {
    return lock_order_edges_;
  }
  const std::unordered_map<uint64_t, LockUsage>& lock_usage() const { return lock_usage_; }

  // The count of might-sleep checks that executed (dynamic BlockStop events).
  int64_t might_sleep_checks() const { return might_sleep_checks_; }

 protected:
  struct Trap {
    TrapKind kind;
    SourceLoc loc;
    std::string msg;
  };

  // Runs func_id(args...) and returns its value; throws Trap. Implemented by
  // each interpreter's dispatch strategy.
  virtual int64_t ExecEntry(int func_id, const std::vector<int64_t>& args) = 0;

  // trigger_irq re-entry: run the handler nested inside the current run.
  // DoIntrinsic has already flipped irq_enabled_/in_irq_ around the call.
  virtual int64_t ExecIrqHandler(int func_id, int64_t arg) = 0;

  // Lays out rodata/stack/heap and applies global initializers. `globals`
  // must outlive the machine (PtrOffsetsFor consults it on every typed
  // memory write).
  void SetupMemory(uint64_t globals_end, const std::vector<std::string>& string_pool,
                   const std::vector<GlobalSlot>* globals,
                   const std::vector<GlobalInit>& inits);

  void ChargeRc(int64_t n);
  void ValidAccess(uint64_t addr, uint64_t bytes, SourceLoc loc);
  std::string ReadCString(uint64_t addr, size_t cap = 4096);
  void DoStorePtr(uint64_t addr, int64_t value, SourceLoc loc);
  // The post-validation body of DoStorePtr: the bytecode VM checks validity
  // inline (so the common case never materializes a SourceLoc) and calls
  // this directly.
  void DoStorePtrUnchecked(uint64_t addr, int64_t value);
  const std::vector<int64_t>* PtrOffsetsFor(uint64_t addr, uint64_t n, uint64_t* obj_base);
  void TypedMemWrite(uint64_t dst, uint64_t n);   // pre-write RC maintenance
  void TypedMemReinc(uint64_t dst, uint64_t n);   // post-copy RC maintenance
  void CheckMightSleep(SourceLoc loc, const char* what);
  void AcquireLock(uint64_t lock_addr, bool is_spin, SourceLoc loc);
  void ReleaseLock(uint64_t lock_addr, bool is_spin, SourceLoc loc);

  // One builtin call. `args` is read before any nested execution, so a
  // caller's scratch buffer may be reused by a nested trigger_irq run.
  int64_t DoIntrinsic(Builtin b, SourceLoc loc, int32_t alloc_type_id,
                      const int64_t* args, size_t nargs);

  const TypeLayoutRegistry* layouts_;
  VmConfig cfg_;
  const std::vector<GlobalSlot>* globals_ = nullptr;
  size_t num_funcs_ = 0;
  std::unique_ptr<Memory> mem_;
  std::unique_ptr<Heap> heap_;
  std::vector<uint64_t> string_addrs_;
  std::vector<uint8_t> user_mem_;

  int64_t cycles_ = 0;
  int64_t steps_ = 0;
  std::string log_;
  bool irq_enabled_ = true;
  int in_irq_ = 0;
  int preempt_depth_ = 0;
  uint64_t stack_top_ = 0;
  uint64_t stack_peak_ = 0;  // highest stack_top_ after a frame push
  int64_t ctx_switches_ = 0;
  int64_t might_sleep_checks_ = 0;
  std::vector<uint64_t> held_locks_;  // spinlocks + mutexes, in acquire order
  std::set<uint64_t> held_set_;
  std::set<std::pair<uint64_t, uint64_t>> lock_order_edges_;
  std::unordered_map<uint64_t, LockUsage> lock_usage_;
  std::unordered_map<std::string, int> func_ids_;
  // Scratch buffer of pointer offsets for globals (TypedMemWrite).
  std::vector<int64_t> scratch_offsets_;
};

}  // namespace ivy

#endif  // SRC_VM_MACHINE_H_
