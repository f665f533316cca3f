#include "src/vm/machine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace ivy {

namespace {
constexpr int64_t kGfpWait = 1;  // GFP_WAIT bit (prelude's enum value)
}

std::vector<GlobalInit> GlobalInitsFromModule(const IrModule& m) {
  std::vector<GlobalInit> inits;
  for (const GlobalSlot& g : m.globals) {
    const Expr* init = g.decl != nullptr ? g.decl->init : nullptr;
    if (init == nullptr) {
      continue;
    }
    if (init->is_const) {
      GlobalInit gi;
      gi.addr = g.addr;
      gi.size = g.decl->type->IsChar() ? 1 : 8;
      gi.value = init->int_val;
      inits.push_back(gi);
    } else if (init->kind == ExprKind::kStrLit) {
      // Find the string in the pool (lowering interned it when the global
      // was lowered; globals are set up before any code runs, so search).
      for (size_t i = 0; i < m.string_pool.size(); ++i) {
        if (m.string_pool[i] == init->str_val) {
          GlobalInit gi;
          gi.addr = g.addr;
          gi.size = 8;
          gi.is_string = 1;
          gi.value = static_cast<int64_t>(i);
          inits.push_back(gi);
          break;
        }
      }
    }
  }
  return inits;
}

Machine::Machine(const TypeLayoutRegistry* layouts, VmConfig cfg)
    : layouts_(layouts), cfg_(cfg) {}

Machine::~Machine() = default;

void Machine::SetupMemory(uint64_t globals_end, const std::vector<std::string>& string_pool,
                          const std::vector<GlobalSlot>* globals,
                          const std::vector<GlobalInit>& inits) {
  globals_ = globals;
  mem_ = std::make_unique<Memory>(cfg_.mem_bytes);
  // Rodata: string literals after the globals.
  uint64_t addr = (globals_end + 15) / 16 * 16;
  string_addrs_.clear();
  for (const std::string& s : string_pool) {
    string_addrs_.push_back(addr);
    for (size_t i = 0; i < s.size(); ++i) {
      mem_->Write(addr + i, static_cast<unsigned char>(s[i]), 1);
    }
    mem_->Write(addr + s.size(), 0, 1);
    addr = (addr + s.size() + 1 + 7) / 8 * 8;
  }
  mem_->globals_end = addr;
  mem_->stack_base = (addr + 4095) / 4096 * 4096;
  mem_->stack_size = cfg_.stack_bytes;
  mem_->heap_base = mem_->stack_base + mem_->stack_size;
  stack_top_ = mem_->stack_base;
  stack_peak_ = stack_top_;
  heap_ = std::make_unique<Heap>(mem_.get(), layouts_, cfg_.ccount, cfg_.rc_width_bits);
  // Global initializers (constants and string literals).
  for (const GlobalInit& g : inits) {
    if (g.is_string != 0) {
      if (static_cast<size_t>(g.value) < string_addrs_.size()) {
        mem_->Write(g.addr, static_cast<int64_t>(string_addrs_[static_cast<size_t>(g.value)]),
                    8);
      }
    } else {
      mem_->Write(g.addr, g.value, g.size);
    }
  }
}

void Machine::ChargeRc(int64_t n) {
  cycles_ += n * (cfg_.smp ? cfg_.cost.rc_op_atomic : cfg_.cost.rc_op);
}

void Machine::ValidAccess(uint64_t addr, uint64_t bytes, SourceLoc loc) {
  if (!mem_->Valid(addr, bytes)) {
    throw Trap{addr < 4096 ? TrapKind::kNullDeref : TrapKind::kMemFault, loc,
               "access at address " + std::to_string(addr)};
  }
}

std::string Machine::ReadCString(uint64_t addr, size_t cap) {
  std::string out;
  while (out.size() < cap && mem_->Valid(addr, 1)) {
    char c = static_cast<char>(mem_->Read(addr, 1));
    if (c == 0) {
      break;
    }
    out.push_back(c);
    ++addr;
  }
  return out;
}

void Machine::DoStorePtr(uint64_t addr, int64_t value, SourceLoc loc) {
  ValidAccess(addr, 8, loc);
  DoStorePtrUnchecked(addr, value);
}

void Machine::DoStorePtrUnchecked(uint64_t addr, int64_t value) {
  if (heap_->ccount()) {
    bool tracked = cfg_.track_locals || !mem_->InStack(addr);
    if (tracked) {
      int64_t old = mem_->Read(addr, 8);
      heap_->RcWrite(static_cast<uint64_t>(old), static_cast<uint64_t>(value));
      ChargeRc(2);
    }
  }
  mem_->Write(addr, value, 8);
  cycles_ += cfg_.cost.store;
}

const std::vector<int64_t>* Machine::PtrOffsetsFor(uint64_t addr, uint64_t /*n*/,
                                                   uint64_t* obj_base) {
  // Heap object?
  const HeapObject* obj = heap_->Find(addr);
  if (obj != nullptr) {
    *obj_base = obj->base;
    if (obj->type_id >= 0) {
      const TypeLayout* layout = layouts_->Get(obj->type_id);
      if (layout != nullptr && layout->stride > 0) {
        // Expand the per-record offsets across the object into scratch.
        scratch_offsets_.clear();
        for (int64_t rec = 0; rec + layout->stride <= obj->size; rec += layout->stride) {
          for (int64_t off : layout->ptr_offsets) {
            scratch_offsets_.push_back(rec + off);
          }
        }
        return &scratch_offsets_;
      }
    }
    if (obj->type_id == kTypeIdAllPtr) {
      scratch_offsets_.clear();
      for (int64_t off = 0; off + 8 <= obj->size; off += 8) {
        scratch_offsets_.push_back(off);
      }
      return &scratch_offsets_;
    }
    scratch_offsets_.clear();
    return &scratch_offsets_;  // no pointers known
  }
  // Global?
  if (globals_ != nullptr) {
    for (const GlobalSlot& g : *globals_) {
      if (addr >= g.addr && addr < g.addr + static_cast<uint64_t>(g.size)) {
        *obj_base = g.addr;
        return &g.ptr_offsets;
      }
    }
  }
  *obj_base = addr;
  scratch_offsets_.clear();
  return &scratch_offsets_;
}

void Machine::TypedMemWrite(uint64_t dst, uint64_t n) {
  if (!heap_->ccount()) {
    return;
  }
  if (mem_->InStack(dst) && !cfg_.track_locals) {
    return;
  }
  uint64_t base = 0;
  const std::vector<int64_t>* offsets = PtrOffsetsFor(dst, n, &base);
  for (int64_t off : *offsets) {
    uint64_t slot = base + static_cast<uint64_t>(off);
    if (slot >= dst && slot + 8 <= dst + n) {
      int64_t old = mem_->Read(slot, 8);
      if (mem_->Countable(static_cast<uint64_t>(old))) {
        heap_->RcWrite(static_cast<uint64_t>(old), 0);
        ChargeRc(1);
      }
    }
  }
}

void Machine::TypedMemReinc(uint64_t dst, uint64_t n) {
  if (!heap_->ccount()) {
    return;
  }
  if (mem_->InStack(dst) && !cfg_.track_locals) {
    return;
  }
  uint64_t base = 0;
  const std::vector<int64_t>* offsets = PtrOffsetsFor(dst, n, &base);
  for (int64_t off : *offsets) {
    uint64_t slot = base + static_cast<uint64_t>(off);
    if (slot >= dst && slot + 8 <= dst + n) {
      int64_t v = mem_->Read(slot, 8);
      if (mem_->Countable(static_cast<uint64_t>(v))) {
        heap_->RcWrite(0, static_cast<uint64_t>(v));
        ChargeRc(1);
      }
    }
  }
}

void Machine::CheckMightSleep(SourceLoc loc, const char* what) {
  ++might_sleep_checks_;
  if (!cfg_.atomic_sleep_check) {
    return;
  }
  if (!irq_enabled_ || in_irq_ > 0 || preempt_depth_ > 0) {
    throw Trap{TrapKind::kMightSleepAtomic, loc,
               std::string(what) + " called in atomic context (irqs " +
                   (irq_enabled_ ? "on" : "off") + ", in_irq=" + std::to_string(in_irq_) +
                   ", preempt=" + std::to_string(preempt_depth_) + ")"};
  }
}

void Machine::AcquireLock(uint64_t lock_addr, bool is_spin, SourceLoc loc) {
  if (held_set_.count(lock_addr) != 0) {
    throw Trap{TrapKind::kDeadlock, loc,
               "recursive acquisition of lock @" + std::to_string(lock_addr)};
  }
  for (uint64_t held : held_locks_) {
    lock_order_edges_.insert({held, lock_addr});
  }
  held_locks_.push_back(lock_addr);
  held_set_.insert(lock_addr);
  LockUsage& usage = lock_usage_[lock_addr];
  if (in_irq_ > 0) {
    usage.in_irq = true;
  } else if (irq_enabled_) {
    usage.process_irqs_on = true;
  } else {
    usage.process_irqs_off = true;
  }
  ValidAccess(lock_addr, 8, loc);
  mem_->Write(lock_addr, 1, 8);
  if (is_spin) {
    ++preempt_depth_;
  }
  cycles_ += cfg_.cost.lock_op;
}

void Machine::ReleaseLock(uint64_t lock_addr, bool is_spin, SourceLoc loc) {
  auto it = std::find(held_locks_.rbegin(), held_locks_.rend(), lock_addr);
  if (it == held_locks_.rend()) {
    throw Trap{TrapKind::kAssertFail, loc,
               "release of lock @" + std::to_string(lock_addr) + " that is not held"};
  }
  held_locks_.erase(std::next(it).base());
  held_set_.erase(lock_addr);
  ValidAccess(lock_addr, 8, loc);
  mem_->Write(lock_addr, 0, 8);
  if (is_spin) {
    --preempt_depth_;
  }
  cycles_ += cfg_.cost.lock_op;
}

VmResult Machine::Call(const std::string& name, const std::vector<int64_t>& args) {
  auto it = func_ids_.find(name);
  if (it == func_ids_.end()) {
    VmResult r;
    r.trap = TrapKind::kBadIndirectCall;
    r.trap_msg = "no such function: " + name;
    return r;
  }
  return CallId(it->second, args);
}

VmResult Machine::CallId(int func_id, const std::vector<int64_t>& args) {
  VmResult r;
  try {
    r.value = ExecEntry(func_id, args);
    r.ok = true;
  } catch (const Trap& t) {
    r.ok = false;
    r.trap = t.kind;
    r.trap_loc = t.loc;
    r.trap_msg = t.msg;
  }
  r.cycles = cycles_;
  r.steps = steps_;
  return r;
}

int64_t Machine::DoIntrinsic(Builtin b, SourceLoc loc, int32_t alloc_type_id,
                             const int64_t* args, size_t nargs) {
  auto arg = [args, nargs](size_t i) -> int64_t { return i < nargs ? args[i] : 0; };
  switch (b) {
    case Builtin::kKmalloc: {
      int64_t size = arg(0);
      int64_t flags = arg(1);
      if ((flags & kGfpWait) != 0) {
        CheckMightSleep(loc, "kmalloc(GFP_WAIT)");
      }
      uint64_t p = heap_->Alloc(size, alloc_type_id);
      cycles_ += cfg_.cost.kmalloc + size * cfg_.cost.zero_per_byte_q / 4;
      return static_cast<int64_t>(p);
    }
    case Builtin::kKfree: {
      uint64_t p = static_cast<uint64_t>(arg(0));
      if (p == 0) {
        return 0;  // kfree(NULL) is a no-op, as in Linux
      }
      cycles_ += cfg_.cost.kfree;
      if (heap_->ccount()) {
        const HeapObject* obj = heap_->FindBase(p);
        if (obj != nullptr) {
          cycles_ += (obj->size / 32 + 1) * cfg_.cost.free_scan_per_32b;
        }
      }
      heap_->Free(p, loc);
      return 0;
    }
    case Builtin::kMemset: {
      uint64_t p = static_cast<uint64_t>(arg(0));
      int64_t c = arg(1);
      uint64_t n = static_cast<uint64_t>(arg(2));
      if (n == 0) {
        return 0;
      }
      ValidAccess(p, n, loc);
      TypedMemWrite(p, n);
      for (uint64_t i = 0; i < n; ++i) {
        mem_->Write(p + i, c & 0xff, 1);
      }
      cycles_ += static_cast<int64_t>(n) * cfg_.cost.copy_per_byte_q / 4 + 4;
      return 0;
    }
    case Builtin::kMemcpy: {
      uint64_t dst = static_cast<uint64_t>(arg(0));
      uint64_t src = static_cast<uint64_t>(arg(1));
      uint64_t n = static_cast<uint64_t>(arg(2));
      if (n == 0) {
        return 0;
      }
      ValidAccess(dst, n, loc);
      ValidAccess(src, n, loc);
      TypedMemWrite(dst, n);
      std::memmove(mem_->data() + dst, mem_->data() + src, n);
      TypedMemReinc(dst, n);
      cycles_ += static_cast<int64_t>(n) * cfg_.cost.copy_per_byte_q / 4 + 4;
      return 0;
    }
    case Builtin::kPrintk: {
      std::string fmt = ReadCString(static_cast<uint64_t>(arg(0)));
      std::string out;
      size_t argi = 1;
      for (size_t i = 0; i < fmt.size(); ++i) {
        if (fmt[i] != '%' || i + 1 >= fmt.size()) {
          out.push_back(fmt[i]);
          continue;
        }
        char spec = fmt[++i];
        char buf[32];
        switch (spec) {
          case 'd':
            std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(arg(argi++)));
            out += buf;
            break;
          case 'x':
            std::snprintf(buf, sizeof buf, "%llx",
                          static_cast<unsigned long long>(arg(argi++)));
            out += buf;
            break;
          case 'c':
            out.push_back(static_cast<char>(arg(argi++)));
            break;
          case 's':
            out += ReadCString(static_cast<uint64_t>(arg(argi++)));
            break;
          case '%':
            out.push_back('%');
            break;
          default:
            out.push_back('%');
            out.push_back(spec);
        }
      }
      log_ += out;
      cycles_ += static_cast<int64_t>(out.size()) * cfg_.cost.printk_per_char_q / 4 + 8;
      return static_cast<int64_t>(out.size());
    }
    case Builtin::kPanic:
      throw Trap{TrapKind::kPanic, loc,
                 "panic: " + ReadCString(static_cast<uint64_t>(arg(0)))};
    case Builtin::kAssert:
      if (arg(0) == 0) {
        throw Trap{TrapKind::kAssertFail, loc, "__assert failed"};
      }
      return 0;
    case Builtin::kLocalIrqSave: {
      int64_t prev = irq_enabled_ ? 1 : 0;
      irq_enabled_ = false;
      cycles_ += cfg_.cost.irq_op;
      return prev;
    }
    case Builtin::kLocalIrqRestore:
      irq_enabled_ = arg(0) != 0;
      cycles_ += cfg_.cost.irq_op;
      return 0;
    case Builtin::kLocalIrqDisable:
      irq_enabled_ = false;
      cycles_ += cfg_.cost.irq_op;
      return 0;
    case Builtin::kLocalIrqEnable:
      irq_enabled_ = true;
      cycles_ += cfg_.cost.irq_op;
      return 0;
    case Builtin::kIrqsDisabled:
      cycles_ += cfg_.cost.op;
      return irq_enabled_ ? 0 : 1;
    case Builtin::kSpinLock:
      AcquireLock(static_cast<uint64_t>(arg(0)), /*is_spin=*/true, loc);
      return 0;
    case Builtin::kSpinUnlock:
      ReleaseLock(static_cast<uint64_t>(arg(0)), /*is_spin=*/true, loc);
      return 0;
    case Builtin::kSpinLockIrqsave: {
      int64_t prev = irq_enabled_ ? 1 : 0;
      irq_enabled_ = false;
      cycles_ += cfg_.cost.irq_op;
      AcquireLock(static_cast<uint64_t>(arg(0)), /*is_spin=*/true, loc);
      return prev;
    }
    case Builtin::kSpinUnlockIrqrestore:
      ReleaseLock(static_cast<uint64_t>(arg(0)), /*is_spin=*/true, loc);
      irq_enabled_ = arg(1) != 0;
      cycles_ += cfg_.cost.irq_op;
      return 0;
    case Builtin::kMutexLock:
      CheckMightSleep(loc, "mutex_lock");
      AcquireLock(static_cast<uint64_t>(arg(0)), /*is_spin=*/false, loc);
      return 0;
    case Builtin::kMutexUnlock:
      ReleaseLock(static_cast<uint64_t>(arg(0)), /*is_spin=*/false, loc);
      return 0;
    case Builtin::kMightSleep:
      CheckMightSleep(loc, "might_sleep");
      return 0;
    case Builtin::kSchedule:
      CheckMightSleep(loc, "schedule");
      cycles_ += cfg_.cost.context_switch;
      ++ctx_switches_;
      return 0;
    case Builtin::kMsleep:
      CheckMightSleep(loc, "msleep");
      cycles_ += arg(0) * 1000;
      return 0;
    case Builtin::kUdelay:
      cycles_ += arg(0) * 100;
      return 0;
    case Builtin::kWaitEvent:
      CheckMightSleep(loc, "wait_event");
      cycles_ += cfg_.cost.context_switch;
      return 0;
    case Builtin::kWakeUp:
      ValidAccess(static_cast<uint64_t>(arg(0)), 8, loc);
      mem_->Write(static_cast<uint64_t>(arg(0)), 1, 8);
      cycles_ += cfg_.cost.op * 4;
      return 0;
    case Builtin::kWaitForCompletion: {
      CheckMightSleep(loc, "wait_for_completion");
      uint64_t c = static_cast<uint64_t>(arg(0));
      ValidAccess(c, 8, loc);
      mem_->Write(c, 0, 8);  // consume
      cycles_ += cfg_.cost.context_switch;
      return 0;
    }
    case Builtin::kComplete:
      ValidAccess(static_cast<uint64_t>(arg(0)), 8, loc);
      mem_->Write(static_cast<uint64_t>(arg(0)), 1, 8);
      cycles_ += cfg_.cost.op * 4;
      return 0;
    case Builtin::kCopyToUser: {
      CheckMightSleep(loc, "copy_to_user");
      uint64_t uaddr = static_cast<uint64_t>(arg(0));
      uint64_t src = static_cast<uint64_t>(arg(1));
      uint64_t n = static_cast<uint64_t>(arg(2));
      if (n > 0) {
        ValidAccess(src, n, loc);
        if (uaddr + n > user_mem_.size()) {
          user_mem_.resize(std::min<uint64_t>(uaddr + n, 16ull << 20), 0);
        }
        if (uaddr + n <= user_mem_.size()) {
          std::memcpy(user_mem_.data() + uaddr, mem_->data() + src, n);
        }
        cycles_ += static_cast<int64_t>(n) * cfg_.cost.user_copy_per_byte_q / 4 + 8;
      }
      return 0;
    }
    case Builtin::kCopyFromUser: {
      CheckMightSleep(loc, "copy_from_user");
      uint64_t dst = static_cast<uint64_t>(arg(0));
      uint64_t uaddr = static_cast<uint64_t>(arg(1));
      uint64_t n = static_cast<uint64_t>(arg(2));
      if (n > 0) {
        ValidAccess(dst, n, loc);
        TypedMemWrite(dst, n);
        for (uint64_t i = 0; i < n; ++i) {
          uint8_t byte = uaddr + i < user_mem_.size() ? user_mem_[uaddr + i] : 0;
          mem_->Write(dst + i, byte, 1);
        }
        cycles_ += static_cast<int64_t>(n) * cfg_.cost.user_copy_per_byte_q / 4 + 8;
      }
      return 0;
    }
    case Builtin::kAssertNonatomic:
      cycles_ += cfg_.cost.check;
      if (!irq_enabled_ || in_irq_ > 0) {
        throw Trap{TrapKind::kPanic, loc,
                   "assert_nonatomic: called with interrupts disabled"};
      }
      return 0;
    case Builtin::kTriggerIrq: {
      uint64_t h = static_cast<uint64_t>(arg(0));
      if (h < kFuncPtrBase || h - kFuncPtrBase >= num_funcs_) {
        throw Trap{TrapKind::kBadIndirectCall, loc, "trigger_irq: bad handler"};
      }
      bool saved = irq_enabled_;
      irq_enabled_ = false;
      ++in_irq_;
      cycles_ += cfg_.cost.irq_entry;
      ExecIrqHandler(static_cast<int>(h - kFuncPtrBase), arg(1));
      --in_irq_;
      irq_enabled_ = saved;
      return 0;
    }
    case Builtin::kAtomicInc: {
      uint64_t p = static_cast<uint64_t>(arg(0));
      ValidAccess(p, 8, loc);
      mem_->Write(p, mem_->Read(p, 8) + 1, 8);
      cycles_ += cfg_.cost.atomic_op;
      return 0;
    }
    case Builtin::kAtomicDecAndTest: {
      uint64_t p = static_cast<uint64_t>(arg(0));
      ValidAccess(p, 8, loc);
      int64_t v = mem_->Read(p, 8) - 1;
      mem_->Write(p, v, 8);
      cycles_ += cfg_.cost.atomic_op;
      return v == 0 ? 1 : 0;
    }
    case Builtin::kCycles:
      return cycles_;
    case Builtin::kRcOf:
      return heap_->RcOf(static_cast<uint64_t>(arg(0)));
    case Builtin::kGoodFrees:
      return heap_->stats().frees_good;
    case Builtin::kBadFrees:
      return heap_->stats().frees_bad;
    case Builtin::kContextSwitch:
      cycles_ += cfg_.cost.context_switch;
      ++ctx_switches_;
      return 0;
    case Builtin::kCount_:
      break;
  }
  throw Trap{TrapKind::kUnreachable, loc, "unknown intrinsic"};
}

}  // namespace ivy
