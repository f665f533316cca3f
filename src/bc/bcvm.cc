#include "src/bc/bcvm.h"

#include <algorithm>

namespace ivy {

BcVm::BcVm(std::shared_ptr<const BcModule> module, const TypeLayoutRegistry* layouts,
           VmConfig cfg)
    : Machine(layouts, cfg), owned_(std::move(module)), mod_(owned_.get()) {
  SetupMemory(mod_->globals_end, mod_->string_pool, &mod_->globals, mod_->global_inits);
  num_funcs_ = mod_->funcs.size();
  for (size_t i = 0; i < mod_->funcs.size(); ++i) {
    if (!mod_->funcs[i].name.empty()) {
      func_ids_[mod_->funcs[i].name] = static_cast<int>(i);
    }
  }
  frames_.reserve(64);
  regs_.reserve(4096);
  call_scratch_.reserve(16);
  if (cfg_.profile) {
    op_counts_.assign(static_cast<size_t>(BcOp::kCount_), 0);
  }
}

BcVm::BcVm(const BcModule* module, const TypeLayoutRegistry* layouts, VmConfig cfg)
    : BcVm(std::shared_ptr<const BcModule>(module, [](const BcModule*) {}), layouts, cfg) {}

int64_t BcVm::ExecEntry(int func_id, const std::vector<int64_t>& args) {
  return Run(func_id, args.data(), args.size());
}

int64_t BcVm::ExecIrqHandler(int func_id, int64_t arg) {
  return Run(func_id, &arg, 1);
}

void BcVm::PushBcFrame(int func_id, const int64_t* args, size_t nargs, int32_t ret_dst) {
  if (func_id < 0 || static_cast<size_t>(func_id) >= mod_->funcs.size()) {
    throw Trap{TrapKind::kBadIndirectCall, SourceLoc{}, "bad function id"};
  }
  const BcFunc& fn = mod_->funcs[static_cast<size_t>(func_id)];
  if (fn.defined == 0) {
    throw Trap{TrapKind::kBadIndirectCall, fn.decl_loc,
               "call to undefined function '" + (fn.name.empty() ? "?" : fn.name) + "'"};
  }
  if (stack_top_ + static_cast<uint64_t>(fn.frame_size) >
      mem_->stack_base + mem_->stack_size) {
    throw Trap{TrapKind::kStackOverflow, fn.decl_loc, "kernel stack exhausted"};
  }
  BcFrame f;
  f.func = static_cast<uint32_t>(func_id);
  f.pc = fn.entry_pc;
  f.reg_base = static_cast<uint32_t>(regs_top_);
  f.ret_dst = ret_dst;
  f.base = stack_top_;
  f.delayed_at_entry = heap_->delayed_depth();
  stack_top_ += static_cast<uint64_t>(fn.frame_size);
  stack_peak_ = std::max(stack_peak_, stack_top_);
  if (cfg_.track_locals && fn.frame_size > 0) {
    // Zero the frame so pointer-slot tracking starts from a clean state.
    mem_->ZeroRange(f.base, static_cast<uint64_t>(fn.frame_size));
    cycles_ += fn.frame_size * cfg_.cost.zero_per_byte_q / 4;
  }
  size_t need = regs_top_ + fn.num_regs;
  if (need > regs_.size()) {
    regs_.resize(std::max(need, regs_.size() * 2));
  }
  std::fill(regs_.begin() + static_cast<ptrdiff_t>(regs_top_),
            regs_.begin() + static_cast<ptrdiff_t>(need), 0);
  regs_top_ = need;
  for (size_t i = 0; i < fn.param_offsets.size() && i < nargs; ++i) {
    uint64_t slot = f.base + static_cast<uint64_t>(fn.param_offsets[i]);
    if (cfg_.track_locals && heap_->ccount() && fn.param_sizes[i] == 8) {
      // Pointer-typed parameter slots participate in counting.
      bool is_ptr = false;
      for (int64_t off : fn.ptr_slots) {
        if (off == fn.param_offsets[i]) {
          is_ptr = true;
          break;
        }
      }
      if (is_ptr) {
        heap_->RcWrite(0, static_cast<uint64_t>(args[i]));
        ChargeRc(1);
      }
    }
    mem_->Write(slot, args[i], fn.param_sizes[i]);
  }
  cycles_ += cfg_.cost.call;
  frames_.push_back(f);
}

void BcVm::PopBcFrame() {
  const BcFrame& f = frames_.back();
  if (cfg_.track_locals && heap_->ccount()) {
    // Drop references held by pointer slots in this frame.
    const BcFunc& fn = mod_->funcs[f.func];
    for (int64_t off : fn.ptr_slots) {
      int64_t v = mem_->Read(f.base + static_cast<uint64_t>(off), 8);
      if (mem_->Countable(static_cast<uint64_t>(v))) {
        heap_->RcWrite(static_cast<uint64_t>(v), 0);  // dec only
        ChargeRc(1);
      }
    }
  }
  stack_top_ = f.base;
  cycles_ += cfg_.cost.ret;
  regs_top_ = f.reg_base;
  frames_.pop_back();
}

int64_t BcVm::Run(int func_id, const int64_t* args, size_t nargs) {
  size_t watermark = frames_.size();
  size_t regs_watermark = regs_top_;
  try {
    PushBcFrame(func_id, args, nargs, -1);
    return RunLoop(watermark);
  } catch (...) {
    // Roll the interpreter stacks back to the entry point; Machine state
    // (stack_top_, locks, IRQ flag) intentionally stays as the trap left it,
    // matching the tree VM's unwind.
    frames_.resize(watermark);
    regs_top_ = regs_watermark;
    throw;
  }
}

int64_t BcVm::RunLoop(size_t watermark) {
  const uint32_t* const code = mod_->code.data();
  const CostModel& cost = cfg_.cost;
  // Profiling fast path: one null check per dispatch when off (the common
  // case), one plain increment when on. Never feeds back into steps/cycles.
  uint64_t* const prof = op_counts_.empty() ? nullptr : op_counts_.data();

  BcFrame* fr = &frames_.back();
  int64_t* regs = regs_.data() + fr->reg_base;
  uint64_t base = fr->base;
  uint32_t pc = fr->pc;

  // steps_ and cycles_ live in locals across the dispatch loop so the hot
  // arithmetic cases pay register adds, not member read-modify-writes. Every
  // exit from the loop — calls into Machine helpers that account cycles
  // themselves (and may reenter RunLoop via trigger_irq), trap throws, and
  // the final return — flushes the locals back first; helper returns reload.
  int64_t steps = steps_;
  int64_t cycles = cycles_;
  const int64_t max_steps = cfg_.max_steps;
  auto flush = [&] {
    steps_ = steps;
    cycles_ = cycles;
  };
  auto reload = [&] {
    steps = steps_;
    cycles = cycles_;
  };

  // Cold paths, kept out of the dispatch switch: recover the SourceLoc only
  // when a trap actually fires.
  auto throw_access = [this, &flush](uint64_t addr, uint32_t at) {
    flush();
    throw Trap{addr < 4096 ? TrapKind::kNullDeref : TrapKind::kMemFault, mod_->LocAt(at),
               "access at address " + std::to_string(addr)};
  };

  for (;;) {
    const uint32_t w0 = code[pc];
    const BcOp op = BcOpOf(w0);
    if (prof != nullptr) {
      ++prof[static_cast<size_t>(op)];
    }
    if (op != BcOp::kImplicitRet) {
      // Synthesized implicit returns have no IR counterpart and are not
      // counted as steps (the tree VM's fell-off-the-end path).
      if (++steps > max_steps) {
        flush();
        throw Trap{TrapKind::kTimeout, mod_->LocAt(pc), "instruction budget exceeded"};
      }
    }
    const uint16_t r0 = BcR0Of(w0);
    switch (op) {
      case BcOp::kConst:
        regs[r0] = static_cast<int64_t>(static_cast<uint64_t>(code[pc + 1]) |
                                        static_cast<uint64_t>(code[pc + 2]) << 32);
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kMove:
        regs[r0] = regs[code[pc + 1]];
        cycles += cost.op;
        pc += 2;
        break;
      case BcOp::kNeg:
        regs[r0] = -regs[code[pc + 1]];
        cycles += cost.op;
        pc += 2;
        break;
      case BcOp::kLogNot:
        regs[r0] = regs[code[pc + 1]] == 0 ? 1 : 0;
        cycles += cost.op;
        pc += 2;
        break;
      case BcOp::kBitNot:
        regs[r0] = ~regs[code[pc + 1]];
        cycles += cost.op;
        pc += 2;
        break;
      case BcOp::kAdd:
        regs[r0] = regs[code[pc + 1]] + regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kSub:
        regs[r0] = regs[code[pc + 1]] - regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kMul:
        regs[r0] = regs[code[pc + 1]] * regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kDiv: {
        int64_t b = regs[code[pc + 2]];
        if (b == 0) {
          flush();
          throw Trap{TrapKind::kDivByZero, mod_->LocAt(pc), "division by zero"};
        }
        regs[r0] = regs[code[pc + 1]] / b;
        cycles += cost.op;
        pc += 3;
        break;
      }
      case BcOp::kRem: {
        int64_t b = regs[code[pc + 2]];
        if (b == 0) {
          flush();
          throw Trap{TrapKind::kDivByZero, mod_->LocAt(pc), "remainder by zero"};
        }
        regs[r0] = regs[code[pc + 1]] % b;
        cycles += cost.op;
        pc += 3;
        break;
      }
      case BcOp::kShl:
        regs[r0] = regs[code[pc + 1]] << (regs[code[pc + 2]] & 63);
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kShr:
        regs[r0] = regs[code[pc + 1]] >> (regs[code[pc + 2]] & 63);
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kLt:
        regs[r0] = regs[code[pc + 1]] < regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kGt:
        regs[r0] = regs[code[pc + 1]] > regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kLe:
        regs[r0] = regs[code[pc + 1]] <= regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kGe:
        regs[r0] = regs[code[pc + 1]] >= regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kEq:
        regs[r0] = regs[code[pc + 1]] == regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kNe:
        regs[r0] = regs[code[pc + 1]] != regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kBitAnd:
        regs[r0] = regs[code[pc + 1]] & regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kBitOr:
        regs[r0] = regs[code[pc + 1]] | regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kBitXor:
        regs[r0] = regs[code[pc + 1]] ^ regs[code[pc + 2]];
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kLogAnd:
        regs[r0] = (regs[code[pc + 1]] != 0 && regs[code[pc + 2]] != 0) ? 1 : 0;
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kLogOr:
        regs[r0] = (regs[code[pc + 1]] != 0 || regs[code[pc + 2]] != 0) ? 1 : 0;
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kLoad: {
        uint64_t addr = static_cast<uint64_t>(regs[code[pc + 1]]);
        uint8_t size = BcAuxOf(w0);
        if (!mem_->Valid(addr, size)) {
          throw_access(addr, pc);
        }
        regs[r0] = mem_->Read(addr, size);
        cycles += cost.load;
        pc += 2;
        break;
      }
      case BcOp::kStore: {
        uint64_t addr = static_cast<uint64_t>(regs[r0]);
        uint8_t size = BcAuxOf(w0);
        if (!mem_->Valid(addr, size)) {
          throw_access(addr, pc);
        }
        mem_->Write(addr, regs[code[pc + 1]], size);
        cycles += cost.store;
        pc += 2;
        break;
      }
      case BcOp::kStorePtr: {
        uint64_t addr = static_cast<uint64_t>(regs[r0]);
        if (!mem_->Valid(addr, 8)) {
          throw_access(addr, pc);
        }
        flush();
        DoStorePtrUnchecked(addr, regs[code[pc + 1]]);
        reload();
        pc += 2;
        break;
      }
      case BcOp::kFrameAddr:
        regs[r0] = static_cast<int64_t>(base) +
                   static_cast<int64_t>(static_cast<uint64_t>(code[pc + 1]) |
                                        static_cast<uint64_t>(code[pc + 2]) << 32);
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kGlobalAddr:
        regs[r0] = static_cast<int64_t>(static_cast<uint64_t>(code[pc + 1]) |
                                        static_cast<uint64_t>(code[pc + 2]) << 32);
        cycles += cost.op;
        pc += 3;
        break;
      case BcOp::kFuncConst:
        regs[r0] = static_cast<int64_t>(kFuncPtrBase + code[pc + 1]);
        cycles += cost.op;
        pc += 2;
        break;
      case BcOp::kStrConst:
        regs[r0] = static_cast<int64_t>(string_addrs_[code[pc + 1]]);
        cycles += cost.op;
        pc += 2;
        break;
      case BcOp::kCall:
      case BcOp::kCallInd: {
        const uint32_t nargs = BcAuxOf(w0);
        int callee;
        if (op == BcOp::kCall) {
          callee = static_cast<int>(code[pc + 1]);
        } else {
          uint64_t fp = static_cast<uint64_t>(regs[code[pc + 1]]);
          if (fp < kFuncPtrBase || fp - kFuncPtrBase >= mod_->funcs.size()) {
            flush();
            throw Trap{TrapKind::kBadIndirectCall, mod_->LocAt(pc),
                       "indirect call through invalid function pointer"};
          }
          callee = static_cast<int>(fp - kFuncPtrBase);
        }
        call_scratch_.clear();
        for (uint32_t i = 0; i < nargs; ++i) {
          call_scratch_.push_back(regs[code[pc + 2 + i]]);
        }
        fr->pc = pc + 2 + nargs;  // resume point
        flush();
        PushBcFrame(callee, call_scratch_.data(), nargs,
                    r0 == kBcNoReg ? -1 : static_cast<int32_t>(r0));
        reload();
        fr = &frames_.back();
        regs = regs_.data() + fr->reg_base;
        base = fr->base;
        pc = fr->pc;
        break;
      }
      case BcOp::kIntrinsic: {
        const uint32_t nargs = code[pc + 3];
        call_scratch_.clear();
        for (uint32_t i = 0; i < nargs; ++i) {
          call_scratch_.push_back(regs[code[pc + 4 + i]]);
        }
        flush();
        int64_t v = DoIntrinsic(static_cast<Builtin>(BcAuxOf(w0)),
                                mod_->loc_pool[code[pc + 1]],
                                static_cast<int32_t>(code[pc + 2]), call_scratch_.data(),
                                nargs);
        reload();
        // trigger_irq may have nested another Run, growing the stacks.
        fr = &frames_.back();
        regs = regs_.data() + fr->reg_base;
        if (r0 != kBcNoReg) {
          regs[r0] = v;
        }
        cycles += cost.intrinsic;
        pc += 4 + nargs;
        break;
      }
      case BcOp::kRet:
      case BcOp::kImplicitRet: {
        int64_t value = 0;
        flush();
        if (op == BcOp::kRet) {
          // Unwind any delayed_free scopes this function opened but left
          // open via an early return.
          while (heap_->delayed_depth() > fr->delayed_at_entry) {
            heap_->PopDelayedScope();
          }
          if (BcAuxOf(w0) != 0) {
            value = regs[r0];
          }
        }
        const int32_t ret_dst = fr->ret_dst;
        PopBcFrame();
        reload();
        if (frames_.size() == watermark) {
          flush();
          return value;
        }
        fr = &frames_.back();
        regs = regs_.data() + fr->reg_base;
        base = fr->base;
        pc = fr->pc;
        if (ret_dst >= 0) {
          regs[ret_dst] = value;
        }
        break;
      }
      case BcOp::kJump:
        pc = code[pc + 1];
        cycles += cost.op;
        break;
      case BcOp::kBranch:
        pc = regs[r0] != 0 ? code[pc + 1] : code[pc + 2];
        cycles += cost.op;
        break;
      case BcOp::kCheckNonNull:
        if (regs[r0] == 0) {
          flush();
          throw Trap{TrapKind::kNullDeref, mod_->LocAt(pc), "Deputy: null pointer"};
        }
        cycles += cost.check;
        pc += 1;
        break;
      case BcOp::kCheckBounds: {
        int64_t v = regs[r0];
        int64_t lo = code[pc + 1] == kBcNoWord ? 0 : regs[code[pc + 1]];
        int64_t hi = regs[code[pc + 2]];
        int64_t imm = static_cast<int64_t>(static_cast<uint64_t>(code[pc + 3]) |
                                           static_cast<uint64_t>(code[pc + 4]) << 32);
        if (v < lo || v + imm > hi) {
          flush();
          throw Trap{TrapKind::kBounds, mod_->LocAt(pc),
                     "Deputy: bounds check failed (" + std::to_string(v) + " not in [" +
                         std::to_string(lo) + ", " + std::to_string(hi) + "))"};
        }
        cycles += cost.check_bounds;
        pc += 5;
        break;
      }
      case BcOp::kCheckWhen:
        if (regs[r0] == 0) {
          flush();
          throw Trap{TrapKind::kUnionTag, mod_->LocAt(pc), "Deputy: union when() guard failed"};
        }
        cycles += cost.check;
        pc += 1;
        break;
      case BcOp::kCheckNtAdvance: {
        uint64_t addr = static_cast<uint64_t>(regs[r0]);
        if (!mem_->Valid(addr, 1)) {
          throw_access(addr, pc);
        }
        if (mem_->Read(addr, 1) == 0) {
          flush();
          throw Trap{TrapKind::kNtOverrun, mod_->LocAt(pc),
                     "Deputy: advancing nullterm pointer past terminator"};
        }
        cycles += cost.check;
        pc += 1;
        break;
      }
      case BcOp::kCheckStack:
        if (static_cast<int64_t>(stack_top_ - mem_->stack_base) > cfg_.stack_limit) {
          flush();
          throw Trap{TrapKind::kStackOverflow, mod_->LocAt(pc),
                     "StackCheck: stack budget exceeded"};
        }
        cycles += cost.check;
        pc += 1;
        break;
      case BcOp::kDelayedPush:
        heap_->PushDelayedScope();
        cycles += cost.op;
        pc += 1;
        break;
      case BcOp::kDelayedPop:
        heap_->PopDelayedScope();
        cycles += cost.op;
        pc += 1;
        break;
      case BcOp::kTrap:
        flush();
        throw Trap{static_cast<TrapKind>(BcAuxOf(w0)), mod_->LocAt(pc), "explicit trap"};
      case BcOp::kCount_:
        flush();
        throw Trap{TrapKind::kUnreachable, mod_->LocAt(pc), "invalid opcode"};
    }
  }
}

}  // namespace ivy
