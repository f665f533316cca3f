#include "src/vm/vm.h"

#include <algorithm>

namespace ivy {

Vm::Vm(const IrModule* module, const TypeLayoutRegistry* layouts, VmConfig cfg)
    : Machine(layouts, cfg), module_(module) {
  SetupMemory(module_->globals_end, module_->string_pool, &module_->globals,
              GlobalInitsFromModule(*module_));
  num_funcs_ = module_->funcs.size();
  for (const IrFunc& f : module_->funcs) {
    if (f.decl != nullptr) {
      func_ids_[f.decl->name] = f.decl->func_id;
    }
  }
}

int64_t Vm::ExecEntry(int func_id, const std::vector<int64_t>& args) {
  return ExecFunction(func_id, args);
}

int64_t Vm::ExecIrqHandler(int func_id, int64_t arg) {
  return ExecFunction(func_id, {arg});
}

void Vm::PushFrame(std::vector<Frame>* frames, int func_id, const std::vector<int64_t>& args,
                   int ret_dst) {
  if (func_id < 0 || static_cast<size_t>(func_id) >= module_->funcs.size()) {
    throw Trap{TrapKind::kBadIndirectCall, SourceLoc{}, "bad function id"};
  }
  const IrFunc& fn = module_->funcs[static_cast<size_t>(func_id)];
  if (fn.blocks.empty()) {
    throw Trap{TrapKind::kBadIndirectCall, fn.decl != nullptr ? fn.decl->loc : SourceLoc{},
               "call to undefined function '" +
                   (fn.decl != nullptr ? fn.decl->name : "?") + "'"};
  }
  if (stack_top_ + static_cast<uint64_t>(fn.frame_size) >
      mem_->stack_base + mem_->stack_size) {
    throw Trap{TrapKind::kStackOverflow, fn.decl->loc, "kernel stack exhausted"};
  }
  Frame f;
  f.fn = &fn;
  f.base = stack_top_;
  f.ret_dst = ret_dst;
  f.delayed_at_entry = heap_->delayed_depth();
  stack_top_ += static_cast<uint64_t>(fn.frame_size);
  stack_peak_ = std::max(stack_peak_, stack_top_);
  if (cfg_.track_locals && fn.frame_size > 0) {
    // Zero the frame so pointer-slot tracking starts from a clean state.
    mem_->ZeroRange(f.base, static_cast<uint64_t>(fn.frame_size));
    cycles_ += fn.frame_size * cfg_.cost.zero_per_byte_q / 4;
  }
  f.regs.assign(static_cast<size_t>(fn.num_regs), 0);
  for (size_t i = 0; i < fn.param_offsets.size() && i < args.size(); ++i) {
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
  frames->push_back(std::move(f));
}

void Vm::PopFrameStack(const Frame& f) {
  if (cfg_.track_locals && heap_->ccount()) {
    // Drop references held by pointer slots in this frame.
    for (int64_t off : f.fn->ptr_slots) {
      int64_t v = mem_->Read(f.base + static_cast<uint64_t>(off), 8);
      if (mem_->Countable(static_cast<uint64_t>(v))) {
        heap_->RcWrite(static_cast<uint64_t>(v), 0);  // dec only
        ChargeRc(1);
      }
    }
  }
  stack_top_ = f.base;
  cycles_ += cfg_.cost.ret;
}

int64_t Vm::ExecFunction(int func_id, const std::vector<int64_t>& args) {
  std::vector<Frame> frames;
  PushFrame(&frames, func_id, args, -1);
  int64_t result = 0;
  while (!frames.empty()) {
    Frame& f = frames.back();
    const std::vector<Instr>& code = f.fn->blocks[static_cast<size_t>(f.block)].instrs;
    if (f.ip >= code.size()) {
      // Block fell off the end (empty continuation block): implicit return.
      const Frame done = std::move(frames.back());
      frames.pop_back();
      PopFrameStack(done);
      if (!frames.empty() && done.ret_dst >= 0) {
        frames.back().regs[static_cast<size_t>(done.ret_dst)] = 0;
      }
      result = 0;
      continue;
    }
    const Instr& in = code[f.ip++];
    if (++steps_ > cfg_.max_steps) {
      throw Trap{TrapKind::kTimeout, in.loc, "instruction budget exceeded"};
    }
    auto reg = [&f](int r) -> int64_t { return f.regs[static_cast<size_t>(r)]; };
    switch (in.op) {
      case Op::kConst:
        f.regs[static_cast<size_t>(in.dst)] = in.imm;
        cycles_ += cfg_.cost.op;
        break;
      case Op::kMove:
        f.regs[static_cast<size_t>(in.dst)] = reg(in.a);
        cycles_ += cfg_.cost.op;
        break;
      case Op::kUn: {
        int64_t a = reg(in.a);
        int64_t v = 0;
        switch (in.un) {
          case UnOp::kNeg:
            v = -a;
            break;
          case UnOp::kLogNot:
            v = a == 0 ? 1 : 0;
            break;
          case UnOp::kBitNot:
            v = ~a;
            break;
        }
        f.regs[static_cast<size_t>(in.dst)] = v;
        cycles_ += cfg_.cost.op;
        break;
      }
      case Op::kBin: {
        int64_t a = reg(in.a);
        int64_t b = reg(in.b);
        int64_t v = 0;
        switch (in.bin) {
          case BinOp::kAdd:
            v = a + b;
            break;
          case BinOp::kSub:
            v = a - b;
            break;
          case BinOp::kMul:
            v = a * b;
            break;
          case BinOp::kDiv:
            if (b == 0) {
              throw Trap{TrapKind::kDivByZero, in.loc, "division by zero"};
            }
            v = a / b;
            break;
          case BinOp::kRem:
            if (b == 0) {
              throw Trap{TrapKind::kDivByZero, in.loc, "remainder by zero"};
            }
            v = a % b;
            break;
          case BinOp::kShl:
            v = a << (b & 63);
            break;
          case BinOp::kShr:
            v = a >> (b & 63);
            break;
          case BinOp::kLt:
            v = a < b;
            break;
          case BinOp::kGt:
            v = a > b;
            break;
          case BinOp::kLe:
            v = a <= b;
            break;
          case BinOp::kGe:
            v = a >= b;
            break;
          case BinOp::kEq:
            v = a == b;
            break;
          case BinOp::kNe:
            v = a != b;
            break;
          case BinOp::kBitAnd:
            v = a & b;
            break;
          case BinOp::kBitOr:
            v = a | b;
            break;
          case BinOp::kBitXor:
            v = a ^ b;
            break;
          case BinOp::kLogAnd:
            v = (a != 0 && b != 0) ? 1 : 0;
            break;
          case BinOp::kLogOr:
            v = (a != 0 || b != 0) ? 1 : 0;
            break;
          case BinOp::kNone:
            break;
        }
        f.regs[static_cast<size_t>(in.dst)] = v;
        cycles_ += cfg_.cost.op;
        break;
      }
      case Op::kLoad: {
        uint64_t addr = static_cast<uint64_t>(reg(in.a));
        ValidAccess(addr, in.size, in.loc);
        f.regs[static_cast<size_t>(in.dst)] = mem_->Read(addr, in.size);
        cycles_ += cfg_.cost.load;
        break;
      }
      case Op::kStore: {
        uint64_t addr = static_cast<uint64_t>(reg(in.a));
        ValidAccess(addr, in.size, in.loc);
        mem_->Write(addr, reg(in.b), in.size);
        cycles_ += cfg_.cost.store;
        break;
      }
      case Op::kStorePtr:
        DoStorePtr(static_cast<uint64_t>(reg(in.a)), reg(in.b), in.loc);
        break;
      case Op::kFrameAddr:
        f.regs[static_cast<size_t>(in.dst)] = static_cast<int64_t>(f.base) + in.imm;
        cycles_ += cfg_.cost.op;
        break;
      case Op::kGlobalAddr:
        f.regs[static_cast<size_t>(in.dst)] = in.imm;
        cycles_ += cfg_.cost.op;
        break;
      case Op::kFuncConst:
        f.regs[static_cast<size_t>(in.dst)] =
            static_cast<int64_t>(kFuncPtrBase + static_cast<uint64_t>(in.imm));
        cycles_ += cfg_.cost.op;
        break;
      case Op::kStrConst:
        f.regs[static_cast<size_t>(in.dst)] =
            static_cast<int64_t>(string_addrs_[static_cast<size_t>(in.imm)]);
        cycles_ += cfg_.cost.op;
        break;
      case Op::kCall: {
        std::vector<int64_t> call_args;
        call_args.reserve(in.args.size());
        for (int r : in.args) {
          call_args.push_back(reg(r));
        }
        PushFrame(&frames, static_cast<int>(in.imm), call_args, in.dst);
        break;
      }
      case Op::kCallInd: {
        uint64_t fp = static_cast<uint64_t>(reg(in.a));
        if (fp < kFuncPtrBase || fp - kFuncPtrBase >= module_->funcs.size()) {
          throw Trap{TrapKind::kBadIndirectCall, in.loc,
                     "indirect call through invalid function pointer"};
        }
        std::vector<int64_t> call_args;
        call_args.reserve(in.args.size());
        for (int r : in.args) {
          call_args.push_back(reg(r));
        }
        PushFrame(&frames, static_cast<int>(fp - kFuncPtrBase), call_args, in.dst);
        break;
      }
      case Op::kIntrinsic: {
        std::vector<int64_t> call_args;
        call_args.reserve(in.args.size());
        for (int r : in.args) {
          call_args.push_back(reg(r));
        }
        int64_t v = DoIntrinsic(static_cast<Builtin>(in.imm), in.loc, in.alloc_type_id,
                                call_args.data(), call_args.size());
        if (in.dst >= 0) {
          f.regs[static_cast<size_t>(in.dst)] = v;
        }
        cycles_ += cfg_.cost.intrinsic;
        break;
      }
      case Op::kRet: {
        // Unwind any delayed_free scopes this function opened but left open
        // via an early return.
        while (heap_->delayed_depth() > f.delayed_at_entry) {
          heap_->PopDelayedScope();
        }
        int64_t value = in.a >= 0 ? reg(in.a) : 0;
        const Frame done = std::move(frames.back());
        frames.pop_back();
        PopFrameStack(done);
        if (frames.empty()) {
          return value;
        }
        if (done.ret_dst >= 0) {
          frames.back().regs[static_cast<size_t>(done.ret_dst)] = value;
        }
        result = value;
        break;
      }
      case Op::kJump:
        f.block = static_cast<int>(in.imm);
        f.ip = 0;
        cycles_ += cfg_.cost.op;
        break;
      case Op::kBranch:
        f.block = reg(in.a) != 0 ? static_cast<int>(in.imm) : static_cast<int>(in.imm2);
        f.ip = 0;
        cycles_ += cfg_.cost.op;
        break;
      case Op::kCheckNonNull:
        if (reg(in.a) == 0) {
          throw Trap{TrapKind::kNullDeref, in.loc, "Deputy: null pointer"};
        }
        cycles_ += cfg_.cost.check;
        break;
      case Op::kCheckBounds: {
        int64_t v = reg(in.a);
        int64_t lo = in.b >= 0 ? reg(in.b) : 0;
        int64_t hi = reg(in.c);
        if (v < lo || v + in.imm > hi) {
          throw Trap{TrapKind::kBounds, in.loc,
                     "Deputy: bounds check failed (" + std::to_string(v) + " not in [" +
                         std::to_string(lo) + ", " + std::to_string(hi) + "))"};
        }
        cycles_ += cfg_.cost.check_bounds;
        break;
      }
      case Op::kCheckWhen:
        if (reg(in.a) == 0) {
          throw Trap{TrapKind::kUnionTag, in.loc, "Deputy: union when() guard failed"};
        }
        cycles_ += cfg_.cost.check;
        break;
      case Op::kCheckNtAdvance: {
        uint64_t addr = static_cast<uint64_t>(reg(in.a));
        ValidAccess(addr, 1, in.loc);
        if (mem_->Read(addr, 1) == 0) {
          throw Trap{TrapKind::kNtOverrun, in.loc,
                     "Deputy: advancing nullterm pointer past terminator"};
        }
        cycles_ += cfg_.cost.check;
        break;
      }
      case Op::kCheckStack:
        if (static_cast<int64_t>(stack_top_ - mem_->stack_base) > cfg_.stack_limit) {
          throw Trap{TrapKind::kStackOverflow, in.loc, "StackCheck: stack budget exceeded"};
        }
        cycles_ += cfg_.cost.check;
        break;
      case Op::kDelayedPush:
        heap_->PushDelayedScope();
        cycles_ += cfg_.cost.op;
        break;
      case Op::kDelayedPop:
        heap_->PopDelayedScope();
        cycles_ += cfg_.cost.op;
        break;
      case Op::kTrap:
        throw Trap{static_cast<TrapKind>(in.imm), in.loc, "explicit trap"};
    }
  }
  return result;
}

}  // namespace ivy
