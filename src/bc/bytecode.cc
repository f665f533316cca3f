#include "src/bc/bytecode.h"

#include <algorithm>
#include <cstring>

#include "src/support/codec.h"
#include "src/vm/builtins.h"

namespace ivy {

uint32_t BcInstrLen(const uint32_t* w) {
  switch (BcOpOf(w[0])) {
    case BcOp::kConst:
    case BcOp::kFrameAddr:
    case BcOp::kGlobalAddr:
      return 3;
    case BcOp::kMove:
    case BcOp::kNeg:
    case BcOp::kLogNot:
    case BcOp::kBitNot:
    case BcOp::kLoad:
    case BcOp::kStore:
    case BcOp::kStorePtr:
    case BcOp::kFuncConst:
    case BcOp::kStrConst:
    case BcOp::kJump:
      return 2;
    case BcOp::kAdd:
    case BcOp::kSub:
    case BcOp::kMul:
    case BcOp::kDiv:
    case BcOp::kRem:
    case BcOp::kShl:
    case BcOp::kShr:
    case BcOp::kLt:
    case BcOp::kGt:
    case BcOp::kLe:
    case BcOp::kGe:
    case BcOp::kEq:
    case BcOp::kNe:
    case BcOp::kBitAnd:
    case BcOp::kBitOr:
    case BcOp::kBitXor:
    case BcOp::kLogAnd:
    case BcOp::kLogOr:
    case BcOp::kBranch:
      return 3;
    case BcOp::kCall:
    case BcOp::kCallInd:
      return 2 + BcAuxOf(w[0]);
    case BcOp::kIntrinsic:
      return 4 + w[3];
    case BcOp::kRet:
    case BcOp::kImplicitRet:
    case BcOp::kCheckNonNull:
    case BcOp::kCheckWhen:
    case BcOp::kCheckNtAdvance:
    case BcOp::kCheckStack:
    case BcOp::kDelayedPush:
    case BcOp::kDelayedPop:
    case BcOp::kTrap:
      return 1;
    case BcOp::kCheckBounds:
      return 5;
    case BcOp::kCount_:
      break;
  }
  return 0;
}

SourceLoc BcModule::LocAt(uint32_t pc) const {
  // Last change point with change.pc <= pc.
  auto it = std::upper_bound(
      pc_locs.begin(), pc_locs.end(), pc,
      [](uint32_t p, const std::pair<uint32_t, uint32_t>& e) { return p < e.first; });
  if (it == pc_locs.begin()) {
    return SourceLoc{};
  }
  uint32_t idx = std::prev(it)->second;
  return idx < loc_pool.size() ? loc_pool[idx] : SourceLoc{};
}

int BcModule::FindFunc(const std::string& name) const {
  for (size_t i = 0; i < funcs.size(); ++i) {
    if (!funcs[i].name.empty() && funcs[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Serialization: one field list per record, run by the shared codec
// (src/support/codec.h) in both directions.
// ---------------------------------------------------------------------------

template <typename Io>
bool Fields(Io& io, BcFunc& f) {
  return io(f.name) && io(f.decl_loc) && io(f.defined) && io(f.entry_pc) && io(f.code_end) &&
         io(f.num_regs) && io(f.frame_size) && io(f.param_offsets) && io(f.param_sizes) &&
         io(f.ptr_slots);
}

template <typename Io>
bool Fields(Io& io, GlobalSlot& g) {
  return io(g.addr) && io(g.size) && io(g.type_id) && io(g.ptr_offsets);
}

template <typename Io>
bool Fields(Io& io, GlobalInit& gi) {
  return io(gi.addr) && io(gi.size) && io(gi.is_string) && io(gi.value);
}

template <typename Io>
bool Fields(Io& io, BcModule& m) {
  return io(m.code) && io(m.funcs) && io(m.string_pool) && io(m.globals) &&
         io(m.global_inits) && io(m.globals_end) && io(m.loc_pool) && io(m.pc_locs);
}

std::string EncodeBcImage(const BcModule& m) {
  WireWriter w;
  w.PutU8(kBcMagic0);
  w.PutU8(kBcMagic1);
  w.PutU8(kBcVersion);
  w.PutU8(0);
  w.PutU32(0);  // payload length, patched below
  FieldWriter put(w);
  put(m);
  std::string image = w.Take();
  const uint32_t len = static_cast<uint32_t>(image.size() - 8);
  for (int i = 0; i < 4; ++i) {
    image[4 + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  }
  return image;
}

bool DecodeBcImage(const std::string& bytes, BcModule* out, std::string* err) {
  auto fail = [err](const char* why) {
    if (err != nullptr) {
      *err = why;
    }
    return false;
  };
  if (bytes.size() < 8) {
    return fail("image shorter than header");
  }
  const uint8_t* h = reinterpret_cast<const uint8_t*>(bytes.data());
  if (h[0] != kBcMagic0 || h[1] != kBcMagic1) {
    return fail("bad magic");
  }
  if (h[2] != kBcVersion) {
    return fail("unsupported image version");
  }
  uint32_t len = static_cast<uint32_t>(h[4]) | static_cast<uint32_t>(h[5]) << 8 |
                 static_cast<uint32_t>(h[6]) << 16 | static_cast<uint32_t>(h[7]) << 24;
  if (bytes.size() != static_cast<size_t>(len) + 8) {
    return fail("payload length mismatch");
  }

  BcModule m;
  if (!DecodeFields(bytes.substr(8), m)) {
    return fail("truncated or malformed payload");
  }
  *out = std::move(m);
  return true;
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

const char* BcOpName(BcOp op) {
  switch (op) {
    case BcOp::kConst: return "const";
    case BcOp::kMove: return "move";
    case BcOp::kNeg: return "neg";
    case BcOp::kLogNot: return "lognot";
    case BcOp::kBitNot: return "bitnot";
    case BcOp::kAdd: return "add";
    case BcOp::kSub: return "sub";
    case BcOp::kMul: return "mul";
    case BcOp::kDiv: return "div";
    case BcOp::kRem: return "rem";
    case BcOp::kShl: return "shl";
    case BcOp::kShr: return "shr";
    case BcOp::kLt: return "lt";
    case BcOp::kGt: return "gt";
    case BcOp::kLe: return "le";
    case BcOp::kGe: return "ge";
    case BcOp::kEq: return "eq";
    case BcOp::kNe: return "ne";
    case BcOp::kBitAnd: return "bitand";
    case BcOp::kBitOr: return "bitor";
    case BcOp::kBitXor: return "bitxor";
    case BcOp::kLogAnd: return "logand";
    case BcOp::kLogOr: return "logor";
    case BcOp::kLoad: return "load";
    case BcOp::kStore: return "store";
    case BcOp::kStorePtr: return "storeptr";
    case BcOp::kFrameAddr: return "frameaddr";
    case BcOp::kGlobalAddr: return "globaladdr";
    case BcOp::kFuncConst: return "funcconst";
    case BcOp::kStrConst: return "strconst";
    case BcOp::kCall: return "call";
    case BcOp::kCallInd: return "callind";
    case BcOp::kIntrinsic: return "intrinsic";
    case BcOp::kRet: return "ret";
    case BcOp::kImplicitRet: return "implicitret";
    case BcOp::kJump: return "jump";
    case BcOp::kBranch: return "branch";
    case BcOp::kCheckNonNull: return "check.nonnull";
    case BcOp::kCheckBounds: return "check.bounds";
    case BcOp::kCheckWhen: return "check.when";
    case BcOp::kCheckNtAdvance: return "check.ntadvance";
    case BcOp::kCheckStack: return "check.stack";
    case BcOp::kDelayedPush: return "delayed.push";
    case BcOp::kDelayedPop: return "delayed.pop";
    case BcOp::kTrap: return "trap";
    case BcOp::kCount_: break;
  }
  return "<bad-op>";
}

namespace {

int64_t Imm64At(const uint32_t* w) {
  return static_cast<int64_t>(static_cast<uint64_t>(w[0]) |
                              static_cast<uint64_t>(w[1]) << 32);
}

std::string RegName(uint32_t r) {
  return r == kBcNoReg || r == kBcNoWord ? std::string("_") : "r" + std::to_string(r);
}

}  // namespace

std::string DisassembleBc(const BcModule& m) {
  std::string out;
  char buf[160];
  for (size_t fi = 0; fi < m.funcs.size(); ++fi) {
    const BcFunc& f = m.funcs[fi];
    std::snprintf(buf, sizeof buf, "func %zu %s%s  regs=%u frame=%lld  [%u, %u)\n", fi,
                  f.name.empty() ? "?" : f.name.c_str(), f.defined != 0 ? "" : " (undefined)",
                  f.num_regs, static_cast<long long>(f.frame_size), f.entry_pc, f.code_end);
    out += buf;
    uint32_t pc = f.entry_pc;
    while (pc < f.code_end && pc < m.code.size()) {
      const uint32_t* w = m.code.data() + pc;
      uint32_t len = BcInstrLen(w);
      if (len == 0 || pc + len > m.code.size()) {
        std::snprintf(buf, sizeof buf, "  %6u  <bad instruction %08x>\n", pc, w[0]);
        out += buf;
        break;
      }
      BcOp op = BcOpOf(w[0]);
      uint8_t aux = BcAuxOf(w[0]);
      uint16_t r0 = BcR0Of(w[0]);
      std::snprintf(buf, sizeof buf, "  %6u  %-15s", pc, BcOpName(op));
      out += buf;
      switch (op) {
        case BcOp::kConst:
        case BcOp::kFrameAddr:
        case BcOp::kGlobalAddr:
          out += RegName(r0) + ", " + std::to_string(Imm64At(w + 1));
          break;
        case BcOp::kMove:
        case BcOp::kNeg:
        case BcOp::kLogNot:
        case BcOp::kBitNot:
          out += RegName(r0) + ", " + RegName(w[1]);
          break;
        case BcOp::kAdd:
        case BcOp::kSub:
        case BcOp::kMul:
        case BcOp::kDiv:
        case BcOp::kRem:
        case BcOp::kShl:
        case BcOp::kShr:
        case BcOp::kLt:
        case BcOp::kGt:
        case BcOp::kLe:
        case BcOp::kGe:
        case BcOp::kEq:
        case BcOp::kNe:
        case BcOp::kBitAnd:
        case BcOp::kBitOr:
        case BcOp::kBitXor:
        case BcOp::kLogAnd:
        case BcOp::kLogOr:
          out += RegName(r0) + ", " + RegName(w[1]) + ", " + RegName(w[2]);
          break;
        case BcOp::kLoad:
          out += RegName(r0) + ", [" + RegName(w[1]) + "], size=" + std::to_string(aux);
          break;
        case BcOp::kStore:
          out += "[" + RegName(r0) + "], " + RegName(w[1]) + ", size=" + std::to_string(aux);
          break;
        case BcOp::kStorePtr:
          out += "[" + RegName(r0) + "], " + RegName(w[1]);
          break;
        case BcOp::kFuncConst: {
          out += RegName(r0) + ", func " + std::to_string(w[1]);
          if (w[1] < m.funcs.size() && !m.funcs[w[1]].name.empty()) {
            out += " (" + m.funcs[w[1]].name + ")";
          }
          break;
        }
        case BcOp::kStrConst: {
          out += RegName(r0) + ", str " + std::to_string(w[1]);
          if (w[1] < m.string_pool.size()) {
            out += " \"" + m.string_pool[w[1]] + "\"";
          }
          break;
        }
        case BcOp::kCall:
        case BcOp::kCallInd: {
          out += RegName(r0) + ", ";
          if (op == BcOp::kCall) {
            out += "func " + std::to_string(w[1]);
            if (w[1] < m.funcs.size() && !m.funcs[w[1]].name.empty()) {
              out += " (" + m.funcs[w[1]].name + ")";
            }
          } else {
            out += "*" + RegName(w[1]);
          }
          out += " (";
          for (uint32_t i = 0; i < aux; ++i) {
            out += (i != 0 ? ", " : "") + RegName(w[2 + i]);
          }
          out += ")";
          break;
        }
        case BcOp::kIntrinsic: {
          out += RegName(r0);
          out += ", ";
          out += BuiltinName(static_cast<Builtin>(aux));
          out += " (";
          for (uint32_t i = 0; i < w[3]; ++i) {
            out += (i != 0 ? ", " : "") + RegName(w[4 + i]);
          }
          out += ")";
          break;
        }
        case BcOp::kRet:
          out += aux != 0 ? RegName(r0) : std::string("void");
          break;
        case BcOp::kImplicitRet:
        case BcOp::kCheckStack:
        case BcOp::kDelayedPush:
        case BcOp::kDelayedPop:
          break;
        case BcOp::kJump:
          out += "-> " + std::to_string(w[1]);
          break;
        case BcOp::kBranch:
          out += RegName(r0) + " ? " + std::to_string(w[1]) + " : " + std::to_string(w[2]);
          break;
        case BcOp::kCheckNonNull:
        case BcOp::kCheckWhen:
        case BcOp::kCheckNtAdvance:
          out += RegName(r0);
          break;
        case BcOp::kCheckBounds:
          out += RegName(r0) + " in [" + (w[1] == kBcNoWord ? "0" : RegName(w[1])) + ", " +
                 RegName(w[2]) + ") +" + std::to_string(Imm64At(w + 3));
          break;
        case BcOp::kTrap:
          out += TrapKindName(static_cast<TrapKind>(aux));
          break;
        case BcOp::kCount_:
          break;
      }
      out += "\n";
      pc += len;
    }
  }
  return out;
}

}  // namespace ivy
