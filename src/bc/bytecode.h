// ivybc: the compact stack bytecode executed by BcVm (src/bc/bcvm.h).
//
// The register IR (src/ir/ir.h) is a vector-of-blocks-of-structs: ~90 bytes
// per Instr, two levels of indirection per fetch, and a fresh register vector
// per call. ivybc flattens a whole module into one uint32_t code array with
// absolute program counters, so the interpreter's hot loop is a single word
// fetch plus a switch — the zero-allocation dispatch shape of the cedar
// engine exemplar (ROADMAP).
//
// Word layout. Every instruction starts with one header word
//
//   w0 = opcode | aux << 8 | r0 << 16
//
// where `aux` is an 8-bit immediate (load/store size, builtin id, argument
// count, trap kind, has-value flag) and `r0` is the primary register operand
// (destination, or first source for stores/checks). Additional operands
// follow as one u32 word each; 64-bit immediates take two words (lo, hi).
// kBcNoReg / kBcNoWord mark absent register operands.
//
// Source locations are kept out of the instruction stream: a deduplicated
// `loc_pool` plus a run-length `pc_locs` table (sorted (pc, loc) change
// points) recover the IR instruction's SourceLoc on trap paths only.
// kIntrinsic is the exception — it carries its loc index inline, because
// kfree logs its call site on every execution, not just on traps.
//
// Images serialize through the shared field-list codec
// (src/support/codec.h): BcFunc, GlobalSlot, GlobalInit and the module body
// each list their fields once, in bytecode.cc. DecodeBcImage is total on
// arbitrary bytes and VerifyBcModule rejects anything the interpreter would
// have to trust (see src/bc/verify.h).
#ifndef SRC_BC_BYTECODE_H_
#define SRC_BC_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/vm/machine.h"

namespace ivy {

enum class BcOp : uint8_t {
  kConst = 0,   // r0 = imm64(w1, w2)
  kMove,        // r0 = reg(w1)
  kNeg,         // r0 = -reg(w1)
  kLogNot,      // r0 = !reg(w1)
  kBitNot,      // r0 = ~reg(w1)
  kAdd,         // r0 = reg(w1) + reg(w2)  (binops share this shape)
  kSub,
  kMul,
  kDiv,
  kRem,
  kShl,
  kShr,
  kLt,
  kGt,
  kLe,
  kGe,
  kEq,
  kNe,
  kBitAnd,
  kBitOr,
  kBitXor,
  kLogAnd,
  kLogOr,
  kLoad,        // r0 = mem[reg(w1)], aux = size (1 or 8)
  kStore,       // mem[reg(r0)] = reg(w1), aux = size
  kStorePtr,    // mem[reg(r0)] = reg(w1), 8 bytes + CCount RC update
  kFrameAddr,   // r0 = frame_base + imm64(w1, w2)
  kGlobalAddr,  // r0 = imm64(w1, w2)
  kFuncConst,   // r0 = kFuncPtrBase + w1
  kStrConst,    // r0 = address of string literal w1
  kCall,        // reg(r0 or none) = funcs[w1](args…), aux = nargs, args follow
  kCallInd,     // reg(r0 or none) = (reg(w1))(args…), aux = nargs
  kIntrinsic,   // reg(r0 or none) = builtin aux(args…);
                // w1 = loc index, w2 = alloc_type_id, w3 = nargs
  kRet,         // return reg(r0) if aux else 0
  kImplicitRet, // block fell off the end: return 0 (uncounted, like tree VM)
  kJump,        // pc = w1
  kBranch,      // pc = reg(r0) != 0 ? w1 : w2
  kCheckNonNull,   // trap NullDeref if reg(r0) == 0
  kCheckBounds,    // trap Bounds unless lo <= reg(r0) && reg(r0)+imm <= hi;
                   // w1 = lo reg or kBcNoWord (lo = 0), w2 = hi reg,
                   // w3/w4 = imm64
  kCheckWhen,      // trap UnionTag if reg(r0) == 0
  kCheckNtAdvance, // trap NtOverrun if mem[reg(r0)] (1 byte) == 0
  kCheckStack,     // trap StackOverflow if stack depth exceeds budget
  kDelayedPush,
  kDelayedPop,
  kTrap,           // unconditional trap; aux = TrapKind
  kCount_,
};

inline constexpr uint16_t kBcNoReg = 0xFFFF;
inline constexpr uint32_t kBcNoWord = 0xFFFFFFFFu;

inline constexpr uint32_t BcWord0(BcOp op, uint8_t aux, uint16_t r0) {
  return static_cast<uint32_t>(op) | static_cast<uint32_t>(aux) << 8 |
         static_cast<uint32_t>(r0) << 16;
}
inline constexpr BcOp BcOpOf(uint32_t w0) { return static_cast<BcOp>(w0 & 0xFF); }
inline constexpr uint8_t BcAuxOf(uint32_t w0) { return static_cast<uint8_t>(w0 >> 8); }
inline constexpr uint16_t BcR0Of(uint32_t w0) { return static_cast<uint16_t>(w0 >> 16); }

// Instruction length in words given its header word (variable-length calls
// read the argument count from aux/w3). Returns 0 for an invalid opcode.
// `w` must point at at least the fixed prefix; callers that cannot trust the
// stream (the verifier) bounds-check the prefix themselves.
uint32_t BcInstrLen(const uint32_t* w);

// Mnemonic for an opcode ("const", "add", ...); "<bad-op>" when out of
// range. Shared by the disassembler and ivybc's --profile readout.
const char* BcOpName(BcOp op);

// One function's metadata — everything the tree VM reads off IrFunc/FuncDecl
// at call boundaries, AST-free so a decoded image can run standalone.
struct BcFunc {
  std::string name;        // empty when the IR had no decl
  SourceLoc decl_loc;      // undefined-call / stack-overflow trap location
  uint8_t defined = 0;     // had a body (IrFunc::blocks non-empty)
  uint32_t entry_pc = 0;   // first code word (== code_end when undefined)
  uint32_t code_end = 0;   // one past the last code word
  uint32_t num_regs = 0;
  int64_t frame_size = 0;
  std::vector<int64_t> param_offsets;
  std::vector<uint8_t> param_sizes;
  std::vector<int64_t> ptr_slots;
};

// A compiled module: flat code + the constant pools and layout tables the
// Machine runtime needs. GlobalSlot::decl is null after decode; the runtime
// only consults addr/size/ptr_offsets.
struct BcModule {
  std::vector<uint32_t> code;
  std::vector<BcFunc> funcs;               // indexed by IR func_id
  std::vector<std::string> string_pool;
  std::vector<GlobalSlot> globals;
  std::vector<GlobalInit> global_inits;
  uint64_t globals_end = 0;

  std::vector<SourceLoc> loc_pool;
  std::vector<std::pair<uint32_t, uint32_t>> pc_locs;  // (pc, loc_pool index)

  // The SourceLoc in effect at `pc`: the last change point at or before it.
  SourceLoc LocAt(uint32_t pc) const;

  int FindFunc(const std::string& name) const;  // -1 if absent
};

// ---------------------------------------------------------------------------
// Image serialization: header 0xA7 0xBC, version, a zero byte and the u32
// payload length, then the module body's fields in codec.h encoding
// (code, funcs, string_pool, globals, global_inits, globals_end, loc_pool,
// pc_locs).
// ---------------------------------------------------------------------------

inline constexpr uint8_t kBcMagic0 = 0xA7;
inline constexpr uint8_t kBcMagic1 = 0xBC;
inline constexpr uint8_t kBcVersion = 1;

std::string EncodeBcImage(const BcModule& m);

// Total on arbitrary bytes: any truncated, oversized, or malformed image
// returns false with *err set — never a crash, never an over-read. A decoded
// module is structurally well-formed but NOT yet trusted: run VerifyBcModule
// before executing it.
bool DecodeBcImage(const std::string& bytes, BcModule* out, std::string* err);

// Human-readable disassembly of the whole module (tools/ivybc --dump).
std::string DisassembleBc(const BcModule& m);

}  // namespace ivy

#endif  // SRC_BC_BYTECODE_H_
