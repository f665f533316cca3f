// Flat simulated physical memory plus the CCount reference-count shadow.
//
// Layout (addresses are offsets into one byte array; 0 is the null page):
//   [0, 4096)                      null guard page -- any access faults
//   [4096, globals_end)            globals + string literals ("rodata")
//   [stack_base, stack_base+len)   the kernel stack region (VM call frames)
//   [heap_base, mem_size)          kmalloc heap
//
// The shadow keeps one 8-bit counter per 16-byte chunk, exactly the paper's
// scheme (6.25% space overhead; counters wrap mod 256, so a bad free of an
// object with k*256 inbound references is missed -- reproduced and measured
// by the A3 ablation).
//
// Both arrays come from calloc, so a VM start does not write them: the OS
// zero-fills each page on its first touch, and a run keeps resident only
// the pages it uses.
#ifndef SRC_VM_MEMORY_H_
#define SRC_VM_MEMORY_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

namespace ivy {

// Function pointers live outside data memory in their own id space.
constexpr uint64_t kFuncPtrBase = 1ull << 48;

class Memory {
 public:
  explicit Memory(uint64_t size)
      : mem_(ZeroedBytes(size)), rc_(ZeroedBytes(size / 16 + 1)), size_(size) {}

  uint64_t size() const { return size_; }
  uint8_t* data() { return mem_.get(); }
  const uint8_t* data() const { return mem_.get(); }

  // True if [addr, addr+bytes) is a legal data access.
  bool Valid(uint64_t addr, uint64_t bytes) const {
    return addr >= 4096 && bytes <= size_ && addr <= size_ - bytes;
  }

  // Unchecked typed accessors (caller validates). 1-byte loads zero-extend.
  int64_t Read(uint64_t addr, int size) const {
    if (size == 1) {
      return mem_[addr];
    }
    int64_t v;
    std::memcpy(&v, &mem_[addr], 8);
    return v;
  }

  void Write(uint64_t addr, int64_t value, int size) {
    if (size == 1) {
      mem_[addr] = static_cast<uint8_t>(value & 0xff);
    } else {
      std::memcpy(&mem_[addr], &value, 8);
    }
  }

  // Reference-count shadow for the 16-byte chunk containing `addr`.
  uint8_t Rc(uint64_t addr) const { return rc_[addr / 16]; }
  void RcSet(uint64_t addr, uint8_t v) { rc_[addr / 16] = v; }
  void RcInc(uint64_t addr) { ++rc_[addr / 16]; }
  void RcDec(uint64_t addr) { --rc_[addr / 16]; }

  // True if `value` is a plausible data pointer whose target chunk is
  // counted (excludes null and the function-pointer id space).
  bool Countable(uint64_t value) const { return value >= 4096 && value < size_; }

  void ZeroRange(uint64_t addr, uint64_t bytes) { std::memset(&mem_[addr], 0, bytes); }

  // Region registration (set once by the VM after layout).
  uint64_t globals_end = 4096;
  uint64_t stack_base = 0;
  uint64_t stack_size = 0;
  uint64_t heap_base = 0;

  bool InStack(uint64_t addr) const {
    return addr >= stack_base && addr < stack_base + stack_size;
  }

 private:
  struct FreeBytes {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  using Bytes = std::unique_ptr<uint8_t[], FreeBytes>;

  static Bytes ZeroedBytes(uint64_t n) {
    void* p = std::calloc(n, 1);
    if (p == nullptr) {
      throw std::bad_alloc();
    }
    return Bytes(static_cast<uint8_t*>(p));
  }

  Bytes mem_;
  Bytes rc_;
  uint64_t size_;
};

}  // namespace ivy

#endif  // SRC_VM_MEMORY_H_
