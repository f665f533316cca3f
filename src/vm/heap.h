// The CCount-instrumented kernel heap (§2.2).
//
// This is the paper's "modified kmalloc, kfree and slab allocators":
//  * allocations are 16-byte aligned and zeroed (so later pointer writes do
//    not decrement random reference counts),
//  * every free first drops the object's *outgoing* references (using the
//    TypeLayoutRegistry RTTI), then verifies that no inbound references
//    remain in the shadow counters,
//  * a bad free is logged and the object is leaked ("on failure, we log an
//    error and (optionally) leak the object to guarantee soundness"),
//  * `delayed_free { }` scopes queue frees and run all decrements before any
//    check, which is what makes cyclic structures verifiable.
#ifndef SRC_VM_HEAP_H_
#define SRC_VM_HEAP_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ccount/layouts.h"
#include "src/support/source.h"
#include "src/vm/memory.h"

namespace ivy {

struct HeapObject {
  uint64_t base = 0;
  int64_t size = 0;        // rounded up to 16
  int32_t type_id = kTypeIdUnknown;
  enum class State { kLive, kFreed, kLeaked } state = State::kLive;
};

// One aggregated bad-free report site (file/line of the kfree call).
struct BadFreeSite {
  SourceLoc loc;
  int64_t count = 0;
  int64_t inbound_refs = 0;  // residual references seen at the last report
};

struct HeapStats {
  int64_t allocs = 0;
  int64_t frees_attempted = 0;
  int64_t frees_good = 0;
  int64_t frees_bad = 0;
  int64_t frees_deferred = 0;  // routed through delayed_free scopes
  int64_t bytes_live = 0;
  int64_t bytes_peak = 0;
  int64_t rc_increments = 0;
  int64_t rc_decrements = 0;
};

class Heap {
 public:
  // `rc_width_bits` narrows the shadow counters for the A3 ablation
  // (8 = the paper's scheme; counters wrap mod 2^width).
  Heap(Memory* mem, const TypeLayoutRegistry* layouts, bool ccount_enabled,
       int rc_width_bits = 8);

  // Allocates `size` bytes (16-byte aligned, zeroed). Returns 0 on OOM.
  uint64_t Alloc(int64_t size, int32_t type_id);

  enum class FreeResult { kOk, kBad, kDeferred, kInvalid };
  FreeResult Free(uint64_t p, SourceLoc loc);

  // delayed_free scope management.
  void PushDelayedScope();
  // Processes deferred frees: all outgoing decrements first, then all
  // inbound checks. Returns number of bad frees found.
  int PopDelayedScope();
  int delayed_depth() const { return static_cast<int>(delayed_.size()); }

  // Reference-count maintenance for one pointer write: increment the new
  // target before decrementing the old one (the paper's ordering rule for
  // avoiding transitory zero counts under concurrency).
  void RcWrite(uint64_t old_value, uint64_t new_value);

  // Looks up the live object containing `addr` (not only its base), or null.
  const HeapObject* Find(uint64_t addr) const;
  const HeapObject* FindBase(uint64_t base) const;

  // Sum of shadow counters over the object's chunks.
  int64_t InboundRefs(const HeapObject& obj) const;

  // Masked (counter-width-accurate) refcount of the chunk holding `addr`.
  uint8_t RcOf(uint64_t addr) const { return MaskRc(mem_->Rc(addr)); }

  const HeapStats& stats() const { return stats_; }
  // The bump pointer: one past the highest byte ever allocated.
  uint64_t top() const { return bump_; }
  const std::map<std::pair<int, int>, BadFreeSite>& bad_free_sites() const {
    return bad_free_sites_;
  }
  bool ccount() const { return ccount_; }

  // Fraction of attempted frees verified good, in [0,1]; 1.0 when none.
  double GoodFreeRatio() const;

 private:
  // Drops the outgoing references of `obj` per its type layout.
  void DecOutgoing(const HeapObject& obj);
  void FinishFree(HeapObject* obj, SourceLoc loc);
  uint8_t MaskRc(uint8_t raw) const;

  Memory* mem_;
  const TypeLayoutRegistry* layouts_;
  bool ccount_;
  uint8_t rc_mask_;

  uint64_t bump_;
  std::unordered_map<uint64_t, HeapObject> objects_;     // by base address
  std::map<uint64_t, uint64_t> live_ranges_;             // base -> end (for Find)
  std::unordered_map<int64_t, std::vector<uint64_t>> free_bins_;  // size -> bases
  std::vector<std::vector<std::pair<uint64_t, SourceLoc>>> delayed_;
  HeapStats stats_;
  std::map<std::pair<int, int>, BadFreeSite> bad_free_sites_;
};

}  // namespace ivy

#endif  // SRC_VM_HEAP_H_
