// Arena storage for the Mini-C AST: chunked node slabs with stable addresses
// and dense uint32_t ids, a bump allocator for child-list arrays, and a
// string interner with per-id content hashes.
//
// Design (see docs/ARCHITECTURE.md "Frontend"):
//   - Expr/Stmt/VarDecl nodes live in per-kind slabs of fixed-size chunks.
//     Addresses never move, so consumers keep using plain pointers, while
//     every node also carries its slab index (`id`) — the typed handles
//     ExprId/StmtId/DeclId below. Ids are assigned in parse order, so they
//     are deterministic given the source bytes, and all nodes of one
//     function occupy one contiguous id range (FuncDecl::{expr,stmt,decl}_
//     {begin,end}) — the "slab span" that fingerprinting iterates linearly
//     and that serializes as four integers.
//   - Child lists (call args, block bodies) are arena-allocated arrays, not
//     std::vectors: one bump allocation per list, nothing to destruct.
//   - Identifier/string spellings are interned: nodes hold a string_view
//     into arena-owned bytes plus a dense StrId; the interner keeps one
//     content hash per id so fingerprints mix string content in O(1).
//   - Everything a slab or the bump arena owns is trivially destructible
//     (static_asserted in ast.h), so dropping the arena frees the whole AST
//     in O(chunks) — error-path parses cannot leak by construction.
#ifndef SRC_MC_ARENA_H_
#define SRC_MC_ARENA_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ivy {

// FNV-1a parameters — the one pair of constants every frontend hash
// (string interning, fingerprints) derives from.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// Sentinel for "no node" / "no string" in id space.
constexpr uint32_t kNoNode = 0xFFFFFFFFu;
constexpr uint32_t kNoStr = 0xFFFFFFFFu;

// Typed index handles. A handle is just the node's slab index; `kNoNode`
// means null. Nodes store their own id, so `ExprId{e->id}` and
// `prog.ExprAt(id)` convert both ways.
struct ExprId {
  uint32_t v = kNoNode;
  bool valid() const { return v != kNoNode; }
};
struct StmtId {
  uint32_t v = kNoNode;
  bool valid() const { return v != kNoNode; }
};
struct DeclId {
  uint32_t v = kNoNode;
  bool valid() const { return v != kNoNode; }
};

// Length-tagged FNV-1a over string content. The value the interner caches
// per StrId and the only way string content enters a fingerprint.
inline uint64_t StrContentHash(std::string_view s) {
  uint64_t h = kFnvOffset;
  uint64_t n = s.size();
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint8_t>(n >> (i * 8));
    h *= kFnvPrime;
  }
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Chunked byte arena for child-list arrays and interned string bytes.
// Addresses are stable; nothing is ever freed individually.
class BumpArena {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;

  void* Alloc(size_t n, size_t align) {
    if (n == 0) {
      return nullptr;
    }
    used_ += n;
    if (n > kChunkBytes / 4) {
      chunks_.emplace_back(new char[n]);
      reserved_ += n;
      return chunks_.back().get();
    }
    size_t off = (cur_off_ + align - 1) & ~(align - 1);
    if (cur_ == nullptr || off + n > kChunkBytes) {
      chunks_.emplace_back(new char[kChunkBytes]);
      reserved_ += kChunkBytes;
      cur_ = chunks_.back().get();
      off = 0;
    }
    cur_off_ = off + n;
    return cur_ + off;
  }

  // Copies `s` into the arena and returns a stable view of it.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) {
      return std::string_view();
    }
    char* p = static_cast<char*>(Alloc(s.size(), 1));
    std::memcpy(p, s.data(), s.size());
    return std::string_view(p, s.size());
  }

  size_t used_bytes() const { return used_; }
  size_t reserved_bytes() const { return reserved_; }

 private:
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;
  size_t cur_off_ = 0;
  size_t used_ = 0;
  size_t reserved_ = 0;
};

// A stable-address slab of T with dense uint32_t indices, packed into
// 512-element chunks (id -> chunk[id >> 9][id & 511]).
template <typename T>
class NodeSlab {
 public:
  static constexpr uint32_t kChunkShift = 9;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;

  T* New() {
    if ((count_ & kChunkMask) == 0) {
      chunks_.emplace_back(new T[kChunkSize]);
    }
    T* p = &chunks_.back()[count_ & kChunkMask];
    ++count_;
    return p;
  }

  T* At(uint32_t id) { return &chunks_[id >> kChunkShift][id & kChunkMask]; }
  const T* At(uint32_t id) const { return &chunks_[id >> kChunkShift][id & kChunkMask]; }

  uint32_t size() const { return count_; }

  size_t bytes() const { return chunks_.size() * kChunkSize * sizeof(T); }

 private:
  uint32_t count_ = 0;
  std::vector<std::unique_ptr<T[]>> chunks_;
};

// An interned string: a stable view of the bytes plus the dense id whose
// content hash the interner caches.
struct StrRef {
  std::string_view view;
  uint32_t id = kNoStr;
};

// Deduplicating string interner with per-id content hashes.
class StringInterner {
 public:
  explicit StringInterner(BumpArena* bytes) : bytes_(bytes) {}

  StrRef Intern(std::string_view s) {
    auto it = map_.find(s);
    if (it != map_.end()) {
      return StrRef{views_[it->second], it->second};
    }
    std::string_view stored = bytes_->CopyString(s);
    uint32_t id = static_cast<uint32_t>(views_.size());
    views_.push_back(stored);
    hashes_.push_back(StrContentHash(stored));
    map_.emplace(stored, id);
    return StrRef{stored, id};
  }

  std::string_view View(uint32_t id) const { return views_[id]; }
  uint64_t Hash(uint32_t id) const { return hashes_[id]; }
  uint32_t size() const { return static_cast<uint32_t>(views_.size()); }

 private:
  BumpArena* bytes_;
  std::vector<std::string_view> views_;
  std::vector<uint64_t> hashes_;
  std::unordered_map<std::string_view, uint32_t> map_;
};

}  // namespace ivy

#endif  // SRC_MC_ARENA_H_
