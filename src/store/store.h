// The persistent analysis store: a versioned on-disk snapshot of a
// session's findings and link table, so a fresh process over unchanged
// sources answers without analyzing anything (tools/annolink, tools/annod).
//
// File layout (little-endian):
//
//   offset  size  field
//   0       1     magic0 = 0xA7
//   1       1     magic1 = 0xD5        (store; the wire protocol is 0xDB)
//   2       1     version = kStoreVersion
//   3       1     flags (bit0 = linked; others reserved)
//   4       ...   body: field lists in the shared codec (src/support/codec.h)
//
// Body encoding:
//
//   u64  corpus_digest          pipeline recipe hash — see
//                               AnalysisSession::CorpusDigest(); a mismatch
//                               rejects the whole file (stale recipe)
//   u32  module_count
//        per module:            name, source digest, sources, and — when
//                               `analyzed` — the compile outcome and the
//                               module's unstamped findings (every field
//                               but `module`)
//   u32  summary_count
//        per row:               FuncSummary fields, strictly ascending by
//                               (module, function)
//
// A summary row writes its definer-only fields only when `defined` is set
// and its usage-only fields only when it is not — the fields
// FuncSummary::ToJson renders — so encode(decode(x)) == x byte for byte.
// Every field of a module record is always written (zeroed when
// !analyzed). Decoders are total: the codec bounds counts by the bytes left
// and rejects a bool byte above 1 and param_points indices that do not
// ascend; the store's field lists add a severity above 2, stack_below
// below -1, a param_points index above kMaxParamIndex; rows out of key
// order are rejected, and Finish() demands exact consumption. Truncated, oversized or mutated input returns
// false, never a crash (fuzzed in tests/store_test.cc).
//
// Version policy: strict. kStoreVersion bumps on any schema change and a
// version mismatch rejects the file — a store is a cache of re-derivable
// facts, so the correct fallback is always a cold run, never a migration.
//
// Concurrency: one writer per store path. The process that owns a store
// (annolink for its run, annod for its lifetime) is its only writer; there
// is no locking. Writes are atomic replaces: write `<path>.tmp.<pid>`,
// fsync it, rename() it over `<path>`, fsync the directory. Readers of the
// plain path therefore always see a complete file, and a crash or power
// loss at any point leaves either the old or the new store, never a torn or
// empty one.
#ifndef SRC_STORE_STORE_H_
#define SRC_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/tool/finding.h"

namespace ivy {

inline constexpr uint8_t kStoreMagic0 = 0xA7;
inline constexpr uint8_t kStoreMagic1 = 0xD5;
// v3: the link stage became one whole-corpus run, so a module record keeps
// only sources, compile outcome and findings (v2's fingerprints, import
// signature and link name sets are gone, and so is the converged flag).
// v4: findings and summary rows are typed fields instead of canonical JSON
// strings, so a load decodes them without parsing or re-canonicalizing.
inline constexpr uint8_t kStoreVersion = 4;
inline constexpr uint8_t kStoreFlagLinked = 1u << 0;
inline constexpr size_t kStoreHeaderSize = 4;
// A store holds sources + facts for one corpus; far below this in practice.
inline constexpr uint64_t kMaxStoreBytes = 256ull << 20;

// One module's persisted state. When `analyzed` is false only the sources
// are meaningful (the module was dirty at save time — its other fields are
// written zeroed and it is analyzed again after load).
struct StoreModule {
  std::string name;
  uint64_t source_digest = 0;  // SourcesDigest(files)
  std::vector<std::pair<std::string, std::string>> files;  // (name, text)

  bool analyzed = false;
  bool ok = false;  // compiled successfully (false: compile_errors applies)
  std::string compile_errors;
  // Unstamped findings (empty `module`), exactly what the session caches
  // per module.
  std::vector<Finding> findings;
};

struct StoreFile {
  uint64_t corpus_digest = 0;
  // The table came from a RunLinked() over the stored module set (the
  // session's linked_: false after a RemoveModule, until the next link).
  bool linked = false;
  std::map<std::string, StoreModule> modules;
  // The link table, in strictly ascending (module, function) order.
  std::vector<FuncSummary> summaries;
};

// In-memory encode/decode (the unit the format tests fuzz).
std::string EncodeStore(const StoreFile& sf);
bool DecodeStore(const std::string& bytes, StoreFile* out, std::string* err);

// Whole-file read. Returns false (with *err) on I/O errors, oversized
// files, or any decode failure.
bool ReadStoreFile(const std::string& path, StoreFile* out, std::string* err);

// Durable atomic replace: write and fsync `<path>.tmp.<pid>`, rename() it
// over `<path>`, fsync the containing directory. The caller must be the
// path's only writer (see "Concurrency" above).
bool WriteStoreFile(const std::string& path, const StoreFile& sf, std::string* err);

// FNV-1a 64 over length-framed (name, text) pairs — the per-module source
// identity the warm-start check compares.
uint64_t SourcesDigest(const std::vector<std::pair<std::string, std::string>>& files);
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed);

}  // namespace ivy

#endif  // SRC_STORE_STORE_H_
