// Structural fingerprints of Mini-C declarations. A fingerprint hashes what
// an analysis can observe (names, operators, literals, declared types,
// attributes) and deliberately ignores SourceLocs, so an edit that only
// shifts later functions down the file leaves them unchanged. No analysis
// path reads them: they serve the arena tests (fingerprints are independent
// of intern ids and slab position) and ivybench's per-layer replay
// (`analysis.fingerprint_ms`).
//
// Three granularities:
//   - FingerprintFunction: signature + attributes + body structure. Equal
//     fingerprints => the function generates identical analysis constraints
//     (points-to edges, call sites, lock/err scans) up to name resolution.
//   - FingerprintSignature: the part callers can observe (name, type,
//     attributes).
//   - FingerprintPreamble: globals + records. Covers everything outside
//     function bodies that analyses read (field layout, global initializers).
//
// The per-function fingerprint is a LINEAR walk over the function's
// contiguous arena slab spans (FuncDecl::{expr,stmt,decl}_{begin,end}) — no
// recursive pointer chase. Tree shape is captured by mixing each node's
// child ids RELATIVE to the span start, and string content enters through
// the interner's cached per-id content hashes, so the result is independent
// of where the function sits in the module (absolute ids, SourceLocs) and
// identical across allocation modes. Node ids are deterministic given the
// source bytes, so so is the fingerprint.
//
// ReferencedNames collects every identifier a body mentions (skipping
// Expr::no_refs annotation/const-eval nodes).
#ifndef SRC_ANALYSIS_FINGERPRINT_H_
#define SRC_ANALYSIS_FINGERPRINT_H_

#include <cstdint>
#include <set>
#include <string>

#include "src/mc/ast.h"

namespace ivy {

uint64_t FingerprintFunction(const Program& prog, const FuncDecl* fn);
uint64_t FingerprintSignature(const FuncDecl* fn);
uint64_t FingerprintPreamble(const Program& prog);

// Identifier spellings referenced anywhere in `fn`'s body (call targets,
// variable reads, address-of operands).
std::set<std::string> ReferencedNames(const Program& prog, const FuncDecl* fn);

// All three in one linear sweep over the function's slab spans.
struct FunctionFingerprint {
  uint64_t full = 0;  // signature + attributes + body
  uint64_t sig = 0;   // what callers can observe
  std::set<std::string> refs;
};
FunctionFingerprint FingerprintFunctionFull(const Program& prog, const FuncDecl* fn);

}  // namespace ivy

#endif  // SRC_ANALYSIS_FINGERPRINT_H_
