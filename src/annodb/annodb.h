// The collaborative annotation repository (§3.2).
//
// "We propose the creation of a collaborative database of source code
// information that would allow different researchers and tools to share and
// reuse information about publicly available source code such as the Linux
// kernel. For example, this database could provide pointer alias information
// and bounds information for function arguments and global variables ... We
// can also store information about blocking functions, error codes, and so
// on."
//
// AnnoDb serializes per-function and per-record facts to JSON: parameter
// bounds annotations, blocking/noblock attributes, error codes, inferred
// may-block sets, frame sizes and pointer layouts. Databases can be
// exported from an analyzed program, merged (collaboration), and applied to
// an *unannotated* module as attribute defaults (incremental porting).
#ifndef SRC_ANNODB_ANNODB_H_
#define SRC_ANNODB_ANNODB_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/blockstop/blockstop.h"
#include "src/driver/compiler.h"
#include "src/mc/ast.h"
#include "src/support/json.h"
#include "src/tool/finding.h"

namespace ivy {

class AnalysisContext;
struct PipelineResult;

struct FuncFacts {
  std::string name;
  std::vector<std::string> param_annots;  // rendered types, e.g. "char* count(n)"
  bool blocking = false;
  bool noblock = false;
  bool may_block = false;  // inferred by BlockStop
  int blocking_if_param = -1;
  std::vector<int64_t> errcodes;
  int64_t frame_size = 0;
  // Provenance: the corpus module that first contributed this entry (empty
  // for single-program exports). RetractModule drops stamped entries.
  std::string module;
};

struct RecordFacts {
  std::string name;
  int64_t size = 0;
  std::vector<int64_t> ptr_offsets;  // CCount layout
  std::string module;  // provenance, as in FuncFacts
};

// The largest param_points index a summary row may carry, in JSON and in
// the store; comfortably above any real arity.
inline constexpr int kMaxParamIndex = 4095;

// One function's cross-module summary — the link-stage fact table, keyed by
// (module, function). A row is either a *definer* row (defined == true:
// bottom-up facts about a function the module defines) or a *usage* row
// (defined == false: top-down facts about how the module's own code calls a
// function it declares extern). AnalysisSession::RunLinked derives every
// row from one whole-corpus analysis; the table is an export-only view of
// that run (the §3.2 repository), never fed back into an analysis.
struct FuncSummary {
  std::string module;    // exporting module
  std::string function;
  bool defined = false;

  // Definer-row facts (bottom-up).
  bool may_block = false;
  std::string block_witness;     // definer's witness chain root
  bool blocking = false;         // source annotations, re-exported
  bool noblock = false;
  int blocking_if_param = -1;
  bool returns_error = false;    // errcheck classification (annotated or inferred)
  std::vector<int64_t> errcodes;
  int64_t frame_size = 0;
  std::vector<std::string> callees;        // resolved Mini-C callees (sorted, unique)
  std::vector<std::string> returns_points; // fn names the return value may point to
  std::vector<std::string> locks_acquired; // lock-delta facts (sorted)
  // Corpus-level stack facts: filled onto definer rows by the session's
  // link stage (they need the whole corpus condensation, not one module).
  int64_t stack_below = -1;
  bool cross_recursive = false;

  // Usage-row facts (top-down, about an extern-declared function).
  bool entered_atomic = false;
  bool entered_in_irq = false;
  std::map<int, std::vector<std::string>> param_points;  // param idx -> fn names

  Json ToJson() const;
  static FuncSummary FromJson(const Json& j);
  // Strict variant: returns false (with a diagnostic in *error) for
  // malformed rows — e.g. a param_points key that is not a canonical
  // in-range decimal index — instead of silently aliasing garbage onto
  // parameter 0. On failure *out holds the fields parsed so far; callers
  // must discard it.
  static bool FromJson(const Json& j, FuncSummary* out, std::string* error);
  // Canonical byte form — what annolink prints and wire replies carry.
  // Json objects are sorted maps, so this is stable.
  std::string Canonical() const { return ToJson().Dump(-1); }
};

// A summaries query: the rows of `function` exported by `module`; an empty
// field matches any. The row-side twin of FindingQuery (src/tool/finding.h),
// shared by the server's handler and every annodb-query mode.
struct SummaryQuery {
  std::string function;
  std::string module;

  bool Matches(const FuncSummary& row) const {
    return (function.empty() || row.function == function) &&
           (module.empty() || row.module == module);
  }
};

class AnnoDb {
 public:
  // Extracts a database from a compiled program (plus optional BlockStop
  // results for the inferred may-block facts). Module-private copies (see
  // PublicNames) are left out: the public definer's entry stands for the
  // name. With `module_of`, every entry is stamped with the module name
  // module_of(its declaration's location) points to (none for null).
  static AnnoDb Extract(const Compilation& comp, const BlockStopReport* blockstop = nullptr,
                        const std::function<const std::string*(SourceLoc)>& module_of = {});

  // Pipeline-native extraction: pulls the may-block facts from the
  // pipeline's blockstop result (when that pass ran) and attaches the
  // merged unified findings, so one exported JSON carries both the facts
  // and what the tools concluded from them (§3.2's shared repository).
  static AnnoDb Extract(AnalysisContext& ctx, const PipelineResult* pipeline);

  // Serialization round trip. Malformed summary rows are rejected (not
  // loaded); pass `errors` to collect one diagnostic per rejected row.
  Json ToJson() const;
  static AnnoDb FromJson(const Json& j, std::vector<std::string>* errors = nullptr);

  // Merge: facts from `other` fill gaps in this database; conflicting
  // boolean facts are OR-ed (conservative for blocking). Findings are
  // deduplicated on (module, tool, loc, message) — per-module provenance
  // keeps identical findings from different modules distinct, and
  // re-merging the same export stays idempotent. Summary rows replace on
  // their (module, function) key, so re-importing a module's summaries is
  // idempotent too. Returns number of new entries added.
  int Merge(const AnnoDb& other);

  // Drops every finding, summary row, and stamped fact entry from `module`
  // (see Finding::module / FuncFacts::module) so a session can retract a
  // re-analyzed module's stale records before merging its fresh ones.
  // Returns the number retracted.
  int RetractModule(const std::string& module);

  // Applies stored blocking/errcode attributes to functions of `prog` that
  // lack them (incremental porting of unannotated modules). Returns the
  // number of functions updated.
  int ApplyAttributes(Program* prog) const;

  // The summary fact table, keyed by (module, function). AddSummary
  // replaces any existing row with the same key.
  void AddSummary(FuncSummary row);
  const std::map<std::pair<std::string, std::string>, FuncSummary>& summaries() const {
    return summaries_;
  }

  const std::map<std::string, FuncFacts>& funcs() const { return funcs_; }
  const std::map<std::string, RecordFacts>& records() const { return records_; }

  // Unified tool findings carried alongside the facts (serialized under the
  // "findings" key; survives the JSON round trip and Merge). The optional
  // SourceManager (not owned; must outlive ToJson calls) lets the export
  // render human-readable "at" locations — raw file ids are private to the
  // exporting compilation and meaningless to a repository consumer.
  void SetFindings(std::vector<Finding> findings, const SourceManager* sm = nullptr) {
    findings_ = std::move(findings);
    findings_sm_ = sm;
  }
  const std::vector<Finding>& findings() const { return findings_; }

 private:
  std::map<std::string, FuncFacts> funcs_;
  std::map<std::string, RecordFacts> records_;
  std::map<std::pair<std::string, std::string>, FuncSummary> summaries_;
  std::vector<Finding> findings_;
  const SourceManager* findings_sm_ = nullptr;
};

}  // namespace ivy

#endif  // SRC_ANNODB_ANNODB_H_
