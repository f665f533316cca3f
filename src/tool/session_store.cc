// The persistent half of AnalysisSession: SaveStore/LoadStore, warm starts
// across process restarts. Split from session.cc so the in-memory pipeline
// code stays independent of src/store.
//
// Soundness of the warm start reduces to the determinism contract: analysis
// is a pure function of (sources, recipe, imported facts), so restored state
// is byte-identical to what re-analysis would produce. Crash recovery rests
// on the fixpoint being monotone from a retracted base: any store written
// mid-run holds a table ≤ the least fixpoint, and the fixpoint is
// source-determined, so reloading an unconverged store with every module
// dirty converges to identical bytes.
#include <utility>

#include "src/store/store.h"
#include "src/tool/session.h"
#include "src/tool/session_state.h"

namespace ivy {

namespace {

void SetErr(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what;
  }
}

std::vector<std::pair<std::string, std::string>> FilePairs(
    const std::vector<SourceFile>& files) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(files.size());
  for (const SourceFile& f : files) {
    out.emplace_back(f.name, f.text);
  }
  return out;
}

// Strict parse of one stored summary row; the store's canon strings must
// round-trip exactly or the fixpoint diff would chase phantom changes.
bool ParseSummaryRow(const std::pair<std::string, std::string>& key,
                     const std::string& canon, FuncSummary* out, std::string* err) {
  std::string jerr;
  Json j = Json::Parse(canon, &jerr);
  if (!jerr.empty()) {
    SetErr(err, "bad summary row " + key.first + ":" + key.second + ": " + jerr);
    return false;
  }
  std::string serr;
  if (!FuncSummary::FromJson(j, out, &serr)) {
    SetErr(err, "bad summary row " + key.first + ":" + key.second + ": " + serr);
    return false;
  }
  if (out->module != key.first || out->function != key.second) {
    SetErr(err, "summary row key mismatch for " + key.first + ":" + key.second);
    return false;
  }
  if (out->Canonical() != canon) {
    SetErr(err, "summary row " + key.first + ":" + key.second +
                    " is not in canonical form");
    return false;
  }
  return true;
}

bool ParseFindings(const StoreModule& rec, std::vector<Finding>* out,
                   std::string* err) {
  out->clear();
  for (const std::string& canon : rec.findings_canon) {
    std::string jerr;
    Json j = Json::Parse(canon, &jerr);
    if (!jerr.empty()) {
      SetErr(err, "bad finding in store record '" + rec.name + "': " + jerr);
      return false;
    }
    out->push_back(Finding::FromJson(j));
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Corpus digest
// ---------------------------------------------------------------------------

uint64_t AnalysisSession::CorpusDigest() const {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const std::string& s) {
    uint64_t n = s.size();
    h = Fnv1a64(&n, sizeof n, h);
    h = Fnv1a64(s.data(), s.size(), h);
  };
  for (const std::string& step : pipeline_.Plan()) {
    mix(step);
  }
  for (const std::string& tool : pipeline_.tools()) {
    mix(tool);
  }
  for (const auto& [tool, opts] : pipeline_.tool_options()) {
    for (const auto& [key, value] : opts.entries()) {
      if (key == "shards") {
        continue;  // sharding cannot change results (the PR 2 contract)
      }
      mix(tool);
      mix(key);
      mix(value);
    }
  }
  const ToolConfig& c = pipeline_.config();
  const uint8_t knobs[7] = {
      static_cast<uint8_t>(c.deputy),       static_cast<uint8_t>(c.discharge),
      static_cast<uint8_t>(c.ccount),       static_cast<uint8_t>(c.smp),
      static_cast<uint8_t>(c.track_locals), static_cast<uint8_t>(c.include_prelude),
      static_cast<uint8_t>(pipeline_.field_sensitive())};
  h = Fnv1a64(knobs, sizeof knobs, h);
  const uint64_t rc_bits = static_cast<uint64_t>(c.rc_width_bits);
  h = Fnv1a64(&rc_bits, sizeof rc_bits, h);
  return h;
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

bool AnalysisSession::SaveStore(const std::string& path, std::string* err) const {
  StoreFile sf;
  sf.corpus_digest = CorpusDigest();
  sf.linked = linked_ever_;
  sf.converged = linked_ever_ && link_stats_.converged;
  for (const auto& [name, st] : modules_) {
    StoreModule m;
    m.name = name;
    m.files = FilePairs(st->files);
    m.source_digest = SourcesDigest(m.files);
    // A dirty module's cached analysis (if any) belongs to *older* sources;
    // persisting the pair would let a loader treat stale facts as current.
    // Dirty modules are stored sources-only and re-analyze cold on load.
    m.analyzed = !st->dirty;
    if (m.analyzed) {
      m.ok = st->ok;
      m.compile_errors = st->compile_errors;
      m.preamble_fp = st->preamble_fp;
      for (const auto& [fname, fp] : st->func_fps) {
        auto sig = st->sig_fps.find(fname);
        m.func_fps[fname] = {fp, sig != st->sig_fps.end() ? sig->second : 0};
      }
      m.import_sig = st->import_sig;
      m.has_link_names = st->have_link_names;
      m.defined_names.assign(st->defined_names.begin(), st->defined_names.end());
      m.extern_refs.assign(st->extern_refs.begin(), st->extern_refs.end());
      if (st->ok) {
        for (const Finding& f : st->result.findings) {
          // Unstamped, location-raw canonical form — exactly the per-module
          // cache Run() stamps, so a restored module merges
          // byte-identically.
          m.findings_canon.push_back(f.ToJson(nullptr).Dump(-1));
        }
      }
    }
    sf.modules.emplace(name, std::move(m));
  }
  for (const auto& [key, row] : link_table_.summaries()) {
    sf.summaries[key] = row.Canonical();
  }
  return WriteStoreFile(path, sf, err);
}

void AnalysisSession::ImportStoreRecord(const StoreModule& rec,
                                        std::vector<Finding> findings) {
  auto& st = modules_[rec.name];
  if (st == nullptr) {
    st = std::make_unique<ModuleState>();
  }
  if (st->files.empty()) {
    for (const auto& [fname, text] : rec.files) {
      st->files.push_back(SourceFile{fname, text});
    }
  }

  const bool keep_names = !rec.has_link_names && st->have_link_names;
  // Destroy the live context before touching the snapshot/hint storage it
  // points into (hints.pointsto_prev → pt_snapshot, link seeds).
  st->ctx.reset();
  st->comp.reset();
  st->dirty = false;
  st->ok = rec.ok;
  st->analyzed_now = false;
  st->compile_errors = rec.compile_errors;
  // The in-memory solver snapshots (points-to deltas, may-block memo) are
  // not persisted: the next source edit re-solves this module cold, which
  // the warm gate (have_snapshot) makes exact by construction.
  st->have_snapshot = false;
  st->have_mayblock = false;
  st->prev_mayblock.clear();
  st->pt_snapshot = PointsToSnapshot{};
  st->callee_hashes.clear();
  st->func_refs.clear();
  st->preamble_fp = rec.preamble_fp;
  st->func_fps.clear();
  st->sig_fps.clear();
  for (const auto& [fname, fp] : rec.func_fps) {
    st->func_fps[fname] = fp.first;
    st->sig_fps[fname] = fp.second;
  }
  st->import_sig = rec.import_sig;
  st->link_seeds.clear();
  if (!keep_names) {
    // A compile-failed record carries no names; keep the module's previous
    // edge structure — exactly what the in-process path does when Analyze
    // never runs.
    st->have_link_names = rec.has_link_names;
    st->defined_names =
        std::set<std::string>(rec.defined_names.begin(), rec.defined_names.end());
    st->extern_refs =
        std::set<std::string>(rec.extern_refs.begin(), rec.extern_refs.end());
  }
  st->stats = ModuleStats{};
  st->hints = IncrementalHints{};
  st->result = PipelineResult{};
  st->result.findings = std::move(findings);
}

bool AnalysisSession::LoadStore(const std::string& path, std::string* err) {
  StoreFile sf;
  if (!ReadStoreFile(path, &sf, err)) {
    return false;
  }
  if (sf.corpus_digest != CorpusDigest()) {
    SetErr(err, "store '" + path + "' has a stale corpus digest (the analysis recipe changed)");
    return false;
  }
  // Validate everything up front: LoadStore either restores or leaves the
  // session untouched — never half-warm.
  std::vector<FuncSummary> rows;
  rows.reserve(sf.summaries.size());
  for (const auto& [key, canon] : sf.summaries) {
    FuncSummary s;
    if (!ParseSummaryRow(key, canon, &s, err)) {
      return false;
    }
    rows.push_back(std::move(s));
  }
  std::map<std::string, std::vector<Finding>> findings;
  for (const auto& [name, rec] : sf.modules) {
    if (rec.analyzed && rec.ok && !ParseFindings(rec, &findings[name], err)) {
      return false;
    }
  }

  for (const auto& [name, rec] : sf.modules) {
    auto it = modules_.find(name);
    if (it != modules_.end()) {
      ModuleState* st = it->second.get();
      if (SourcesDigest(FilePairs(st->files)) != rec.source_digest) {
        // The session already holds *newer* sources: keep them (and the
        // dirty bit), but adopt the record's link-name sets when the
        // session has none — that is the edge structure an in-process
        // session would remember from the pre-edit analysis, and it is
        // what scopes the next RunLinked's retraction component.
        if (rec.has_link_names && !st->have_link_names) {
          st->have_link_names = true;
          st->defined_names =
              std::set<std::string>(rec.defined_names.begin(), rec.defined_names.end());
          st->extern_refs =
              std::set<std::string>(rec.extern_refs.begin(), rec.extern_refs.end());
        }
        continue;
      }
      if (!st->dirty) {
        continue;  // already warm in memory; its state is richer than ours
      }
    }
    if (!rec.analyzed) {
      // Stored mid-edit: sources only, analyzes cold.
      if (it == modules_.end()) {
        std::vector<SourceFile> files;
        for (const auto& [fname, text] : rec.files) {
          files.push_back(SourceFile{fname, text});
        }
        AddModule(name, std::move(files));
      }
      continue;
    }
    ImportStoreRecord(rec, std::move(findings[name]));
  }

  link_table_ = AnnoDb();
  for (FuncSummary& s : rows) {
    link_table_.AddSummary(std::move(s));
  }
  linked_ever_ = sf.linked;
  link_stats_ = LinkStats{};
  link_stats_.converged = sf.linked && sf.converged;
  link_stats_.summary_rows = static_cast<int>(link_table_.summaries().size());
  link_conflicts_.clear();
  if (sf.linked) {
    // Rebuilds link_conflicts_ and re-derives the corpus stack facts from
    // the loaded rows — idempotent on a converged table (the facts are part
    // of the canonical rows), so a warm RunLinked sees no diff.
    ComputeLinkStackFacts();
    if (!sf.converged) {
      // The store was written mid-fixpoint (a crash, a cancelled run). The
      // table is ≤ the least fixpoint but possibly mixed-round; the one
      // safe warm start is "everything dirty": a monotone re-derivation
      // from the retracted base converges to the same source-determined
      // fixpoint a cold run reaches.
      for (auto& [name, st] : modules_) {
        (void)name;
        st->dirty = true;
      }
    }
  }
  return true;
}

}  // namespace ivy
