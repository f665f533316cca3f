// The persistent half of AnalysisSession: SaveStore/LoadStore, warm starts
// across process restarts. Split from session.cc so the in-memory pipeline
// code stays independent of src/store.
//
// Soundness of the warm start reduces to the determinism contract: analysis
// is a pure function of (sources, recipe), so restored findings and rows are
// byte-identical to what re-analysis would produce. A store is written only
// between runs, so its table always comes from one completed run; a module
// stored dirty makes the next RunLinked() re-run the corpus.
#include <utility>

#include "src/store/store.h"
#include "src/support/trace.h"
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
// round-trip exactly, or a warm start would print different bytes.
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
  trace::Span span("store.save");
  StoreFile sf;
  sf.corpus_digest = CorpusDigest();
  sf.linked = linked_;
  for (const auto& [name, st] : modules_) {
    StoreModule m;
    m.name = name;
    m.files = FilePairs(st->files);
    m.source_digest = SourcesDigest(m.files);
    // A dirty module's cached findings (if any) belong to *older* sources;
    // persisting the pair would let a loader treat stale facts as current.
    // Dirty modules are stored sources-only and are analyzed after load.
    m.analyzed = !st->dirty;
    if (m.analyzed) {
      m.ok = st->ok;
      m.compile_errors = st->compile_errors;
      if (st->ok) {
        for (const Finding& f : st->result.findings) {
          // Unstamped, location-raw canonical form — exactly the per-module
          // cache the session stamps, so a restored module merges
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

bool AnalysisSession::LoadStore(const std::string& path, std::string* err) {
  trace::Span span("store.load");
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
    std::unique_ptr<ModuleState>& st = modules_[name];
    if (st != nullptr &&
        (!st->dirty || !rec.analyzed || SourcesDigest(FilePairs(st->files)) != rec.source_digest)) {
      continue;  // already warm in memory, stored mid-edit, or newer sources
    }
    // A fresh state holding the stored sources and findings; the next
    // source edit re-analyzes the module cold, like any other edit. A record
    // stored mid-edit carries sources only and stays dirty.
    auto restored = std::make_unique<ModuleState>();
    for (const auto& [fname, text] : rec.files) {
      restored->files.push_back(SourceFile{fname, text});
    }
    restored->dirty = !rec.analyzed;
    restored->ok = rec.ok;
    restored->compile_errors = rec.compile_errors;
    restored->result.findings = std::move(findings[name]);
    st = std::move(restored);
  }

  link_table_ = AnnoDb();
  for (FuncSummary& s : rows) {
    link_table_.AddSummary(std::move(s));
  }
  linked_ = sf.linked;
  link_stats_ = LinkStats{};
  link_stats_.summary_rows = static_cast<int>(link_table_.summaries().size());
  // Rebuilds link_conflicts_; idempotent on the stack facts, which are part
  // of the stored rows.
  ComputeLinkStackFacts();
  return true;
}

}  // namespace ivy
