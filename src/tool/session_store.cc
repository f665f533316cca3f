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
        // Unstamped, location-raw — exactly the per-module cache the
        // session stamps, so a restored module merges byte-identically.
        m.findings = st->result.findings;
      }
    }
    sf.modules.emplace(name, std::move(m));
  }
  sf.summaries.reserve(link_table_.summaries().size());
  for (const auto& [key, row] : link_table_.summaries()) {
    sf.summaries.push_back(row);
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
  // ReadStoreFile validated every record and row, so nothing below can
  // fail: LoadStore either restores or leaves the session untouched —
  // never half-warm.
  for (auto& [name, rec] : sf.modules) {
    std::unique_ptr<ModuleState>& st = modules_[name];
    if (st != nullptr &&
        (!st->dirty || !rec.analyzed || SourcesDigest(FilePairs(st->files)) != rec.source_digest)) {
      continue;  // already warm in memory, stored mid-edit, or newer sources
    }
    // A fresh state holding the stored sources and findings; the next
    // source edit re-analyzes the module cold, like any other edit. A record
    // stored mid-edit carries sources only and stays dirty.
    auto restored = std::make_unique<ModuleState>();
    for (auto& [fname, text] : rec.files) {
      restored->files.push_back(SourceFile{std::move(fname), std::move(text)});
    }
    restored->dirty = !rec.analyzed;
    restored->ok = rec.ok;
    restored->compile_errors = std::move(rec.compile_errors);
    restored->result.findings = std::move(rec.findings);
    st = std::move(restored);
  }

  link_table_ = AnnoDb();
  for (FuncSummary& s : sf.summaries) {
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
