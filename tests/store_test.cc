// The persistent analysis store (src/store/store.h) and the session
// plumbing over it (SaveStore/LoadStore):
//
//   1. Format totality, wire_test-style: encode/decode round trips, every
//      strict prefix rejected, bad magic/version/flag bytes rejected, and
//      seeded random/mutated-byte fuzz that must never crash or over-read.
//   2. Warm start: a fresh session that LoadStores a linked run relinks
//      with zero module analyses and byte-identical findings; a warm
//      session + edit equals a cold session + same edit.
//   3. Recovery: a store saved with a module dirty loads that module dirty
//      and the next link re-derives the identical result.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/store/store.h"
#include "src/support/rng.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

constexpr int64_t kHugeBudget = int64_t{1} << 40;

PipelineBuilder LinkedPipeline(int shards = 1) {
  PipelineBuilder b;
  ToolOptions sc;
  sc.SetInt("budget", kHugeBudget);
  b.Tool("blockstop").Tool("stackcheck", sc).Tool("errcheck").Tool("locksafe");
  b.ShardFunctions(shards);
  return b;
}

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

std::vector<ModuleSources> SmallCorpus() {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 16;
  opt.seed = 4;
  return GenerateLinkedCorpus(opt);
}

// A store path in the test temp dir, removed before and after the test.
class StorePath {
 public:
  explicit StorePath(const std::string& name)
      : path_(::testing::TempDir() + "ivy_store_test_" + name + ".store") {
    std::remove(path_.c_str());
  }
  ~StorePath() { std::remove(path_.c_str()); }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

Finding SampleFinding(FindingSeverity severity, SourceLoc loc, std::string message,
                      std::vector<std::string> witness) {
  Finding f;
  f.tool = "blockstop";
  f.severity = severity;
  f.loc = loc;
  f.message = std::move(message);
  f.witness = std::move(witness);
  return f;
}

// Every field of every row kind holds a non-default value, so a field the
// codec dropped or mis-ordered would show in the round trip.
StoreFile SampleStore() {
  StoreFile sf;
  sf.corpus_digest = 0x0123456789abcdefull;
  sf.linked = true;

  StoreModule a;
  a.name = "alpha";
  a.files = {{"alpha.mc", "void a(void) {}\n"}, {"alpha2.mc", ""}};
  a.source_digest = SourcesDigest(a.files);
  a.analyzed = true;
  a.ok = true;
  a.compile_errors = "warning\x01\x02";
  a.findings = {
      SampleFinding(FindingSeverity::kNote, SourceLoc{0, 3, 7}, "note 'a'", {"a"}),
      SampleFinding(FindingSeverity::kWarning, SourceLoc{1, 12, 1}, "warn",
                    {"a", "calls b", "msleep"}),
      SampleFinding(FindingSeverity::kError, SourceLoc{}, "no location", {}),
  };
  sf.modules["alpha"] = a;

  StoreModule d;  // dirty at save time: sources only
  d.name = "beta";
  d.files = {{"beta.mc", "void c(void) {}\n"}};
  d.source_digest = SourcesDigest(d.files);
  sf.modules["beta"] = d;

  FuncSummary def;  // a definer row
  def.module = "alpha";
  def.function = "a";
  def.defined = true;
  def.may_block = true;
  def.block_witness = "a -> msleep";
  def.blocking = true;
  def.noblock = true;
  def.blocking_if_param = 2;
  def.returns_error = true;
  def.errcodes = {-12, -5, 7};
  def.frame_size = 64;
  def.callees = {"b", "msleep"};
  def.returns_points = {"cb"};
  def.locks_acquired = {"lk"};
  def.stack_below = 96;
  def.cross_recursive = true;
  FuncSummary use;  // a usage row
  use.module = "beta";
  use.function = "c";
  use.entered_atomic = true;
  use.entered_in_irq = true;
  use.param_points = {{0, {"f", "g"}}, {3, {"h"}}};
  sf.summaries = {def, use};
  return sf;
}

std::string FindingsJson(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.ToJson().Dump(-1) + "\n";
  }
  return out;
}

std::string RowsCanon(const std::vector<FuncSummary>& rows) {
  std::string out;
  for (const FuncSummary& r : rows) {
    out += r.Canonical() + "\n";
  }
  return out;
}

std::string TableCanon(const AnnoDb& table) {
  std::string out;
  for (const auto& [key, row] : table.summaries()) {
    out += row.Canonical() + "\n";
  }
  return out;
}

// A store holding one summary row and nothing else.
StoreFile OneRowStore(const FuncSummary& row) {
  StoreFile sf;
  sf.summaries = {row};
  return sf;
}

// The byte offset of that row's `defined` flag in its encoding: header,
// corpus digest, module count, summary count, then the row's module and
// function strings.
size_t DefinedFlagOffset(const FuncSummary& row) {
  return kStoreHeaderSize + 8 + 4 + 4 + (4 + row.module.size()) + (4 + row.function.size());
}

bool Decodes(const std::string& bytes) {
  StoreFile out;
  std::string err;
  return DecodeStore(bytes, &out, &err);
}

// ---------------------------------------------------------------------------
// Format
// ---------------------------------------------------------------------------

TEST(StoreFormat, RoundTrip) {
  StoreFile sf = SampleStore();
  std::string bytes = EncodeStore(sf);
  StoreFile back;
  std::string err;
  ASSERT_TRUE(DecodeStore(bytes, &back, &err)) << err;
  EXPECT_EQ(back.corpus_digest, sf.corpus_digest);
  EXPECT_EQ(back.linked, sf.linked);
  ASSERT_EQ(back.modules.size(), 2u);
  const StoreModule& a = back.modules.at("alpha");
  EXPECT_EQ(a.files, sf.modules.at("alpha").files);
  EXPECT_EQ(a.source_digest, sf.modules.at("alpha").source_digest);
  EXPECT_TRUE(a.analyzed);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.compile_errors, sf.modules.at("alpha").compile_errors);
  EXPECT_EQ(FindingsJson(a.findings), FindingsJson(sf.modules.at("alpha").findings));
  EXPECT_FALSE(back.modules.at("beta").analyzed);
  EXPECT_EQ(RowsCanon(back.summaries), RowsCanon(sf.summaries));
  // Deterministic bytes: re-encoding the decode is the identity.
  EXPECT_EQ(EncodeStore(back), bytes);
}

TEST(StoreFormat, EveryStrictPrefixRejected) {
  std::string bytes = EncodeStore(SampleStore());
  StoreFile out;
  for (size_t n = 0; n < bytes.size(); ++n) {
    std::string err;
    EXPECT_FALSE(DecodeStore(bytes.substr(0, n), &out, &err))
        << "prefix of " << n << " bytes accepted";
  }
}

TEST(StoreFormat, TrailingBytesRejected) {
  std::string bytes = EncodeStore(SampleStore()) + "x";
  StoreFile out;
  std::string err;
  EXPECT_FALSE(DecodeStore(bytes, &out, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(StoreFormat, BadHeaderRejected) {
  const std::string good = EncodeStore(SampleStore());
  StoreFile out;
  for (size_t byte : {size_t{0}, size_t{1}, size_t{2}}) {  // magic0/magic1/version
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x5a);
    std::string err;
    EXPECT_FALSE(DecodeStore(bad, &out, &err)) << "header byte " << byte;
  }
  // Unknown flag bits are a format extension signal, not noise to ignore.
  std::string bad = good;
  bad[3] = static_cast<char>(bad[3] | 0x80);
  std::string err;
  EXPECT_FALSE(DecodeStore(bad, &out, &err));
}

TEST(StoreFormat, Version3Rejected) {
  std::string bytes = EncodeStore(SampleStore());
  bytes[2] = 3;
  StoreFile out;
  std::string err;
  EXPECT_FALSE(DecodeStore(bytes, &out, &err));
  EXPECT_NE(err.find("unsupported store version 3"), std::string::npos) << err;
}

TEST(StoreFormat, SummaryRowsOutOfOrderOrDuplicatedRejected) {
  StoreFile swapped = SampleStore();
  std::swap(swapped.summaries[0], swapped.summaries[1]);
  StoreFile out;
  std::string err;
  EXPECT_FALSE(DecodeStore(EncodeStore(swapped), &out, &err));
  EXPECT_NE(err.find("out of order"), std::string::npos) << err;

  StoreFile dup = SampleStore();
  dup.summaries.push_back(dup.summaries.back());
  EXPECT_FALSE(DecodeStore(EncodeStore(dup), &out, &err));
  EXPECT_NE(err.find("duplicated"), std::string::npos) << err;
}

TEST(StoreFormat, OutOfDomainFieldsRejected) {
  FuncSummary use;
  use.module = "m";
  use.function = "f";
  use.param_points = {{1, {}}, {2, {}}};
  const std::string good = EncodeStore(OneRowStore(use));
  ASSERT_TRUE(Decodes(good));

  // A bool byte must be 0 or 1.
  std::string bad = good;
  ASSERT_EQ(bad[DefinedFlagOffset(use)], 0);
  bad[DefinedFlagOffset(use)] = 2;
  EXPECT_FALSE(Decodes(bad)) << "bool byte 2 accepted";

  // param_points indices must ascend strictly: the row ends with the second
  // entry's u32 index and its empty name list.
  for (char idx : {'\x01', '\x00'}) {
    bad = good;
    bad[bad.size() - 8] = idx;
    EXPECT_FALSE(Decodes(bad)) << "param_points index " << int{idx} << " after 1 accepted";
  }

  FuncSummary wide = use;
  wide.param_points = {{kMaxParamIndex + 1, {"f"}}};
  EXPECT_FALSE(Decodes(EncodeStore(OneRowStore(wide)))) << "param_points index 4096 accepted";
  wide.param_points = {{kMaxParamIndex, {"f"}}};
  EXPECT_TRUE(Decodes(EncodeStore(OneRowStore(wide))));

  FuncSummary def;
  def.module = "m";
  def.function = "f";
  def.defined = true;
  def.stack_below = -2;
  EXPECT_FALSE(Decodes(EncodeStore(OneRowStore(def)))) << "stack_below -2 accepted";
  def.stack_below = -1;
  EXPECT_TRUE(Decodes(EncodeStore(OneRowStore(def))));

  StoreFile sev = SampleStore();
  sev.modules.at("alpha").findings[0].severity = static_cast<FindingSeverity>(3);
  EXPECT_FALSE(Decodes(EncodeStore(sev))) << "severity 3 accepted";
}

TEST(StoreFormat, RandomBytesFuzz) {
  Rng rng(0xdecade);
  StoreFile out;
  for (int round = 0; round < 300; ++round) {
    std::string bytes;
    const int len = static_cast<int>(rng.Below(200));
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Below(256)));
    }
    if (rng.Chance(1, 2) && bytes.size() >= kStoreHeaderSize) {
      // Half the rounds get a valid header so the body decoders get hit.
      bytes[0] = static_cast<char>(kStoreMagic0);
      bytes[1] = static_cast<char>(kStoreMagic1);
      bytes[2] = static_cast<char>(kStoreVersion);
      bytes[3] = static_cast<char>(rng.Below(4));
    }
    std::string err;
    DecodeStore(bytes, &out, &err);  // must not crash or over-read
  }
}

TEST(StoreFormat, MutatedByteFuzz) {
  const std::string good = EncodeStore(SampleStore());
  Rng rng(0xbadc0de);
  for (int round = 0; round < 300; ++round) {
    std::string bytes = good;
    const int flips = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.Below(bytes.size())] ^= static_cast<char>(1 + rng.Below(255));
    }
    StoreFile out;
    std::string err;
    if (DecodeStore(bytes, &out, &err)) {
      EncodeStore(out);  // a benign mutation must still re-encode safely
    }
  }
}

TEST(StoreFormat, FileRoundTripAndMissingFile) {
  StorePath path("file_round_trip");
  StoreFile sf = SampleStore();
  std::string err;
  ASSERT_TRUE(WriteStoreFile(path.get(), sf, &err)) << err;
  StoreFile back;
  ASSERT_TRUE(ReadStoreFile(path.get(), &back, &err)) << err;
  EXPECT_EQ(EncodeStore(back), EncodeStore(sf));
  StoreFile missing;
  EXPECT_FALSE(ReadStoreFile(path.get() + ".nope", &missing, &err));
  // A write into a missing directory fails with an error, not a crash.
  err.clear();
  EXPECT_FALSE(WriteStoreFile(path.get() + ".nope/x.store", sf, &err));
  EXPECT_FALSE(err.empty());
}

TEST(StoreFormat, OversizedFileRejectedBeforeRead) {
  StorePath path("oversized");
  // Sparse: one byte over the cap, with no data blocks behind it.
  const int fd = ::open(path.get().c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(kMaxStoreBytes + 1)), 0);
  ASSERT_EQ(::close(fd), 0);
  StoreFile sf;
  std::string err;
  EXPECT_FALSE(ReadStoreFile(path.get(), &sf, &err));
  EXPECT_NE(err.find("exceeds the size cap"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Warm start
// ---------------------------------------------------------------------------

TEST(StoreSession, WarmStartIsByteIdenticalAndFree) {
  StorePath path("warm_start");
  std::vector<ModuleSources> corpus = SmallCorpus();

  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = cold.RunLinked();
  ASSERT_TRUE(cold.link_stats().converged);
  std::string err;
  ASSERT_TRUE(cold.SaveStore(path.get(), &err)) << err;

  // The daemon restart shape: same corpus re-registered, then LoadStore.
  AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  SessionResult warm_result = warm.RunLinked();
  ASSERT_TRUE(warm.link_stats().converged);
  EXPECT_EQ(warm.link_stats().rounds, 1) << "warm relink must be one idle round";
  EXPECT_EQ(warm.link_stats().module_analyses, 0);
  EXPECT_EQ(Dump(warm_result.findings), Dump(cold_result.findings));
  EXPECT_EQ(warm_result.modules_reused, static_cast<int>(corpus.size()));
}

TEST(StoreSession, WarmStartAdoptsStoreOnlyModules) {
  StorePath path("adopt");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = cold.RunLinked();
  std::string err;
  ASSERT_TRUE(cold.SaveStore(path.get(), &err)) << err;

  // An empty session: every module comes from the store (sources included).
  AnalysisSession warm = LinkedPipeline().BuildSession();
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  EXPECT_EQ(warm.module_count(), corpus.size());
  SessionResult warm_result = warm.RunLinked();
  EXPECT_EQ(warm.link_stats().module_analyses, 0);
  EXPECT_EQ(Dump(warm_result.findings), Dump(cold_result.findings));
}

TEST(StoreSession, WarmEditMatchesColdEdit) {
  StorePath path("warm_edit");
  std::vector<ModuleSources> corpus = SmallCorpus();
  {
    AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
    s.RunLinked();
    std::string err;
    ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;
  }

  const std::string fn = SynthFuncName(LinkedModulePrefix(1), 5);
  const std::string def =
      "void " + fn + "(int n) {\n  int pad[16]; pad[0] = n;\n  msleep(n);\n}\n";

  AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
  std::string err;
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  ASSERT_TRUE(warm.ReplaceFunction("mod_01", fn, def));
  SessionResult warm_result = warm.RunLinked();
  ASSERT_TRUE(warm.link_stats().converged);
  // An edit re-runs the corpus once.
  EXPECT_EQ(warm.link_stats().rounds, 1);
  EXPECT_EQ(warm.link_stats().module_analyses, static_cast<int>(corpus.size()));

  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", fn, def));
  SessionResult cold_result = cold.RunLinked();
  EXPECT_EQ(Dump(warm_result.findings), Dump(cold_result.findings));
}

TEST(StoreSession, SavedStoreReencodesAndRestoresTheLinkTable) {
  StorePath path("reencode");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  cold.RunLinked();
  std::string err;
  ASSERT_TRUE(cold.SaveStore(path.get(), &err)) << err;

  // encode(decode(x)) == x on a real session's store.
  std::ifstream in(path.get(), std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  StoreFile sf;
  ASSERT_TRUE(DecodeStore(bytes, &sf, &err)) << err;
  ASSERT_FALSE(sf.summaries.empty());
  EXPECT_EQ(EncodeStore(sf), bytes);

  // The restored link table renders the cold run's canonical rows.
  AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  EXPECT_EQ(TableCanon(warm.link_table()), TableCanon(cold.link_table()));
  warm.RunLinked();
  EXPECT_EQ(TableCanon(warm.link_table()), TableCanon(cold.link_table()));
}

TEST(StoreSession, StaleCorpusDigestRejected) {
  StorePath path("stale_digest");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
  s.RunLinked();
  std::string err;
  ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;

  // A different recipe (different tool set) must refuse the facts.
  PipelineBuilder other;
  other.Tool("blockstop");
  AnalysisSession mismatched = other.ForEachModule(corpus).BuildSession();
  EXPECT_FALSE(mismatched.LoadStore(path.get(), &err));
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
  // ... while the identical recipe accepts them; shard count is NOT part of
  // the digest (it cannot change results).
  AnalysisSession sharded = LinkedPipeline(3).ForEachModule(corpus).BuildSession();
  EXPECT_TRUE(sharded.LoadStore(path.get(), &err)) << err;
}

TEST(StoreSession, CorruptAndMalformedStoresRejected) {
  StorePath path("corrupt");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = s.RunLinked();
  std::string err;
  ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;

  // Summary rows out of key order fail the load atomically.
  StoreFile sf;
  ASSERT_TRUE(ReadStoreFile(path.get(), &sf, &err)) << err;
  ASSERT_GE(sf.summaries.size(), 2u);
  std::swap(sf.summaries.front(), sf.summaries.back());
  ASSERT_TRUE(WriteStoreFile(path.get(), sf, &err)) << err;
  AnalysisSession fresh = LinkedPipeline().ForEachModule(corpus).BuildSession();
  EXPECT_FALSE(fresh.LoadStore(path.get(), &err));
  // The failed load left the session cold but intact: a cold run still
  // produces the canonical result.
  SessionResult after = fresh.RunLinked();
  EXPECT_EQ(Dump(after.findings), Dump(cold_result.findings));
}

TEST(StoreSession, DirtyModuleInStoreRecoversIdentically) {
  StorePath path("dirty_module");
  std::vector<ModuleSources> corpus = SmallCorpus();
  AnalysisSession s = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult cold_result = s.RunLinked();
  std::string err;
  ASSERT_TRUE(s.SaveStore(path.get(), &err)) << err;

  // Simulate a save between an edit and its link: one module stored
  // sources-only. The loader must leave it dirty, so the table is re-derived.
  StoreFile sf;
  ASSERT_TRUE(ReadStoreFile(path.get(), &sf, &err)) << err;
  StoreModule& rec = sf.modules.at("mod_01");
  rec.analyzed = false;
  rec.ok = false;
  rec.findings.clear();
  ASSERT_TRUE(WriteStoreFile(path.get(), sf, &err)) << err;

  AnalysisSession warm = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(warm.LoadStore(path.get(), &err)) << err;
  SessionResult recovered = warm.RunLinked();
  ASSERT_TRUE(warm.link_stats().converged);
  EXPECT_GT(warm.link_stats().module_analyses, 0) << "recovery must re-derive";
  EXPECT_EQ(Dump(recovered.findings), Dump(cold_result.findings));
}

}  // namespace
}  // namespace ivy
