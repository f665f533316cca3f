// AnalysisSession: the corpus-level determinism and reuse contracts of
// RunLinked(), property-tested over the seeded synthetic corpus generator.
//
//   1. Determinism: the merged corpus view is independent of registration
//      order.
//   2. Edit == cold: after any sequence of function edits, a relink (which
//      re-analyzes the whole corpus once any module is dirty) matches a
//      cold session over the same sources byte for byte.
//   3. Provenance: the exported annotation repository stamps findings with
//      their module, and RetractModule removes exactly one module's records.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/support/rng.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

// Every symbol of module `name` carries the prefix "<name>_", so the modules
// link without a name defined twice.
std::string Prefix(const std::string& module) { return module + "_"; }

ModuleSources MakeModule(const std::string& name, uint64_t seed, int functions) {
  SynthCorpusOptions opt;
  opt.functions = functions;
  opt.seed = seed;
  opt.prefix = Prefix(name);
  // A function-pointer table chain gives the points-to solve a real
  // workload.
  opt.hook_tables = 4;
  return ModuleSources{name, {SourceFile{name + ".mc", GenerateSynthCorpus(opt)}}};
}

std::vector<ModuleSources> MakeCorpus(int modules, uint64_t seed_base, int functions) {
  std::vector<ModuleSources> out;
  for (int m = 0; m < modules; ++m) {
    char name[16];
    std::snprintf(name, sizeof(name), "mod_%02d", m);
    out.push_back(MakeModule(name, seed_base + static_cast<uint64_t>(m), functions));
  }
  return out;
}

PipelineBuilder TestPipeline() {
  PipelineBuilder b;
  b.Tool("blockstop").Tool("stackcheck").Tool("errcheck").Tool("locksafe");
  return b;
}

// Valid replacement definitions for <px>fn_<i> of a `total`-function module
// whose symbols carry the prefix `px`.
std::string BlockingLeaf(const std::string& px, int i) {
  return "void " + SynthFuncName(px, i) +
         "(int n) {\n  int pad[16]; pad[0] = n;\n  msleep(n);\n}\n";
}
std::string QuietLeaf(const std::string& px, int i) {
  return "void " + SynthFuncName(px, i) +
         "(int n) {\n  int pad[4]; pad[0] = n;\n  udelay(1);\n}\n";
}
std::string SpinCaller(const std::string& px, int i, int total) {
  std::string callee = SynthFuncName(px, i + 1 < total ? i + 1 : 0);
  std::string lock = px + "lk_0";
  return "void " + SynthFuncName(px, i) + "(int n) {\n  int pad[8]; pad[0] = n;\n  spin_lock(&" +
         lock + ");\n  if (n > 0) { " + callee + "(n - 1); }\n  spin_unlock(&" + lock +
         ");\n}\n";
}
std::string VariantFor(uint64_t pick, const std::string& px, int i, int total) {
  switch (pick % 3) {
    case 0:
      return BlockingLeaf(px, i);
    case 1:
      return QuietLeaf(px, i);
    default:
      return SpinCaller(px, i, total);
  }
}

TEST(AnalysisSession, MergedFindingsIndependentOfRegistrationOrder) {
  std::vector<ModuleSources> corpus = MakeCorpus(6, 300, 48);

  AnalysisSession forward = TestPipeline().ForEachModule(corpus).BuildSession();
  std::vector<ModuleSources> reversed(corpus.rbegin(), corpus.rend());
  AnalysisSession backward = TestPipeline().ForEachModule(reversed).BuildSession();

  EXPECT_EQ(Dump(forward.RunLinked().findings), Dump(backward.RunLinked().findings));
}

TEST(AnalysisSession, SingleEditRelinkMatchesCold) {
  const int kModules = 10;
  const int kFunctions = 64;
  std::vector<ModuleSources> corpus = MakeCorpus(kModules, 700, kFunctions);
  const std::string edited = "mod_03";
  const std::string px = Prefix(edited);

  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  // Nothing dirty: the relink reuses every module.
  EXPECT_EQ(session.RunLinked().modules_reused, kModules);

  // Edit one low-index function; the corpus is the re-analysis unit.
  ASSERT_TRUE(session.ReplaceFunction(edited, SynthFuncName(px, 5), BlockingLeaf(px, 5)));
  SessionResult warm = session.RunLinked();
  EXPECT_EQ(warm.modules_analyzed, kModules);

  // Byte-for-byte identical to a cold session over the edited sources.
  AnalysisSession cold = TestPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction(edited, SynthFuncName(px, 5), BlockingLeaf(px, 5)));
  SessionResult cold_result = cold.RunLinked();
  EXPECT_FALSE(cold_result.findings.empty());
  EXPECT_EQ(Dump(warm.findings), Dump(cold_result.findings));
}

TEST(AnalysisSession, InvalidateWithoutEditRelinksIdentically) {
  std::vector<ModuleSources> corpus = MakeCorpus(4, 900, 48);
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  std::string golden = Dump(session.RunLinked().findings);

  session.Invalidate("mod_01");
  SessionResult warm = session.RunLinked();
  EXPECT_EQ(warm.modules_analyzed, 4);
  EXPECT_EQ(Dump(warm.findings), golden);
}

TEST(AnalysisSession, RandomizedEditSequencesMatchColdRuns) {
  // The acceptance property: after ANY edit sequence, incremental findings
  // are byte-identical to a cold full run over the same sources.
  const int kModules = 6;
  const int kFunctions = 48;
  for (uint64_t seed : {11u, 23u}) {
    std::vector<ModuleSources> corpus = MakeCorpus(kModules, 1000 + seed, kFunctions);
    AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
    session.RunLinked();

    Rng rng(seed);
    std::vector<std::pair<std::string, std::pair<std::string, std::string>>> edits;
    for (int step = 0; step < 4; ++step) {
      int m = static_cast<int>(rng.Below(kModules));
      char name[16];
      std::snprintf(name, sizeof(name), "mod_%02d", m);
      int fn = 1 + static_cast<int>(rng.Below(kFunctions - 2));
      const std::string fname = SynthFuncName(Prefix(name), fn);
      std::string def = VariantFor(rng.Below(3), Prefix(name), fn, kFunctions);
      ASSERT_TRUE(session.ReplaceFunction(name, fname, def)) << name << " " << fname;
      edits.push_back({name, {fname, def}});

      SessionResult warm = session.RunLinked();
      EXPECT_EQ(warm.compile_failures, 0) << "seed " << seed << " step " << step;
      EXPECT_EQ(warm.modules_analyzed, kModules);

      // Cold replay: a fresh session over the original corpus with the same
      // edit sequence applied, run once from scratch.
      AnalysisSession cold = TestPipeline().ForEachModule(corpus).BuildSession();
      for (const auto& [mod, edit] : edits) {
        ASSERT_TRUE(cold.ReplaceFunction(mod, edit.first, edit.second));
      }
      SessionResult cold_result = cold.RunLinked();
      EXPECT_EQ(Dump(warm.findings), Dump(cold_result.findings))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(AnalysisSession, CompileFailureIsSurfacedAndRecovers) {
  std::vector<ModuleSources> corpus = MakeCorpus(3, 1500, 48);
  const std::string px = Prefix("mod_01");
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  std::string golden = Dump(session.RunLinked().findings);

  ASSERT_TRUE(session.ReplaceFunction(
      "mod_01", SynthFuncName(px, 3),
      "void " + SynthFuncName(px, 3) + "(int n) {\n  this is not mini c;\n}\n"));
  SessionResult broken = session.RunLinked();
  EXPECT_EQ(broken.compile_failures, 1);
  const ModuleRunResult* bad = broken.ModuleFor("mod_01");
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->ok);
  EXPECT_FALSE(bad->compile_errors.empty());
  bool surfaced = false;
  for (const Finding& f : broken.findings) {
    surfaced |= f.tool == "session" && f.module == "mod_01" &&
                f.severity == FindingSeverity::kError;
  }
  EXPECT_TRUE(surfaced);
  // The rest of the corpus was still analyzed.
  for (const char* other : {"mod_00", "mod_02"}) {
    const ModuleRunResult* good = broken.ModuleFor(other);
    ASSERT_NE(good, nullptr) << other;
    EXPECT_TRUE(good->ok) << other;
    EXPECT_FALSE(good->result.findings.empty()) << other;
  }

  // Fixing the function gives exactly what a cold session over the fixed
  // sources reports.
  ASSERT_TRUE(session.ReplaceFunction("mod_01", SynthFuncName(px, 3), QuietLeaf(px, 3)));
  SessionResult fixed = session.RunLinked();
  EXPECT_EQ(fixed.compile_failures, 0);

  AnalysisSession cold = TestPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", SynthFuncName(px, 3), QuietLeaf(px, 3)));
  EXPECT_EQ(Dump(fixed.findings), Dump(cold.RunLinked().findings));
  EXPECT_NE(Dump(fixed.findings), golden);  // the edit is visible
}

TEST(AnalysisSession, ReplaceFunctionUnknownTargets) {
  std::vector<ModuleSources> corpus = MakeCorpus(2, 1600, 48);
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  EXPECT_FALSE(
      session.ReplaceFunction("no_such_module", SynthFuncName(Prefix("mod_00"), 1),
                              QuietLeaf(Prefix("mod_00"), 1)));
  EXPECT_FALSE(session.ReplaceFunction("mod_00", "no_such_function",
                                       "void no_such_function(int n) { pad[0] = n; }"));
  // Builtin *declarations* (e.g. msleep in the prelude) are not definitions
  // in the module sources either.
  EXPECT_FALSE(session.ReplaceFunction("mod_00", "msleep", "void msleep(int n) {}"));
}

TEST(AnalysisSession, ReplaceFunctionBodyWithBraceLiterals) {
  // Regression: the splice is driven by the lexer's token stream, so braces
  // inside string/char literals and comments can never skew the definition
  // span (the old textual scanner had to re-implement literal skipping —
  // and miscounting there splices into the wrong function).
  const char* text =
      "void alpha(int n) {\n"
      "  // stray closer } and opener { in a comment\n"
      "  /* \" unbalanced quote and } */\n"
      "  char c;\n"
      "  c = '}';\n"
      "  if (n > '{') { alpha(n - 1); }\n"
      "}\n"
      "void beta(int n) {\n"
      "  char* nullterm s;\n"
      "  s = \"}}}{{{\";\n"
      "  msleep(n);\n"
      "}\n"
      "void gamma(int n) {\n"
      "  if (n > 0) { beta(n - 1); }\n"
      "}\n"
      "int\n"
      "delta(int n)\n"
      "{\n"
      "  return n;\n"
      "}\n"
      "void epsilon(int n) { udelay(n); } int\n"
      "zeta(int n) { return n; }\n";
  std::vector<ModuleSources> corpus{{"m", {SourceFile{"m.mc", text}}}};
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  SessionResult first = session.RunLinked();
  ASSERT_EQ(first.compile_failures, 0)
      << first.ModuleFor("m")->compile_errors;
  auto mayblock_count = [](const SessionResult& r) {
    const ToolResult* bs = r.ModuleFor("m")->result.ResultFor("blockstop");
    return bs == nullptr ? int64_t{-1} : bs->Metric("mayblock_funcs");
  };
  // beta (msleep) and gamma (calls beta) may block.
  EXPECT_EQ(mayblock_count(first), 2);

  // Replace gamma — its definition sits AFTER the brace-laden literals, so
  // a miscounting scanner would splice into beta's string instead.
  ASSERT_TRUE(session.ReplaceFunction(
      "m", "gamma", "void gamma(int n) {\n  udelay(n);\n}\n"));
  SessionResult second = session.RunLinked();
  ASSERT_EQ(second.compile_failures, 0)
      << second.ModuleFor("m")->compile_errors;
  EXPECT_EQ(mayblock_count(second), 1);  // only beta still blocks

  // And replace beta itself, whose own body holds the "}" literals.
  ASSERT_TRUE(session.ReplaceFunction(
      "m", "beta", "void beta(int n) {\n  udelay(n);\n}\n"));
  SessionResult third = session.RunLinked();
  ASSERT_EQ(third.compile_failures, 0) << third.ModuleFor("m")->compile_errors;
  EXPECT_EQ(mayblock_count(third), 0);

  // A return type on its own line belongs to the definition: the splice
  // starts at it, so no stray `int` is left above the new signature.
  ASSERT_TRUE(session.ReplaceFunction(
      "m", "delta", "int delta(int n) {\n  msleep(n);\n  return n;\n}\n"));
  SessionResult fourth = session.RunLinked();
  ASSERT_EQ(fourth.compile_failures, 0) << fourth.ModuleFor("m")->compile_errors;
  EXPECT_EQ(mayblock_count(fourth), 1);  // delta now blocks

  // When the previous definition ends on the line where this one starts,
  // the splice starts right after its closing brace.
  ASSERT_TRUE(session.ReplaceFunction(
      "m", "zeta", "int zeta(int n) {\n  msleep(n);\n  return n;\n}\n"));
  SessionResult fifth = session.RunLinked();
  ASSERT_EQ(fifth.compile_failures, 0) << fifth.ModuleFor("m")->compile_errors;
  EXPECT_EQ(mayblock_count(fifth), 2);  // delta and zeta
  auto defined = [](const SessionResult& r) {
    return r.ModuleFor("m")->result.ResultFor("blockstop")->Metric("defined_funcs");
  };
  EXPECT_EQ(defined(fifth), defined(fourth));  // epsilon survived the splice
}

TEST(AnalysisSession, AnnoDbCarriesProvenanceAndRetracts) {
  std::vector<ModuleSources> corpus = MakeCorpus(3, 1700, 48);
  AnalysisSession session = TestPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();

  AnnoDb db = session.ExportAnnoDb();
  ASSERT_FALSE(db.findings().empty());
  std::set<std::string> modules_seen;
  for (const Finding& f : db.findings()) {
    modules_seen.insert(f.module);
  }
  EXPECT_EQ(modules_seen, (std::set<std::string>{"mod_00", "mod_01", "mod_02"}));

  // Retraction removes exactly one module's records — findings, stamped
  // fact entries, and summary rows alike — and survives a JSON round trip,
  // so a repository consumer can do the same.
  Json j = db.ToJson();
  AnnoDb loaded = AnnoDb::FromJson(j);
  size_t total = loaded.findings().size();
  size_t mod1 = 0;
  for (const Finding& f : loaded.findings()) {
    mod1 += f.module == "mod_01" ? 1 : 0;
  }
  size_t mod1_facts = 0;
  for (const auto& [name, facts] : loaded.funcs()) {
    mod1_facts += facts.module == "mod_01" ? 1 : 0;
  }
  for (const auto& [name, facts] : loaded.records()) {
    mod1_facts += facts.module == "mod_01" ? 1 : 0;
  }
  for (const auto& [key, row] : loaded.summaries()) {
    mod1_facts += key.first == "mod_01" ? 1 : 0;
  }
  ASSERT_GT(mod1, 0u);
  ASSERT_GT(mod1_facts, 0u);
  EXPECT_EQ(loaded.RetractModule("mod_01"), static_cast<int>(mod1 + mod1_facts));
  EXPECT_EQ(loaded.findings().size(), total - mod1);
  for (const Finding& f : loaded.findings()) {
    EXPECT_NE(f.module, "mod_01");
  }
  for (const auto& [name, facts] : loaded.funcs()) {
    EXPECT_NE(facts.module, "mod_01") << name;
  }
  for (const auto& [key, row] : loaded.summaries()) {
    EXPECT_NE(key.first, "mod_01");
  }

  // After an edit, the re-exported repository reflects exactly the new
  // corpus state (retract + re-merge happens inside the session).
  const std::string px = Prefix("mod_01");
  ASSERT_TRUE(session.ReplaceFunction("mod_01", SynthFuncName(px, 2), BlockingLeaf(px, 2)));
  session.RunLinked();
  AnnoDb db2 = session.ExportAnnoDb();
  AnalysisSession cold = TestPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", SynthFuncName(px, 2), BlockingLeaf(px, 2)));
  cold.RunLinked();
  EXPECT_EQ(db2.ToJson().Dump(), cold.ExportAnnoDb().ToJson().Dump());
}

}  // namespace
}  // namespace ivy
