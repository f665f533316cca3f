// The cross-module link stage (AnalysisSession::RunLinked): the corpus
// compiled and analyzed as one program, regrouped per module.
//
//   1. Linked == merged-source: the linked findings (canonically rendered
//      and sorted — the linked merge orders by module first, a merged
//      program by pass) equal the single merged-source program's, including
//      cross-module may-block propagation, atomic-entry contexts,
//      irq-reachability, error-return facts, fn-ptr registration through
//      extern calls, and cross-module recursion; the StackCheck depth maps
//      match too.
//   2. Determinism: findings and summary rows are byte-identical across
//      module registration order, and pinned by digest.
//   3. Relink after an edit == cold link of the edited corpus; an idle
//      relink analyzes nothing.
//   4. Edge cases: a module that fails to compile drops out alone; a
//      function defined in two modules is reported once; shared
//      declarations and same-named file-local definitions link the way
//      separate compiles do; a cancelled link publishes nothing and resumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/stackcheck/stackcheck.h"
#include "src/tool/pipeline.h"
#include "src/tool/session.h"
#include "tests/synth_corpus.h"
#include "tools/synth_common.h"

namespace ivy {
namespace {

constexpr int64_t kHugeBudget = int64_t{1} << 40;

PipelineBuilder LinkedPipeline() {
  PipelineBuilder b;
  ToolOptions sc;
  sc.SetInt("budget", kHugeBudget);
  b.Tool("blockstop").Tool("stackcheck", sc).Tool("errcheck").Tool("locksafe");
  return b;
}

std::string Dump(const std::vector<Finding>& findings) {
  Json arr = Json::MakeArray();
  for (const Finding& f : findings) {
    arr.Append(f.ToJson());
  }
  return arr.Dump();
}

// Canonical rendering: tool/severity/rendered-location/message/witness.
// Rendered locations use file *names*, which match between a module's own
// compilation and the merged program; raw file ids do not.
std::vector<std::string> CanonSorted(const std::vector<Finding>& findings,
                                     const SourceManager* sm) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) {
    out.push_back(f.ToString(sm));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> LinkedCanon(AnalysisSession& session, const SessionResult& result) {
  std::vector<std::string> all;
  for (const ModuleRunResult& mr : result.modules) {
    const Compilation* comp = session.CompilationFor(mr.module);
    EXPECT_NE(comp, nullptr) << mr.module;
    std::vector<std::string> canon =
        CanonSorted(mr.result.findings, comp != nullptr ? &comp->sm : nullptr);
    all.insert(all.end(), canon.begin(), canon.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

// FNV-1a 64 over a byte string: the digest the pinned-bytes test compares.
uint64_t Fnv1a64Of(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The exact bytes a linked run produces — findings as stamped JSON, summary
// rows in canonical form — pinned by digest. Any change to what RunLinked()
// reports, or to how it attributes findings to modules, moves a digest.
TEST(SessionLinked, GoldenBytesPinned) {
  struct Case {
    int modules;
    int functions;
    uint64_t seed;
    uint64_t findings;
    uint64_t summaries;
  };
  const Case cases[] = {
      {3, 24, 21, 0x193e1152da332855ull, 0x22d81c694c3e547cull},
      {4, 32, 3, 0x5df93fcf9c1c62f5ull, 0x85dec2ee6c7aab60ull},
  };
  for (const Case& c : cases) {
    LinkedCorpusOptions opt;
    opt.modules = c.modules;
    opt.functions = c.functions;
    opt.seed = c.seed;
    AnalysisSession session =
        SynthServePipeline().ForEachModule(GenerateLinkedCorpus(opt)).BuildSession();
    SessionResult result = session.RunLinked();
    std::string findings;
    for (const Finding& f : result.findings) {
      findings += f.ToJson().Dump();
      findings += '\n';
    }
    std::string summaries;
    for (const auto& [key, row] : session.link_table().summaries()) {
      summaries += row.Canonical();
      summaries += '\n';
    }
    EXPECT_EQ(Fnv1a64Of(findings), c.findings) << c.modules << "x" << c.functions;
    EXPECT_EQ(Fnv1a64Of(summaries), c.summaries) << c.modules << "x" << c.functions;
  }
}

// A corpus whose modules all define the same names: the linked corpus with
// its mNN_ prefixes stripped, plus a struct tag, an enum constant and a
// global that module 1 defines differently. Every later module's copy of a
// function becomes module-private, and so do module 1's type and global.
std::vector<ModuleSources> SameNamesCorpus() {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 21;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  for (size_t m = 0; m < corpus.size(); ++m) {
    std::string& text = corpus[m].files[0].text;
    for (size_t p = 0; p < corpus.size(); ++p) {
      const std::string prefix = LinkedModulePrefix(static_cast<int>(p));
      for (size_t at = text.find(prefix); at != std::string::npos; at = text.find(prefix, at)) {
        text.erase(at, prefix.size());
      }
    }
    const bool other = m == 1;
    text += std::string("struct state {\n  int count;\n") + (other ? "  char* name;\n" : "") +
            "};\nenum { MODE = " + (other ? "2" : "1") +
            " };\nstruct state st;\nvoid poke(int n) {\n  spin_lock(&lk_0);\n"
            "  st.count = n + MODE;\n  msleep(st.count);\n  spin_unlock(&lk_0);\n}\n";
  }
  return corpus;
}

std::string SummaryBytes(const AnalysisSession& session) {
  std::string out;
  for (const auto& [key, row] : session.link_table().summaries()) {
    out += row.Canonical();
    out += '\n';
  }
  return out;
}

// GoldenBytesPinned for the private-name path: findings, summary rows and
// the table's function and record facts, with names made module-private
// and printed as the modules wrote them.
TEST(SessionLinked, PrivateNamesGoldenBytesPinned) {
  AnalysisSession session = SynthServePipeline().ForEachModule(SameNamesCorpus()).BuildSession();
  SessionResult result = session.RunLinked();
  ASSERT_EQ(result.compile_failures, 0);
  int conflicts = 0;
  for (const Finding& f : result.findings) {
    conflicts += f.tool == "session" ? 1 : 0;
    EXPECT_EQ(f.message.find(kPrivateMark), std::string::npos) << f.message;
  }
  EXPECT_GT(conflicts, 20);
  const std::string summaries = SummaryBytes(session);
  EXPECT_EQ(summaries.find(kPrivateMark), std::string::npos);
  EXPECT_EQ(Fnv1a64Of(Dump(result.findings)), 0xa58a41139e7fd531ull);
  EXPECT_EQ(Fnv1a64Of(summaries), 0x86d984ecd2540c2aull);
  EXPECT_EQ(Fnv1a64Of(session.link_table().ToJson().Dump()), 0x309bfa060294e554ull);
}

// An idle relink and a warm start from the store each reproduce the cold
// run's findings, per-module findings and link stats byte for byte,
// without analyzing anything.
TEST(SessionLinked, IdleRelinkAndWarmStartMatchCold) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 21;
  for (const std::vector<ModuleSources>& corpus : {GenerateLinkedCorpus(opt), SameNamesCorpus()}) {
    auto bytes = [](const AnalysisSession& session, const SessionResult& r) {
      std::string out = Dump(r.findings);
      for (const ModuleRunResult& mr : r.modules) {
        out += mr.module + ":" + Dump(mr.result.findings) + "\n";
      }
      const LinkStats& ls = session.link_stats();
      return out + std::to_string(ls.summary_rows) + " " + std::to_string(ls.cross_edges) +
             " " + std::to_string(ls.rounds) + "\n" + SummaryBytes(session);
    };
    AnalysisSession session = SynthServePipeline().ForEachModule(corpus).BuildSession();
    const std::string cold = bytes(session, session.RunLinked());
    EXPECT_EQ(session.link_stats().module_analyses, 3);
    EXPECT_GT(session.link_stats().cross_edges, 0);

    EXPECT_EQ(bytes(session, session.RunLinked()), cold);
    EXPECT_EQ(session.link_stats().module_analyses, 0);

    const std::string path = ::testing::TempDir() + "ivy_session_linked_idle.store";
    std::string err;
    ASSERT_TRUE(session.SaveStore(path, &err)) << err;
    AnalysisSession restarted = SynthServePipeline().ForEachModule(corpus).BuildSession();
    ASSERT_TRUE(restarted.LoadStore(path, &err)) << err;
    EXPECT_EQ(bytes(restarted, restarted.RunLinked()), cold);
    EXPECT_EQ(restarted.link_stats().module_analyses, 0);
    std::remove(path.c_str());
  }
}

// A module that does not compile drops out of the link; the rest of the
// corpus is analyzed exactly as if the module had never been added.
TEST(SessionLinked, CompileFailureDropsOnlyThatModule) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 21;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  std::vector<ModuleSources> broken = corpus;
  broken[1].files[0].text += "void broken_fn(int n {\n";

  AnalysisSession session = LinkedPipeline().ForEachModule(broken).BuildSession();
  SessionResult result = session.RunLinked();
  EXPECT_EQ(result.compile_failures, 1);
  std::vector<Finding> rest;
  int failures = 0;
  for (const Finding& f : result.findings) {
    if (f.tool == "session") {
      EXPECT_EQ(f.message, "module 'mod_01' failed to compile");
      ++failures;
    } else {
      rest.push_back(f);
    }
  }
  EXPECT_EQ(failures, 1);

  std::vector<ModuleSources> without = {corpus[0], corpus[2]};
  AnalysisSession reference = LinkedPipeline().ForEachModule(without).BuildSession();
  EXPECT_EQ(Dump(rest), Dump(reference.RunLinked().findings));
}

// Two modules defining one function: the link reports the conflict once and
// the outcome does not depend on the order the modules were added in.
TEST(SessionLinked, DuplicateDefinitionReportedOnceInAnyOrder) {
  const std::vector<ModuleSources> corpus = {
      {"dup_a",
       {SourceFile{"dup_a.mc",
                   "int a_x;\nvoid shared_fn(int n) {\n  a_x = n;\n  msleep(n);\n}\n"}}},
      {"dup_b",
       {SourceFile{"dup_b.mc",
                   "int b_x;\nvoid shared_fn(int n) {\n  b_x = n + 1;\n}\n"
                   "void b_use(int n) {\n  shared_fn(n);\n}\n"}}},
  };
  AnalysisSession forward = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult result = forward.RunLinked();
  int conflicts = 0;
  for (const Finding& f : result.findings) {
    if (f.tool == "session") {
      EXPECT_EQ(f.message,
                "function 'shared_fn' is defined in multiple modules; linking used the first "
                "definer's facts");
      EXPECT_EQ(f.witness, std::vector<std::string>{"shared_fn"});
      ++conflicts;
    }
  }
  EXPECT_EQ(conflicts, 1);

  std::vector<ModuleSources> reversed(corpus.rbegin(), corpus.rend());
  AnalysisSession backward = LinkedPipeline().ForEachModule(reversed).BuildSession();
  EXPECT_EQ(Dump(backward.RunLinked().findings), Dump(result.findings));
}

// Every module compiles and reports what its own compile reports: the
// modules share no functions, so nothing crosses the link.
void ExpectModulesMatchOwnCompiles(const std::vector<ModuleSources>& corpus) {
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  SessionResult result = session.RunLinked();
  EXPECT_EQ(result.compile_failures, 0);
  const Pipeline alone = LinkedPipeline().Build();
  for (const ModuleSources& m : corpus) {
    const ModuleRunResult* mr = result.ModuleFor(m.name);
    ASSERT_NE(mr, nullptr) << m.name;
    ASSERT_TRUE(mr->ok) << m.name;
    PipelineRun own = alone.CompileAndRun(m.files);
    ASSERT_TRUE(own.comp->ok) << m.name;
    EXPECT_FALSE(own.result.findings.empty()) << m.name;
    EXPECT_EQ(Dump(mr->result.findings), Dump(own.result.findings)) << m.name;
  }
}

// The shared-header idiom: both modules define the same struct and enum,
// and a global one module defines is declared extern by the other.
TEST(SessionLinked, SharedHeaderDeclarationsLink) {
  const std::string header =
      "typedef void probe_fn(int n);\nstruct dev {\n  int id;\n  probe_fn* probe;\n};\n"
      "enum { DEV_MAX = 4 };\n";
  ExpectModulesMatchOwnCompiles({
      {"hdr_a",
       {SourceFile{"hdr_a.mc",
                   header + "int dev_lock;\nint dev_count = 1;\nstruct dev devs[DEV_MAX];\n"
                            "void a_scan(int n) {\n  spin_lock(&dev_lock);\n"
                            "  devs[0].id = dev_count;\n  msleep(n);\n"
                            "  spin_unlock(&dev_lock);\n}\n"}}},
      {"hdr_b",
       {SourceFile{"hdr_b.mc",
                   header + "extern int dev_lock;\nextern int dev_count;\n"
                            "void b_scan(struct dev* d) {\n  spin_lock(&dev_lock);\n"
                            "  d->id = dev_count + DEV_MAX;\n  msleep(d->id);\n"
                            "  spin_unlock(&dev_lock);\n}\n"}}},
  });
}

// Same-named file-local helpers and globals of different types: each module
// keeps its own, so b_run is checked against dup_b's blocking helper and
// a_run against dup_a's non-blocking one.
TEST(SessionLinked, SameNamedStaticsStayModuleLocal) {
  ExpectModulesMatchOwnCompiles({
      {"dup_a",
       {SourceFile{"dup_a.mc",
                   "int la;\nint cfg;\nstatic int helper(int n) {\n  return n + cfg;\n}\n"
                   "void a_run(int n) {\n  spin_lock(&la);\n  cfg = helper(n);\n"
                   "  msleep(cfg);\n  spin_unlock(&la);\n}\n"}}},
      {"dup_b",
       {SourceFile{"dup_b.mc",
                   "int lb;\nstatic char* cfg;\nstatic int helper(int n) {\n  msleep(n);\n"
                   "  return n;\n}\nvoid b_run(int n) {\n  spin_lock(&lb);\n"
                   "  helper(n);\n  spin_unlock(&lb);\n}\n"}}},
  });
}

// A struct tag and an enum constant two modules define differently: each
// module keeps its own type, across its files too.
TEST(SessionLinked, SameNamedTypesStayModuleLocal) {
  ExpectModulesMatchOwnCompiles({
      {"dup_a",
       {SourceFile{"dup_a.mc",
                   "struct state {\n  int count;\n};\nenum { MODE = 1 };\n"
                   "struct state a_st;\nint la;\nvoid a_run(int n) {\n  spin_lock(&la);\n"
                   "  a_st.count = n + MODE;\n  msleep(a_st.count);\n  spin_unlock(&la);\n}\n"}}},
      {"dup_b",
       {SourceFile{"dup_b1.mc",
                   "struct state {\n  char* name;\n  int level;\n};\n"
                   "enum { MODE = 2, LEVEL = 3 };\n"},
        SourceFile{"dup_b2.mc",
                   "int lb;\nvoid b_run(struct state* s) {\n  spin_lock(&lb);\n"
                   "  s->level = MODE + LEVEL;\n  msleep(s->level);\n  spin_unlock(&lb);\n}\n"}}},
  });
}

TEST(SessionLinked, LinkedMatchesMergedSource) {
  for (uint64_t seed : {3u, 17u}) {
    LinkedCorpusOptions opt;
    opt.modules = 4;
    opt.functions = 32;
    opt.seed = seed;
    std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);

    AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
    SessionResult linked = session.RunLinked();
    ASSERT_EQ(linked.compile_failures, 0) << "seed " << seed;
    ASSERT_TRUE(session.link_stats().converged) << "seed " << seed;
    EXPECT_EQ(session.link_stats().rounds, 1) << "seed " << seed;
    EXPECT_EQ(session.link_stats().module_analyses, opt.modules) << "seed " << seed;
    EXPECT_GT(session.link_stats().cross_edges, 0) << "seed " << seed;
    // No session-level findings (no multi-definition conflicts, converged).
    for (const Finding& f : linked.findings) {
      EXPECT_NE(f.tool, "session") << f.message;
    }

    Pipeline merged_pipeline = LinkedPipeline().Build();
    PipelineRun merged = merged_pipeline.CompileAndRun(MergedLinkedSources(corpus));
    ASSERT_TRUE(merged.comp->ok) << "seed " << seed << ": " << merged.comp->Errors();

    std::vector<std::string> linked_canon = LinkedCanon(session, linked);
    std::vector<std::string> merged_canon =
        CanonSorted(merged.result.findings, &merged.comp->sm);
    EXPECT_FALSE(merged_canon.empty());
    ASSERT_EQ(linked_canon, merged_canon) << "seed " << seed;

    // StackCheck detail: corpus-level depths and the recursive set must
    // match the merged condensation function by function.
    std::map<std::string, int64_t> linked_depths;
    std::set<std::string> linked_recursive;
    for (const ModuleRunResult& mr : linked.modules) {
      const ToolResult* r = mr.result.ResultFor("stackcheck");
      ASSERT_NE(r, nullptr);
      const StackCheckReport* rep = r->DetailAs<StackCheckReport>();
      ASSERT_NE(rep, nullptr);
      linked_depths.insert(rep->entry_depths.begin(), rep->entry_depths.end());
      linked_recursive.insert(rep->recursive.begin(), rep->recursive.end());
    }
    const StackCheckReport* merged_rep =
        merged.result.ResultFor("stackcheck")->DetailAs<StackCheckReport>();
    ASSERT_NE(merged_rep, nullptr);
    EXPECT_EQ(linked_depths, merged_rep->entry_depths) << "seed " << seed;
    EXPECT_EQ(linked_recursive, merged_rep->recursive) << "seed " << seed;
    EXPECT_FALSE(linked_recursive.empty());  // the cross-module cycle is real
  }
}

TEST(SessionLinked, ConvergedFindingsDeterministic) {
  LinkedCorpusOptions opt;
  opt.modules = 4;
  opt.functions = 28;
  opt.seed = 5;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);

  // The summary rows too: their usage facts come from pass internals (e.g.
  // BlockStop's per-file entry bits), which registration order must not reach.
  auto rows = [](const AnalysisSession& session) {
    std::string out;
    for (const auto& [key, row] : session.link_table().summaries()) {
      out += row.Canonical() + "\n";
    }
    return out;
  };
  AnalysisSession forward = LinkedPipeline().ForEachModule(corpus).BuildSession();
  std::string golden = Dump(forward.RunLinked().findings);
  ASSERT_TRUE(forward.link_stats().converged);
  EXPECT_FALSE(golden.empty());

  std::vector<ModuleSources> reversed(corpus.rbegin(), corpus.rend());
  AnalysisSession backward = LinkedPipeline().ForEachModule(reversed).BuildSession();
  EXPECT_EQ(Dump(backward.RunLinked().findings), golden);
  EXPECT_EQ(rows(backward), rows(forward));
}

TEST(SessionLinked, IncrementalRelinkMatchesColdAndStaysInComponent) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 9;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  // An isolated module: no cross calls in or out. Editing it or any other
  // module re-runs the whole corpus once.
  SynthCorpusOptions iso;
  iso.functions = 16;
  iso.seed = 77;
  iso.prefix = "iso_";
  corpus.push_back(ModuleSources{"zz_iso", {SourceFile{"zz_iso.mc", GenerateSynthCorpus(iso)}}});

  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);

  // Re-linking an unchanged corpus is one cheap round: nothing re-analyzed.
  SessionResult idle = session.RunLinked();
  EXPECT_EQ(session.link_stats().rounds, 1);
  EXPECT_EQ(session.link_stats().module_analyses, 0);
  EXPECT_EQ(idle.modules_reused, static_cast<int>(corpus.size()));

  // Make a mid-chain function of mod_01 a blocking leaf: the edit reaches
  // mod_01's callers in other modules.
  const std::string fn = SynthFuncName(LinkedModulePrefix(1), 5);
  const std::string def =
      "void " + fn + "(int n) {\n  int pad[16]; pad[0] = n;\n  msleep(n);\n}\n";
  ASSERT_TRUE(session.ReplaceFunction("mod_01", fn, def));
  SessionResult warm = session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  EXPECT_EQ(session.link_stats().rounds, 1);
  EXPECT_EQ(session.link_stats().module_analyses, static_cast<int>(corpus.size()));

  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction("mod_01", fn, def));
  SessionResult cold_result = cold.RunLinked();
  ASSERT_TRUE(cold.link_stats().converged);
  EXPECT_EQ(Dump(warm.findings), Dump(cold_result.findings));

  // Editing only the isolated module is one corpus run too.
  ASSERT_TRUE(session.ReplaceFunction("zz_iso", SynthFuncName("iso_", 3),
                                      "void " + SynthFuncName("iso_", 3) +
                                          "(int n) {\n  int pad[4]; pad[0] = n;\n  udelay(1);\n}\n"));
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  EXPECT_EQ(session.link_stats().module_analyses, static_cast<int>(corpus.size()));
}

TEST(SessionLinked, SummariesExportedAndRetractable) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 21;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);

  // The converged table carries both halves of the exchange.
  const AnnoDb& table = session.link_table();
  ASSERT_FALSE(table.summaries().empty());
  bool saw_mayblock_definer = false;
  bool saw_usage_atomic = false;
  bool saw_param_points = false;
  bool saw_stack = false;
  for (const auto& [key, row] : table.summaries()) {
    if (row.defined && row.may_block && !row.block_witness.empty()) {
      saw_mayblock_definer = true;
    }
    if (row.defined && row.stack_below >= 0) {
      saw_stack = true;
    }
    if (!row.defined && row.entered_atomic) {
      saw_usage_atomic = true;
    }
    if (!row.defined && !row.param_points.empty()) {
      saw_param_points = true;
    }
  }
  EXPECT_TRUE(saw_mayblock_definer);
  EXPECT_TRUE(saw_usage_atomic);
  EXPECT_TRUE(saw_param_points);
  EXPECT_TRUE(saw_stack);

  // The repository export includes the table, round-trips through JSON, and
  // retraction drops exactly one module's rows (facts and summaries both).
  AnnoDb db = session.ExportAnnoDb();
  ASSERT_FALSE(db.summaries().empty());
  std::string err;
  AnnoDb loaded = AnnoDb::FromJson(Json::Parse(db.ToJson().Dump(), &err));
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(loaded.ToJson().Dump(), db.ToJson().Dump());

  size_t before = loaded.summaries().size();
  size_t mod1_rows = 0;
  for (const auto& [key, row] : loaded.summaries()) {
    mod1_rows += key.first == "mod_01" ? 1 : 0;
  }
  ASSERT_GT(mod1_rows, 0u);
  size_t mod1_facts = 0;
  for (const auto& [name, facts] : loaded.funcs()) {
    mod1_facts += facts.module == "mod_01" ? 1 : 0;
  }
  ASSERT_GT(mod1_facts, 0u);
  loaded.RetractModule("mod_01");
  EXPECT_EQ(loaded.summaries().size(), before - mod1_rows);
  for (const auto& [key, row] : loaded.summaries()) {
    EXPECT_NE(key.first, "mod_01");
  }
  ASSERT_FALSE(loaded.funcs().empty());
  for (const auto& [name, facts] : loaded.funcs()) {
    EXPECT_NE(facts.module, "mod_01") << name;
  }

  // Re-merging the same export is idempotent for summary rows.
  AnnoDb twice = session.ExportAnnoDb();
  std::string once_dump = twice.ToJson().Dump();
  twice.Merge(session.ExportAnnoDb());
  EXPECT_EQ(twice.ToJson().Dump(), once_dump);
}

TEST(SessionLinked, RemoveModuleRetractsItsFactsFromTheTable) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 41;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);

  // Dropping mod_02 must drop its facts: the relinked corpus equals a cold
  // two-module link, not the stale three-module fixpoint.
  ASSERT_TRUE(session.RemoveModule("mod_02"));
  SessionResult relinked = session.RunLinked();
  ASSERT_TRUE(session.link_stats().converged);
  for (const auto& [key, row] : session.link_table().summaries()) {
    EXPECT_NE(key.first, "mod_02");
  }

  corpus.pop_back();
  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  EXPECT_EQ(Dump(relinked.findings), Dump(cold.RunLinked().findings));
}

// A cancelled link publishes nothing: the table and every module's result
// stay as the last completed link left them, the edit stays pending, and the
// next link resumes to exactly the cold result.
TEST(SessionLinked, CancelledLinkPublishesNothingAndResumes) {
  LinkedCorpusOptions opt;
  opt.modules = 3;
  opt.functions = 24;
  opt.seed = 13;
  std::vector<ModuleSources> corpus = GenerateLinkedCorpus(opt);
  auto rows = [](const AnalysisSession& session) {
    std::string out;
    for (const auto& [key, row] : session.link_table().summaries()) {
      out += row.Canonical() + "\n";
    }
    return out;
  };

  AnalysisSession session = LinkedPipeline().ForEachModule(corpus).BuildSession();
  const std::string before = Dump(session.RunLinked().findings);
  const std::string before_rows = rows(session);
  const std::string fn = SynthFuncName(LinkedModulePrefix(2), 3);
  ASSERT_TRUE(session.ReplaceFunction(
      "mod_02", fn, "void " + fn + "(int n) {\n  int pad[4]; pad[0] = n;\n  msleep(n);\n}\n"));

  session.RequestCancel();
  SessionResult cancelled = session.RunLinked();
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_TRUE(session.link_stats().cancelled);
  EXPECT_FALSE(session.link_stats().converged);
  EXPECT_EQ(rows(session), before_rows);

  session.ClearCancel();
  SessionResult resumed = session.RunLinked();
  EXPECT_FALSE(resumed.cancelled);
  EXPECT_EQ(session.link_stats().module_analyses, opt.modules);
  EXPECT_NE(Dump(resumed.findings), before);

  AnalysisSession cold = LinkedPipeline().ForEachModule(corpus).BuildSession();
  ASSERT_TRUE(cold.ReplaceFunction(
      "mod_02", fn, "void " + fn + "(int n) {\n  int pad[4]; pad[0] = n;\n  msleep(n);\n}\n"));
  EXPECT_EQ(Dump(resumed.findings), Dump(cold.RunLinked().findings));
  EXPECT_EQ(rows(session), rows(cold));
}

}  // namespace
}  // namespace ivy
