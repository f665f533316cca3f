// Tests for the unified ToolPass pipeline API: registry lookup, Requires()
// ordering, the shared AnalysisContext compute-once cache, deterministic
// parallel-vs-serial finding merges, and the unified-findings JSON feeding
// annodb.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/annodb/annodb.h"
#include "src/blockstop/blockstop.h"
#include "src/kernel/corpus.h"
#include "src/stackcheck/stackcheck.h"
#include "src/tool/pipeline.h"
#include "src/tool/registry.h"

namespace ivy {
namespace {

// One program with a known finding for four different tools: a GFP_KERNEL
// allocation under a spinlock (blockstop), an ABBA lock inversion
// (locksafe), a discarded error code (errcheck), and recursion (stackcheck).
const char* kFourBugs = R"(
  struct item { struct item* opt next; int v; };
  struct item* opt inventory;
  int la;
  int lb;

  int restock(void) {
    spin_lock(&la);
    struct item* it = (struct item*)kmalloc(sizeof(struct item), GFP_KERNEL);
    if (it) {
      it->next = inventory;
      inventory = it;
    }
    spin_unlock(&la);
    return 0;
  }

  void path1(void) { spin_lock(&la); spin_lock(&lb); spin_unlock(&lb); spin_unlock(&la); }
  void path2(void) { spin_lock(&lb); spin_lock(&la); spin_unlock(&la); spin_unlock(&lb); }

  int may_fail(void) errcode(-5) { return -5; }
  void careless(void) { may_fail(); }

  int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
  int main(void) { return fact(3); }
)";

TEST(ToolRegistry, AllSixToolsRegistered) {
  ToolRegistry& reg = ToolRegistry::Instance();
  for (const char* name :
       {"deputy", "ccount", "blockstop", "locksafe", "stackcheck", "errcheck"}) {
    EXPECT_TRUE(reg.Has(name)) << name;
    auto pass = reg.Create(name);
    ASSERT_NE(pass, nullptr) << name;
    EXPECT_EQ(pass->name(), name);
  }
  std::vector<std::string> names = reg.Names();
  EXPECT_GE(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ToolRegistry, UnknownToolIsAnError) {
  EXPECT_FALSE(ToolRegistry::Instance().Has("fancy-new-tool"));
  EXPECT_EQ(ToolRegistry::Instance().Create("fancy-new-tool"), nullptr);

  // Through the pipeline, an unknown name becomes an error finding rather
  // than a crash or a silent skip.
  Pipeline p = PipelineBuilder().Tool("fancy-new-tool").Tool("errcheck").Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", kFourBugs}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  ASSERT_FALSE(run.result.findings.empty());
  EXPECT_EQ(run.result.findings[0].tool, "pipeline");
  EXPECT_EQ(run.result.findings[0].severity, FindingSeverity::kError);
  // The known tool still ran.
  EXPECT_NE(run.result.ResultFor("errcheck"), nullptr);
}

TEST(ToolPipeline, PlanOrdersRequiredAnalysesBeforePasses) {
  Pipeline p = PipelineBuilder().Tool("blockstop").Tool("stackcheck").Build();
  std::vector<std::string> plan = p.Plan();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0], "analysis:pointsto");
  EXPECT_EQ(plan[1], "analysis:callgraph");
  EXPECT_EQ(plan[2], "pass:blockstop");
  EXPECT_EQ(plan[3], "pass:stackcheck");

  // A pass with no requirements schedules no analyses.
  Pipeline deputy_only = PipelineBuilder().Tool("deputy").Build();
  std::vector<std::string> lean = deputy_only.Plan();
  ASSERT_EQ(lean.size(), 1u);
  EXPECT_EQ(lean[0], "pass:deputy");
}

TEST(ToolPipeline, CallgraphComputedExactlyOnceAcrossFourTools) {
  Pipeline p = PipelineBuilder()
                   .Tool("blockstop")
                   .Tool("locksafe")
                   .Tool("stackcheck")
                   .Tool("errcheck")
                   .Build();
  auto comp = p.Compile({SourceFile{"input.mc", kFourBugs}});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  AnalysisContext ctx(comp.get());
  PipelineResult result = p.RunTools(ctx);
  EXPECT_EQ(ctx.callgraph_builds(), 1);
  EXPECT_EQ(ctx.pointsto_builds(), 1);
  EXPECT_EQ(result.callgraph_builds, 1);
  EXPECT_EQ(result.pointsto_builds, 1);
  EXPECT_EQ(result.results.size(), 4u);

  // Each tool found its planted bug.
  const ToolResult* bs = result.ResultFor("blockstop");
  ASSERT_NE(bs, nullptr);
  EXPECT_GE(bs->Metric("violations"), 1);
  const ToolResult* ls = result.ResultFor("locksafe");
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->Metric("deadlock_cycles"), 1);
  const ToolResult* ec = result.ResultFor("errcheck");
  ASSERT_NE(ec, nullptr);
  EXPECT_GE(ec->Metric("unchecked_sites"), 1);
  const ToolResult* sc = result.ResultFor("stackcheck");
  ASSERT_NE(sc, nullptr);
  EXPECT_GE(sc->Metric("recursive_funcs"), 1);
}

TEST(ToolPipeline, RepeatedRunsReuseTheCache) {
  Pipeline p = PipelineBuilder().AllTools().Build();
  auto comp = p.Compile({SourceFile{"input.mc", kFourBugs}});
  ASSERT_TRUE(comp->ok);
  AnalysisContext ctx(comp.get());
  p.RunTools(ctx);
  p.RunTools(ctx);  // second run over the same context: nothing rebuilt
  EXPECT_EQ(ctx.callgraph_builds(), 1);
  EXPECT_EQ(ctx.pointsto_builds(), 1);
}

TEST(ToolPipeline, ParallelAndSerialMergesAreIdentical) {
  auto run_with = [](bool parallel) {
    Pipeline p = PipelineBuilder().AllTools().Parallel(parallel).Build();
    auto comp = CompileKernel(p.config());
    EXPECT_TRUE(comp->ok);
    AnalysisContext ctx(comp.get());
    PipelineResult result = p.RunTools(ctx);
    Json merged = Json::MakeArray();
    for (const Finding& f : result.findings) {
      merged.Append(f.ToJson());
    }
    return merged.Dump();
  };
  std::string serial = run_with(false);
  std::string parallel = run_with(true);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ToolPipeline, PerToolOptionBagsReachThePass) {
  // A one-byte budget forces a stackcheck error on any entry with locals.
  Pipeline p = PipelineBuilder()
                   .Tool("stackcheck",
                         ToolOptions().SetInt("budget", 1).Set("entries", "restock,path1"))
                   .Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", kFourBugs}});
  ASSERT_TRUE(run.comp->ok);
  const ToolResult* sc = run.result.ResultFor("stackcheck");
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->Metric("budget"), 1);
  EXPECT_EQ(sc->Metric("entries"), 2);
  EXPECT_EQ(sc->Metric("fits_budget"), 0);
  const StackCheckReport* report = sc->DetailAs<StackCheckReport>();
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->budget, 1);
}

TEST(ToolPipeline, LegacyReportsStayReachableAsDetailViews) {
  Pipeline p = PipelineBuilder().Tool("blockstop").Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", kFourBugs}});
  ASSERT_TRUE(run.comp->ok);
  const ToolResult* bs = run.result.ResultFor("blockstop");
  ASSERT_NE(bs, nullptr);
  const BlockStopReport* report = bs->DetailAs<BlockStopReport>();
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(static_cast<int64_t>(report->violations.size()), bs->Metric("violations"));
  // The finding view and the legacy view agree.
  EXPECT_EQ(bs->CountAtLeast(FindingSeverity::kError),
            static_cast<int>(report->violations.size()));
}

TEST(ToolPipeline, FindingJsonRoundTrip) {
  Finding f;
  f.tool = "blockstop";
  f.severity = FindingSeverity::kError;
  f.loc = SourceLoc{2, 14, 7};
  f.message = "call may block in atomic context";
  f.witness = {"restock", "kmalloc", "blocking_if(GFP_WAIT)"};
  Finding back = Finding::FromJson(f.ToJson());
  EXPECT_EQ(back.tool, f.tool);
  EXPECT_EQ(back.severity, f.severity);
  EXPECT_EQ(back.loc.file, f.loc.file);
  EXPECT_EQ(back.loc.line, f.loc.line);
  EXPECT_EQ(back.loc.col, f.loc.col);
  EXPECT_EQ(back.message, f.message);
  EXPECT_EQ(back.witness, f.witness);
}

TEST(ToolPipeline, UnifiedFindingsFeedAnnodb) {
  Pipeline p = PipelineBuilder().AllTools().Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", kFourBugs}});
  ASSERT_TRUE(run.comp->ok);
  ASSERT_NE(run.ctx, nullptr);
  AnnoDb db = AnnoDb::Extract(*run.ctx, &run.result);
  EXPECT_EQ(db.findings().size(), run.result.findings.size());
  EXPECT_FALSE(db.findings().empty());
  // The blockstop detail fed the may-block facts, as before.
  EXPECT_TRUE(db.funcs().at("restock").may_block);

  // Findings survive the JSON round trip.
  std::string err;
  AnnoDb back = AnnoDb::FromJson(Json::Parse(db.ToJson().Dump(), &err));
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(back.findings().size(), db.findings().size());
  EXPECT_EQ(back.findings()[0].tool, db.findings()[0].tool);
  EXPECT_EQ(back.findings()[0].message, db.findings()[0].message);
}

TEST(ToolPipeline, CompileFailureYieldsNoContext) {
  Pipeline p = PipelineBuilder().AllTools().Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", "int main(void) { return ; }"}});
  EXPECT_FALSE(run.comp->ok);
  EXPECT_EQ(run.ctx, nullptr);
  EXPECT_TRUE(run.result.results.empty());
}

TEST(ToolPipeline, DefaultConstructedCompilationRendersNoErrors) {
  Compilation comp;
  EXPECT_EQ(comp.Errors(), "");  // used to dereference a null DiagEngine
}

TEST(ToolPipeline, LegacyCompileShimStillWorks) {
  ToolConfig cfg;
  cfg.ccount = true;
  auto comp = CompileOne("int main(void) { return 42; }", cfg);
  ASSERT_TRUE(comp->ok) << comp->Errors();
  auto vm = MakeVm(*comp);
  EXPECT_EQ(vm->Call("main").value, 42);
}

}  // namespace
}  // namespace ivy
