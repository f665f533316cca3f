// The workload pass: VM workload functions scheduled as a pipeline stage.
// Covers trap/bad-free/might-sleep findings, the boot spec, missing
// functions, determinism across runs, and module provenance through an
// AnalysisSession's annodb export (what tools/annodb_query serves).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/tool/pipeline.h"
#include "src/tool/session.h"

namespace ivy {
namespace {

// The first workload finding in `fs` whose message contains `needle`.
const Finding* FindContaining(const std::vector<Finding>& fs, const std::string& needle) {
  for (const Finding& f : fs) {
    if (f.tool == "workload" && f.message.find(needle) != std::string::npos) {
      return &f;
    }
  }
  return nullptr;
}

TEST(WorkloadPass, TrapsAndMissingFunctionsBecomeFindings) {
  const char* src = R"(
    int ok_fn(int n) { return n * 2; }
    int trap_fn(int n) { return 7 / (n - n); }
  )";
  Pipeline p = PipelineBuilder()
                   .RunWorkload({"ok_fn:3", "trap_fn:1", "missing_fn"})
                   .Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", src}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  const ToolResult* r = run.result.ResultFor("workload");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->Metric("functions"), 3);
  EXPECT_EQ(r->Metric("ran"), 2);
  EXPECT_EQ(r->Metric("traps"), 1);
  EXPECT_GT(r->Metric("cycles"), 0);

  const Finding* trap = FindContaining(run.result.findings, "workload 'trap_fn' trapped");
  ASSERT_NE(trap, nullptr);
  EXPECT_EQ(trap->severity, FindingSeverity::kError);
  EXPECT_NE(trap->message.find("division by zero"), std::string::npos);
  EXPECT_GT(trap->loc.line, 0) << "trap findings carry the trapping source location";
  ASSERT_FALSE(trap->witness.empty());
  EXPECT_EQ(trap->witness[0], "trap_fn");

  const Finding* missing = FindContaining(run.result.findings, "missing_fn");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->severity, FindingSeverity::kWarning);
  EXPECT_NE(missing->message.find("not defined"), std::string::npos);
}

TEST(WorkloadPass, CCountBadFreesSurfaceWithWitness) {
  const char* src = R"(
    struct node { int v; };
    struct node* opt g;
    void leaky(int n) {
      struct node* p = (struct node*)kmalloc(sizeof(struct node), GFP_KERNEL);
      p->v = n;
      g = p;          // residual reference survives the free
      kfree(p);
    }
  )";
  Pipeline p = PipelineBuilder().CCount(true).RunWorkload({"leaky:5"}).Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", src}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  const ToolResult* r = run.result.ResultFor("workload");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->Metric("traps"), 0);
  EXPECT_EQ(r->Metric("bad_free_sites"), 1);
  const Finding* bad = FindContaining(run.result.findings, "bad free");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->severity, FindingSeverity::kWarning);
  EXPECT_NE(bad->message.find("residual references"), std::string::npos);
  ASSERT_FALSE(bad->witness.empty());
  EXPECT_EQ(bad->witness[0], "leaky");
}

TEST(WorkloadPass, MightSleepInAtomicContextIsAFinding) {
  const char* src = R"(
    int lk;
    void sleeper(int n) {
      spin_lock(&lk);
      schedule();
      spin_unlock(&lk);
    }
  )";
  Pipeline p = PipelineBuilder().RunWorkload({"sleeper"}).Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", src}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  const ToolResult* r = run.result.ResultFor("workload");
  ASSERT_NE(r, nullptr);
  const Finding* f = FindContaining(run.result.findings, "atomic context");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, FindingSeverity::kError);
}

TEST(WorkloadPass, BootSpecRunsBeforeEachWorkload) {
  const char* src = R"(
    int ready;
    void setup(int v) { ready = v; }
    int probe(int n) {
      if (ready != 7) { panic("boot did not run"); }
      return n;
    }
  )";
  Pipeline with_boot =
      PipelineBuilder().RunWorkload({"probe:1"}, "setup:7").Build();
  PipelineRun run = with_boot.CompileAndRun({SourceFile{"input.mc", src}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  const ToolResult* r = run.result.ResultFor("workload");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->Metric("traps"), 0) << "boot must have initialized the global";

  // A trapping boot is an error finding and the workload is skipped.
  Pipeline bad_boot =
      PipelineBuilder().RunWorkload({"probe:1"}, "setup:6").Build();
  PipelineRun run2 = bad_boot.CompileAndRun({SourceFile{"input.mc", src}});
  const ToolResult* r2 = run2.result.ResultFor("workload");
  ASSERT_NE(r2, nullptr);
  const Finding* f = FindContaining(run2.result.findings, "workload 'probe' trapped");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("boot did not run"), std::string::npos);
}

TEST(WorkloadPass, NoOpWithoutConfiguredFunctions) {
  Pipeline p = PipelineBuilder().AllTools().Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"input.mc", "int main(void) { return 0; }"}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  const ToolResult* r = run.result.ResultFor("workload");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(FindContaining(run.result.findings, ""), nullptr);
  EXPECT_NE(r->summary().find("no workload functions"), std::string::npos);
}

TEST(WorkloadPass, DeterministicAcrossRuns) {
  const char* src = R"(
    int lk;
    struct node { int v; };
    struct node* opt g;
    void churn(int n) {
      for (int i = 0; i < n; i++) {
        struct node* p = (struct node*)kmalloc(sizeof(struct node), GFP_KERNEL);
        g = p;
        kfree(p);
      }
    }
    void locker(int n) { spin_lock(&lk); schedule(); spin_unlock(&lk); }
    int divver(int n) { return n / (n - n); }
  )";
  Pipeline p = PipelineBuilder()
                   .CCount(true)
                   .RunWorkload({"churn:8", "locker:1", "divver:3"})
                   .Build();
  PipelineRun a = p.CompileAndRun({SourceFile{"input.mc", src}});
  PipelineRun b = p.CompileAndRun({SourceFile{"input.mc", src}});
  ASSERT_TRUE(a.comp->ok && b.comp->ok);
  EXPECT_EQ(a.result.ToString(&a.comp->sm), b.result.ToString(&b.comp->sm));
  const ToolResult* r = a.result.ResultFor("workload");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->Metric("traps"), 2);
  EXPECT_EQ(r->Metric("bad_free_sites"), 1);
}

// The §3.2 path: session-run workload findings land in the annodb export
// stamped with module provenance, so annodb_query's FindingQuery can select
// them by module, tool, and function.
TEST(WorkloadPass, SessionExportCarriesModuleProvenance) {
  const char* src = R"(
    int wl_entry(int n) { return 9 / (n - n); }
  )";
  AnalysisSession session = PipelineBuilder()
                                .RunWorkload({"wl_entry:4"})
                                .ForEachModule({{"m_net", {SourceFile{"net.mc", src}}}})
                                .BuildSession();
  SessionResult sr = session.RunLinked();
  ASSERT_EQ(sr.compile_failures, 0);
  const Finding* f = FindContaining(sr.findings, "workload 'wl_entry' trapped");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->module, "m_net");

  AnnoDb db = session.ExportAnnoDb();
  FindingQuery q;
  q.tool = "workload";
  q.module = "m_net";
  q.function = "wl_entry";
  int matched = 0;
  for (const Finding& df : db.findings()) {
    if (q.Matches(df)) {
      ++matched;
    }
  }
  EXPECT_EQ(matched, 1) << "workload finding must be queryable from the annodb export";
}

}  // namespace
}  // namespace ivy
