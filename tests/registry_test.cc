// ToolRegistry edge cases and pass-level scheduling: duplicate registration
// is rejected (first factory wins), RunAfter() dependencies order execution,
// and a dependency cycle is reported as a pipeline error finding — never a
// hang. Kept in its own binary: these tests register extra passes in the
// process-global registry, which must not leak into AllTools() pipelines of
// other test suites.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/tool/pipeline.h"
#include "src/tool/registry.h"

namespace ivy {
namespace {

const char* kTinyProgram = "int main(void) { return 0; }";

// A configurable probe pass. Each Run appends its name to a shared log so
// tests can assert scheduling order.
std::mutex g_log_mu;
std::vector<std::string> g_run_log;

class ProbePass : public ToolPass {
 public:
  ProbePass(std::string name, std::vector<std::string> after, std::string marker)
      : name_(std::move(name)), after_(std::move(after)), marker_(std::move(marker)) {}

  std::string name() const override { return name_; }
  std::vector<std::string> RunAfter() const override { return after_; }

  ToolResult Run(AnalysisContext&, std::vector<Finding>*) override {
    {
      std::lock_guard<std::mutex> lock(g_log_mu);
      g_run_log.push_back(name_);
    }
    ToolResult r(name_);
    r.set_summary(marker_);
    return r;
  }

 private:
  std::string name_;
  std::vector<std::string> after_;
  std::string marker_;
};

ToolRegistry::Factory Probe(const std::string& name,
                            std::vector<std::string> after = {},
                            const std::string& marker = "") {
  return [name, after, marker] {
    return std::make_unique<ProbePass>(name, after, marker);
  };
}

TEST(ToolRegistry, DuplicateRegistrationRejected) {
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-dup-probe", Probe("zz-dup-probe", {}, "first")));
  // The duplicate is rejected and the original factory survives.
  EXPECT_FALSE(reg.Register("zz-dup-probe", Probe("zz-dup-probe", {}, "second")));
  auto pass = reg.Create("zz-dup-probe");
  ASSERT_NE(pass, nullptr);
  EXPECT_EQ(pass->name(), "zz-dup-probe");
}

TEST(ToolRegistry, DuplicateRegistrationKeepsOriginalFactory) {
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-dup-probe2", Probe("zz-dup-probe2", {}, "first")));
  EXPECT_FALSE(reg.Register("zz-dup-probe2", Probe("zz-dup-probe2", {}, "second")));
  Pipeline p = PipelineBuilder().Tool("zz-dup-probe2").Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"t.mc", kTinyProgram}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  const ToolResult* r = run.result.ResultFor("zz-dup-probe2");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->summary(), "first");
  // A builtin cannot be shadowed either.
  EXPECT_FALSE(reg.Register("errcheck", Probe("errcheck")));
}

TEST(ToolRegistry, RunAfterOrdersExecution) {
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-late", Probe("zz-late", {"zz-early"})));
  ASSERT_TRUE(reg.Register("zz-early", Probe("zz-early")));
  for (bool parallel : {false, true}) {
    {
      std::lock_guard<std::mutex> lock(g_log_mu);
      g_run_log.clear();
    }
    // Requested late-first: the scheduler must still run zz-early first,
    // while the merged results keep request order.
    Pipeline p = PipelineBuilder().Tool("zz-late").Tool("zz-early").Parallel(parallel).Build();
    PipelineRun run = p.CompileAndRun({SourceFile{"t.mc", kTinyProgram}});
    ASSERT_TRUE(run.comp->ok);
    std::lock_guard<std::mutex> lock(g_log_mu);
    ASSERT_EQ(g_run_log.size(), 2u) << "parallel=" << parallel;
    EXPECT_EQ(g_run_log[0], "zz-early");
    EXPECT_EQ(g_run_log[1], "zz-late");
    ASSERT_EQ(run.result.results.size(), 2u);
    EXPECT_EQ(run.result.results[0].tool(), "zz-late");
    EXPECT_EQ(run.result.results[1].tool(), "zz-early");
  }
}

TEST(ToolRegistry, RunAfterCycleIsErrorNotHang) {
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-cycle-a", Probe("zz-cycle-a", {"zz-cycle-b"})));
  ASSERT_TRUE(reg.Register("zz-cycle-b", Probe("zz-cycle-b", {"zz-cycle-a"})));
  {
    std::lock_guard<std::mutex> lock(g_log_mu);
    g_run_log.clear();
  }
  Pipeline p = PipelineBuilder()
                   .Tool("zz-cycle-a")
                   .Tool("zz-cycle-b")
                   .Tool("errcheck")
                   .Build();
  // If cycle handling regressed into an infinite loop this test times out —
  // that *is* the failure mode under test.
  PipelineRun run = p.CompileAndRun({SourceFile{"t.mc", kTinyProgram}});
  ASSERT_TRUE(run.comp->ok);

  // The cyclic passes never ran; the healthy pass did.
  {
    std::lock_guard<std::mutex> lock(g_log_mu);
    EXPECT_TRUE(g_run_log.empty());
  }
  ASSERT_EQ(run.result.results.size(), 3u);
  EXPECT_NE(run.result.ResultFor("errcheck"), nullptr);

  // And the cycle surfaced as a pipeline error finding naming both passes.
  bool cycle_reported = false;
  for (const Finding& f : run.result.findings) {
    if (f.tool == "pipeline" && f.severity == FindingSeverity::kError &&
        f.message.find("cycle") != std::string::npos) {
      cycle_reported = true;
      EXPECT_NE(f.message.find("zz-cycle-a"), std::string::npos);
      EXPECT_NE(f.message.find("zz-cycle-b"), std::string::npos);
    }
  }
  EXPECT_TRUE(cycle_reported);
}

TEST(ToolRegistry, PassDownstreamOfCycleIsSkippedButNotCalledCyclic) {
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-loop-a", Probe("zz-loop-a", {"zz-loop-b"})));
  ASSERT_TRUE(reg.Register("zz-loop-b", Probe("zz-loop-b", {"zz-loop-a"})));
  ASSERT_TRUE(reg.Register("zz-downstream", Probe("zz-downstream", {"zz-loop-a"})));
  Pipeline p = PipelineBuilder()
                   .Tool("zz-loop-a")
                   .Tool("zz-loop-b")
                   .Tool("zz-downstream")
                   .Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"t.mc", kTinyProgram}});
  ASSERT_TRUE(run.comp->ok);
  std::string cycle_msg;
  std::string downstream_msg;
  for (const Finding& f : run.result.findings) {
    if (f.tool != "pipeline") {
      continue;
    }
    if (f.message.find("cycle involving") != std::string::npos) {
      cycle_msg = f.message;
    }
    if (f.message.find("zz-downstream") != std::string::npos) {
      downstream_msg = f.message;
    }
  }
  // The cycle finding names exactly the cycle members; the healthy
  // downstream pass gets its own "not run" explanation instead of being
  // lumped into the cycle.
  EXPECT_NE(cycle_msg.find("zz-loop-a"), std::string::npos);
  EXPECT_NE(cycle_msg.find("zz-loop-b"), std::string::npos);
  EXPECT_EQ(cycle_msg.find("zz-downstream"), std::string::npos);
  EXPECT_NE(downstream_msg.find("not run"), std::string::npos);
}

TEST(ToolRegistry, SelfReferenceAndUnknownDepsAreIgnored) {
  // RunAfter naming yourself is ignored (a pass trivially runs "after
  // itself"); naming an absent tool is ignored too — neither may wedge the
  // scheduler.
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-selfish", Probe("zz-selfish", {"zz-selfish", "zz-not-there"})));
  Pipeline p = PipelineBuilder().Tool("zz-selfish").Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"t.mc", kTinyProgram}});
  ASSERT_TRUE(run.comp->ok);
  ASSERT_EQ(run.result.results.size(), 1u);
  EXPECT_EQ(run.result.ErrorCount(), 0);
}

}  // namespace
}  // namespace ivy
