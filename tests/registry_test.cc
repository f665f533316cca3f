// ToolRegistry edge cases and the pipeline's merge order: duplicate
// registration is rejected (first factory wins), and passes that finish out
// of order still merge in request order. Kept in its own binary: these tests
// register extra passes in the process-global registry, which must not leak
// into AllTools() pipelines of other test suites.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/tool/pipeline.h"
#include "src/tool/registry.h"

namespace ivy {
namespace {

const char* kTinyProgram = "int main(void) { return 0; }";

// A configurable probe pass. Each Run sleeps `sleep_ms` and reports one
// finding.

class ProbePass : public ToolPass {
 public:
  ProbePass(std::string name, std::string marker, int sleep_ms)
      : name_(std::move(name)), marker_(std::move(marker)), sleep_ms_(sleep_ms) {}

  std::string name() const override { return name_; }

  ToolResult Run(AnalysisContext&, std::vector<Finding>* findings) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    Finding f;
    f.tool = name_;
    f.message = "probe " + name_;
    findings->push_back(std::move(f));
    ToolResult r(name_);
    r.set_summary(marker_);
    return r;
  }

 private:
  std::string name_;
  std::string marker_;
  int sleep_ms_;
};

ToolRegistry::Factory Probe(const std::string& name, const std::string& marker = "",
                            int sleep_ms = 0) {
  return [name, marker, sleep_ms] { return std::make_unique<ProbePass>(name, marker, sleep_ms); };
}

TEST(ToolRegistry, DuplicateRegistrationRejected) {
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-dup-probe", Probe("zz-dup-probe", "first")));
  // The duplicate is rejected and the original factory survives.
  EXPECT_FALSE(reg.Register("zz-dup-probe", Probe("zz-dup-probe", "second")));
  auto pass = reg.Create("zz-dup-probe");
  ASSERT_NE(pass, nullptr);
  EXPECT_EQ(pass->name(), "zz-dup-probe");
}

TEST(ToolRegistry, DuplicateRegistrationKeepsOriginalFactory) {
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-dup-probe2", Probe("zz-dup-probe2", "first")));
  EXPECT_FALSE(reg.Register("zz-dup-probe2", Probe("zz-dup-probe2", "second")));
  Pipeline p = PipelineBuilder().Tool("zz-dup-probe2").Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"t.mc", kTinyProgram}});
  ASSERT_TRUE(run.comp->ok) << run.comp->Errors();
  const ToolResult* r = run.result.ResultFor("zz-dup-probe2");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->summary(), "first");
  // A builtin cannot be shadowed either.
  EXPECT_FALSE(reg.Register("errcheck", Probe("errcheck")));
}

TEST(ToolRegistry, MergeKeepsRequestOrderWhateverFinishesFirst) {
  // The first-requested pass finishes last: it sleeps while the second one
  // returns at once. Results and findings still come out in request order.
  ToolRegistry& reg = ToolRegistry::Instance();
  ASSERT_TRUE(reg.Register("zz-slow", Probe("zz-slow", "", /*sleep_ms=*/20)));
  ASSERT_TRUE(reg.Register("zz-fast", Probe("zz-fast")));
  Pipeline p = PipelineBuilder().Tool("zz-slow").Tool("zz-fast").Build();
  PipelineRun run = p.CompileAndRun({SourceFile{"t.mc", kTinyProgram}});
  ASSERT_TRUE(run.comp->ok);
  ASSERT_EQ(run.result.results.size(), 2u);
  EXPECT_EQ(run.result.results[0].tool(), "zz-slow");
  EXPECT_EQ(run.result.results[1].tool(), "zz-fast");
  ASSERT_EQ(run.result.findings.size(), 2u);
  EXPECT_EQ(run.result.findings[0].tool, "zz-slow");
  EXPECT_EQ(run.result.findings[1].tool, "zz-fast");
}

}  // namespace
}  // namespace ivy
