// Tests for the §3.2 annotation repository and its JSON substrate.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/annodb/annodb.h"
#include "src/driver/compiler.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/tool/analysis_context.h"
#include "src/tool/pipeline.h"

namespace ivy {
namespace {

TEST(Json, ScalarRoundTrip) {
  std::string err;
  EXPECT_EQ(Json::Parse("42", &err).AsInt(), 42);
  EXPECT_EQ(Json::Parse("-17", &err).AsInt(), -17);
  EXPECT_TRUE(Json::Parse("true", &err).AsBool());
  EXPECT_FALSE(Json::Parse("false", &err).AsBool(true));
  EXPECT_TRUE(Json::Parse("null", &err).is_null());
  EXPECT_DOUBLE_EQ(Json::Parse("2.5", &err).AsDouble(), 2.5);
  EXPECT_EQ(Json::Parse("\"a\\nb\"", &err).AsString(), "a\nb");
}

TEST(Json, NestedStructures) {
  std::string err;
  Json j = Json::Parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})", &err);
  EXPECT_TRUE(err.empty()) << err;
  const Json* a = j.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(a->At(1).AsInt(), 2);
  EXPECT_EQ(a->At(2).Find("b")->AsString(), "c");
}

TEST(Json, DumpParseIdentity) {
  Json j = Json::MakeObject();
  j["name"] = Json::MakeString("kmalloc");
  j["blocking"] = Json::MakeBool(true);
  Json arr = Json::MakeArray();
  arr.Append(Json::MakeInt(-12));
  arr.Append(Json::MakeInt(-22));
  j["codes"] = std::move(arr);
  std::string text = j.Dump();
  std::string err;
  Json back = Json::Parse(text, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.Dump(), text);
}

TEST(Json, ErrorsReported) {
  std::string err;
  Json::Parse("{broken", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  Json::Parse("[1, 2", &err);
  EXPECT_FALSE(err.empty());
  err.clear();
  Json::Parse("\"unterminated", &err);
  EXPECT_FALSE(err.empty());
}

TEST(Json, EscapesInDump) {
  Json j = Json::MakeString("tab\there \"quoted\"\n");
  std::string text = j.Dump(-1);
  std::string err;
  EXPECT_EQ(Json::Parse(text, &err).AsString(), "tab\there \"quoted\"\n");
}

// ---------------------------------------------------------------------------
// \u escape decoding (the strtol-truncation bugfix): hex is validated, code
// points come out as real UTF-8, surrogate pairs combine, and every malformed
// escape is a parse error — not silent garbage.
// ---------------------------------------------------------------------------

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  std::string err;
  EXPECT_EQ(Json::Parse("\"\\u00e9\"", &err).AsString(), "\xc3\xa9");  // é
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(Json::Parse("\"\\u0041\"", &err).AsString(), "A");
  EXPECT_EQ(Json::Parse("\"\\u4e2d\"", &err).AsString(), "\xe4\xb8\xad");  // 中
  // Control characters (what the writer itself emits as \u00XX).
  EXPECT_EQ(Json::Parse("\"\\u0007\"", &err).AsString(), "\x07");
  EXPECT_EQ(Json::Parse("\"\\u0000\"", &err).AsString(), std::string(1, '\0'));
}

TEST(Json, SurrogatePairsCombine) {
  std::string err;
  // U+1F600 as \ud83d\ude00 -> 4-byte UTF-8.
  EXPECT_EQ(Json::Parse("\"\\ud83d\\ude00\"", &err).AsString(), "\xf0\x9f\x98\x80");
  EXPECT_TRUE(err.empty()) << err;
}

TEST(Json, MalformedUnicodeEscapesAreErrors) {
  // Before the fix: "\u12" decoded as garbage, "\uZZZZ" as code point 0,
  // and a truncated escape was swallowed. All must Fail() now.
  for (const char* bad : {
           "\"\\u12\"",          // truncated hex
           "\"\\u\"",            // no hex at all
           "\"\\uZZZZ\"",        // non-hex digits
           "\"\\u00g1\"",        // one bad digit
           "\"\\ud83d\"",        // lone high surrogate
           "\"\\ud83dx\"",       // high surrogate, no \u follows
           "\"\\ud83d\\u0041\"", // high surrogate + non-low-surrogate
           "\"\\ude00\"",        // lone low surrogate
           "\"\\q\"",            // unknown escape
           "\"\\u123",           // EOF inside the escape
       }) {
    std::string err;
    Json::Parse(bad, &err);
    EXPECT_FALSE(err.empty()) << "accepted: " << bad;
  }
}

TEST(Json, WriterEscapeRoundTripsArbitraryBytes) {
  // Seeded fuzz: any byte string the writer escapes must parse back to the
  // same bytes (the writer emits \u00XX for control characters, so this
  // exercises the new decoder on every round).
  Rng rng(0x5eed);
  for (int round = 0; round < 200; ++round) {
    std::string s;
    const int len = static_cast<int>(rng.Below(40));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.Below(256)));
    }
    std::string text = Json::MakeString(s).Dump(-1);
    std::string err;
    Json back = Json::Parse(text, &err);
    ASSERT_TRUE(err.empty()) << err << " for " << text;
    EXPECT_EQ(back.AsString(), s);
  }
}

const char* kSmallKernel = R"(
  struct item { struct item* opt next; int v; };
  int pool_lock;
  int get_item(struct item* it) errcode(-1) {
    if (!it) { return -1; }
    return it->v;
  }
  void reaper(void) blocking { msleep(5); }
)";

TEST(AnnoDb, ExtractCapturesAttributes) {
  auto comp = CompileOne(kSmallKernel, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  AnnoDb db = AnnoDb::Extract(*comp);
  ASSERT_EQ(db.funcs().count("reaper"), 1u);
  EXPECT_TRUE(db.funcs().at("reaper").blocking);
  ASSERT_EQ(db.funcs().count("get_item"), 1u);
  EXPECT_EQ(db.funcs().at("get_item").errcodes, std::vector<int64_t>({-1}));
  ASSERT_EQ(db.records().count("item"), 1u);
  EXPECT_EQ(db.records().at("item").ptr_offsets, std::vector<int64_t>({0}));
}

TEST(AnnoDb, JsonRoundTripPreservesFacts) {
  auto comp = CompileOne(kSmallKernel, ToolConfig{});
  ASSERT_TRUE(comp->ok);
  AnnoDb db = AnnoDb::Extract(*comp);
  std::string err;
  AnnoDb back = AnnoDb::FromJson(Json::Parse(db.ToJson().Dump(), &err));
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back.funcs().size(), db.funcs().size());
  EXPECT_TRUE(back.funcs().at("reaper").blocking);
  EXPECT_EQ(back.records().at("item").size, db.records().at("item").size);
}

TEST(AnnoDb, MergeFillsGapsAndUnionsFacts) {
  Json a = Json::MakeObject();
  a["functions"]["f"]["blocking"] = Json::MakeBool(false);
  Json b = Json::MakeObject();
  b["functions"]["f"]["blocking"] = Json::MakeBool(true);
  b["functions"]["g"]["blocking"] = Json::MakeBool(false);
  AnnoDb da = AnnoDb::FromJson(a);
  AnnoDb dbb = AnnoDb::FromJson(b);
  int added = da.Merge(dbb);
  EXPECT_EQ(added, 1);                       // g is new
  EXPECT_TRUE(da.funcs().at("f").blocking);  // blocking OR-ed conservatively
}

TEST(AnnoDb, MergeDeduplicatesFindings) {
  auto make_finding = [](const std::string& tool, int32_t line, const std::string& msg) {
    Finding f;
    f.tool = tool;
    f.severity = FindingSeverity::kWarning;
    f.loc = SourceLoc{0, line, 4};
    f.message = msg;
    return f;
  };
  AnnoDb a;
  a.SetFindings({make_finding("blockstop", 10, "call may block"),
                 make_finding("errcheck", 20, "discarded error")});
  AnnoDb b;
  b.SetFindings({make_finding("blockstop", 10, "call may block"),   // dup of a[0]
                 make_finding("blockstop", 10, "different message"),  // same loc, new msg
                 make_finding("stackcheck", 0, "budget exceeded")});
  a.Merge(b);
  ASSERT_EQ(a.findings().size(), 4u);  // 2 + 2 new, 1 dup dropped
  EXPECT_EQ(a.findings()[2].message, "different message");
  EXPECT_EQ(a.findings()[3].tool, "stackcheck");

  // Round trip, then re-merge the same database: idempotent.
  std::string err;
  AnnoDb back = AnnoDb::FromJson(Json::Parse(a.ToJson().Dump(), &err));
  EXPECT_TRUE(err.empty()) << err;
  ASSERT_EQ(back.findings().size(), 4u);
  back.Merge(a);
  EXPECT_EQ(back.findings().size(), 4u) << "re-merging the same export must not duplicate";
  back.Merge(b);
  EXPECT_EQ(back.findings().size(), 4u);
}

TEST(AnnoDb, MergeSelfIsIdempotentForPipelineExports) {
  // The regression the ROADMAP calls out: two pipeline runs over the same
  // sources, exported and merged, used to double every finding.
  auto comp = CompileOne(kSmallKernel, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  AnalysisContext ctx(comp.get());
  Pipeline p = PipelineBuilder().Tool("blockstop").Tool("errcheck").Build();
  PipelineResult result = p.RunTools(ctx);
  AnnoDb first = AnnoDb::Extract(ctx, &result);
  AnnoDb second = AnnoDb::Extract(ctx, &result);
  size_t baseline = first.findings().size();
  first.Merge(second);
  EXPECT_EQ(first.findings().size(), baseline);
}

// ---------------------------------------------------------------------------
// Strict param_points indices (the atoi-aliasing bugfix): a malformed key
// rejects the row with a diagnostic instead of corrupting parameter 0.
// ---------------------------------------------------------------------------

std::string UsageRowWithKey(const std::string& key) {
  return std::string(R"({"summaries": [{"module": "net", "function": "recv", )") +
         R"("defined": false, "param_points": {")" + key + R"(": ["heap"]}}]})";
}

TEST(AnnoDb, MalformedParamPointsKeyRejectsRow) {
  for (const char* bad : {"abc", "01", "7x", " 3", "-1", "", "99999"}) {
    std::string err;
    Json j = Json::Parse(UsageRowWithKey(bad), &err);
    ASSERT_TRUE(err.empty()) << err;
    std::vector<std::string> errors;
    AnnoDb db = AnnoDb::FromJson(j, &errors);
    EXPECT_EQ(db.summaries().size(), 0u) << "row with key '" << bad << "' loaded";
    ASSERT_EQ(errors.size(), 1u) << "no diagnostic for key '" << bad << "'";
    EXPECT_NE(errors[0].find("param_points"), std::string::npos) << errors[0];
    EXPECT_NE(errors[0].find("net:recv"), std::string::npos) << errors[0];
  }
}

TEST(AnnoDb, WellFormedParamPointsKeyLoads) {
  std::string err;
  Json j = Json::Parse(UsageRowWithKey("3"), &err);
  ASSERT_TRUE(err.empty()) << err;
  std::vector<std::string> errors;
  AnnoDb db = AnnoDb::FromJson(j, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(db.summaries().size(), 1u);
  const FuncSummary& s = db.summaries().begin()->second;
  ASSERT_EQ(s.param_points.count(3), 1u);
  EXPECT_EQ(s.param_points.at(3), std::vector<std::string>({"heap"}));
  EXPECT_EQ(s.param_points.count(0), 0u) << "index 3 must not alias onto 0";
}

TEST(AnnoDb, StrictRowFailureDoesNotAbortSiblings) {
  // One bad row in a list must not take the good ones down with it.
  std::string text =
      R"({"summaries": [)"
      R"({"module": "a", "function": "ok1", "defined": false},)"
      R"({"module": "a", "function": "bad", "defined": false, "param_points": {"x": []}},)"
      R"({"module": "a", "function": "ok2", "defined": false}]})";
  std::string err;
  Json j = Json::Parse(text, &err);
  ASSERT_TRUE(err.empty()) << err;
  std::vector<std::string> errors;
  AnnoDb db = AnnoDb::FromJson(j, &errors);
  EXPECT_EQ(db.summaries().size(), 2u);
  EXPECT_EQ(db.summaries().count({"a", "ok1"}), 1u);
  EXPECT_EQ(db.summaries().count({"a", "ok2"}), 1u);
  ASSERT_EQ(errors.size(), 1u);
}

TEST(AnnoDb, ApplyAttributesEnablesAnalysis) {
  // An unannotated module + a repository entry = BlockStop finds the bug.
  const char* module_src = R"(
    int lk;
    void vendor_wait(void);
    void isr_path(void) {
      spin_lock(&lk);
      vendor_wait();
      spin_unlock(&lk);
    }
  )";
  Json contrib = Json::MakeObject();
  contrib["functions"]["vendor_wait"]["blocking"] = Json::MakeBool(true);
  AnnoDb db = AnnoDb::FromJson(contrib);

  auto comp = CompileOne(module_src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  {
    // One AnalysisContext per program version: ApplyAttributes mutates the
    // program, so the cached analyses must not be carried across it.
    AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
    BlockStop before(&comp->prog, comp->sema.get(), &ctx.callgraph());
    EXPECT_TRUE(before.Run().violations.empty()) << "no facts, no findings";
  }
  EXPECT_EQ(db.ApplyAttributes(&comp->prog), 1);
  {
    AnalysisContext ctx(comp.get(), /*field_sensitive=*/true);
    BlockStop after(&comp->prog, comp->sema.get(), &ctx.callgraph());
    EXPECT_EQ(after.Run().violations.size(), 1u);
  }
}

}  // namespace
}  // namespace ivy
