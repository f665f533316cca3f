// Differential property tests for the ivybc bytecode VM: every program that
// runs through the tree-walking Vm must produce a byte-identical VmResult —
// value, trap kind/location/message, cycles, steps — plus identical logs,
// lock facts, and heap statistics when run through BcVm. The corpus spans
// the vm_test runtime programs, the synthetic kernel, seeded synth-corpus
// programs, and serialized images decoded back from bytes; a seeded fuzz
// sweep then checks that corrupt images are rejected by DecodeBcImage or
// VerifyBcModule instead of reaching the interpreter.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/bc/bcvm.h"
#include "src/bc/bytecode.h"
#include "src/bc/compile.h"
#include "src/bc/verify.h"
#include "src/driver/compiler.h"
#include "src/kernel/corpus.h"
#include "src/store/store.h"
#include "src/support/rng.h"
#include "tests/synth_corpus.h"

namespace ivy {
namespace {

struct CallSpec {
  std::string fn;
  std::vector<int64_t> args;
};

void ExpectSameResult(const VmResult& t, const VmResult& b, const std::string& what) {
  EXPECT_EQ(t.ok, b.ok) << what;
  EXPECT_EQ(t.value, b.value) << what;
  EXPECT_EQ(t.trap, b.trap) << what << ": tree=" << TrapKindName(t.trap)
                            << " bc=" << TrapKindName(b.trap);
  EXPECT_EQ(t.trap_loc.file, b.trap_loc.file) << what;
  EXPECT_EQ(t.trap_loc.line, b.trap_loc.line) << what;
  EXPECT_EQ(t.trap_loc.col, b.trap_loc.col) << what;
  EXPECT_EQ(t.trap_msg, b.trap_msg) << what;
  EXPECT_EQ(t.cycles, b.cycles) << what;
  EXPECT_EQ(t.steps, b.steps) << what;
}

void ExpectSameMachine(const Machine& t, const Machine& b, const std::string& what) {
  EXPECT_EQ(t.log(), b.log()) << what;
  EXPECT_EQ(t.cycles(), b.cycles()) << what;
  EXPECT_EQ(t.steps(), b.steps()) << what;
  EXPECT_EQ(t.irqs_enabled(), b.irqs_enabled()) << what;
  EXPECT_EQ(t.context_switches(), b.context_switches()) << what;
  EXPECT_EQ(t.might_sleep_checks(), b.might_sleep_checks()) << what;
  EXPECT_EQ(t.lock_order_edges(), b.lock_order_edges()) << what;
  EXPECT_EQ(t.heap_top_bytes(), b.heap_top_bytes()) << what;
  EXPECT_EQ(t.stack_peak_bytes(), b.stack_peak_bytes()) << what;

  std::map<uint64_t, std::tuple<bool, bool, bool>> tu, bu;
  for (const auto& [addr, u] : t.lock_usage()) {
    tu[addr] = {u.in_irq, u.process_irqs_on, u.process_irqs_off};
  }
  for (const auto& [addr, u] : b.lock_usage()) {
    bu[addr] = {u.in_irq, u.process_irqs_on, u.process_irqs_off};
  }
  EXPECT_EQ(tu, bu) << what;

  const HeapStats& th = t.heap().stats();
  const HeapStats& bh = b.heap().stats();
  EXPECT_EQ(th.allocs, bh.allocs) << what;
  EXPECT_EQ(th.frees_attempted, bh.frees_attempted) << what;
  EXPECT_EQ(th.frees_good, bh.frees_good) << what;
  EXPECT_EQ(th.frees_bad, bh.frees_bad) << what;
  EXPECT_EQ(th.frees_deferred, bh.frees_deferred) << what;
  EXPECT_EQ(th.bytes_live, bh.bytes_live) << what;
  EXPECT_EQ(th.bytes_peak, bh.bytes_peak) << what;
  EXPECT_EQ(th.rc_increments, bh.rc_increments) << what;
  EXPECT_EQ(th.rc_decrements, bh.rc_decrements) << what;
  EXPECT_EQ(t.heap().bad_free_sites().size(), b.heap().bad_free_sites().size()) << what;
}

// Runs the same call sequence through a fresh tree VM and a fresh bytecode
// VM over one compilation and asserts every observable matches.
void DiffCalls(const Compilation& comp, const std::vector<CallSpec>& calls,
               VmConfig vcfg, const std::string& what) {
  auto tree = MakeVm(comp, vcfg);
  std::string err;
  auto bc = MakeBcVm(comp, vcfg, nullptr, &err);
  ASSERT_NE(bc, nullptr) << what << ": " << err;
  ASSERT_TRUE(VerifyBcModule(bc->module(), &err)) << what << ": " << err;
  for (const CallSpec& c : calls) {
    VmResult rt = tree->Call(c.fn, c.args);
    VmResult rb = bc->Call(c.fn, c.args);
    ExpectSameResult(rt, rb, what + " call " + c.fn);
  }
  ExpectSameMachine(*tree, *bc, what + " final state");
}

void DiffSrc(const std::string& src, ToolConfig cfg, VmConfig vcfg,
             const std::string& what) {
  auto comp = CompileOne(src, cfg);
  ASSERT_TRUE(comp->ok) << what << ":\n" << comp->Errors();
  DiffCalls(*comp, {{"main", {}}}, vcfg, what);
}

std::vector<ToolConfig> AllToolConfigs() {
  ToolConfig deputy;
  ToolConfig erased;
  erased.deputy = false;
  ToolConfig ccount;
  ccount.ccount = true;
  ToolConfig full;
  full.ccount = true;
  full.smp = true;
  full.track_locals = true;
  return {deputy, erased, ccount, full};
}

// The vm_test runtime programs plus extra arithmetic/trap/indirection
// coverage, each run under every tool configuration. Several of these trap
// on purpose; the assertion is identity, not success.
TEST(BcDiff, RuntimePrograms) {
  const struct {
    const char* name;
    const char* src;
  } programs[] = {
      {"irq_nesting", R"(
        int main(void) {
          int before = irqs_disabled();
          int f1 = local_irq_save();
          int inside = irqs_disabled();
          int f2 = local_irq_save();
          local_irq_restore(f2);
          int still = irqs_disabled();
          local_irq_restore(f1);
          int after = irqs_disabled();
          return before * 1000 + inside * 100 + still * 10 + after;
        })"},
      {"deadlock", R"(
        int lk;
        int main(void) { spin_lock(&lk); spin_lock(&lk); return 0; })"},
      {"unlock_unheld", "int lk; int main(void) { spin_unlock(&lk); return 0; }"},
      {"trigger_irq", R"(
        typedef void h_fn(int x);
        int seen_disabled;
        int arg_seen;
        void handler(int x) { arg_seen = x; seen_disabled = irqs_disabled(); }
        int main(void) {
          trigger_irq(handler, 7);
          return arg_seen * 100 + seen_disabled * 10 + irqs_disabled();
        })"},
      {"block_in_handler", R"(
        typedef void h_fn(int x);
        void handler(int x) { schedule(); }
        int main(void) { trigger_irq(handler, 0); return 0; })"},
      {"user_copies", R"(
        int main(void) {
          char out[16];
          char in[16];
          for (int i = 0; i < 16; i++) { out[i] = 'A' + i; }
          copy_to_user(4096, out, 16);
          copy_from_user(in, 4096, 16);
          int ok = 1;
          for (int i = 0; i < 16; i++) { if (in[i] != 'A' + i) { ok = 0; } }
          return ok;
        })"},
      {"printk", R"(
        int main(void) {
          printk("d=%d x=%x c=%c s=%s pct=%% done\n", -5, 255, 'Q', "str");
          return 0;
        })"},
      {"panic", R"(int main(void) { panic("it broke"); return 0; })"},
      {"stack_overflow", R"(
        int deep(int n) {
          int pad[64];
          pad[0] = n;
          return deep(n + 1) + pad[0];
        }
        int main(void) { return deep(0); })"},
      {"heap_churn", R"(
        struct node { int v; struct node* opt next; };
        struct node* opt g;
        int main(void) {
          for (int i = 0; i < 50; i++) {
            struct node* n = (struct node*)kmalloc(sizeof(struct node), GFP_KERNEL);
            n->v = i;
            g = n;
            g = null;
            kfree(n);
          }
          return 0;
        })"},
      {"wild_pointer", R"(
        int main(void) {
          trusted {
            int* trusted p = (int*)99999999999;
            return *p;
          }
        })"},
      {"lock_order", R"(
        int a;
        int b;
        int main(void) {
          spin_lock(&a);
          spin_lock(&b);
          spin_unlock(&b);
          spin_unlock(&a);
          return 0;
        })"},
      {"global_inits", R"(
        int base = 41;
        char* nullterm tag = "xyz";
        int tail(char* nullterm s) {
          int n = 0;
          while (*s) { s = s + 1; n = n + 1; }
          return n;
        }
        int main(void) { return base + tail(tag); })"},
      {"div_by_zero", R"(
        int z;
        int main(void) { return 7 / z; })"},
      {"rem_by_zero", R"(
        int z;
        int main(void) { return 7 % z; })"},
      {"arith_mix", R"(
        int main(void) {
          int s = 0;
          for (int i = 1; i < 40; i++) {
            s = s + (i * 3) / 2 - (s % i);
            s = s ^ (i << 3);
            s = s | (i & 21);
            s = s + (-i) + ~i + !i;
            if (s > 100000 || s < -100000) { s = s >> 2; }
          }
          return s;
        })"},
      {"indirect_calls", R"(
        typedef int op_fn(int a, int b);
        int add(int a, int b) { return a + b; }
        int mul(int a, int b) { return a * b; }
        op_fn* opt cur;
        int main(void) {
          int s = 0;
          cur = add;
          s = s + cur(3, 4);
          cur = mul;
          s = s + cur(3, 4);
          return s;
        })"},
      {"byte_params", R"(
        int mix(char a, int b, char c) { return a * 100 + b * 10 + c; }
        int main(void) { return mix('A' - 60, 7, 'B' - 60); })"},
      {"array_walk", R"(
        int sum(int* buf, int n) {
          int s = 0;
          for (int i = 0; i < n; i++) { s += buf[i]; }
          return s;
        }
        int main(void) {
          int v[32];
          for (int i = 0; i < 32; i++) { v[i] = i * i; }
          return sum(v, 32);
        })"},
      {"string_walk", R"(
        int len(char* nullterm s) {
          int n = 0;
          while (*s) { s = s + 1; n = n + 1; }
          return n;
        }
        int main(void) { return len("hello world"); })"},
  };
  for (const auto& p : programs) {
    int ci = 0;
    for (const ToolConfig& cfg : AllToolConfigs()) {
      DiffSrc(p.src, cfg, VmConfig{},
              std::string(p.name) + " cfg" + std::to_string(ci++));
    }
  }
}

// Satellite regression: VmConfig::max_steps is enforced by bytecode dispatch
// with the same trap kind, location, and step count as the tree VM.
TEST(BcDiff, MaxStepsParity) {
  auto comp = CompileOne("int main(void) { int s = 0; while (1) { s = s + 1; } return s; }",
                         ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  VmConfig vcfg;
  vcfg.max_steps = 100000;
  auto tree = MakeVm(*comp, vcfg);
  auto bc = MakeBcVm(*comp, vcfg);
  ASSERT_NE(bc, nullptr);
  VmResult rt = tree->Call("main");
  VmResult rb = bc->Call("main");
  EXPECT_FALSE(rt.ok);
  EXPECT_EQ(rt.trap, TrapKind::kTimeout);
  EXPECT_EQ(rt.steps, vcfg.max_steps + 1) << "traps on the first over-budget fetch";
  ExpectSameResult(rt, rb, "watchdog");
}

// Satellite regression: VmConfig::stack_bytes is enforced with the same
// kStackOverflow trap at the same declaration location.
TEST(BcDiff, StackBytesParity) {
  const char* src = R"(
    int deep(int n) {
      int pad[32];
      pad[0] = n;
      return deep(n + 1) + pad[0];
    }
    int main(void) { return deep(0); }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  VmConfig vcfg;
  vcfg.stack_bytes = 1 << 14;
  auto tree = MakeVm(*comp, vcfg);
  auto bc = MakeBcVm(*comp, vcfg);
  ASSERT_NE(bc, nullptr);
  VmResult rt = tree->Call("main");
  VmResult rb = bc->Call("main");
  EXPECT_FALSE(rt.ok);
  EXPECT_EQ(rt.trap, TrapKind::kStackOverflow);
  ExpectSameResult(rt, rb, "stack limit");
}

// The synthetic kernel, booted and exercised under every tool configuration:
// the integration-scale identity check.
TEST(BcDiff, KernelCorpus) {
  std::vector<CallSpec> calls = {
      {"boot_kernel", {5}}, {"light_use", {64}},      {"hb_setup", {}},
      {"hb_lat_proc", {40}}, {"hb_bw_pipe", {8}},     {"hb_lat_syscall", {60}},
  };
  int ci = 0;
  for (const ToolConfig& cfg : AllToolConfigs()) {
    auto comp = CompileKernel(cfg);
    ASSERT_TRUE(comp->ok) << comp->Errors();
    DiffCalls(*comp, calls, VmConfig{}, "kernel cfg" + std::to_string(ci++));
  }
}

// Seeded synthetic corpus programs: deep call chains, fn-pointer hooks,
// interrupt handlers, msleep leaves, recursion.
TEST(BcDiff, SynthCorpus) {
  for (uint64_t seed : {3ull, 17ull}) {
    SynthCorpusOptions opt;
    opt.functions = 48;
    opt.seed = seed;
    opt.hook_tables = 2;
    std::string src = GenerateSynthCorpus(opt);
    ToolConfig cfg;
    cfg.ccount = true;
    auto comp = CompileOne(src, cfg);
    ASSERT_TRUE(comp->ok) << comp->Errors();
    std::vector<CallSpec> calls = {{SynthFuncName(0), {3}},
                                   {SynthFuncName(10), {2}},
                                   {SynthFuncName(25), {1}}};
    DiffCalls(*comp, calls, VmConfig{}, "synth seed " + std::to_string(seed));
  }
}

// A compiled module survives Encode -> Decode -> Verify and the decoded
// image (no AST, no frontend artifacts) still runs identically.
TEST(BcDiff, ImageRoundTrip) {
  ToolConfig cfg;
  cfg.ccount = true;
  auto comp = CompileKernel(cfg);
  ASSERT_TRUE(comp->ok) << comp->Errors();
  std::string err;
  auto bc = CompileToBc(comp->module, &err);
  ASSERT_NE(bc, nullptr) << err;
  ASSERT_TRUE(VerifyBcModule(*bc, &err)) << err;

  std::string image = EncodeBcImage(*bc);
  EXPECT_GT(image.size(), 8u);
  auto decoded = std::make_shared<BcModule>();
  ASSERT_TRUE(DecodeBcImage(image, decoded.get(), &err)) << err;
  ASSERT_TRUE(VerifyBcModule(*decoded, &err)) << err;
  EXPECT_EQ(EncodeBcImage(*decoded), image) << "re-encode must be stable";

  std::string dis = DisassembleBc(*decoded);
  EXPECT_NE(dis.find("boot_kernel"), std::string::npos);

  auto tree = MakeVm(*comp);
  auto bvm = MakeBcVm(*comp, VmConfig{}, decoded, &err);
  ASSERT_NE(bvm, nullptr) << err;
  for (const CallSpec& c :
       std::vector<CallSpec>{{"boot_kernel", {5}}, {"light_use", {64}}}) {
    ExpectSameResult(tree->Call(c.fn, c.args), bvm->Call(c.fn, c.args),
                     "decoded " + c.fn);
  }
  ExpectSameMachine(*tree, *bvm, "decoded final state");
}

std::string KernelImage(const ToolConfig& cfg) {
  auto comp = CompileKernel(cfg);
  EXPECT_TRUE(comp->ok) << comp->Errors();
  std::string err;
  auto bc = CompileToBc(comp->module, &err);
  EXPECT_NE(bc, nullptr) << err;
  return bc == nullptr ? std::string() : EncodeBcImage(*bc);
}

// Pins the kernel image under the deputy and ccount configurations to its
// exact bytes: an encoding change shows as a new size or digest, and must
// come with a kBcVersion bump. A change to what the kernel compiles to, such
// as the order of its string pool, shows too and needs no bump. (ccount
// alone leaves the image as it is: its refcounting is a VM setting.)
TEST(BcDiff, KernelImagesArePinned) {
  ToolConfig ccount;  // ivybc --ccount --no-deputy
  ccount.ccount = true;
  ccount.deputy = false;
  const struct {
    ToolConfig cfg;
    size_t size;
    uint64_t digest;
  } cases[] = {{ToolConfig{}, 201647, 0x19d05b4650e79595ull},
               {ccount, 196131, 0x10f42925251f4390ull}};
  for (const auto& c : cases) {
    const std::string image = KernelImage(c.cfg);
    const uint64_t digest = Fnv1a64(image.data(), image.size(), 14695981039346656037ull);
    EXPECT_EQ(image.size(), c.size);
    EXPECT_EQ(digest, c.digest);
  }
}

// Each top-level count of a real image, set to 0xFFFFFFFF one at a time,
// must be rejected by the decoder — never allocated for or over-read.
TEST(BcDiff, OversizedImageCountsRejected) {
  ToolConfig cfg;
  cfg.ccount = true;
  auto comp = CompileKernel(cfg);
  ASSERT_TRUE(comp->ok) << comp->Errors();
  std::string err;
  auto bc = CompileToBc(comp->module, &err);
  ASSERT_NE(bc, nullptr) << err;
  const BcModule& m = *bc;
  const std::string image = EncodeBcImage(m);

  // A count's offset is the encoded size of everything before it: encode
  // the module with that field and every later one emptied, then step back
  // over the trailing empty counts (4 bytes each), globals_end (8 bytes,
  // behind the global inits) and the count itself.
  struct Count {
    const char* what;
    size_t offset;
    size_t value;
  };
  std::vector<Count> counts;
  BcModule prefix = m;
  auto add = [&](const char* what, size_t value, int later_counts, bool globals_end_after) {
    const size_t offset = EncodeBcImage(prefix).size() - 4 * static_cast<size_t>(later_counts) -
                          (globals_end_after ? 8 : 0) - 4;
    counts.push_back({what, offset, value});
  };
  prefix.pc_locs.clear();
  add("pc_locs", m.pc_locs.size(), 0, false);
  prefix.loc_pool.clear();
  add("loc pool", m.loc_pool.size(), 1, false);
  prefix.global_inits.clear();
  add("global inits", m.global_inits.size(), 2, true);
  prefix.globals.clear();
  add("globals", m.globals.size(), 3, true);
  prefix.string_pool.clear();
  add("string pool", m.string_pool.size(), 4, true);
  prefix.funcs.clear();
  add("funcs", m.funcs.size(), 5, true);
  prefix.code.clear();
  add("code", m.code.size(), 6, true);
  ASSERT_EQ(counts.back().offset, 8u) << "the code count opens the payload";

  for (const Count& c : counts) {
    uint32_t stored = 0;
    std::memcpy(&stored, image.data() + c.offset, 4);  // little-endian host
    ASSERT_EQ(stored, c.value) << c.what << " count not at offset " << c.offset;
    std::string bad = image;
    std::memset(&bad[c.offset], 0xFF, 4);
    BcModule out;
    EXPECT_FALSE(DecodeBcImage(bad, &out, &err)) << c.what << " count 0xFFFFFFFF accepted";
  }
}

TEST(BcDiff, DecodeRejectsGarbage) {
  std::string err;
  BcModule m;
  EXPECT_FALSE(DecodeBcImage("", &m, &err));
  EXPECT_FALSE(DecodeBcImage("\xA7", &m, &err));
  EXPECT_FALSE(DecodeBcImage("not an image at all", &m, &err));

  auto comp = CompileOne("int main(void) { return 42; }", ToolConfig{});
  ASSERT_TRUE(comp->ok);
  auto bc = CompileToBc(comp->module, &err);
  ASSERT_NE(bc, nullptr) << err;
  std::string image = EncodeBcImage(*bc);

  std::string bad_magic = image;
  bad_magic[0] = 0x00;
  EXPECT_FALSE(DecodeBcImage(bad_magic, &m, &err));
  std::string bad_version = image;
  bad_version[2] = static_cast<char>(kBcVersion + 1);
  EXPECT_FALSE(DecodeBcImage(bad_version, &m, &err));
  std::string trailing = image + "x";
  EXPECT_FALSE(DecodeBcImage(trailing, &m, &err)) << "trailing bytes must be rejected";
}

// Fuzz sweep: every strict prefix of a valid image fails to decode, and
// seeded single-byte corruptions are either rejected by decode/verify or —
// when the mutation lands in semantically inert bytes — still run without
// leaving the sandbox (the ASan CI job gives this test its teeth).
TEST(BcDiff, FuzzedImagesRejectedOrContained) {
  const char* src = R"(
    int g = 5;
    int twice(int x) { return x + x; }
    int main(void) {
      int s = g;
      for (int i = 0; i < 10; i++) { s = twice(s) % 1000; }
      printk("s=%d\n", s);
      return s;
    }
  )";
  auto comp = CompileOne(src, ToolConfig{});
  ASSERT_TRUE(comp->ok) << comp->Errors();
  std::string err;
  auto bc = CompileToBc(comp->module, &err);
  ASSERT_NE(bc, nullptr) << err;
  std::string image = EncodeBcImage(*bc);

  for (size_t len = 0; len < image.size(); ++len) {
    BcModule m;
    EXPECT_FALSE(DecodeBcImage(image.substr(0, len), &m, &err))
        << "prefix of length " << len << " decoded";
  }

  Rng rng(0xB17EC0DEull);
  int rejected = 0;
  int contained = 0;
  const int kMutants = 800;
  for (int i = 0; i < kMutants; ++i) {
    std::string mutant = image;
    size_t pos = 8 + rng.Below(mutant.size() - 8);  // keep the header valid
    mutant[pos] = static_cast<char>(rng.Below(256));
    if (mutant == image) {
      continue;
    }
    auto m = std::make_shared<BcModule>();
    if (!DecodeBcImage(mutant, m.get(), &err) || !VerifyBcModule(*m, &err)) {
      ++rejected;
      continue;
    }
    // The verifier accepted it, so executing it must be memory-safe even if
    // the semantics changed (a flipped constant, a renamed function, ...).
    ++contained;
    VmConfig vcfg;
    vcfg.max_steps = 100000;
    vcfg.mem_bytes = 4ull << 20;
    vcfg.stack_bytes = 256 << 10;
    auto bvm = MakeBcVm(*comp, vcfg, m, &err);
    ASSERT_NE(bvm, nullptr) << err;
    (void)bvm->Call("main");
  }
  EXPECT_GT(rejected, kMutants / 2) << "most single-byte corruptions must be caught";
  EXPECT_GT(contained, 0) << "sweep never exercised the accepted-mutant path";
}

// VmConfig::profile is pure observation: the per-opcode counters must not
// perturb a single observable — value, trap, cycles, steps, log, locks,
// heap — across the kernel corpus, while actually counting every dispatched
// instruction (ivytrace's determinism contract, VM edition).
TEST(BcDiff, ProfilingDoesNotPerturbObservables) {
  std::vector<CallSpec> calls = {
      {"boot_kernel", {5}}, {"light_use", {64}}, {"hb_setup", {}},
      {"hb_lat_proc", {40}},
  };
  for (const ToolConfig& cfg : AllToolConfigs()) {
    auto comp = CompileKernel(cfg);
    ASSERT_TRUE(comp->ok) << comp->Errors();

    std::string err;
    auto plain = MakeBcVm(*comp, VmConfig{}, nullptr, &err);
    ASSERT_NE(plain, nullptr) << err;
    VmConfig pcfg;
    pcfg.profile = true;
    auto profiled = MakeBcVm(*comp, pcfg, nullptr, &err);
    ASSERT_NE(profiled, nullptr) << err;

    EXPECT_TRUE(plain->op_profile().empty());
    ASSERT_EQ(profiled->op_profile().size(), static_cast<size_t>(BcOp::kCount_));

    for (const CallSpec& c : calls) {
      VmResult rp = plain->Call(c.fn, c.args);
      VmResult rq = profiled->Call(c.fn, c.args);
      ExpectSameResult(rp, rq, "profile parity call " + c.fn);
    }
    ExpectSameMachine(*plain, *profiled, "profile parity final state");

    // The counters really counted: every counted step is a profiled opcode
    // (implicit returns are profiled but not counted as steps, so the
    // profile total is >= steps).
    uint64_t total = 0;
    for (uint64_t n : profiled->op_profile()) {
      total += n;
    }
    EXPECT_GE(total, static_cast<uint64_t>(profiled->steps()));
    EXPECT_GT(total, 0u);
  }
}

}  // namespace
}  // namespace ivy
