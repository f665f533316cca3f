// Seeded Mini-C corpus generator for the BlockStop kernel-vs-reference
// property tests and the analysis benchmarks. Fully deterministic: the same
// SynthCorpusOptions always produce the same source text (Rng is the
// repo's portable xorshift64*, not <random>).
//
// The generated program is shaped to exercise every path the analysis
// kernels take:
//   - a call-chain backbone fn_i -> fn_{i+1} plus random forward fan-out,
//     so may-block facts propagate over long distances (many serial
//     Gauss-Seidel rounds; the worklist's advantage),
//   - blocking leaves (msleep) at the tail and sparsely mid-chain,
//   - spinlock and irq-off sections around calls (BlockStop violations),
//   - interrupt_handler entries (atomic-context seeds for the BFS),
//   - noblock/assert_nonatomic wrappers reached through function-pointer
//     hooks (the "silenced by run-time check" notes),
//   - optional self/mutual recursion (StackCheck's cyclic SCCs) and varied
//     local-array frame sizes (StackCheck depths).
#ifndef TESTS_SYNTH_CORPUS_H_
#define TESTS_SYNTH_CORPUS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/support/rng.h"
#include "src/tool/pipeline.h"

namespace ivy {

struct SynthCorpusOptions {
  int functions = 120;
  uint64_t seed = 1;
  int locks = 8;
  // Name prefix applied to every generated symbol (functions, locks, hooks,
  // typedefs). Empty (the default) reproduces the historical output byte for
  // byte; the linked-corpus generator below uses per-module prefixes so N
  // modules can be concatenated into one merged-source program without
  // redefinition errors.
  std::string prefix;
  bool recursion = true;  // self + mutual cycles (off = pure DAG)
  bool hooks = true;      // fn-ptr dispatch incl. a noblock target
  // Max forward distance of the random fan-out calls. Small spans keep the
  // call graph chain-like, so facts must travel far hop by hop.
  int fanout_span = 16;
  // A mid-chain function blocks directly with probability 1/mid_blocking_every;
  // 0 disables mid-chain blocking entirely, leaving only the tail leaves and
  // the two noblock wrappers as may-block seeds — the worst case for
  // rescan-everything fixpoints (longest propagation distances) and exactly
  // the profile the kernel-vs-reference benchmark measures.
  int mid_blocking_every = 40;
  // Alternate the chain direction every `block` functions: even blocks chain
  // ascending (fn_i -> fn_{i+1}), odd blocks descending (fn_i -> fn_{i-1},
  // entered from the top via a bridge call). Mixed-direction flow is what
  // real call graphs look like, and it is the serial fixpoint's worst case:
  // whichever direction a rescan loop iterates, half the propagation now
  // advances one hop per round. The worklist kernels don't care.
  bool descending_blocks = false;
  int block = 50;
  // Function-pointer table chain (0 = off): `hook_tables` global tables,
  // each initialized with two random targets plus everything the previous
  // table holds, and each dispatched indirectly. Facts accumulate down the
  // chain, so the points-to fixpoint does O(tables^2) derivations — the
  // workload AnalysisSession's incremental warm start has to skip when an
  // edit leaves the table inits clean.
  int hook_tables = 0;
};

inline std::string SynthFuncName(const std::string& prefix, int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "fn_%04d", i);
  return prefix + buf;
}

inline std::string SynthFuncName(int i) { return SynthFuncName(std::string(), i); }

inline std::string GenerateSynthCorpus(const SynthCorpusOptions& opt) {
  Rng rng(opt.seed);
  const int n = opt.functions < 8 ? 8 : opt.functions;
  const int locks = opt.locks < 1 ? 1 : opt.locks;
  const int noblock_a = n / 3;
  const int noblock_b = (2 * n) / 3;
  const std::string& px = opt.prefix;

  std::string out = "// synthetic corpus: functions=" + std::to_string(n) +
                    " seed=" + std::to_string(opt.seed) + "\n";
  for (int l = 0; l < locks; ++l) {
    out += "int " + px + "lk_" + std::to_string(l) + ";\n";
  }
  if (opt.hooks || opt.hook_tables > 0) {
    out += "typedef void " + px + "work_fn(int x);\n";
  }
  if (opt.hooks) {
    out += px + "work_fn* opt " + px + "hook_a;\n";
    out += px + "work_fn* opt " + px + "hook_b;\n";
  }
  for (int t = 0; t < opt.hook_tables; ++t) {
    out += px + "work_fn* opt " + px + "table_" + std::to_string(t) + ";\n";
  }

  for (int i = 0; i < n; ++i) {
    const std::string name = SynthFuncName(px, i);
    const bool is_noblock = i == noblock_a || i == noblock_b;
    const bool is_handler = !is_noblock && rng.Chance(1, 50);
    const int pad = 4 << rng.Below(5);  // 4..64 ints: varied frame sizes

    out += "void " + name + "(int n)";
    if (is_noblock) {
      out += " noblock";
    } else if (is_handler) {
      out += " interrupt_handler";
    }
    out += " {\n";
    out += "  int pad[" + std::to_string(pad) + "]; pad[0] = n;\n";
    if (is_noblock) {
      // The paper's pattern: begins with the run-time check, then blocks.
      out += "  assert_nonatomic();\n  msleep(n);\n";
      if (i + 1 < n) {
        out += "  " + SynthFuncName(px, i + 1) + "(n - 1);\n";
      }
      out += "}\n";
      continue;
    }

    const bool spin_section = rng.Chance(1, 4);
    const bool irq_section = !spin_section && rng.Chance(1, 8);
    const int lock = static_cast<int>(rng.Below(static_cast<uint64_t>(locks)));
    if (spin_section) {
      out += "  spin_lock(&" + px + "lk_" + std::to_string(lock) + ");\n";
    } else if (irq_section) {
      out += "  local_irq_disable();\n";
    }

    // Backbone + fan-out. Without descending_blocks every call target is
    // forward (j > i) and cycles only come from the explicit recursion
    // knobs below. With descending_blocks, odd blocks chain downward and all
    // their edges (backbone, fan-out, bridges) stay index-decreasing inside
    // the block, so the blocks remain acyclic too.
    const int block = opt.block < 2 ? 2 : opt.block;
    const bool descending = opt.descending_blocks && (i / block) % 2 == 1;
    const int max_span = opt.fanout_span < 1 ? 1 : opt.fanout_span;
    if (!descending) {
      if (i + 1 < n) {
        out += "  if (n > 0) { " + SynthFuncName(px, i + 1) + "(n - 1); }\n";
      }
      if (opt.descending_blocks && i % block == block - 1 && i + block < n) {
        // Bridge into the next (descending) block through its top.
        out += "  " + SynthFuncName(px, i + block) + "(n - 1);\n";
      }
      int extra = static_cast<int>(rng.Below(3));
      for (int e = 0; e < extra && i + 2 < n; ++e) {
        int span = n - i - 2;
        int j = i + 2 + static_cast<int>(
                            rng.Below(static_cast<uint64_t>(span > max_span ? max_span : span)));
        out += "  " + SynthFuncName(px, j) + "(n);\n";
      }
    } else {
      if (i % block != 0) {
        out += "  if (n > 0) { " + SynthFuncName(px, i - 1) + "(n - 1); }\n";
      } else if (i + block < n) {
        // Bottom of the descending block: bridge forward to the next block.
        out += "  " + SynthFuncName(px, i + block) + "(n - 1);\n";
      }
      int extra = static_cast<int>(rng.Below(3));
      int reach = i % block;  // how far down the block we can jump
      for (int e = 0; e < extra && reach >= 2; ++e) {
        int span = reach - 1;
        int j = i - 2 - static_cast<int>(
                            rng.Below(static_cast<uint64_t>(span > max_span ? max_span : span)));
        out += "  " + SynthFuncName(px, j) + "(n);\n";
      }
    }
    // Blocking leaves: the last functions always block; mid-chain blocking
    // is sparse (or absent) so may-block facts travel far before a seed.
    if (i >= n - 3 ||
        (opt.mid_blocking_every > 0 &&
         rng.Chance(1, static_cast<uint64_t>(opt.mid_blocking_every)))) {
      out += "  msleep(1);\n";
    } else if (rng.Chance(1, 6)) {
      out += "  udelay(1);\n";
    }
    if (opt.recursion && rng.Chance(1, 25)) {
      out += "  if (n > 3) { " + name + "(n - 1); }\n";  // self cycle
    }
    if (opt.recursion && i > 0 && rng.Chance(1, 40)) {
      out += "  if (n > 5) { " + SynthFuncName(px, i - 1) + "(n - 2); }\n";  // mutual cycle
    }

    if (spin_section) {
      out += "  spin_unlock(&" + px + "lk_" + std::to_string(lock) + ");\n";
    } else if (irq_section) {
      out += "  local_irq_enable();\n";
    }
    out += "}\n";
  }

  for (int t = 0; t < opt.hook_tables; ++t) {
    const std::string table = px + "table_" + std::to_string(t);
    out += "void " + table + "_init(int n) {\n";
    for (int e = 0; e < 2; ++e) {
      int j = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
      out += "  " + table + " = " + SynthFuncName(px, j) + ";\n";
    }
    if (t > 0) {
      // Chain edge: this table inherits everything the previous one holds,
      // so facts flow table_0 -> table_1 -> ... during the solve.
      out += "  " + table + " = " + px + "table_" + std::to_string(t - 1) + ";\n";
    }
    out += "  if (n < 0) { " + table + " = 0; }\n";
    out += "}\n";
    out += "void " + table + "_run(int n) {\n";
    out += "  " + px + "work_fn* opt h = " + table + ";\n";
    out += "  if (h) { h(n); }\n";
    out += "}\n";
  }

  if (opt.hooks) {
    // hook_a points at a noblock wrapper: dispatching it under a spinlock is
    // exactly the paper's "false positive silenced by a run-time check".
    out += "void " + px + "init_hooks(void) {\n";
    out += "  " + px + "hook_a = " + SynthFuncName(px, noblock_a) + ";\n";
    out += "  " + px + "hook_b = " + SynthFuncName(px, 1) + ";\n";
    out += "}\n";
    out += "void " + px + "dispatch_a(int n) {\n";
    out += "  spin_lock(&" + px + "lk_0);\n";
    out += "  " + px + "work_fn* opt h = " + px + "hook_a;\n";
    out += "  if (h) { h(n); }\n";
    out += "  spin_unlock(&" + px + "lk_0);\n";
    out += "}\n";
    out += "void " + px + "dispatch_b(int n) {\n";
    out += "  " + px + "work_fn* opt h = " + px + "hook_b;\n";
    out += "  if (h) { h(n); }\n";
    out += "}\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Linked corpora: N per-module programs with cross-module calls through bare
// extern declarations. Every symbol is module-prefixed, so the concatenation
// of all module files compiles as ONE merged-source program (declarations
// merge with the definitions, exactly like headers) — the reference the
// linked session's fixpoint is tested against.
// ---------------------------------------------------------------------------

struct LinkedCorpusOptions {
  int modules = 4;
  int functions = 40;  // per module
  uint64_t seed = 1;
  // Extern call sites per module into randomly chosen functions of random
  // other modules; roughly half sit under a spinlock (atomic-entry facts).
  int cross_calls = 4;
  // Adjacent-module call cycles (mA_cyc -> mB_cyc_back -> mA_cyc): exercises
  // retraction safety and the cross-recursive stack facts.
  bool cross_cycles = true;
  // Function-pointer escape: module m+1 registers one of its own (blocking)
  // tail functions into module m's registrar; m dispatches it under a
  // spinlock. Needs the points-to half of the summary exchange to resolve.
  bool cross_register = true;
  int hook_tables = 0;
  int mid_blocking_every = 40;
};

inline std::string LinkedModuleName(int m) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "mod_%02d", m);
  return buf;
}

inline std::string LinkedModulePrefix(int m) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "m%02d_", m);
  return buf;
}

inline std::vector<ModuleSources> GenerateLinkedCorpus(const LinkedCorpusOptions& opt) {
  const int mods = opt.modules < 2 ? 2 : opt.modules;
  const int n = opt.functions < 8 ? 8 : opt.functions;
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);

  std::vector<std::string> texts(static_cast<size_t>(mods));
  for (int m = 0; m < mods; ++m) {
    SynthCorpusOptions base;
    base.functions = n;
    base.seed = opt.seed + static_cast<uint64_t>(m) * 131;
    base.prefix = LinkedModulePrefix(m);
    base.hook_tables = opt.hook_tables;
    base.mid_blocking_every = opt.mid_blocking_every;
    texts[static_cast<size_t>(m)] = GenerateSynthCorpus(base);
  }

  // Cross-module call sites: new caller functions appended per module, each
  // calling an extern-declared function of another module. xc_0 chains
  // through every module (m.xc_0 -> m+1.xc_0 -> ... -> tail msleep), so
  // may-block facts must travel the whole corpus hop by hop — the
  // convergence-round workload.
  for (int m = 0; m < mods; ++m) {
    const std::string px = LinkedModulePrefix(m);
    std::string& out = texts[static_cast<size_t>(m)];
    std::string decls;
    std::string defs;

    // Module 0's xc_0 is an interrupt handler, so irq-reachability must
    // travel the whole xc_0 chain across every module — and each module's
    // xc_1 (spinlocked, see below) is then reached in irq context, while
    // the base corpus also takes the same lock in process context.
    defs += "void " + px + "xc_0(int n)" + (m == 0 ? " interrupt_handler" : "") +
            " {\n  int pad[8]; pad[0] = n;\n";
    if (m + 1 < mods) {
      decls += "void " + LinkedModulePrefix(m + 1) + "xc_0(int n);\n";
      defs += "  if (n > 0) { " + LinkedModulePrefix(m + 1) + "xc_0(n - 1); }\n";
    } else {
      defs += "  msleep(n);\n";
    }
    if (opt.cross_calls >= 1) {
      defs += "  if (n > 1) { " + px + "xc_1(n - 1); }\n";
    }
    defs += "}\n";

    // An error-returning function (classified by inference: negative
    // constant return) whose result the NEXT module discards — the errcheck
    // half of the summary exchange.
    defs += "int " + px + "geterr(int n) {\n  if (n < 0) { return -5; }\n  return 0;\n}\n";
    if (m + 1 < mods) {
      decls += "int " + LinkedModulePrefix(m + 1) + "geterr(int n);\n";
      defs += "void " + px + "use_err(int n) {\n  " + LinkedModulePrefix(m + 1) +
              "geterr(n);\n}\n";
    }

    for (int c = 1; c <= opt.cross_calls; ++c) {
      int target_mod = static_cast<int>(rng.Below(static_cast<uint64_t>(mods - 1)));
      target_mod += target_mod >= m ? 1 : 0;
      int target_fn = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
      std::string target = SynthFuncName(LinkedModulePrefix(target_mod), target_fn);
      decls += "void " + target + "(int n);\n";
      bool atomic = rng.Chance(1, 2);
      defs += "void " + px + "xc_" + std::to_string(c) + "(int n) {\n";
      defs += "  int pad[8]; pad[0] = n;\n";
      if (atomic) {
        defs += "  spin_lock(&" + px + "lk_0);\n";
      }
      defs += "  " + target + "(n - 1);\n";
      if (atomic) {
        defs += "  spin_unlock(&" + px + "lk_0);\n";
      }
      defs += "}\n";
    }

    if (opt.cross_cycles && m + 1 < mods && m % 2 == 0) {
      // mA_cyc -> mB_cyc_back -> mA_cyc, with a blocking leaf inside the
      // cycle every other pair.
      const std::string peer = LinkedModulePrefix(m + 1);
      decls += "void " + peer + "cyc_back(int n);\n";
      defs += "void " + px + "cyc(int n) {\n  int pad[16]; pad[0] = n;\n";
      defs += "  if (n > 0) { " + peer + "cyc_back(n - 1); }\n";
      if ((m / 2) % 2 == 0) {
        defs += "  msleep(1);\n";
      }
      defs += "}\n";
      // A local entry ABOVE the cross-module cycle: its depth must stack its
      // own frame on the cycle's corpus-level depth exactly once (the
      // double-count regression for cross-recursive callees).
      defs += "void " + px + "cyc_entry(int n) {\n  int pad[32]; pad[0] = n;\n  " + px +
              "cyc(n);\n}\n";
    }
    if (opt.cross_cycles && m > 0 && m % 2 == 1) {
      const std::string peer = LinkedModulePrefix(m - 1);
      decls += "void " + peer + "cyc(int n);\n";
      defs += "void " + px + "cyc_back(int n) {\n  int pad[16]; pad[0] = n;\n";
      defs += "  if (n > 0) { " + peer + "cyc(n - 1); }\n";
      defs += "}\n";
    }

    if (opt.cross_register) {
      // Registrar: other modules hand this module a function pointer; the
      // dispatch runs it under a spinlock. The registered target must be
      // extern-declared here, or the imported points-to fact cannot resolve.
      defs += px + "work_fn* opt " + px + "hook_r;\n";
      defs += "void " + px + "reg(" + px + "work_fn* opt h) {\n  " + px + "hook_r = h;\n}\n";
      defs += "void " + px + "dispatch_r(int n) {\n";
      defs += "  spin_lock(&" + px + "lk_1);\n";
      defs += "  " + px + "work_fn* opt h = " + px + "hook_r;\n";
      defs += "  if (h) { h(n); }\n";
      defs += "  spin_unlock(&" + px + "lk_1);\n";
      defs += "}\n";
      if (m + 1 < mods) {
        // Declare the function module m+1 will register with us.
        decls += "void " + SynthFuncName(LinkedModulePrefix(m + 1), n - 1) + "(int n);\n";
      }
      if (m > 0) {
        // Register our always-blocking tail function with module m-1.
        const std::string peer = LinkedModulePrefix(m - 1);
        decls += "void " + peer + "reg(" + px + "work_fn* opt h);\n";
        defs += "void " + px + "do_reg(int n) {\n";
        defs += "  " + px + "work_fn* opt t = " + SynthFuncName(px, n - 1) + ";\n";
        defs += "  if (n > 0) { " + peer + "reg(t); }\n";
        defs += "}\n";
      }
    }

    out += "// cross-module section\n" + decls + defs;
  }

  std::vector<ModuleSources> corpus;
  corpus.reserve(static_cast<size_t>(mods));
  for (int m = 0; m < mods; ++m) {
    corpus.push_back(ModuleSources{
        LinkedModuleName(m),
        {SourceFile{LinkedModuleName(m) + ".mc", texts[static_cast<size_t>(m)]}}});
  }
  return corpus;
}

// The merged-source reference: every module's file in one program, in module
// order. File names (and so rendered finding locations) match the per-module
// compilations.
inline std::vector<SourceFile> MergedLinkedSources(const std::vector<ModuleSources>& corpus) {
  std::vector<SourceFile> files;
  for (const ModuleSources& m : corpus) {
    files.insert(files.end(), m.files.begin(), m.files.end());
  }
  return files;
}

}  // namespace ivy

#endif  // TESTS_SYNTH_CORPUS_H_
