// ivybc: the bytecode toolchain CLI — compile modules to ivybc images,
// inspect them, and execute them on either interpreter.
//
//   ivybc [--kernel | <file.mc>...] [config] -o <out.ivybc>   compile + verify
//                                                             + encode to file
//   ivybc [--kernel | <file.mc>...] [config] --dump           print disassembly
//   ivybc --dump <image.ivybc>                                decode + verify +
//                                                             disassemble a file
//   ivybc --verify <image.ivybc>                              decode + verify
//   ivybc [sources] [config] --run <fn> [args...]             execute on the
//                                                             bytecode VM
//   ivybc [sources] [config] --tree --run <fn> [args...]      same, tree VM
//   ivybc [sources] [config] --image <img> --run <fn> ...     run a decoded
//                                                             image (sources
//                                                             supply layouts)
//
// Config flags: --ccount --smp --track-locals --no-deputy --no-discharge.
// With no sources and no --kernel, run/dump/compile default to the built-in
// kernel corpus.
//
// --run prints the result in a fixed format (value, trap, cycles, steps,
// log) that is byte-identical between --tree and the default bytecode run —
// `diff <(ivybc --run fn) <(ivybc --tree --run fn)` is the identity smoke
// check CI performs. Exit codes: 0 success, 1 usage/compile/verify errors,
// 2 the executed function trapped.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/bc/bytecode.h"
#include "src/bc/compile.h"
#include "src/bc/verify.h"
#include "src/kernel/corpus.h"
#include "src/support/trace.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ivybc [--kernel | <file.mc>...] [--ccount] [--smp]\n"
               "             [--track-locals] [--no-deputy] [--no-discharge]\n"
               "             (-o <out.ivybc> | --dump | --run <fn> [args...])\n"
               "       ivybc --dump <image.ivybc>\n"
               "       ivybc --verify <image.ivybc>\n"
               "       ivybc [sources] --image <image.ivybc> --run <fn> [args...]\n"
               "       ivybc [sources] --tree --run <fn> [args...]\n"
               "       (--run also takes --profile, --trace-out <file>, --metrics;\n"
               "        observability output goes to stderr/file, never stdout)\n");
}

bool ReadFile(const std::string& path, std::string* out, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Decode + verify: the only road from bytes on disk to a runnable module.
bool LoadImage(const std::string& path, ivy::BcModule* m, std::string* err) {
  std::string bytes;
  if (!ReadFile(path, &bytes, err)) {
    return false;
  }
  if (!ivy::DecodeBcImage(bytes, m, err)) {
    *err = path + ": decode: " + *err;
    return false;
  }
  if (!ivy::VerifyBcModule(*m, err)) {
    *err = path + ": verify: " + *err;
    return false;
  }
  return true;
}

int RunAndPrint(ivy::Machine& vm, const std::string& fn,
                const std::vector<int64_t>& args) {
  ivy::VmResult r = vm.Call(fn, args);
  // Set after the run, so with tracing off no lock is taken and nothing is
  // allocated.
  if (ivy::trace::Enabled()) {
    ivy::trace::GetGauge("vm.heap_top_bytes")->Set(static_cast<int64_t>(vm.heap_top_bytes()));
    ivy::trace::GetGauge("vm.stack_peak_bytes")
        ->Set(static_cast<int64_t>(vm.stack_peak_bytes()));
  }
  std::string arg_str;
  for (int64_t a : args) {
    arg_str += (arg_str.empty() ? "" : ", ") + std::to_string(a);
  }
  std::printf("%s(%s) = %lld\n", fn.c_str(), arg_str.c_str(),
              static_cast<long long>(r.value));
  std::printf("trap: %s%s%s\n", ivy::TrapKindName(r.trap),
              r.trap_msg.empty() ? "" : ": ", r.trap_msg.c_str());
  std::printf("cycles=%lld steps=%lld\n", static_cast<long long>(r.cycles),
              static_cast<long long>(r.steps));
  if (!vm.log().empty()) {
    std::printf("log:\n%s", vm.log().c_str());
    if (vm.log().back() != '\n') {
      std::printf("\n");
    }
  }
  return r.ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> sources;
  bool use_kernel = false;
  bool use_tree = false;
  bool dump = false;
  bool verify_only = false;
  std::string out_path;
  std::string image_path;
  std::string run_fn;
  std::vector<int64_t> run_args;
  std::string trace_out;
  bool metrics = false;
  bool profile = false;
  ivy::ToolConfig cfg;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ivybc: %s requires an argument\n", what);
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--kernel") {
      use_kernel = true;
    } else if (a == "--ccount") {
      cfg.ccount = true;
    } else if (a == "--smp") {
      cfg.smp = true;
    } else if (a == "--track-locals") {
      cfg.track_locals = true;
    } else if (a == "--no-deputy") {
      cfg.deputy = false;
    } else if (a == "--no-discharge") {
      cfg.discharge = false;
    } else if (a == "--tree") {
      use_tree = true;
    } else if (a == "--profile") {
      profile = true;
    } else if (a == "--trace-out") {
      trace_out = next("--trace-out");
    } else if (a == "--metrics") {
      metrics = true;
    } else if (a == "-o") {
      out_path = next("-o");
    } else if (a == "--image") {
      image_path = next("--image");
    } else if (a == "--dump") {
      // `--dump <image>` with no sources reads the file; bare --dump
      // disassembles the in-process compile.
      if (i + 1 < argc && argv[i + 1][0] != '-' && sources.empty() && !use_kernel) {
        image_path = argv[++i];
      }
      dump = true;
    } else if (a == "--verify") {
      image_path = next("--verify");
      verify_only = true;
    } else if (a == "--run") {
      run_fn = next("--run");
      while (i + 1 < argc) {
        char* end = nullptr;
        long long v = std::strtoll(argv[i + 1], &end, 0);
        if (end == argv[i + 1] || *end != '\0') {
          break;
        }
        run_args.push_back(v);
        ++i;
      }
    } else if (a == "--help" || a == "-h") {
      Usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "ivybc: unknown flag '%s'\n", a.c_str());
      Usage();
      return 1;
    } else {
      sources.push_back(a);
    }
  }

  std::string err;

  // Observability is stderr/file only: --run stdout is the byte-identity
  // surface CI diffs between --tree and the bytecode VM.
  if (!trace_out.empty() || metrics) {
    ivy::trace::SetEnabled(true);
  }
  auto finish = [&trace_out, metrics](int rc) {
    if (!trace_out.empty()) {
      std::string terr;
      if (!ivy::trace::TraceSink::WriteJson(trace_out, &terr)) {
        std::fprintf(stderr, "ivybc: cannot write trace to '%s': %s\n",
                     trace_out.c_str(), terr.c_str());
        return 1;
      }
      std::fprintf(stderr, "ivybc: trace written to %s\n", trace_out.c_str());
    }
    if (metrics) {
      std::fprintf(stderr, "%s", ivy::trace::RenderMetrics().c_str());
    }
    return rc;
  };

  // Standalone image modes need no frontend at all.
  if (verify_only) {
    ivy::BcModule m;
    if (!LoadImage(image_path, &m, &err)) {
      std::fprintf(stderr, "ivybc: %s\n", err.c_str());
      return 1;
    }
    std::printf("%s: ok (%zu functions, %zu code words)\n", image_path.c_str(),
                m.funcs.size(), m.code.size());
    return 0;
  }
  if (dump && !image_path.empty() && sources.empty() && !use_kernel) {
    ivy::BcModule m;
    if (!LoadImage(image_path, &m, &err)) {
      std::fprintf(stderr, "ivybc: %s\n", err.c_str());
      return 1;
    }
    std::fputs(ivy::DisassembleBc(m).c_str(), stdout);
    return 0;
  }

  if (!dump && out_path.empty() && run_fn.empty()) {
    Usage();
    return 1;
  }

  // Everything else compiles a program (sources, or the kernel corpus).
  std::unique_ptr<ivy::Compilation> comp;
  if (use_kernel || sources.empty()) {
    comp = ivy::CompileKernel(cfg);
  } else {
    std::vector<ivy::SourceFile> files;
    for (const std::string& path : sources) {
      ivy::SourceFile f;
      f.name = path;
      if (!ReadFile(path, &f.text, &err)) {
        std::fprintf(stderr, "ivybc: %s\n", err.c_str());
        return 1;
      }
      files.push_back(std::move(f));
    }
    comp = ivy::Compile(files, cfg);
  }
  if (!comp->ok) {
    std::fprintf(stderr, "ivybc: compilation failed\n%s", comp->Errors().c_str());
    return 1;
  }

  if (!run_fn.empty() && use_tree) {
    if (profile) {
      std::fprintf(stderr, "ivybc: --profile needs the bytecode VM (no opcode "
                           "stream in --tree); ignoring\n");
    }
    auto vm = ivy::MakeVm(*comp);
    int rc;
    {
      TRACE_SPAN("vm.run");
      rc = RunAndPrint(*vm, run_fn, run_args);
    }
    return finish(rc);
  }

  // Bytecode path: an explicit --image runs the decoded file (the layouts
  // still come from the compilation); otherwise compile in-process.
  std::shared_ptr<const ivy::BcModule> bc;
  if (!image_path.empty()) {
    auto m = std::make_shared<ivy::BcModule>();
    if (!LoadImage(image_path, m.get(), &err)) {
      std::fprintf(stderr, "ivybc: %s\n", err.c_str());
      return 1;
    }
    bc = std::move(m);
  } else {
    bc = ivy::CompileToBc(comp->module, &err);
    if (bc == nullptr) {
      std::fprintf(stderr, "ivybc: bytecode compilation failed: %s\n", err.c_str());
      return 1;
    }
    if (!ivy::VerifyBcModule(*bc, &err)) {
      std::fprintf(stderr, "ivybc: compiled module fails verification: %s\n",
                   err.c_str());
      return 1;
    }
  }

  if (!out_path.empty()) {
    std::string bytes = ivy::EncodeBcImage(*bc);
    std::ofstream out(out_path, std::ios::binary);
    if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
      std::fprintf(stderr, "ivybc: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("%s: %zu bytes (%zu functions, %zu code words, %zu strings)\n",
                out_path.c_str(), bytes.size(), bc->funcs.size(), bc->code.size(),
                bc->string_pool.size());
  }
  if (dump) {
    std::fputs(ivy::DisassembleBc(*bc).c_str(), stdout);
  }
  if (!run_fn.empty()) {
    ivy::VmConfig vcfg;
    vcfg.profile = profile;
    auto vm = ivy::MakeBcVm(*comp, vcfg, bc, &err);
    if (vm == nullptr) {
      std::fprintf(stderr, "ivybc: %s\n", err.c_str());
      return 1;
    }
    int rc;
    {
      TRACE_SPAN("vm.run");
      rc = RunAndPrint(*vm, run_fn, run_args);
    }
    if (profile) {
      // Deterministic opcode order; zero-count rows elided. stderr, so the
      // stdout identity contract with --tree holds with --profile on.
      std::fprintf(stderr, "opcode profile (%s):\n", run_fn.c_str());
      const std::vector<uint64_t>& counts = vm->op_profile();
      for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] > 0) {
          std::fprintf(stderr, "  %-15s %llu\n",
                       ivy::BcOpName(static_cast<ivy::BcOp>(i)),
                       static_cast<unsigned long long>(counts[i]));
        }
      }
    }
    return finish(rc);
  }
  return finish(0);
}
