// annolink: batch cross-module analysis of a synthetic linked corpus with a
// persistent store. Runs the link stage (AnalysisSession::RunLinked: the
// whole corpus analyzed as one program), saves the findings and the link
// table to the store, and prints them.
//
//   annolink --synth 6:48 --store /tmp/corpus.store
//   annolink --synth 6:48 --store /tmp/corpus.store --metrics --trace-out t.json
//
// stdout is the byte-identity surface: canonical summary rows, then stamped
// findings. A rerun over an existing store warm-starts (stderr reports
// module_analyses=0 when nothing changed) and prints the same bytes; a store
// this build cannot read is reported on stderr and the run starts cold.
#include <cstdio>
#include <string>

#include "src/support/trace.h"
#include "src/tool/session.h"
#include "tools/synth_common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: annolink --synth M:N[:seed] --store <path>\n"
               "                [--trace-out <file>] [--metrics]\n");
}

// One line per linked artifact, canonical forms — identical bytes on a
// cold run and a warm restart, which is what CI diffs.
void PrintResult(const ivy::AnalysisSession& session, const ivy::SessionResult& result) {
  for (const ivy::FuncSummary& row : session.link_table().summaries()) {
    std::printf("%s\n", row.Canonical().c_str());
  }
  for (const ivy::Finding& f : result.findings) {
    std::string line = f.module.empty() ? std::string() : "{" + f.module + "} ";
    line += f.ToString();
    std::printf("%s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string synth_spec;
  std::string store;
  std::string trace_out;
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&i, argc, argv](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "annolink: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--synth") {
      const char* v = next("--synth");
      if (v == nullptr) return 1;
      synth_spec = v;
    } else if (arg == "--store") {
      const char* v = next("--store");
      if (v == nullptr) return 1;
      store = v;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return 1;
      trace_out = v;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "annolink: unknown argument '%s'\n", arg.c_str());
      Usage();
      return 1;
    }
  }

  if (synth_spec.empty() || store.empty()) {
    Usage();
    return 1;
  }
  // Observability never touches stdout here: stdout is the byte-identity
  // surface CI diffs. Traces go to a file, metrics to stderr.
  if (!trace_out.empty() || metrics) {
    ivy::trace::SetEnabled(true);
  }

  ivy::LinkedCorpusOptions opt;
  if (!ivy::ParseSynthSpec(synth_spec, &opt)) {
    std::fprintf(stderr, "annolink: bad --synth spec '%s' (want M:N[:seed])\n",
                 synth_spec.c_str());
    return 1;
  }

  ivy::AnalysisSession session = ivy::SynthServePipeline()
                                     .ForEachModule(ivy::GenerateLinkedCorpus(opt))
                                     .BuildSession();
  // Warm start: adopt the previous run's findings and table when the store
  // matches this corpus. AddModule above and LoadStore here reconcile by
  // source digest, so an unchanged corpus relinks with module_analyses=0.
  std::string lerr;
  if (session.LoadStore(store, &lerr)) {
    std::fprintf(stderr, "annolink: warm start from %s\n", store.c_str());
  } else {
    std::fprintf(stderr, "annolink: cold start (%s)\n", lerr.c_str());
  }

  ivy::SessionResult result = session.RunLinked();
  std::string serr;
  if (!session.SaveStore(store, &serr)) {
    std::fprintf(stderr, "annolink: cannot write store: %s\n", serr.c_str());
    return 1;
  }

  const ivy::LinkStats& ls = session.link_stats();
  std::fprintf(stderr,
               "annolink: rounds=%d module_analyses=%d summary_rows=%d "
               "cross_edges=%d converged=%d\n",
               ls.rounds, ls.module_analyses, ls.summary_rows, ls.cross_edges,
               ls.converged ? 1 : 0);
  PrintResult(session, result);
  if (!trace_out.empty()) {
    std::string terr;
    if (!ivy::trace::TraceSink::WriteJson(trace_out, &terr)) {
      std::fprintf(stderr, "annolink: cannot write trace to '%s': %s\n",
                   trace_out.c_str(), terr.c_str());
      return 1;
    }
    std::fprintf(stderr, "annolink: trace written to %s\n", trace_out.c_str());
  }
  if (metrics) {
    std::fprintf(stderr, "%s", ivy::trace::RenderMetrics().c_str());
  }
  if (result.cancelled || !ls.converged || result.compile_failures > 0) {
    return 1;
  }
  return 0;
}
