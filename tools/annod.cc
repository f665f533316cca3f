// annod: the persistent analysis-server daemon. Owns one warm
// AnalysisSession per corpus and serves queries, mutations, and control
// requests over the framed wire protocol (src/server/wire.h).
//
//   annod --listen unix:/tmp/annod.sock --synth 4:40
//   annod --listen 127.0.0.1:0 --synth 8:400:7 --corpus kernel
//   annod --listen unix:/tmp/annod.sock            # open corpora via the wire
//
// --synth M:N[:seed] opens a corpus (default name "synth") seeded with the
// deterministic linked synthetic corpus — the same corpus and pipeline
// `annodb_query --from-synth M:N[:seed]` analyzes offline, so the two can be
// diffed byte for byte (the CI smoke job does exactly that).
//
// The daemon runs until a client sends kShutdown (annodb-query
// --shutdown-server) — shutdown is a graceful drain: queued edits are
// abandoned, the in-flight link stops before its next phase, and
// no partial epoch is ever published.
#include <cstdio>
#include <string>

#include "src/server/server.h"
#include "src/support/numbers.h"
#include "src/support/trace.h"
#include "tools/synth_common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: annod --listen <unix:/path | host:port>\n"
               "             [--synth M:N[:seed]] [--corpus <name>] [--retain <epochs>]\n"
               "             [--store-dir <dir>] [--trace-out <file>] [--metrics]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen;
  std::string synth_spec;
  std::string corpus = "synth";
  std::string store_dir;
  std::string trace_out;
  bool metrics = false;
  int retain = 8;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&i, argc, argv](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "annod: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      const char* v = next("--listen");
      if (v == nullptr) {
        return 1;
      }
      listen = v;
    } else if (arg == "--synth") {
      const char* v = next("--synth");
      if (v == nullptr) {
        return 1;
      }
      synth_spec = v;
    } else if (arg == "--corpus") {
      const char* v = next("--corpus");
      if (v == nullptr) {
        return 1;
      }
      corpus = v;
    } else if (arg == "--retain") {
      const char* v = next("--retain");
      if (v == nullptr) {
        return 1;
      }
      // atoi accepted "8abc" as 8 and "abc" as 0; a ring of size 0 would
      // evict every epoch the moment it publishes.
      int64_t r = 0;
      if (!ivy::ParseInt64Strict(v, 1, 1 << 20, &r)) {
        std::fprintf(stderr,
                     "annod: --retain wants an integer in [1, %d], got '%s'\n",
                     1 << 20, v);
        Usage();
        return 1;
      }
      retain = static_cast<int>(r);
    } else if (arg == "--store-dir") {
      const char* v = next("--store-dir");
      if (v == nullptr) {
        return 1;
      }
      store_dir = v;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) {
        return 1;
      }
      trace_out = v;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "annod: unknown argument '%s'\n", arg.c_str());
      Usage();
      return 1;
    }
  }
  if (listen.empty()) {
    Usage();
    return 1;
  }

  // Tracing goes on before the seed relink so the first link is in the
  // trace too. The JSON lands at --trace-out after the drain.
  if (!trace_out.empty() || metrics) {
    ivy::trace::SetEnabled(true);
  }

  ivy::AnnodServer::Options opts;
  opts.pipeline = ivy::SynthServePipeline().Build();
  opts.epoch_retain = retain;
  opts.store_dir = store_dir;  // per-corpus warm start across restarts
  ivy::AnnodServer server(std::move(opts));

  if (!synth_spec.empty()) {
    ivy::LinkedCorpusOptions synth;
    if (!ivy::ParseSynthSpec(synth_spec, &synth)) {
      std::fprintf(stderr, "annod: bad --synth spec '%s' (want M:N[:seed])\n",
                   synth_spec.c_str());
      return 1;
    }
    server.OpenCorpus(corpus);
    for (ivy::ModuleSources& mod : ivy::GenerateLinkedCorpus(synth)) {
      server.EnqueueUpsert(corpus, std::move(mod));
    }
    std::fprintf(stderr, "annod: corpus '%s' seeded (%d modules x %d functions)\n",
                 corpus.c_str(), synth.modules, synth.functions);
  }

  std::string err;
  if (!server.Start(listen, &err)) {
    std::fprintf(stderr, "annod: cannot listen on '%s': %s\n", listen.c_str(),
                 err.c_str());
    return 1;
  }
  std::fprintf(stderr, "annod: listening on %s\n", server.bound_address().c_str());

  server.Wait();
  if (!trace_out.empty()) {
    std::string terr;
    if (!ivy::trace::TraceSink::WriteJson(trace_out, &terr)) {
      std::fprintf(stderr, "annod: cannot write trace to '%s': %s\n",
                   trace_out.c_str(), terr.c_str());
      return 1;
    }
    std::fprintf(stderr, "annod: trace written to %s\n", trace_out.c_str());
  }
  if (metrics) {
    std::fprintf(stderr, "%s", ivy::trace::RenderMetrics().c_str());
  }
  std::fprintf(stderr, "annod: stopped\n");
  return 0;
}
