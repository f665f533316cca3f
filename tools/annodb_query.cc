// annodb-query: the §3.2 repository's read side — and the annod daemon's
// command-line client. Queries findings and link-stage summary rows by
// function, tool, and module.
//
// Offline (batch) modes:
//   annodb-query <db.json> --function read_chan [--tool blockstop] [--module net]
//   annodb-query - --function kmalloc               # read the JSON from stdin
//   annodb-query --from-kernel --function read_chan   # build the db in-process
//   annodb-query --from-synth 4:40 [--summaries]      # cold RunLinked() over the
//                                                     # deterministic synth corpus
//   annodb-query --from-synth 4:40 --dump-module mod_01   # print that module's
//                                                         # generated source
//   annodb-query --store corpus.store --summaries     # raw view of a
//                                                     # persistent store file
//
// Connected mode (talks to a running annod over the framed wire protocol;
// every request is encoded through the same AnnodClient library the server
// tests and benchmarks use):
//   annodb-query --connect unix:/tmp/annod.sock --corpus synth --function m00_fn_0004
//   annodb-query --connect ... --corpus synth --summaries --module mod_01
//   annodb-query --connect ... --corpus synth --epoch 3        # pin an epoch
//   annodb-query --connect ... --corpus synth --sync           # wait for quiescence
//   annodb-query --connect ... --corpus synth --sync
//       --replace mod_01:m01_fn_0005 --with-file new_def.mc
//   annodb-query --connect ... --corpus synth --upsert mod_09 --with-file mod.mc
//   annodb-query --connect ... --corpus synth --remove mod_09
//   annodb-query --connect ... --corpus synth --stats
//   annodb-query --connect ... --shutdown-server
//
// Connected queries and --from-synth print identical bytes for the same
// corpus state (both render the canonical snapshot rows; epoch ids go to
// stderr), so `diff <(--from-synth ...) <(--connect ...)` is the
// byte-identity check CI runs.
//
// A finding matches --function when its witness chain mentions the function
// or its message quotes it ('name') — FindingQuery in src/tool/finding.h; a
// summary row matches on its function and module — SummaryQuery in
// src/annodb/annodb.h. Both are shared with the server's query handlers.
// Exit code: 0 on success (matches or none), 1 on usage/parse/connection
// errors.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/annodb/annodb.h"
#include "src/kernel/corpus.h"
#include "src/server/client.h"
#include "src/server/epoch.h"
#include "src/store/store.h"
#include "src/support/numbers.h"
#include "src/support/trace.h"
#include "src/tool/session.h"
#include "tools/synth_common.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: annodb-query [<db.json>|-|--from-kernel|--from-synth M:N[:seed]]\n"
      "                    [--function <name>] [--tool <tool>] [--module <module>]\n"
      "                    [--summaries]\n"
      "       annodb-query --store <path.store> [query flags above] [--summaries]\n"
      "       annodb-query --connect <unix:/path|host:port> --corpus <name>\n"
      "                    [query flags above] [--epoch <id>] [--sync] [--stats]\n"
      "                    [--open] [--upsert <module> --with-file <path>]\n"
      "                    [--replace <module>:<function> --with-file <path>]\n"
      "                    [--remove <module>] [--shutdown-server] [--metrics]\n"
      "       (offline modes also take --trace-out <file> and --metrics)\n");
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    out += out.empty() ? n : "," + n;
  }
  return out;
}

// One summary row, one line.
void PrintSummaryRow(const ivy::FuncSummary& row) {
  if (row.defined) {
    std::printf("summary %s/%s: defined may_block=%d", row.module.c_str(),
                row.function.c_str(), row.may_block ? 1 : 0);
    if (!row.block_witness.empty()) {
      std::printf(" witness=\"%s\"", row.block_witness.c_str());
    }
    std::printf(" returns_error=%d frame=%lld", row.returns_error ? 1 : 0,
                static_cast<long long>(row.frame_size));
    if (row.stack_below >= 0) {
      std::printf(" stack_below=%lld", static_cast<long long>(row.stack_below));
    }
    if (row.cross_recursive) {
      std::printf(" cross_recursive=1");
    }
    if (!row.callees.empty()) {
      std::printf(" callees=%zu", row.callees.size());
    }
    if (!row.locks_acquired.empty()) {
      std::printf(" locks=%s", JoinNames(row.locks_acquired).c_str());
    }
    if (!row.returns_points.empty()) {
      std::printf(" returns_points=%s", JoinNames(row.returns_points).c_str());
    }
    std::printf("\n");
  } else {
    std::printf("summary %s/%s: used entered_atomic=%d entered_in_irq=%d",
                row.module.c_str(), row.function.c_str(), row.entered_atomic ? 1 : 0,
                row.entered_in_irq ? 1 : 0);
    for (const auto& [idx, names] : row.param_points) {
      std::printf(" param%d->{%s}", idx, JoinNames(names).c_str());
    }
    std::printf("\n");
  }
}

bool ReadFileOrDie(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "annodb-query: cannot read '%s'\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

struct Args {
  std::string input;
  std::string function;
  std::string tool;
  std::string module;
  bool from_kernel = false;
  bool summaries = false;
  std::string from_synth;
  std::string dump_module;
  std::string store_path;

  std::string connect;
  std::string corpus = "synth";
  uint64_t epoch = 0;
  bool sync = false;
  bool stats = false;
  bool open = false;
  bool shutdown_server = false;
  std::string upsert_module;
  std::string replace_spec;  // module:function
  std::string remove_module;
  std::string with_file;

  // Observability: connected --metrics renders the daemon's live latency
  // percentiles (kStats v2 block); offline --metrics/--trace-out observe
  // the in-process analysis run itself.
  bool metrics = false;
  std::string trace_out;

  bool HasAction() const {
    return open || stats || shutdown_server || metrics || !upsert_module.empty() ||
           !replace_spec.empty() || !remove_module.empty();
  }
};

// What a query prints, whichever mode filled it: the matching summary rows
// (with --summaries), the repository's facts block (JSON modes), then the
// matching findings. Every mode shares one printer, so outputs diff.
struct QueryResult {
  explicit QueryResult(const Args& a)
      : row_query{a.function, a.module}, finding_query{a.function, a.tool, a.module} {}

  // Counts one row or finding of the source, and keeps it if it matches.
  void AddRow(const ivy::FuncSummary& row) {
    ++rows_total;
    if (row_query.Matches(row)) {
      rows.push_back(row);
    }
  }
  void AddFinding(const ivy::Finding& f) {
    ++findings_total;
    if (finding_query.Matches(f)) {
      findings.push_back(f);
    }
  }

  const ivy::SummaryQuery row_query;
  const ivy::FindingQuery finding_query;
  std::vector<ivy::FuncSummary> rows;
  size_t rows_total = 0;
  std::string facts;
  std::vector<ivy::Finding> findings;
  size_t findings_total = 0;
};

void PrintQuery(const Args& a, const QueryResult& r) {
  if (a.summaries) {
    for (const ivy::FuncSummary& row : r.rows) {
      PrintSummaryRow(row);
    }
    std::printf("%zu summary row(s) of %zu total\n", r.rows.size(), r.rows_total);
  }
  std::fputs(r.facts.c_str(), stdout);
  for (const ivy::Finding& f : r.findings) {
    std::string line = f.module.empty() ? std::string() : "{" + f.module + "} ";
    line += f.ToString();
    std::printf("%s\n", line.c_str());
  }
  std::printf("%zu finding(s)", r.findings.size());
  if (!a.function.empty()) {
    std::printf(" for --function %s", a.function.c_str());
  }
  if (!a.tool.empty()) {
    std::printf(" --tool %s", a.tool.c_str());
  }
  if (!a.module.empty()) {
    std::printf(" --module %s", a.module.c_str());
  }
  std::printf(" of %zu total\n", r.findings_total);
}

// Runs the query pair (optional summaries, then findings) against a
// connected daemon, which filters server-side, and prints exactly what the
// offline modes print.
int RunConnectedQuery(ivy::AnnodClient& client, const Args& a) {
  std::string err;
  QueryResult out(a);
  // Decodes one canonical reply row; false (reported) if it is malformed.
  auto parse = [](const std::string& row, const char* what, ivy::Json* j) {
    std::string perr;
    *j = ivy::Json::Parse(row, &perr);
    if (!perr.empty()) {
      std::fprintf(stderr, "annodb-query: bad %s row: %s\n", what, perr.c_str());
    }
    return perr.empty();
  };
  if (a.summaries) {
    ivy::SummariesQueryMsg q;
    q.corpus = a.corpus;
    q.epoch = a.epoch;
    q.function = a.function;
    q.module = a.module;
    ivy::RowsReplyMsg reply;
    if (!client.QuerySummaries(q, &reply, &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "epoch %llu\n", static_cast<unsigned long long>(reply.epoch));
    for (const std::string& row : reply.rows) {
      ivy::Json j;
      if (!parse(row, "summary", &j)) {
        return 1;
      }
      out.rows.push_back(ivy::FuncSummary::FromJson(j));
    }
    out.rows_total = static_cast<size_t>(reply.total);
  }

  ivy::FindingsQueryMsg q;
  q.corpus = a.corpus;
  q.epoch = a.epoch;
  q.function = a.function;
  q.tool = a.tool;
  q.module = a.module;
  ivy::RowsReplyMsg reply;
  if (!client.QueryFindings(q, &reply, &err)) {
    std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "epoch %llu\n", static_cast<unsigned long long>(reply.epoch));
  for (const std::string& row : reply.rows) {
    ivy::Json j;
    if (!parse(row, "finding", &j)) {
      return 1;
    }
    out.findings.push_back(ivy::Finding::FromJson(j));
  }
  out.findings_total = static_cast<size_t>(reply.total);
  PrintQuery(a, out);
  return 0;
}

int RunConnected(const Args& a) {
  ivy::AnnodClient client;
  std::string err;
  if (!client.Connect(a.connect, &err)) {
    std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
    return 1;
  }
  if (a.open) {
    if (!client.OpenCorpus(a.corpus, &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "opened corpus '%s'\n", a.corpus.c_str());
  }
  if (!a.upsert_module.empty()) {
    if (a.with_file.empty()) {
      std::fprintf(stderr, "annodb-query: --upsert needs --with-file\n");
      return 1;
    }
    std::string text;
    if (!ReadFileOrDie(a.with_file, &text)) {
      return 1;
    }
    uint64_t at = 0;
    if (!client.UpsertModule(a.corpus, a.upsert_module,
                             {{a.upsert_module + ".mc", text}}, &at, &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "upsert '%s' accepted at epoch %llu\n",
                 a.upsert_module.c_str(), static_cast<unsigned long long>(at));
  }
  if (!a.replace_spec.empty()) {
    size_t colon = a.replace_spec.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= a.replace_spec.size()) {
      std::fprintf(stderr, "annodb-query: --replace wants <module>:<function>\n");
      return 1;
    }
    if (a.with_file.empty()) {
      std::fprintf(stderr, "annodb-query: --replace needs --with-file\n");
      return 1;
    }
    std::string definition;
    if (!ReadFileOrDie(a.with_file, &definition)) {
      return 1;
    }
    uint64_t at = 0;
    if (!client.ReplaceFunction(a.corpus, a.replace_spec.substr(0, colon),
                                a.replace_spec.substr(colon + 1), definition, &at,
                                &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "replace '%s' accepted at epoch %llu\n",
                 a.replace_spec.c_str(), static_cast<unsigned long long>(at));
  }
  if (!a.remove_module.empty()) {
    uint64_t at = 0;
    if (!client.RemoveModule(a.corpus, a.remove_module, &at, &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "remove '%s' accepted at epoch %llu\n",
                 a.remove_module.c_str(), static_cast<unsigned long long>(at));
  }
  if (a.sync) {
    uint64_t epoch = 0;
    if (!client.Sync(a.corpus, &epoch, &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "synced epoch %llu\n", static_cast<unsigned long long>(epoch));
  }
  if (a.stats) {
    ivy::StatsReplyMsg s;
    if (!client.Stats(a.corpus, &s, &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::printf("corpus %s: epoch=%llu modules=%u findings=%llu summary_rows=%llu\n",
                a.corpus.c_str(), static_cast<unsigned long long>(s.epoch), s.modules,
                static_cast<unsigned long long>(s.findings),
                static_cast<unsigned long long>(s.summary_rows));
    std::printf("  link_rounds=%u converged=%u queued_edits=%u relinks=%llu\n",
                s.link_rounds, s.converged, s.queued_edits,
                static_cast<unsigned long long>(s.relinks));
    for (const std::string& e : s.apply_errors) {
      std::printf("  apply_error: %s\n", e.c_str());
    }
  }
  if (a.metrics) {
    // The live snapshot: the daemon's always-on histograms over the wire,
    // no tracing required on either end.
    ivy::StatsReplyMsg s;
    if (!client.Stats(a.corpus, &s, &err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::printf("metrics %s:\n", a.corpus.c_str());
    std::printf("  requests count=%llu p50_us=%llu p95_us=%llu p99_us=%llu\n",
                static_cast<unsigned long long>(s.request_count),
                static_cast<unsigned long long>(s.request_p50_us),
                static_cast<unsigned long long>(s.request_p95_us),
                static_cast<unsigned long long>(s.request_p99_us));
    std::printf("  publishes count=%llu p50_us=%llu p99_us=%llu\n",
                static_cast<unsigned long long>(s.publish_count),
                static_cast<unsigned long long>(s.publish_p50_us),
                static_cast<unsigned long long>(s.publish_p99_us));
    std::printf("  edit_queue_peak=%u\n", s.edit_queue_peak);
  }
  if (a.shutdown_server) {
    if (!client.Shutdown(&err)) {
      std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "server shutting down\n");
    return 0;
  }
  if (a.HasAction()) {
    return 0;  // mutation/control invocation: no query block
  }
  return RunConnectedQuery(client, a);
}

// Cold batch reference: RunLinked() over the deterministic synthetic corpus,
// rendered through the same BuildEpochSnapshot the server publishes from.
int RunFromSynth(const Args& a) {
  ivy::LinkedCorpusOptions opt;
  if (!ivy::ParseSynthSpec(a.from_synth, &opt)) {
    std::fprintf(stderr, "annodb-query: bad --from-synth spec '%s' (want M:N[:seed])\n",
                 a.from_synth.c_str());
    return 1;
  }
  if (!a.dump_module.empty()) {
    // Source dump only (no analysis): what a client needs to re-upsert a
    // module's pristine sources after experimenting with edits.
    for (const ivy::ModuleSources& mod : ivy::GenerateLinkedCorpus(opt)) {
      if (mod.name == a.dump_module) {
        for (const ivy::SourceFile& f : mod.files) {
          std::fputs(f.text.c_str(), stdout);
        }
        return 0;
      }
    }
    std::fprintf(stderr, "annodb-query: no module '%s' in this corpus\n",
                 a.dump_module.c_str());
    return 1;
  }
  ivy::AnalysisSession session = ivy::SynthServePipeline()
                                     .ForEachModule(ivy::GenerateLinkedCorpus(opt))
                                     .BuildSession();
  ivy::SessionResult result = session.RunLinked();
  if (result.compile_failures > 0) {
    std::fprintf(stderr, "annodb-query: synth corpus failed to compile\n");
    return 1;
  }
  auto snap = ivy::BuildEpochSnapshot(1, result, session.link_table());
  QueryResult out(a);
  if (a.summaries) {
    for (const ivy::FuncSummary& row : snap->summaries) {
      out.AddRow(row);
    }
  }
  for (const ivy::Finding& f : snap->findings) {
    out.AddFinding(f);
  }
  PrintQuery(a, out);
  return 0;
}

// Raw viewer over a persistent store file (src/store/store.h) — what annod
// --store-dir and annolink write. No analysis: the file's own facts are
// decoded and rendered through the same row/finding printers, findings
// stamped with their record's module name.
int RunFromStore(const Args& a) {
  ivy::StoreFile sf;
  std::string err;
  if (!ivy::ReadStoreFile(a.store_path, &sf, &err)) {
    std::fprintf(stderr, "annodb-query: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "store %s: corpus_digest=%016llx linked=%d modules=%zu\n",
               a.store_path.c_str(),
               static_cast<unsigned long long>(sf.corpus_digest), sf.linked ? 1 : 0,
               sf.modules.size());

  QueryResult out(a);
  if (a.summaries) {
    for (const ivy::FuncSummary& row : sf.summaries) {
      out.AddRow(row);
    }
  }
  for (auto& [name, rec] : sf.modules) {
    if (!rec.analyzed || !rec.ok) {
      continue;
    }
    for (ivy::Finding& f : rec.findings) {
      f.module = name;  // store records cache unstamped findings
      out.AddFinding(f);
    }
  }
  PrintQuery(a, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&i, argc, argv](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "annodb-query: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto want = [&next](const char* flag, std::string* out) {
      const char* v = next(flag);
      if (v == nullptr) {
        return false;
      }
      *out = v;
      return true;
    };
    if (arg == "--function") {
      if (!want("--function", &a.function)) return 1;
    } else if (arg == "--tool") {
      if (!want("--tool", &a.tool)) return 1;
    } else if (arg == "--module") {
      if (!want("--module", &a.module)) return 1;
    } else if (arg == "--from-kernel") {
      a.from_kernel = true;
    } else if (arg == "--from-synth") {
      if (!want("--from-synth", &a.from_synth)) return 1;
    } else if (arg == "--dump-module") {
      if (!want("--dump-module", &a.dump_module)) return 1;
    } else if (arg == "--store") {
      if (!want("--store", &a.store_path)) return 1;
    } else if (arg == "--summaries") {
      a.summaries = true;
    } else if (arg == "--connect") {
      if (!want("--connect", &a.connect)) return 1;
    } else if (arg == "--corpus") {
      if (!want("--corpus", &a.corpus)) return 1;
    } else if (arg == "--epoch") {
      const char* v = next("--epoch");
      if (v == nullptr) return 1;
      int64_t e = 0;
      if (!ivy::ParseInt64Strict(v, 1, INT64_MAX, &e)) {
        std::fprintf(stderr, "annodb-query: bad --epoch '%s' (want a positive integer)\n", v);
        Usage();
        return 1;
      }
      a.epoch = static_cast<uint64_t>(e);
    } else if (arg == "--sync") {
      a.sync = true;
    } else if (arg == "--stats") {
      a.stats = true;
    } else if (arg == "--open") {
      a.open = true;
    } else if (arg == "--shutdown-server") {
      a.shutdown_server = true;
    } else if (arg == "--upsert") {
      if (!want("--upsert", &a.upsert_module)) return 1;
    } else if (arg == "--replace") {
      if (!want("--replace", &a.replace_spec)) return 1;
    } else if (arg == "--remove") {
      if (!want("--remove", &a.remove_module)) return 1;
    } else if (arg == "--with-file") {
      if (!want("--with-file", &a.with_file)) return 1;
    } else if (arg == "--metrics") {
      a.metrics = true;
    } else if (arg == "--trace-out") {
      if (!want("--trace-out", &a.trace_out)) return 1;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "annodb-query: unknown flag '%s'\n", arg.c_str());
      Usage();
      return 1;
    } else {
      a.input = arg;
    }
  }

  if (!a.connect.empty()) {
    return RunConnected(a);
  }
  // Offline observability: trace/meter the in-process analysis run. stdout
  // stays the query-result surface; traces go to the file, metrics to
  // stderr.
  if (!a.trace_out.empty() || a.metrics) {
    ivy::trace::SetEnabled(true);
  }
  auto finish = [&a](int rc) {
    if (!a.trace_out.empty()) {
      std::string terr;
      if (!ivy::trace::TraceSink::WriteJson(a.trace_out, &terr)) {
        std::fprintf(stderr, "annodb-query: cannot write trace to '%s': %s\n",
                     a.trace_out.c_str(), terr.c_str());
        return 1;
      }
      std::fprintf(stderr, "trace written to %s\n", a.trace_out.c_str());
    }
    if (a.metrics) {
      std::fprintf(stderr, "%s", ivy::trace::RenderMetrics().c_str());
    }
    return rc;
  };
  if (!a.store_path.empty()) {
    return finish(RunFromStore(a));
  }
  if (!a.from_synth.empty()) {
    return finish(RunFromSynth(a));
  }
  if (!a.from_kernel && a.input.empty()) {
    Usage();
    return 1;
  }

  ivy::AnnoDb db;
  if (a.from_kernel) {
    ivy::AnalysisSession session = ivy::PipelineBuilder()
                                       .AllTools()
                                       .FieldSensitive(false)
                                       .ForEachModule({{"kernel", ivy::KernelSources()}})
                                       .BuildSession();
    ivy::SessionResult result = session.RunLinked();
    if (result.compile_failures > 0) {
      std::fprintf(stderr, "annodb-query: kernel corpus failed to compile\n");
      return 1;
    }
    db = session.ExportAnnoDb();
  } else {
    std::string text;
    if (a.input == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      text = ss.str();
    } else if (!ReadFileOrDie(a.input, &text)) {
      return 1;
    }
    std::string err;
    ivy::Json j = ivy::Json::Parse(text, &err);
    if (!err.empty()) {
      std::fprintf(stderr, "annodb-query: JSON parse error: %s\n", err.c_str());
      return 1;
    }
    db = ivy::AnnoDb::FromJson(j);
  }

  QueryResult out(a);
  if (a.summaries) {
    for (const auto& [key, row] : db.summaries()) {
      out.AddRow(row);
    }
  }
  // Facts first: the repository's stored knowledge about the function.
  if (!a.function.empty()) {
    auto it = db.funcs().find(a.function);
    if (it != db.funcs().end()) {
      const ivy::FuncFacts& facts = it->second;
      out.facts = "function " + a.function + "\n  blocking=" + std::to_string(facts.blocking) +
                  " noblock=" + std::to_string(facts.noblock) +
                  " may_block=" + std::to_string(facts.may_block) +
                  " blocking_if_param=" + std::to_string(facts.blocking_if_param) +
                  " frame_size=" + std::to_string(facts.frame_size) + "\n";
      if (!facts.errcodes.empty()) {
        out.facts += "  errcodes:";
        for (int64_t code : facts.errcodes) {
          out.facts += " " + std::to_string(code);
        }
        out.facts += "\n";
      }
      for (const std::string& p : facts.param_annots) {
        out.facts += "  param: " + p + "\n";
      }
    } else {
      out.facts = "function " + a.function + ": not in the database\n";
    }
  }
  for (const ivy::Finding& f : db.findings()) {
    out.AddFinding(f);
  }
  PrintQuery(a, out);
  return finish(0);
}
