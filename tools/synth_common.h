// Shared synthetic-corpus setup for annod (--synth) and annodb_query
// (--from-synth). The byte-identity contract — "what the daemon serves
// equals what a cold batch run prints" — only holds if both sides build the
// same corpus through the same pipeline, so the spec parsing and pipeline
// configuration live here exactly once.
#ifndef TOOLS_SYNTH_COMMON_H_
#define TOOLS_SYNTH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <string>

#include "src/tool/pipeline.h"
#include "tests/synth_corpus.h"

namespace ivy {

// The four-tool pipeline the linked-session tests and benchmarks run over
// synthetic corpora (stackcheck's budget opened wide so deep synthetic
// chains don't trip the depth cap).
inline PipelineBuilder SynthServePipeline() {
  ToolOptions sc;
  sc.SetInt("budget", int64_t{1} << 40);
  PipelineBuilder b;
  b.Tool("blockstop").Tool("stackcheck", sc).Tool("errcheck").Tool("locksafe");
  return b;
}

// Parses "modules:functions[:seed]" (e.g. "4:40" or "8:400:7").
inline bool ParseSynthSpec(const std::string& spec, LinkedCorpusOptions* opt) {
  size_t c1 = spec.find(':');
  if (c1 == std::string::npos || c1 == 0 || c1 + 1 >= spec.size()) {
    return false;
  }
  size_t c2 = spec.find(':', c1 + 1);
  char* end = nullptr;
  long mods = std::strtol(spec.substr(0, c1).c_str(), &end, 10);
  if (*end != '\0' || mods < 2 || mods > 99) {
    return false;
  }
  const std::string fns_s =
      c2 == std::string::npos ? spec.substr(c1 + 1) : spec.substr(c1 + 1, c2 - c1 - 1);
  long fns = std::strtol(fns_s.c_str(), &end, 10);
  if (*end != '\0' || fns < 8 || fns > 100000) {
    return false;
  }
  opt->modules = static_cast<int>(mods);
  opt->functions = static_cast<int>(fns);
  if (c2 != std::string::npos) {
    long seed = std::strtol(spec.substr(c2 + 1).c_str(), &end, 10);
    if (*end != '\0' || seed < 0) {
      return false;
    }
    opt->seed = static_cast<uint64_t>(seed);
  }
  return true;
}

}  // namespace ivy

#endif  // TOOLS_SYNTH_COMMON_H_
