// The annod wire protocol: length-prefixed framed binary messages with a
// versioned header, in the spirit of jsfw's hand-rolled framed socket
// protocol (ROADMAP.md exemplar).
//
// Frame layout (little-endian):
//
//   offset  size  field
//   0       1     magic0 = 0xA7
//   1       1     magic1 = 0xDB        ("annodb")
//   2       1     version = kWireVersion
//   3       1     message type (MsgType)
//   4       4     payload length (u32 LE, <= kMaxFramePayload)
//   8       len   payload
//
// Payload encoding: each message lists its fields once, in a
// Fields(io, msg) function below, and the shared codec
// (src/support/codec.h) turns that list into fixed-width LE scalars and
// u32-length-prefixed strings and sequences. Decoders are bounds-checked
// and total: any truncated, oversized, or malformed input returns false —
// never a crash, never an over-read (property-tested in tests/wire_test.cc).
//
// Findings and summary rows travel as their *canonical JSON byte form*
// (Finding::ToJson(nullptr).Dump(-1), FuncSummary::Canonical()) — the same
// bytes annolink prints and the byte-identity contract compares, so
// "what the server returned" and "what a cold batch run produced" can be
// diffed with memcmp.
//
// Version policy: a frame whose version byte differs from kWireVersion is
// rejected before its payload is read (the length still frames it, so a
// future server can skip unknown-version frames without resyncing).
//
// Version history:
//   1  initial protocol (PR 6)
//   2  kStatsReply grew live observability fields — request-latency and
//      epoch-publish p50/p95/p99 plus an edit-queue high-water mark — for
//      `annodb_query --connect --metrics`. Any payload change bumps the
//      version: v1 peers are rejected at the header, never mis-parsed.
#ifndef SRC_SERVER_WIRE_H_
#define SRC_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/support/codec.h"
#include "src/support/socket.h"

namespace ivy {

inline constexpr uint8_t kWireMagic0 = 0xA7;
inline constexpr uint8_t kWireMagic1 = 0xDB;
inline constexpr uint8_t kWireVersion = 2;
inline constexpr uint32_t kMaxFramePayload = 1u << 26;  // 64 MiB
inline constexpr size_t kFrameHeaderSize = 8;

// Message types. Requests < 64, responses >= 64.
enum class MsgType : uint8_t {
  kPing = 1,
  kOpenCorpus = 2,
  kCloseCorpus = 3,
  kQueryFindings = 4,
  kQuerySummaries = 5,
  kUpsertModule = 6,
  kReplaceFunction = 7,
  kRemoveModule = 8,
  kStats = 9,
  kSync = 10,
  kShutdown = 11,

  kOk = 64,
  kError = 65,
  kEpoch = 66,
  kFindings = 67,
  kSummaries = 68,
  kStatsReply = 69,
};

const char* MsgTypeName(MsgType t);

struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

// Serializes header + payload into one contiguous byte string.
std::string EncodeFrame(MsgType type, const std::string& payload);

// Validates an 8-byte header. On success fills type/length; on failure sets
// *err (bad magic, unsupported version, oversized length).
bool DecodeFrameHeader(const uint8_t header[kFrameHeaderSize], MsgType* type,
                       uint32_t* length, std::string* err);

// Blocking framed I/O over a socket. ReadFrame returns:
//   1  frame read
//   0  clean EOF before a header byte (peer closed between frames)
//  -1  error (malformed header, short read, socket error) — *err says why
int ReadFrame(Socket& sock, Frame* out, std::string* err);
bool WriteFrame(Socket& sock, MsgType type, const std::string& payload,
                std::string* err);

// ---------------------------------------------------------------------------
// Messages. A message is its body struct plus Encode() -> payload and
// Decode(payload) -> bool, written once here; Fields(io, body) lists the
// body's fields in wire order. The corpus name rides in every request: the
// daemon serves one warm AnalysisSession per corpus.
// ---------------------------------------------------------------------------

template <typename Body>
struct WireMessage : Body {
  std::string Encode() const { return EncodeFields<Body>(*this); }
  bool Decode(const std::string& payload) { return DecodeFields<Body>(payload, *this); }
};

// kPing, kOpenCorpus, kCloseCorpus, kStats, kSync, kShutdown, kOk: a bare
// corpus-name payload (empty string where no corpus applies).
struct CorpusBody {
  std::string corpus;
};
template <typename Io>
bool Fields(Io& io, CorpusBody& m) {
  return io(m.corpus);
}
using CorpusMsg = WireMessage<CorpusBody>;

// kQueryFindings. `epoch` 0 pins the latest published epoch; a nonzero id
// pins that exact epoch (error if already evicted from the retention ring).
struct FindingsQueryBody {
  std::string corpus;
  uint64_t epoch = 0;
  std::string function;  // witness/message match, as in annodb_query
  std::string tool;
  std::string module;
};
template <typename Io>
bool Fields(Io& io, FindingsQueryBody& m) {
  return io(m.corpus) && io(m.epoch) && io(m.function) && io(m.tool) && io(m.module);
}
using FindingsQueryMsg = WireMessage<FindingsQueryBody>;

// kQuerySummaries.
struct SummariesQueryBody {
  std::string corpus;
  uint64_t epoch = 0;
  std::string function;
  std::string module;
};
template <typename Io>
bool Fields(Io& io, SummariesQueryBody& m) {
  return io(m.corpus) && io(m.epoch) && io(m.function) && io(m.module);
}
using SummariesQueryMsg = WireMessage<SummariesQueryBody>;

// kUpsertModule: registers or replaces a corpus module (name + sources).
struct UpsertModuleBody {
  std::string corpus;
  std::string module;
  std::vector<std::pair<std::string, std::string>> files;  // (name, text)
};
template <typename Io>
bool Fields(Io& io, UpsertModuleBody& m) {
  return io(m.corpus) && io(m.module) && io(m.files);
}
using UpsertModuleMsg = WireMessage<UpsertModuleBody>;

// kReplaceFunction: the keystroke-sized edit path.
struct ReplaceFunctionBody {
  std::string corpus;
  std::string module;
  std::string function;
  std::string definition;
};
template <typename Io>
bool Fields(Io& io, ReplaceFunctionBody& m) {
  return io(m.corpus) && io(m.module) && io(m.function) && io(m.definition);
}
using ReplaceFunctionMsg = WireMessage<ReplaceFunctionBody>;

// kRemoveModule.
struct RemoveModuleBody {
  std::string corpus;
  std::string module;
};
template <typename Io>
bool Fields(Io& io, RemoveModuleBody& m) {
  return io(m.corpus) && io(m.module);
}
using RemoveModuleMsg = WireMessage<RemoveModuleBody>;

// kError.
struct ErrorBody {
  std::string message;
};
template <typename Io>
bool Fields(Io& io, ErrorBody& m) {
  return io(m.message);
}
using ErrorMsg = WireMessage<ErrorBody>;

// kEpoch: mutation acks (epoch current at enqueue time) and kSync replies
// (epoch after quiescence).
struct EpochBody {
  uint64_t epoch = 0;
};
template <typename Io>
bool Fields(Io& io, EpochBody& m) {
  return io(m.epoch);
}
using EpochMsg = WireMessage<EpochBody>;

// kFindings / kSummaries: the pinned epoch id, the epoch's total row count
// (so clients can render "N of M" like the offline CLI), and the matching
// rows in canonical JSON byte form.
struct RowsReplyBody {
  uint64_t epoch = 0;
  uint64_t total = 0;
  std::vector<std::string> rows;
};
template <typename Io>
bool Fields(Io& io, RowsReplyBody& m) {
  return io(m.epoch) && io(m.total) && io(m.rows);
}
using RowsReplyMsg = WireMessage<RowsReplyBody>;

// kStatsReply: the control-plane view of one corpus. The metrics block
// (v2) is served from the daemon's always-on latency histograms — it is
// live data, not a tracing artifact, so it works with tracing disabled.
struct StatsReplyBody {
  uint64_t epoch = 0;
  uint32_t modules = 0;
  uint64_t findings = 0;
  uint64_t summary_rows = 0;
  uint32_t link_rounds = 0;
  uint8_t converged = 0;
  uint32_t queued_edits = 0;
  uint64_t relinks = 0;
  std::vector<std::string> apply_errors;  // edits that failed to apply

  // v2: request-latency histogram readout (all request types, Dispatch
  // wall time in microseconds) ...
  uint64_t request_count = 0;
  uint64_t request_p50_us = 0;
  uint64_t request_p95_us = 0;
  uint64_t request_p99_us = 0;
  // ... epoch-publish timing (completed relink -> snapshot visible) ...
  uint64_t publish_count = 0;
  uint64_t publish_p50_us = 0;
  uint64_t publish_p99_us = 0;
  // ... and the deepest the corpus edit queue has been since startup.
  uint32_t edit_queue_peak = 0;
};
template <typename Io>
bool Fields(Io& io, StatsReplyBody& m) {
  return io(m.epoch) && io(m.modules) && io(m.findings) && io(m.summary_rows) &&
         io(m.link_rounds) && io(m.converged) && io(m.queued_edits) && io(m.relinks) &&
         io(m.apply_errors) && io(m.request_count) && io(m.request_p50_us) &&
         io(m.request_p95_us) && io(m.request_p99_us) && io(m.publish_count) &&
         io(m.publish_p50_us) && io(m.publish_p99_us) && io(m.edit_queue_peak);
}
using StatsReplyMsg = WireMessage<StatsReplyBody>;

}  // namespace ivy

#endif  // SRC_SERVER_WIRE_H_
