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
// Payload encoding is a flat sequence of fixed-width LE scalars and
// u32-length-prefixed strings (WireWriter/WireReader). Decoders are
// bounds-checked and total: any truncated, oversized, or malformed input
// returns false — never a crash, never an over-read (property-tested in
// tests/wire_test.cc).
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
// Payload primitives
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutStr(const std::string& s);
  void PutStrVec(const std::vector<std::string>& v);

  std::string Take() { return std::move(buf_); }
  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

// Bounds-checked reader: every Get* returns false once the payload is
// exhausted or a length prefix overruns the remaining bytes; after the first
// failure all further reads fail too.
class WireReader {
 public:
  explicit WireReader(const std::string& payload) : data_(payload) {}

  bool GetU8(uint8_t* out);
  bool GetU32(uint32_t* out);
  bool GetU64(uint64_t* out);
  bool GetStr(std::string* out);
  bool GetStrVec(std::vector<std::string>* out);

  // True when every payload byte was consumed and nothing failed — message
  // decoders require exact length (trailing garbage is a malformed frame).
  bool Finish() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
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
// Messages. Each struct has Encode() -> payload and Decode(payload) -> bool.
// The corpus name rides in every request: the daemon serves one warm
// AnalysisSession per corpus.
// ---------------------------------------------------------------------------

// kPing, kOpenCorpus, kCloseCorpus, kStats, kSync, kShutdown, kOk: a bare
// corpus-name payload (empty string where no corpus applies).
struct CorpusMsg {
  std::string corpus;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kQueryFindings. `epoch` 0 pins the latest published epoch; a nonzero id
// pins that exact epoch (error if already evicted from the retention ring).
struct FindingsQueryMsg {
  std::string corpus;
  uint64_t epoch = 0;
  std::string function;  // witness/message match, as in annodb_query
  std::string tool;
  std::string module;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kQuerySummaries.
struct SummariesQueryMsg {
  std::string corpus;
  uint64_t epoch = 0;
  std::string function;
  std::string module;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kUpsertModule: registers or replaces a corpus module (name + sources).
struct UpsertModuleMsg {
  std::string corpus;
  std::string module;
  std::vector<std::pair<std::string, std::string>> files;  // (name, text)

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kReplaceFunction: the keystroke-sized edit path.
struct ReplaceFunctionMsg {
  std::string corpus;
  std::string module;
  std::string function;
  std::string definition;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kRemoveModule.
struct RemoveModuleMsg {
  std::string corpus;
  std::string module;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kError.
struct ErrorMsg {
  std::string message;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kEpoch: mutation acks (epoch current at enqueue time) and kSync replies
// (epoch after quiescence).
struct EpochMsg {
  uint64_t epoch = 0;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kFindings / kSummaries: the pinned epoch id, the epoch's total row count
// (so clients can render "N of M" like the offline CLI), and the matching
// rows in canonical JSON byte form.
struct RowsReplyMsg {
  uint64_t epoch = 0;
  uint64_t total = 0;
  std::vector<std::string> rows;

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

// kStatsReply: the control-plane view of one corpus. The metrics block
// (v2) is served from the daemon's always-on latency histograms — it is
// live data, not a tracing artifact, so it works with tracing disabled.
struct StatsReplyMsg {
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

  std::string Encode() const;
  bool Decode(const std::string& payload);
};

}  // namespace ivy

#endif  // SRC_SERVER_WIRE_H_
