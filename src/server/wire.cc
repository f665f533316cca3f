#include "src/server/wire.h"

#include <algorithm>

namespace ivy {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kOpenCorpus:
      return "open_corpus";
    case MsgType::kCloseCorpus:
      return "close_corpus";
    case MsgType::kQueryFindings:
      return "query_findings";
    case MsgType::kQuerySummaries:
      return "query_summaries";
    case MsgType::kUpsertModule:
      return "upsert_module";
    case MsgType::kReplaceFunction:
      return "replace_function";
    case MsgType::kRemoveModule:
      return "remove_module";
    case MsgType::kStats:
      return "stats";
    case MsgType::kSync:
      return "sync";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kOk:
      return "ok";
    case MsgType::kError:
      return "error";
    case MsgType::kEpoch:
      return "epoch";
    case MsgType::kFindings:
      return "findings";
    case MsgType::kSummaries:
      return "summaries";
    case MsgType::kStatsReply:
      return "stats_reply";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

std::string EncodeFrame(MsgType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  out.append(payload);
  return out;
}

bool DecodeFrameHeader(const uint8_t header[kFrameHeaderSize], MsgType* type,
                       uint32_t* length, std::string* err) {
  if (header[0] != kWireMagic0 || header[1] != kWireMagic1) {
    if (err != nullptr) {
      *err = "bad frame magic";
    }
    return false;
  }
  if (header[2] != kWireVersion) {
    if (err != nullptr) {
      *err = "unsupported wire version " + std::to_string(header[2]) +
             " (speaking " + std::to_string(kWireVersion) + ")";
    }
    return false;
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
  if (len > kMaxFramePayload) {
    if (err != nullptr) {
      *err = "frame payload length " + std::to_string(len) + " exceeds cap " +
             std::to_string(kMaxFramePayload);
    }
    return false;
  }
  *type = static_cast<MsgType>(header[3]);
  *length = len;
  return true;
}

int ReadFrame(Socket& sock, Frame* out, std::string* err) {
  uint8_t header[kFrameHeaderSize];
  bool eof = false;
  if (!sock.ReadFull(header, sizeof(header), &eof, err)) {
    return eof ? 0 : -1;
  }
  uint32_t len = 0;
  if (!DecodeFrameHeader(header, &out->type, &len, err)) {
    return -1;
  }
  // The length is untrusted until the bytes arrive: read the body in
  // geometrically growing steps (64 KiB first), so a header that lies and
  // then stalls or hangs up pins at most twice what the peer really sent,
  // while an honest large frame costs O(log n) reallocations.
  constexpr size_t kFirstChunk = size_t{64} << 10;
  out->payload.clear();
  size_t have = 0;
  while (have < len) {
    const size_t want = std::min<size_t>(len, have == 0 ? kFirstChunk : have * 2);
    out->payload.resize(want);
    if (!sock.ReadFull(&out->payload[have], want - have, nullptr, err)) {
      return -1;
    }
    have = want;
  }
  return 1;
}

bool WriteFrame(Socket& sock, MsgType type, const std::string& payload,
                std::string* err) {
  if (payload.size() > kMaxFramePayload) {
    if (err != nullptr) {
      *err = "refusing to send oversized frame";
    }
    return false;
  }
  std::string bytes = EncodeFrame(type, payload);
  return sock.WriteFull(bytes.data(), bytes.size(), err);
}

}  // namespace ivy
