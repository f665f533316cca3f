// Wire-format tests for the annod protocol (src/server/wire.h): encode/decode
// round trips for every message, totality of the decoders (truncated frames,
// oversized lengths, bad magic/version bytes are rejected — never a crash or
// over-read), and a seeded structure-aware fuzz pass.
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/wire.h"
#include "src/support/rng.h"
#include "src/support/socket.h"

namespace ivy {
namespace {

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(WirePrimitives, ScalarAndStringRoundTrip) {
  WireWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutStr("hello\0world");  // embedded NUL stays within the literal prefix
  w.PutStr("");
  w.PutStrVec({"a", "", "ccc"});
  const std::string payload = w.Take();

  WireReader r(payload);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s1;
  std::string s2;
  std::vector<std::string> vec;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetStr(&s1));
  ASSERT_TRUE(r.GetStr(&s2));
  ASSERT_TRUE(r.GetStrVec(&vec));
  EXPECT_TRUE(r.Finish());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(vec, (std::vector<std::string>{"a", "", "ccc"}));
}

TEST(WireMessages, EveryMessageRoundTrips) {
  {
    CorpusMsg m;
    m.corpus = "kernel";
    CorpusMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.corpus, "kernel");
  }
  {
    FindingsQueryMsg m;
    m.corpus = "c";
    m.epoch = 42;
    m.function = "read_chan";
    m.tool = "blockstop";
    m.module = "net";
    FindingsQueryMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.corpus, "c");
    EXPECT_EQ(out.epoch, 42u);
    EXPECT_EQ(out.function, "read_chan");
    EXPECT_EQ(out.tool, "blockstop");
    EXPECT_EQ(out.module, "net");
  }
  {
    SummariesQueryMsg m;
    m.corpus = "c";
    m.epoch = 7;
    m.function = "f";
    m.module = "m";
    SummariesQueryMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.epoch, 7u);
    EXPECT_EQ(out.module, "m");
  }
  {
    UpsertModuleMsg m;
    m.corpus = "c";
    m.module = "net";
    m.files = {{"a.mc", "void f() {}"}, {"b.mc", ""}};
    UpsertModuleMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.module, "net");
    ASSERT_EQ(out.files.size(), 2u);
    EXPECT_EQ(out.files[0].first, "a.mc");
    EXPECT_EQ(out.files[0].second, "void f() {}");
    EXPECT_EQ(out.files[1].second, "");
  }
  {
    ReplaceFunctionMsg m;
    m.corpus = "c";
    m.module = "net";
    m.function = "udp_sendmsg";
    m.definition = "void udp_sendmsg(int n) { msleep(n); }";
    ReplaceFunctionMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.function, "udp_sendmsg");
    EXPECT_EQ(out.definition, m.definition);
  }
  {
    RemoveModuleMsg m;
    m.corpus = "c";
    m.module = "net";
    RemoveModuleMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.module, "net");
  }
  {
    ErrorMsg m;
    m.message = "unknown corpus 'x'";
    ErrorMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.message, m.message);
  }
  {
    EpochMsg m;
    m.epoch = UINT64_MAX;
    EpochMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.epoch, UINT64_MAX);
  }
  {
    RowsReplyMsg m;
    m.epoch = 3;
    m.total = 97;
    m.rows = {"{\"a\":1}", "{\"b\":2}"};
    RowsReplyMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.epoch, 3u);
    EXPECT_EQ(out.total, 97u);
    EXPECT_EQ(out.rows, m.rows);
  }
  {
    StatsReplyMsg m;
    m.epoch = 5;
    m.modules = 8;
    m.findings = 123;
    m.summary_rows = 456;
    m.link_rounds = 4;
    m.converged = 1;
    m.queued_edits = 2;
    m.relinks = 9;
    m.apply_errors = {"replace_function m:f: no such module/function"};
    StatsReplyMsg out;
    ASSERT_TRUE(out.Decode(m.Encode()));
    EXPECT_EQ(out.epoch, 5u);
    EXPECT_EQ(out.modules, 8u);
    EXPECT_EQ(out.findings, 123u);
    EXPECT_EQ(out.summary_rows, 456u);
    EXPECT_EQ(out.link_rounds, 4u);
    EXPECT_EQ(out.converged, 1);
    EXPECT_EQ(out.queued_edits, 2u);
    EXPECT_EQ(out.relinks, 9u);
    EXPECT_EQ(out.apply_errors, m.apply_errors);
  }
}

// ---------------------------------------------------------------------------
// Totality: truncation, trailing garbage, malformed headers
// ---------------------------------------------------------------------------

// Every strict prefix of a valid payload must be rejected (all fields are
// fixed-width or length-prefixed, so a cut can never look complete), and so
// must the payload with trailing garbage (Finish() demands exact length).
template <typename Msg>
void ExpectTruncationRejected(const Msg& m) {
  const std::string payload = m.Encode();
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Msg out;
    EXPECT_FALSE(out.Decode(payload.substr(0, cut))) << "prefix length " << cut;
  }
  Msg out;
  EXPECT_FALSE(out.Decode(payload + '\0')) << "trailing garbage accepted";
}

TEST(WireTotality, TruncatedPayloadsRejectedAtEveryByte) {
  FindingsQueryMsg fq;
  fq.corpus = "corpus";
  fq.epoch = 12;
  fq.function = "fn";
  fq.tool = "blockstop";
  fq.module = "mod";
  ExpectTruncationRejected(fq);

  UpsertModuleMsg up;
  up.corpus = "c";
  up.module = "m";
  up.files = {{"a.mc", "text"}, {"b.mc", "more"}};
  ExpectTruncationRejected(up);

  RowsReplyMsg rows;
  rows.epoch = 9;
  rows.total = 3;
  rows.rows = {"r1", "r2", "r3"};
  ExpectTruncationRejected(rows);

  StatsReplyMsg st;
  st.epoch = 1;
  st.apply_errors = {"e1", "e2"};
  ExpectTruncationRejected(st);
}

TEST(WireTotality, HeaderValidation) {
  const std::string frame = EncodeFrame(MsgType::kPing, "abc");
  ASSERT_GE(frame.size(), kFrameHeaderSize);
  uint8_t hdr[kFrameHeaderSize];
  std::copy(frame.begin(), frame.begin() + kFrameHeaderSize, hdr);

  MsgType type;
  uint32_t length = 0;
  std::string err;
  ASSERT_TRUE(DecodeFrameHeader(hdr, &type, &length, &err)) << err;
  EXPECT_EQ(type, MsgType::kPing);
  EXPECT_EQ(length, 3u);

  {
    uint8_t bad[kFrameHeaderSize];
    std::copy(hdr, hdr + kFrameHeaderSize, bad);
    bad[0] = 0x00;  // bad magic0
    EXPECT_FALSE(DecodeFrameHeader(bad, &type, &length, &err));
  }
  {
    uint8_t bad[kFrameHeaderSize];
    std::copy(hdr, hdr + kFrameHeaderSize, bad);
    bad[1] = 0xFF;  // bad magic1
    EXPECT_FALSE(DecodeFrameHeader(bad, &type, &length, &err));
  }
  {
    uint8_t bad[kFrameHeaderSize];
    std::copy(hdr, hdr + kFrameHeaderSize, bad);
    bad[2] = kWireVersion + 1;  // future version
    EXPECT_FALSE(DecodeFrameHeader(bad, &type, &length, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
  }
  {
    uint8_t bad[kFrameHeaderSize];
    std::copy(hdr, hdr + kFrameHeaderSize, bad);
    // Length far beyond kMaxFramePayload: rejected before any allocation.
    bad[4] = 0xFF;
    bad[5] = 0xFF;
    bad[6] = 0xFF;
    bad[7] = 0xFF;
    EXPECT_FALSE(DecodeFrameHeader(bad, &type, &length, &err));
  }
}

// Adversarial length prefixes must not make GetStr/GetStrVec over-read or
// reserve absurd memory: a count or length larger than the remaining bytes
// fails immediately.
TEST(WireTotality, OversizedInnerLengthsRejected) {
  {
    WireWriter w;
    w.PutU32(0xFFFFFFFFu);  // string length prefix with no bytes behind it
    WireReader r(w.buf());
    std::string s;
    EXPECT_FALSE(r.GetStr(&s));
  }
  {
    WireWriter w;
    w.PutU32(0x40000000u);  // a billion strings, zero bytes of content
    WireReader r(w.buf());
    std::vector<std::string> v;
    EXPECT_FALSE(r.GetStrVec(&v));
  }
  {
    UpsertModuleMsg out;
    WireWriter w;
    w.PutStr("c");
    w.PutStr("m");
    w.PutU32(0x7FFFFFFFu);  // file-pair count overrunning the payload
    EXPECT_FALSE(out.Decode(w.buf()));
  }
}

// ---------------------------------------------------------------------------
// Seeded fuzz: random bytes through every decoder — nothing may crash
// ---------------------------------------------------------------------------

TEST(WireFuzz, RandomPayloadsNeverCrashDecoders) {
  Rng rng(20260808);
  for (int round = 0; round < 2000; ++round) {
    const size_t len = rng.Below(64);
    std::string payload;
    payload.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.Below(256)));
    }
    // The return value is irrelevant; surviving every input is the property.
    CorpusMsg{}.Decode(payload);
    FindingsQueryMsg{}.Decode(payload);
    SummariesQueryMsg{}.Decode(payload);
    UpsertModuleMsg{}.Decode(payload);
    ReplaceFunctionMsg{}.Decode(payload);
    RemoveModuleMsg{}.Decode(payload);
    ErrorMsg{}.Decode(payload);
    EpochMsg{}.Decode(payload);
    RowsReplyMsg{}.Decode(payload);
    StatsReplyMsg{}.Decode(payload);

    uint8_t hdr[kFrameHeaderSize];
    for (size_t i = 0; i < kFrameHeaderSize; ++i) {
      hdr[i] = static_cast<uint8_t>(rng.Below(256));
    }
    MsgType type;
    uint32_t length = 0;
    std::string err;
    DecodeFrameHeader(hdr, &type, &length, &err);
  }
}

// Mutation fuzz: flip bytes of VALID frames and feed them through a real
// socket pair — ReadFrame either rejects them or yields a frame, but never
// crashes, hangs, or over-reads.
TEST(WireFuzz, MutatedFramesOverSocket) {
  ListenSocket listener;
  std::string err;
  ASSERT_TRUE(listener.Listen("127.0.0.1:0", &err)) << err;

  Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    FindingsQueryMsg q;
    q.corpus = "corpus";
    q.function = "fn";
    std::string frame = EncodeFrame(MsgType::kQueryFindings, q.Encode());
    const int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      frame[rng.Below(frame.size())] ^= static_cast<char>(1 + rng.Below(255));
    }
    // Truncate some rounds mid-frame as well.
    if (rng.Chance(1, 3)) {
      frame.resize(rng.Below(frame.size()) + 1);
    }

    Socket client = ConnectTo(listener.bound_address(), &err);
    ASSERT_TRUE(client.valid()) << err;
    Socket server = listener.Accept(&err);
    ASSERT_TRUE(server.valid()) << err;

    std::thread writer([&client, &frame] {
      client.WriteFull(frame.data(), frame.size());
      client.Close();  // EOF terminates any partial read
    });
    Frame got;
    std::string rerr;
    int r = ReadFrame(server, &got, &rerr);
    EXPECT_LE(r, 1);
    writer.join();
  }
}

TEST(WireFrameIO, CleanEofAndFrameRoundTripOverSocket) {
  ListenSocket listener;
  std::string err;
  ASSERT_TRUE(listener.Listen("127.0.0.1:0", &err)) << err;

  Socket client = ConnectTo(listener.bound_address(), &err);
  ASSERT_TRUE(client.valid()) << err;
  Socket server = listener.Accept(&err);
  ASSERT_TRUE(server.valid()) << err;

  ASSERT_TRUE(WriteFrame(client, MsgType::kSync, CorpusMsg{"c"}.Encode(), &err))
      << err;
  Frame got;
  ASSERT_EQ(ReadFrame(server, &got, &err), 1) << err;
  EXPECT_EQ(got.type, MsgType::kSync);
  CorpusMsg m;
  ASSERT_TRUE(m.Decode(got.payload));
  EXPECT_EQ(m.corpus, "c");

  client.Close();
  EXPECT_EQ(ReadFrame(server, &got, &err), 0);  // clean EOF between frames
}

// A header's length is a claim, not an allocation: a peer that announces
// the maximum payload, sends 16 bytes and hangs up must not make the reader
// reserve anywhere near the claimed 64 MiB.
TEST(WireFrameIO, OversizedClaimIsNotPreallocated) {
  ListenSocket listener;
  std::string err;
  ASSERT_TRUE(listener.Listen("127.0.0.1:0", &err)) << err;
  Socket client = ConnectTo(listener.bound_address(), &err);
  ASSERT_TRUE(client.valid()) << err;
  Socket server = listener.Accept(&err);
  ASSERT_TRUE(server.valid()) << err;

  std::string frame = EncodeFrame(MsgType::kSync, std::string(16, 'x'));
  for (int i = 0; i < 4; ++i) {
    frame[4 + i] = static_cast<char>((kMaxFramePayload >> (8 * i)) & 0xFF);
  }
  ASSERT_TRUE(client.WriteFull(frame.data(), frame.size(), &err)) << err;
  client.Close();

  Frame got;
  EXPECT_EQ(ReadFrame(server, &got, &err), -1);
  EXPECT_LT(got.payload.capacity(), size_t{1} << 20);
}

// An honest frame larger than the first read step arrives intact through
// the growing buffer.
TEST(WireFrameIO, LargeFrameRoundTrip) {
  ListenSocket listener;
  std::string err;
  ASSERT_TRUE(listener.Listen("127.0.0.1:0", &err)) << err;
  Socket client = ConnectTo(listener.bound_address(), &err);
  ASSERT_TRUE(client.valid()) << err;
  Socket server = listener.Accept(&err);
  ASSERT_TRUE(server.valid()) << err;

  std::string payload(3 * 1024 * 1024 + 17, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 + 7);
  }
  std::thread writer([&client, &payload] {
    WriteFrame(client, MsgType::kSync, payload, nullptr);
  });
  Frame got;
  EXPECT_EQ(ReadFrame(server, &got, &err), 1) << err;
  writer.join();
  EXPECT_EQ(got.type, MsgType::kSync);
  EXPECT_TRUE(got.payload == payload);
}

}  // namespace
}  // namespace ivy
