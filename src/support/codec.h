// The one binary codec behind every format in the repo: annod wire messages
// (src/server/wire.h), the analysis store (src/store/store.h) and ivybc
// images (src/bc/bytecode.h). This file alone decides how a value becomes
// bytes and what a decoder rejects. A format lists each record's fields
// once, in a `Fields(io, record)` function; FieldWriter runs that list to
// encode and FieldReader runs the same list to decode, so the two
// directions cannot drift apart.
//
// Encoding (little-endian, no padding):
//
//   bool                one byte, 0 or 1
//   uint8_t             one byte
//   int32_t, uint32_t   four bytes; signed values as two's complement
//   int64_t, uint64_t   eight bytes
//   string              u32 length, then the bytes
//   pair                first, then second
//   vector, map         u32 count, then the elements (a map's in key order)
//   SourceLoc           file, line, col as int32
//   any other record    its Fields(io, record) list, in order
//
// Decoders are total: a read past the end, a bool byte above 1, a count
// larger than the bytes left, a map key not above the one before it, or a
// failed io.Enum / io.Check domain test fails the whole decode — never a
// crash, never an over-read. No element encodes to fewer than one byte, so
// the count bound rejects nothing a writer produces. A vector reserves at
// most as many bytes as are left to read, so a lying count cannot make a
// decoder allocate more than its input.
#ifndef SRC_SUPPORT_CODEC_H_
#define SRC_SUPPORT_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/support/source.h"

namespace ivy {

// ---------------------------------------------------------------------------
// Byte primitives
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutStr(const std::string& s);

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

  // True when every payload byte was consumed and nothing failed — message
  // decoders require exact length (trailing garbage is a malformed frame).
  bool Finish() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Field visitors
// ---------------------------------------------------------------------------

// Runs a Fields list to encode, appending each field to the writer. Every
// call returns true, so a list's `&&` chain visits every field.
class FieldWriter {
 public:
  explicit FieldWriter(WireWriter& w) : w_(w) {}

  bool operator()(bool v) { return (*this)(static_cast<uint8_t>(v ? 1 : 0)); }
  bool operator()(uint8_t v) { w_.PutU8(v); return true; }
  bool operator()(uint32_t v) { w_.PutU32(v); return true; }
  bool operator()(int32_t v) { return (*this)(static_cast<uint32_t>(v)); }
  bool operator()(uint64_t v) { w_.PutU64(v); return true; }
  bool operator()(int64_t v) { return (*this)(static_cast<uint64_t>(v)); }
  bool operator()(const std::string& v) { w_.PutStr(v); return true; }
  bool operator()(const SourceLoc& v) {
    return (*this)(v.file) && (*this)(v.line) && (*this)(v.col);
  }
  template <typename A, typename B>
  bool operator()(const std::pair<A, B>& v) {
    return (*this)(v.first) && (*this)(v.second);
  }
  template <typename T>
  bool operator()(const std::vector<T>& v) { return Seq(v); }
  template <typename K, typename V>
  bool operator()(const std::map<K, V>& v) { return Seq(v); }
  // A record: its Fields list, which takes the record by non-const
  // reference so the reader can share it; writing never modifies it.
  template <typename T>
  bool operator()(const T& v) { return Fields(*this, const_cast<T&>(v)); }

  // An enum stored as one byte whose largest valid value is `max`.
  template <typename E>
  bool Enum(E v, E /*max*/) { return (*this)(static_cast<uint8_t>(v)); }
  // A domain test on fields already visited; only the reader enforces it.
  bool Check(bool /*holds*/) { return true; }

 private:
  template <typename C>
  bool Seq(const C& c) {
    w_.PutU32(static_cast<uint32_t>(c.size()));
    for (const auto& e : c) {
      (*this)(e);
    }
    return true;
  }

  WireWriter& w_;
};

// Runs a Fields list to decode, filling each field from the reader and
// rejecting every value outside its domain (see the file comment).
class FieldReader {
 public:
  explicit FieldReader(WireReader& r) : r_(r) {}

  bool operator()(bool& v) { return Byte(v, 1); }
  bool operator()(uint8_t& v) { return r_.GetU8(&v); }
  bool operator()(uint32_t& v) { return r_.GetU32(&v); }
  bool operator()(int32_t& v) { return Signed<uint32_t>(v); }
  bool operator()(uint64_t& v) { return r_.GetU64(&v); }
  bool operator()(int64_t& v) { return Signed<uint64_t>(v); }
  bool operator()(std::string& v) { return r_.GetStr(&v); }
  bool operator()(SourceLoc& v) {
    return (*this)(v.file) && (*this)(v.line) && (*this)(v.col);
  }
  template <typename A, typename B>
  bool operator()(std::pair<A, B>& v) {
    return (*this)(v.first) && (*this)(v.second);
  }
  template <typename T>
  bool operator()(std::vector<T>& v) {
    uint32_t n = 0;
    if (!Count(&n)) {
      return false;
    }
    v.clear();
    v.reserve(std::min<size_t>(n, r_.remaining() / sizeof(T)));
    for (uint32_t i = 0; i < n; ++i) {
      v.emplace_back();
      if (!(*this)(v.back())) {
        return false;
      }
    }
    return true;
  }
  template <typename K, typename V>
  bool operator()(std::map<K, V>& m) {
    uint32_t n = 0;
    if (!Count(&n)) {
      return false;
    }
    m.clear();
    for (uint32_t i = 0; i < n; ++i) {
      K key{};
      if (!(*this)(key) || (!m.empty() && !(std::prev(m.end())->first < key))) {
        return false;
      }
      if (!(*this)(m.emplace_hint(m.end(), std::move(key), V{})->second)) {
        return false;
      }
    }
    return true;
  }
  template <typename T>
  bool operator()(T& v) { return Fields(*this, v); }

  template <typename E>
  bool Enum(E& v, E max) { return Byte(v, static_cast<uint8_t>(max)); }
  bool Check(bool holds) { return holds; }

  // A u32 element count, at most the bytes left (every element is at least
  // one byte long).
  bool Count(uint32_t* n) { return r_.GetU32(n) && *n <= r_.remaining(); }

 private:
  template <typename T>
  bool Byte(T& v, uint8_t max) {
    uint8_t b = 0;
    if (!r_.GetU8(&b) || b > max) {
      return false;
    }
    v = static_cast<T>(b);
    return true;
  }
  template <typename Uint, typename Int>
  bool Signed(Int& v) {
    Uint u = 0;
    if (!(*this)(u)) {
      return false;
    }
    v = static_cast<Int>(u);
    return true;
  }

  WireReader& r_;
};

// A whole record as one byte string, and back. DecodeFields demands exact
// consumption: trailing bytes fail the decode.
template <typename T>
std::string EncodeFields(const T& v) {
  WireWriter w;
  FieldWriter put(w);
  put(v);
  return w.Take();
}

template <typename T>
bool DecodeFields(const std::string& bytes, T& v) {
  WireReader r(bytes);
  FieldReader get(r);
  return get(v) && r.Finish();
}

}  // namespace ivy

#endif  // SRC_SUPPORT_CODEC_H_
