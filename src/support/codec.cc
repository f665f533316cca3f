#include "src/support/codec.h"

namespace ivy {

// Little-endian by shifting, so the bytes do not depend on the host; one
// append per integer.
void WireWriter::PutU32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  buf_.append(b, sizeof(b));
}

void WireWriter::PutU64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  buf_.append(b, sizeof(b));
}

void WireWriter::PutStr(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

bool WireReader::GetU8(uint8_t* out) {
  if (!ok_ || data_.size() - pos_ < 1) {
    ok_ = false;
    return false;
  }
  *out = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::GetU32(uint32_t* out) {
  if (!ok_ || data_.size() - pos_ < 4) {
    ok_ = false;
    return false;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return true;
}

bool WireReader::GetU64(uint64_t* out) {
  if (!ok_ || data_.size() - pos_ < 8) {
    ok_ = false;
    return false;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return true;
}

bool WireReader::GetStr(std::string* out) {
  uint32_t len = 0;
  if (!GetU32(&len)) {
    return false;
  }
  if (data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  out->assign(data_, pos_, len);
  pos_ += len;
  return true;
}

}  // namespace ivy
