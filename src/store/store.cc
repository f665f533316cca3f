#include "src/store/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/server/wire.h"

namespace ivy {

namespace {

void SetErr(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what;
  }
}

void SetErrno(std::string* err, const std::string& what) {
  if (err != nullptr) {
    *err = what + ": " + std::strerror(errno);
  }
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SourcesDigest(const std::vector<std::pair<std::string, std::string>>& files) {
  // Length framing keeps ("ab","c") and ("a","bc") distinct.
  uint64_t h = 14695981039346656037ull;
  for (const auto& [name, text] : files) {
    uint64_t n = name.size();
    h = Fnv1a64(&n, sizeof n, h);
    h = Fnv1a64(name.data(), name.size(), h);
    uint64_t t = text.size();
    h = Fnv1a64(&t, sizeof t, h);
    h = Fnv1a64(text.data(), text.size(), h);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

std::string EncodeStore(const StoreFile& sf) {
  std::string out;
  out.push_back(static_cast<char>(kStoreMagic0));
  out.push_back(static_cast<char>(kStoreMagic1));
  out.push_back(static_cast<char>(kStoreVersion));
  uint8_t flags = 0;
  if (sf.linked) {
    flags |= kStoreFlagLinked;
  }
  out.push_back(static_cast<char>(flags));

  WireWriter w;
  w.PutU64(sf.corpus_digest);
  w.PutU32(static_cast<uint32_t>(sf.modules.size()));
  for (const auto& [name, m] : sf.modules) {
    (void)name;
    w.PutStr(m.name);
    w.PutU64(m.source_digest);
    w.PutU32(static_cast<uint32_t>(m.files.size()));
    for (const auto& [fname, text] : m.files) {
      w.PutStr(fname);
      w.PutStr(text);
    }
    w.PutU8(m.analyzed ? 1 : 0);
    w.PutU8(m.ok ? 1 : 0);
    w.PutStr(m.compile_errors);
    w.PutStrVec(m.findings_canon);
  }
  w.PutU32(static_cast<uint32_t>(sf.summaries.size()));
  for (const auto& [key, canon] : sf.summaries) {
    w.PutStr(key.first);
    w.PutStr(key.second);
    w.PutStr(canon);
  }
  out += w.Take();
  return out;
}

bool DecodeStore(const std::string& bytes, StoreFile* out, std::string* err) {
  *out = StoreFile{};
  if (bytes.size() < kStoreHeaderSize) {
    SetErr(err, "store file shorter than its header");
    return false;
  }
  const uint8_t m0 = static_cast<uint8_t>(bytes[0]);
  const uint8_t m1 = static_cast<uint8_t>(bytes[1]);
  const uint8_t version = static_cast<uint8_t>(bytes[2]);
  const uint8_t flags = static_cast<uint8_t>(bytes[3]);
  if (m0 != kStoreMagic0 || m1 != kStoreMagic1) {
    SetErr(err, "bad store magic");
    return false;
  }
  if (version != kStoreVersion) {
    SetErr(err, "unsupported store version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kStoreVersion) + ")");
    return false;
  }
  if ((flags & ~kStoreFlagLinked) != 0) {
    SetErr(err, "unknown store flags");
    return false;
  }
  out->linked = (flags & kStoreFlagLinked) != 0;

  const std::string body = bytes.substr(kStoreHeaderSize);
  WireReader r(body);
  if (!r.GetU64(&out->corpus_digest)) {
    SetErr(err, "truncated store body");
    return false;
  }
  uint32_t module_count = 0;
  if (!r.GetU32(&module_count) || module_count > body.size()) {
    // Every record is several bytes long, so a count beyond the body size
    // is malformed — reject it before looping (bounds, not trust).
    SetErr(err, "bad module count");
    return false;
  }
  for (uint32_t i = 0; i < module_count && r.ok(); ++i) {
    StoreModule m;
    uint8_t analyzed = 0;
    uint8_t ok = 0;
    uint32_t file_count = 0;
    if (!r.GetStr(&m.name) || !r.GetU64(&m.source_digest) ||
        !r.GetU32(&file_count) || file_count > body.size()) {
      SetErr(err, "malformed module record");
      return false;
    }
    for (uint32_t f = 0; f < file_count; ++f) {
      std::string fname;
      std::string text;
      if (!r.GetStr(&fname) || !r.GetStr(&text)) {
        SetErr(err, "malformed module sources");
        return false;
      }
      m.files.emplace_back(std::move(fname), std::move(text));
    }
    if (!r.GetU8(&analyzed) || !r.GetU8(&ok) || !r.GetStr(&m.compile_errors) ||
        !r.GetStrVec(&m.findings_canon)) {
      SetErr(err, "malformed module record");
      return false;
    }
    if (analyzed > 1 || ok > 1) {
      SetErr(err, "malformed module flags");
      return false;
    }
    m.analyzed = analyzed != 0;
    m.ok = ok != 0;
    if (m.name.empty() || out->modules.count(m.name) != 0) {
      SetErr(err, "empty or duplicate module name in store");
      return false;
    }
    std::string key = m.name;
    out->modules.emplace(std::move(key), std::move(m));
  }
  uint32_t summary_count = 0;
  if (!r.GetU32(&summary_count) || summary_count > body.size()) {
    SetErr(err, "bad summary count");
    return false;
  }
  for (uint32_t i = 0; i < summary_count; ++i) {
    std::string module;
    std::string function;
    std::string canon;
    if (!r.GetStr(&module) || !r.GetStr(&function) || !r.GetStr(&canon)) {
      SetErr(err, "malformed summary row");
      return false;
    }
    out->summaries[{std::move(module), std::move(function)}] = std::move(canon);
  }
  if (!r.Finish()) {
    SetErr(err, "trailing bytes after store payload");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

bool ReadStoreFile(const std::string& path, StoreFile* out, std::string* err) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    SetErr(err, "cannot open store '" + path + "'");
    return false;
  }
  // The size is checked before a byte is read, so rejecting an oversized
  // store costs no memory.
  const std::streamoff size = in.tellg();
  if (size > static_cast<std::streamoff>(kMaxStoreBytes)) {
    SetErr(err, "store '" + path + "' exceeds the size cap");
    return false;
  }
  std::string bytes(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  if (size < 0 || !in.seekg(0) || !in.read(&bytes[0], size)) {
    SetErr(err, "read error on store '" + path + "'");
    return false;
  }
  std::string derr;
  if (!DecodeStore(bytes, out, &derr)) {
    SetErr(err, "store '" + path + "': " + derr);
    return false;
  }
  return true;
}

bool WriteStoreFile(const std::string& path, const StoreFile& sf, std::string* err) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const std::string bytes = EncodeStore(sf);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    SetErrno(err, "cannot create '" + tmp + "'");
    return false;
  }
  // The file's bytes must be on disk before the rename publishes them;
  // otherwise a power loss can leave `path` naming an empty file.
  if (!WriteAll(fd, bytes) || ::fsync(fd) != 0) {
    SetErrno(err, "write error on '" + tmp + "'");
    ::close(fd);
    std::remove(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    SetErrno(err, "close('" + tmp + "')");
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SetErrno(err, "rename('" + tmp + "' -> '" + path + "')");
    std::remove(tmp.c_str());
    return false;
  }
  // And the rename itself must reach the directory on disk.
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    SetErrno(err, "open directory '" + dir + "'");
    return false;
  }
  const bool synced = ::fsync(dfd) == 0;
  if (!synced) {
    SetErrno(err, "fsync directory '" + dir + "'");
  }
  ::close(dfd);
  return synced;
}

}  // namespace ivy
