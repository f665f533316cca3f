#include "src/store/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <tuple>

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

// One field list per record type drives both directions — Put encodes,
// Get decodes — so the encoder and the total decoder cannot drift apart
// (see store.h for which fields each row kind lists).
template <typename Io, typename F>
bool FindingFields(Io& io, F& f) {
  return io(f.tool) && io(f.severity) && io(f.loc.file) && io(f.loc.line) && io(f.loc.col) &&
         io(f.message) && io(f.witness);
}

template <typename Io, typename S>
bool SummaryFields(Io& io, S& s) {
  if (!io(s.module) || !io(s.function) || !io(s.defined)) {
    return false;
  }
  if (!s.defined) {
    return io(s.entered_atomic) && io(s.entered_in_irq) && io(s.param_points);
  }
  return io(s.may_block) && io(s.block_witness) && io(s.blocking) && io(s.noblock) &&
         io(s.blocking_if_param) && io(s.returns_error) && io(s.errcodes) &&
         io(s.frame_size) && io(s.callees) && io(s.returns_points) &&
         io(s.locks_acquired) && io(s.stack_below) && io(s.cross_recursive);
}

template <typename Io, typename M>
bool ModuleFields(Io& io, M& m) {
  return io(m.name) && io(m.source_digest) && io(m.files) && io(m.analyzed) && io(m.ok) &&
         io(m.compile_errors) && io(m.findings);
}

// A bool is one 0/1 byte; signed fields travel as their two's-complement
// bit pattern; a sequence is a u32 count and its elements.
class Put {
 public:
  explicit Put(WireWriter& w) : w_(w) {}

  bool operator()(bool v) { w_.PutU8(v ? 1 : 0); return true; }
  bool operator()(FindingSeverity v) { w_.PutU8(static_cast<uint8_t>(v)); return true; }
  bool operator()(int32_t v) { w_.PutU32(static_cast<uint32_t>(v)); return true; }
  bool operator()(int64_t v) { return (*this)(static_cast<uint64_t>(v)); }
  bool operator()(uint64_t v) { w_.PutU64(v); return true; }
  bool operator()(const std::string& v) { w_.PutStr(v); return true; }
  bool operator()(const std::pair<std::string, std::string>& v) {
    return (*this)(v.first) && (*this)(v.second);
  }
  bool operator()(const Finding& f) { return FindingFields(*this, f); }
  bool operator()(const FuncSummary& s) { return SummaryFields(*this, s); }
  bool operator()(const StoreModule& m) { return ModuleFields(*this, m); }
  template <typename T>
  bool operator()(const std::vector<T>& v) {
    w_.PutU32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) {
      (*this)(e);
    }
    return true;
  }
  bool operator()(const std::map<int, std::vector<std::string>>& points) {
    w_.PutU32(static_cast<uint32_t>(points.size()));
    for (const auto& [idx, names] : points) {
      w_.PutU32(static_cast<uint32_t>(idx));
      (*this)(names);
    }
    return true;
  }

 private:
  WireWriter& w_;
};

// Rejects every value outside its field's domain, and every count beyond
// `limit` (the body size: each element is at least one byte long).
class Get {
 public:
  Get(WireReader& r, size_t limit) : r_(r), limit_(limit) {}

  bool operator()(bool& v) { return Byte(v, 1); }
  bool operator()(FindingSeverity& v) {
    return Byte(v, static_cast<uint8_t>(FindingSeverity::kError));
  }
  bool operator()(int32_t& v) { return Signed(v, &WireReader::GetU32); }
  bool operator()(int64_t& v) { return Signed(v, &WireReader::GetU64); }
  bool operator()(uint64_t& v) { return r_.GetU64(&v); }
  bool operator()(std::string& v) { return r_.GetStr(&v); }
  bool operator()(std::pair<std::string, std::string>& v) {
    return (*this)(v.first) && (*this)(v.second);
  }
  bool operator()(Finding& f) { return FindingFields(*this, f); }
  bool operator()(FuncSummary& s) { return SummaryFields(*this, s) && s.stack_below >= -1; }
  bool operator()(StoreModule& m) { return ModuleFields(*this, m); }
  template <typename T>
  bool operator()(std::vector<T>& v) {
    uint32_t n = 0;
    if (!Count(&n)) {
      return false;
    }
    v.clear();
    for (uint32_t i = 0; i < n; ++i) {
      v.emplace_back();
      if (!(*this)(v.back())) {
        return false;
      }
    }
    return true;
  }
  // Indices ascend strictly and stay within kMaxParamIndex — the bound
  // FuncSummary::FromJson enforces on the JSON keys.
  bool operator()(std::map<int, std::vector<std::string>>& points) {
    uint32_t n = 0;
    if (!Count(&n)) {
      return false;
    }
    int prev = -1;
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t idx = 0;
      if (!r_.GetU32(&idx) || idx > static_cast<uint32_t>(kMaxParamIndex) ||
          static_cast<int>(idx) <= prev) {
        return false;
      }
      prev = static_cast<int>(idx);
      if (!(*this)(points[prev])) {
        return false;
      }
    }
    return true;
  }
  bool Count(uint32_t* n) { return r_.GetU32(n) && *n <= limit_; }

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
  template <typename Int, typename Uint>
  bool Signed(Int& v, bool (WireReader::*get)(Uint*)) {
    Uint u = 0;
    if (!(r_.*get)(&u)) {
      return false;
    }
    v = static_cast<Int>(u);
    return true;
  }

  WireReader& r_;
  size_t limit_;
};

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
  WireWriter w;
  w.PutU8(kStoreMagic0);
  w.PutU8(kStoreMagic1);
  w.PutU8(kStoreVersion);
  w.PutU8(sf.linked ? kStoreFlagLinked : 0);
  w.PutU64(sf.corpus_digest);
  Put put(w);
  w.PutU32(static_cast<uint32_t>(sf.modules.size()));
  for (const auto& [name, m] : sf.modules) {
    put(m);
  }
  put(sf.summaries);
  return w.Take();
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
  Get get(r, body.size());
  uint32_t module_count = 0;
  if (!r.GetU64(&out->corpus_digest) || !get.Count(&module_count)) {
    SetErr(err, "truncated corpus digest or bad module count");
    return false;
  }
  for (uint32_t i = 0; i < module_count; ++i) {
    StoreModule m;
    if (!get(m)) {
      SetErr(err, "malformed module record");
      return false;
    }
    if (m.name.empty() || out->modules.count(m.name) != 0) {
      SetErr(err, "empty or duplicate module name in store");
      return false;
    }
    std::string key = m.name;
    out->modules.emplace(std::move(key), std::move(m));
  }
  if (!get(out->summaries)) {
    SetErr(err, "malformed summary rows");
    return false;
  }
  // Strictly ascending keys: the table is a map, so rows out of order or
  // repeated cannot have come from a session.
  for (size_t i = 1; i < out->summaries.size(); ++i) {
    const FuncSummary& prev = out->summaries[i - 1];
    const FuncSummary& row = out->summaries[i];
    if (std::tie(prev.module, prev.function) >= std::tie(row.module, row.function)) {
      SetErr(err, "summary rows out of order or duplicated");
      return false;
    }
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
