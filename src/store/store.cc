#include "src/store/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/support/codec.h"

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

// param_points indices lie in [0, kMaxParamIndex], the bound
// FuncSummary::FromJson enforces on the JSON keys (the codec already
// demands that they ascend strictly).
bool ParamIndicesInRange(const std::map<int, std::vector<std::string>>& points) {
  return points.empty() ||
         (points.begin()->first >= 0 && points.rbegin()->first <= kMaxParamIndex);
}

}  // namespace

// The store's field lists, run by the codec's FieldWriter and FieldReader
// (src/support/codec.h). Beyond the codec's own checks they reject a
// severity above kError, a stack_below below -1 and a param_points index
// above kMaxParamIndex (see store.h for which fields each row kind lists).
template <typename Io>
bool Fields(Io& io, Finding& f) {
  return io(f.tool) && io.Enum(f.severity, FindingSeverity::kError) && io(f.loc) &&
         io(f.message) && io(f.witness);
}

template <typename Io>
bool Fields(Io& io, FuncSummary& s) {
  if (!io(s.module) || !io(s.function) || !io(s.defined)) {
    return false;
  }
  if (!s.defined) {
    return io(s.entered_atomic) && io(s.entered_in_irq) && io(s.param_points) &&
           io.Check(ParamIndicesInRange(s.param_points));
  }
  return io(s.may_block) && io(s.block_witness) && io(s.blocking) && io(s.noblock) &&
         io(s.blocking_if_param) && io(s.returns_error) && io(s.errcodes) &&
         io(s.frame_size) && io(s.callees) && io(s.returns_points) &&
         io(s.locks_acquired) && io(s.stack_below) && io.Check(s.stack_below >= -1) &&
         io(s.cross_recursive);
}

template <typename Io>
bool Fields(Io& io, StoreModule& m) {
  return io(m.name) && io(m.source_digest) && io(m.files) && io(m.analyzed) && io(m.ok) &&
         io(m.compile_errors) && io(m.findings);
}

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
  FieldWriter put(w);
  put(sf.corpus_digest);
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
  FieldReader get(r);
  uint32_t module_count = 0;
  if (!get(out->corpus_digest) || !get.Count(&module_count)) {
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
  // Strictly ascending keys: the link table holds one row per key in key
  // order, so rows out of order or repeated cannot have come from a session.
  for (size_t i = 1; i < out->summaries.size(); ++i) {
    if (out->summaries[i - 1].Key() >= out->summaries[i].Key()) {
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
