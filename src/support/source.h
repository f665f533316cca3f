// Source file management: file registry and source locations.
//
// Every token and AST node carries a SourceLoc so diagnostics can point at the
// offending Mini-C line, mirroring how Deputy reports errors against kernel sources.
#ifndef SRC_SUPPORT_SOURCE_H_
#define SRC_SUPPORT_SOURCE_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace ivy {

// A position in a registered source file. `file` indexes into SourceManager.
// line/col are 1-based; a default-constructed SourceLoc is "unknown".
struct SourceLoc {
  int32_t file = -1;
  int32_t line = 0;
  int32_t col = 0;

  bool IsValid() const { return file >= 0; }
};

// Member-wise equality. The structured binding names every member, so a
// member added later without a place here stops this from compiling.
inline bool operator==(const SourceLoc& a, const SourceLoc& b) {
  const auto& [file, line, col] = a;
  return std::tie(file, line, col) == std::tie(b.file, b.line, b.col);
}

// Owns the text of all source files in a compilation (the corpus modules plus
// any test snippets) and renders SourceLocs for diagnostics.
class SourceManager {
 public:
  // Registers a file and returns its id. `name` is a display name such as
  // "kernel/fs/pipe.mc"; `text` is the full contents.
  int32_t AddFile(std::string name, std::string text);

  int32_t file_count() const { return static_cast<int32_t>(files_.size()); }
  const std::string& FileName(int32_t id) const { return files_[id].name; }
  const std::string& FileText(int32_t id) const { return files_[id].text; }

  // Returns "name:line:col" (or "<unknown>") for diagnostics.
  std::string Render(const SourceLoc& loc) const;

  // Returns the source line `loc` refers to, without trailing newline.
  // Used by diagnostics to show context.
  std::string LineAt(const SourceLoc& loc) const;

 private:
  struct File {
    std::string name;
    std::string text;
  };
  std::vector<File> files_;
};

}  // namespace ivy

#endif  // SRC_SUPPORT_SOURCE_H_
