#ifndef KANON_TESTS_SCRATCH_DIR_H_
#define KANON_TESTS_SCRATCH_DIR_H_

// Per-test scratch directories. Every test that touches the filesystem
// takes its paths from a ScratchDir, so tests running concurrently under
// `ctest -j` (one process per test) never share a file name.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <string_view>

#include "common/check.h"

namespace kanon::testutil {

/// A fresh, uniquely named directory under the test temp root
/// (::testing::TempDir(), which honours TEST_TMPDIR), created by mkdtemp
/// and removed with its contents on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = ::testing::TempDir();
    if (!tmpl.empty() && tmpl.back() != '/') tmpl += '/';
    tmpl += "kanon_XXXXXX";
    KANON_CHECK(mkdtemp(tmpl.data()) != nullptr);
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// `name` inside the directory (the file itself is not created).
  std::string file(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace kanon::testutil

#endif  // KANON_TESTS_SCRATCH_DIR_H_
