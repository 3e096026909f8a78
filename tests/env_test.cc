#include "common/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "scratch_dir.h"

namespace kanon {
namespace {

using testutil::ScratchDir;

/// A WritableFile whose AppendPartial transfers at most `chunk` bytes per
/// call — the short-write torture case the public Append loop must absorb.
class ShortWriteFile : public WritableFile {
 public:
  explicit ShortWriteFile(size_t chunk) : chunk_(chunk) {}

  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

  const std::string& contents() const { return contents_; }
  size_t calls() const { return calls_; }

 protected:
  StatusOr<size_t> AppendPartial(const char* data, size_t n) override {
    ++calls_;
    const size_t take = std::min(chunk_, n);
    contents_.append(data, take);
    return take;
  }

 private:
  const size_t chunk_;
  std::string contents_;
  size_t calls_ = 0;
};

TEST(EnvTest, AppendResumesShortWrites) {
  ShortWriteFile file(/*chunk=*/3);
  const std::string data = "the quick brown fox jumps over the lazy dog";
  ASSERT_TRUE(file.Append(data.data(), data.size()).ok());
  EXPECT_EQ(file.contents(), data);
  EXPECT_EQ(file.calls(), (data.size() + 2) / 3);
}

TEST(EnvTest, PosixWriteReadRoundtrip) {
  Env* env = Env::Default();
  ScratchDir dir;
  const std::string path = dir.file("data.bin");
  std::string payload(100000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  {
    auto file = env->NewWritableFile(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE((*file)->Append(payload.data(), payload.size()).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto size = env->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());

  std::string back;
  ASSERT_TRUE(ReadFileToString(env, path, &back).ok());
  EXPECT_EQ(back, payload);

  // Reading past EOF reports a short count, not an error.
  auto reader = env->NewRandomAccessFile(path);
  ASSERT_TRUE(reader.ok());
  char buf[64];
  size_t got = 0;
  ASSERT_TRUE(
      (*reader)->ReadAt(payload.size() - 10, buf, sizeof(buf), &got).ok());
  EXPECT_EQ(got, 10u);
}

TEST(EnvTest, PosixMissingFileIsNotFound) {
  Env* env = Env::Default();
  ScratchDir dir;
  EXPECT_EQ(env->NewRandomAccessFile(dir.file("nope")).status().code(),
            StatusCode::kNotFound);
  std::string s;
  EXPECT_EQ(ReadFileToString(env, dir.file("nope"), &s).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(env->FileSize(dir.file("nope")).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(env->FileExists(dir.file("nope")));
}

TEST(EnvTest, PosixRandomRWFileAndTruncate) {
  Env* env = Env::Default();
  ScratchDir dir;
  const std::string path = dir.file("rw.bin");
  auto file = env->NewRandomRWFile(path, /*truncate=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->WriteAt(100, "hello", 5).ok());
  char buf[5];
  size_t got = 0;
  ASSERT_TRUE((*file)->ReadAt(100, buf, 5, &got).ok());
  ASSERT_EQ(got, 5u);
  EXPECT_EQ(std::memcmp(buf, "hello", 5), 0);
  ASSERT_TRUE((*file)->Sync().ok());

  ASSERT_TRUE(env->TruncateFile(path, 50).ok());
  auto size = env->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 50u);
}

TEST(EnvTest, PosixListRenameRemove) {
  Env* env = Env::Default();
  ScratchDir dir;
  for (const char* name : {"a", "b", "c"}) {
    auto f = env->NewWritableFile(dir.file(name));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("x", 1).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  auto names = env->ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  std::vector<std::string> sorted = *names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"a", "b", "c"}));

  ASSERT_TRUE(env->RenameFile(dir.file("a"), dir.file("z")).ok());
  EXPECT_FALSE(env->FileExists(dir.file("a")));
  EXPECT_TRUE(env->FileExists(dir.file("z")));
  ASSERT_TRUE(env->RemoveFile(dir.file("z")).ok());
  EXPECT_FALSE(env->FileExists(dir.file("z")));
  EXPECT_EQ(env->RemoveFile(dir.file("z")).code(), StatusCode::kNotFound);
  ASSERT_TRUE(env->SyncDir(dir.path()).ok());
}

TEST(EnvTest, PosixCreateDirs) {
  Env* env = Env::Default();
  ScratchDir dir;
  const std::string nested = dir.path() + "/x/y/z";
  ASSERT_TRUE(env->CreateDirs(nested).ok());
  EXPECT_TRUE(env->FileExists(nested));
  // Idempotent.
  EXPECT_TRUE(env->CreateDirs(nested).ok());
}

TEST(EnvTest, TempRWFileIsUsable) {
  Env* env = Env::Default();
  ScratchDir dir;
  auto file = env->NewTempRWFile(dir.path());
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE((*file)->WriteAt(0, "data", 4).ok());
  char buf[4];
  size_t got = 0;
  ASSERT_TRUE((*file)->ReadAt(0, buf, 4, &got).ok());
  EXPECT_EQ(got, 4u);
  // Anonymous: nothing shows up in the directory listing.
  auto names = env->ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names->empty());
}

TEST(EnvTest, FaultInjectionFailNthWrite) {
  ScratchDir dir;
  FaultInjectionOptions options;
  options.fail_nth_write = 2;
  options.torn_writes = false;
  FaultInjectionEnv env(Env::Default(), options);
  auto file = env.NewWritableFile(dir.file("f"));
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("one", 3).ok());
  const Status second = (*file)->Append("two", 3);
  EXPECT_EQ(second.code(), StatusCode::kIoError);
  EXPECT_TRUE((*file)->Append("three", 5).ok());  // one-shot trigger
  ASSERT_EQ(env.trace().size(), 1u);
  EXPECT_EQ(env.trace()[0].kind, FaultKind::kWriteError);
  EXPECT_FALSE(env.TraceSummary().empty());
}

TEST(EnvTest, FaultInjectionTornWritePersistsPrefix) {
  ScratchDir dir;
  FaultInjectionOptions options;
  options.fail_nth_write = 1;
  options.torn_writes = true;
  FaultInjectionEnv env(Env::Default(), options);
  const std::string path = dir.file("torn");
  {
    auto file = env.NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    const std::string data(1000, 'a');
    EXPECT_EQ((*file)->Append(data.data(), data.size()).code(),
              StatusCode::kIoError);
    (void)(*file)->Close();
  }
  ASSERT_EQ(env.trace().size(), 1u);
  EXPECT_EQ(env.trace()[0].kind, FaultKind::kTornWrite);
  auto size = Env::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_LT(*size, 1000u);  // a strict prefix, never the whole write
}

TEST(EnvTest, FaultInjectionFailNthSync) {
  ScratchDir dir;
  FaultInjectionOptions options;
  options.fail_nth_sync = 1;
  FaultInjectionEnv env(Env::Default(), options);
  auto file = env.NewWritableFile(dir.file("s"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("x", 1).ok());
  EXPECT_EQ((*file)->Sync().code(), StatusCode::kIoError);
  EXPECT_TRUE((*file)->Sync().ok());  // one-shot
}

TEST(EnvTest, FaultInjectionCorruptNthRead) {
  ScratchDir dir;
  const std::string path = dir.file("r");
  {
    auto f = Env::Default()->NewWritableFile(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("abcdefgh", 8).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  FaultInjectionOptions options;
  options.corrupt_nth_read = 1;
  FaultInjectionEnv env(Env::Default(), options);
  auto file = env.NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  char buf[8];
  size_t got = 0;
  ASSERT_TRUE((*file)->ReadAt(0, buf, 8, &got).ok());
  ASSERT_EQ(got, 8u);
  EXPECT_NE(std::memcmp(buf, "abcdefgh", 8), 0);  // one bit flipped
  ASSERT_TRUE((*file)->ReadAt(0, buf, 8, &got).ok());
  EXPECT_EQ(std::memcmp(buf, "abcdefgh", 8), 0);  // next read is clean
}

TEST(EnvTest, FaultInjectionBreakIsPersistent) {
  ScratchDir dir;
  FaultInjectionOptions options;
  options.break_after_ops = 3;
  FaultInjectionEnv env(Env::Default(), options);
  auto file = env.NewWritableFile(dir.file("b"));
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("1", 1).ok());
  EXPECT_TRUE((*file)->Append("2", 1).ok());
  // Third matching op trips the break; everything after fails too.
  EXPECT_FALSE((*file)->Append("3", 1).ok());
  EXPECT_TRUE(env.broken());
  EXPECT_FALSE((*file)->Append("4", 1).ok());
  EXPECT_FALSE((*file)->Sync().ok());
}

TEST(EnvTest, FaultInjectionPathFilter) {
  ScratchDir dir;
  FaultInjectionOptions options;
  options.fail_nth_write = 1;
  options.torn_writes = false;
  options.path_filter = "wal";
  FaultInjectionEnv env(Env::Default(), options);
  auto other = env.NewWritableFile(dir.file("checkpoint.db"));
  ASSERT_TRUE(other.ok());
  // Non-matching files never fault and never advance the schedule.
  EXPECT_TRUE((*other)->Append("x", 1).ok());
  EXPECT_EQ(env.ops(), 0u);
  auto wal = env.NewWritableFile(dir.file("wal-001.log"));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->Append("x", 1).code(), StatusCode::kIoError);
}

TEST(EnvTest, FaultInjectionDeterministicSchedule) {
  auto run = [](uint64_t seed) {
    ScratchDir dir;
    FaultInjectionOptions options;
    options.seed = seed;
    options.mean_ops_between_faults = 10;
    options.sync_faults = true;
    FaultInjectionEnv env(Env::Default(), options);
    auto file = env.NewWritableFile(dir.file("d"));
    KANON_CHECK(file.ok());
    std::vector<uint64_t> fault_ops;
    for (int i = 0; i < 200; ++i) {
      (void)(*file)->Append("0123456789", 10);
      if (i % 10 == 9) (void)(*file)->Sync();
    }
    for (const FaultEvent& e : env.trace()) fault_ops.push_back(e.op);
    KANON_CHECK(!fault_ops.empty());
    return fault_ops;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace kanon
