#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "anon/rtree_anonymizer.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/random.h"
#include "durability/checkpoint.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "service/anonymization_service.h"
#include "scratch_dir.h"

namespace kanon {
namespace {

namespace fs = std::filesystem;

using testutil::ScratchDir;

struct Entry {
  uint64_t lsn;
  std::vector<double> point;
  int32_t sensitive;
};

std::vector<Entry> CollectReplay(const std::string& dir, size_t dim,
                                 uint64_t from_lsn, WalReplayResult* result) {
  std::vector<Entry> entries;
  const Status status = ReplayWal(
      dir, dim, from_lsn,
      [&](uint64_t lsn, std::span<const double> point, int32_t sensitive) {
        entries.push_back(
            {lsn, {point.begin(), point.end()}, sensitive});
      },
      result);
  EXPECT_TRUE(status.ok()) << status;
  return entries;
}

long FileSize(const std::string& path) {
  return static_cast<long>(fs::file_size(path));
}

TEST(Crc32Test, KnownVectorsAndChaining) {
  // The standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Incremental computation matches one-shot.
  const char data[] = "hello, checksummed world";
  const uint32_t whole = Crc32(data, sizeof(data) - 1);
  uint32_t chained = Crc32(data, 7);
  chained = Crc32(data + 7, sizeof(data) - 1 - 7, chained);
  EXPECT_EQ(chained, whole);
}

TEST(DurabilityWalTest, RoundTrip) {
  ScratchDir dir;
  const size_t dim = 3;
  Rng rng(7);
  std::vector<Entry> written;
  {
    auto wal = WalWriter::Open(dir.path(), dim, /*next_lsn=*/1);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (uint64_t lsn = 1; lsn <= 100; ++lsn) {
      std::vector<double> p = {rng.UniformDouble(0, 1), rng.UniformDouble(0, 1),
                               rng.UniformDouble(0, 1)};
      ASSERT_TRUE((*wal)->Append(lsn, p, static_cast<int32_t>(lsn % 4)).ok());
      written.push_back({lsn, std::move(p), static_cast<int32_t>(lsn % 4)});
    }
    ASSERT_TRUE((*wal)->Sync().ok());
    EXPECT_EQ((*wal)->stats().appended, 100u);
    EXPECT_EQ((*wal)->stats().synced_lsn, 100u);
  }
  WalReplayResult result;
  const auto replayed = CollectReplay(dir.path(), dim, 1, &result);
  EXPECT_EQ(result.replayed, 100u);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_EQ(result.max_lsn, 100u);
  EXPECT_FALSE(result.truncated_tail);
  ASSERT_EQ(replayed.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replayed[i].lsn, written[i].lsn);
    EXPECT_EQ(replayed[i].point, written[i].point);
    EXPECT_EQ(replayed[i].sensitive, written[i].sensitive);
  }
  // from_lsn skips the prefix (replay idempotence).
  const auto tail = CollectReplay(dir.path(), dim, 51, &result);
  EXPECT_EQ(result.replayed, 50u);
  EXPECT_EQ(result.skipped, 50u);
  EXPECT_EQ(tail.front().lsn, 51u);
}

TEST(DurabilityWalTest, TornTailIsTruncatedNotFatal) {
  ScratchDir dir;
  const size_t dim = 2;
  {
    auto wal = WalWriter::Open(dir.path(), dim, 1);
    ASSERT_TRUE(wal.ok());
    const std::vector<double> p = {1.0, 2.0};
    for (uint64_t lsn = 1; lsn <= 10; ++lsn) {
      ASSERT_TRUE((*wal)->Append(lsn, p, 0).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Simulate a crash mid-append: tack half an entry onto the segment.
  std::string segment;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    segment = e.path().string();
  }
  ASSERT_FALSE(segment.empty());
  const long intact_size = FileSize(segment);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    const char garbage[] = "\x1c\x00\x00\x00\xde\xad\xbe\xef torn";
    out.write(garbage, sizeof(garbage));
  }
  WalReplayResult result;
  const auto entries = CollectReplay(dir.path(), dim, 1, &result);
  EXPECT_EQ(entries.size(), 10u);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_GT(result.truncated_bytes, 0u);
  // The torn bytes are physically gone: a second replay is clean.
  EXPECT_EQ(FileSize(segment), intact_size);
  WalReplayResult second;
  CollectReplay(dir.path(), dim, 1, &second);
  EXPECT_EQ(second.replayed, 10u);
  EXPECT_FALSE(second.truncated_tail);
}

TEST(DurabilityWalTest, CorruptEntryInFinalSegmentTruncates) {
  ScratchDir dir;
  const size_t dim = 2;
  {
    auto wal = WalWriter::Open(dir.path(), dim, 1);
    ASSERT_TRUE(wal.ok());
    const std::vector<double> p = {3.0, 4.0};
    for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
      ASSERT_TRUE((*wal)->Append(lsn, p, 1).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::string segment;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    segment = e.path().string();
  }
  // Flip one byte inside the last entry's payload.
  {
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);
    f.put('\x42');
  }
  WalReplayResult result;
  const auto entries = CollectReplay(dir.path(), dim, 1, &result);
  EXPECT_EQ(entries.size(), 4u);  // entries 1..4 survive, 5 is cut off
  EXPECT_TRUE(result.truncated_tail);
}

TEST(DurabilityWalTest, SegmentRotationAndTruncation) {
  ScratchDir dir;
  const size_t dim = 2;
  WalOptions options;
  options.segment_bytes = 256;  // a handful of entries per segment
  {
    auto wal = WalWriter::Open(dir.path(), dim, 1, options);
    ASSERT_TRUE(wal.ok());
    const std::vector<double> p = {5.0, 6.0};
    for (uint64_t lsn = 1; lsn <= 50; ++lsn) {
      ASSERT_TRUE((*wal)->Append(lsn, p, 0).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
    EXPECT_GT((*wal)->stats().segments, 3u);
  }
  WalReplayResult result;
  CollectReplay(dir.path(), dim, 1, &result);
  EXPECT_EQ(result.replayed, 50u);
  EXPECT_GT(result.segments, 3u);

  // A checkpoint at LSN 25 makes every fully-covered older segment
  // removable; replay afterwards still yields exactly the tail.
  auto removed = TruncateWalBefore(dir.path(), 25);
  ASSERT_TRUE(removed.ok());
  EXPECT_GT(*removed, 0u);
  WalReplayResult after;
  const auto entries = CollectReplay(dir.path(), dim, 26, &after);
  EXPECT_EQ(after.replayed, 25u);
  for (const auto& e : entries) EXPECT_GT(e.lsn, 25u);
}

// The three WAL readers — ReplayWal (crash recovery), ReadWalRange (the
// leader's /repl/wal) and DecodeWalFrames (the follower) — must agree on a
// damaged log: the same intact prefix, and Corruption in the same cases.

constexpr size_t kReaderDim = 2;
constexpr uint64_t kReaderEntries = 40;
// Segment layout at dim 2 (see wal.h): a 28-byte header, then entries of
// [u32 len][u32 crc] + [u64 lsn][i32 sensitive][2 × f64].
constexpr long kHeaderBytes = 28;
constexpr long kEntryBytes = 8 + 8 + 4 + 2 * 8;
constexpr long kPayloadOffset = 8;

std::vector<std::string> SegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator(dir)) {
    paths.push_back(e.path().string());
  }
  std::sort(paths.begin(), paths.end());  // zero-padded names: log order
  return paths;
}

/// Writes kReaderEntries entries over several small segments and returns
/// the segment paths in log order.
std::vector<std::string> WriteSegmentedWal(const std::string& dir) {
  WalOptions options;
  options.fsync_every = 0;
  options.segment_bytes = 256;
  auto wal = WalWriter::Open(dir, kReaderDim, 1, options);
  KANON_CHECK(wal.ok());
  for (uint64_t lsn = 1; lsn <= kReaderEntries; ++lsn) {
    const std::vector<double> p = {static_cast<double>(lsn),
                                   static_cast<double>(lsn * 3 % 11)};
    KANON_CHECK((*wal)->Append(lsn, p, static_cast<int32_t>(lsn % 4)).ok());
  }
  KANON_CHECK((*wal)->Sync().ok());
  return SegmentPaths(dir);
}

void FlipByte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x40));
}

void AppendBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path, long offset, long n) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(offset);
  std::string bytes(static_cast<size_t>(n), '\0');
  in.read(bytes.data(), n);
  return bytes;
}

/// Entries the newest segment holds.
uint64_t NewestEntries(const std::vector<std::string>& paths) {
  return static_cast<uint64_t>((FileSize(paths.back()) - kHeaderBytes) /
                               kEntryBytes);
}

struct ReaderOutcome {
  StatusCode range_code = StatusCode::kOk;
  StatusCode replay_code = StatusCode::kOk;
  std::vector<Entry> shipped;   // ReadWalRange, then DecodeWalFrames
  std::vector<Entry> replayed;  // ReplayWal
  bool truncated = false;
};

/// Runs the read-only range read (and the follower's decode of it) first,
/// then recovery's replay, which may truncate.
ReaderOutcome ReadWithEveryReader(const std::string& dir) {
  ReaderOutcome out;
  auto collect = [](std::vector<Entry>* into) {
    return [into](uint64_t lsn, std::span<const double> point,
                  int32_t sensitive) {
      into->push_back({lsn, {point.begin(), point.end()}, sensitive});
    };
  };
  auto range = ReadWalRange(dir, kReaderDim, 1, UINT64_MAX, 1u << 20);
  out.range_code = range.status().code();
  if (range.ok()) {
    const Status decoded =
        DecodeWalFrames(range->frames, kReaderDim, collect(&out.shipped));
    EXPECT_TRUE(decoded.ok()) << decoded;
  }
  WalReplayResult replay;
  out.replay_code =
      ReplayWal(dir, kReaderDim, 1, collect(&out.replayed), &replay).code();
  out.truncated = replay.truncated_tail;
  return out;
}

void ExpectSamePrefix(const ReaderOutcome& out, uint64_t last_lsn,
                      bool truncated) {
  ASSERT_EQ(out.range_code, StatusCode::kOk);
  ASSERT_EQ(out.replay_code, StatusCode::kOk);
  EXPECT_EQ(out.truncated, truncated);
  ASSERT_EQ(out.shipped.size(), last_lsn);
  ASSERT_EQ(out.replayed.size(), last_lsn);
  for (size_t i = 0; i < last_lsn; ++i) {
    EXPECT_EQ(out.shipped[i].lsn, i + 1);
    EXPECT_EQ(out.replayed[i].lsn, i + 1);
    EXPECT_EQ(out.shipped[i].point, out.replayed[i].point);
    EXPECT_EQ(out.shipped[i].sensitive, out.replayed[i].sensitive);
  }
}

void ExpectBothCorrupt(const ReaderOutcome& out) {
  EXPECT_EQ(out.range_code, StatusCode::kCorruption);
  EXPECT_EQ(out.replay_code, StatusCode::kCorruption);
}

TEST(DurabilityWalReaderTest, TornBytesOnNewestSegment) {
  ScratchDir dir;
  const auto paths = WriteSegmentedWal(dir.path());
  ASSERT_GT(paths.size(), 2u);
  AppendBytes(paths.back(), std::string("\x24\x00\x00\x00\xde\xad", 6));
  ExpectSamePrefix(ReadWithEveryReader(dir.path()), kReaderEntries,
                   /*truncated=*/true);
  // Recovery cut the torn bytes off: every reader now sees a clean log.
  ExpectSamePrefix(ReadWithEveryReader(dir.path()), kReaderEntries,
                   /*truncated=*/false);
}

TEST(DurabilityWalReaderTest, FlippedPayloadByteInNewestSegment) {
  ScratchDir dir;
  const auto paths = WriteSegmentedWal(dir.path());
  const uint64_t newest = NewestEntries(paths);
  ASSERT_GE(newest, 3u);
  // Damage the newest segment's third entry: its first two survive.
  FlipByte(paths.back(),
           kHeaderBytes + 2 * kEntryBytes + kPayloadOffset + 12);
  const uint64_t last_intact = kReaderEntries - newest + 2;
  ExpectSamePrefix(ReadWithEveryReader(dir.path()), last_intact,
                   /*truncated=*/true);
  EXPECT_EQ(FileSize(paths.back()), kHeaderBytes + 2 * kEntryBytes);
}

TEST(DurabilityWalReaderTest, FlippedByteInSealedSegment) {
  ScratchDir dir;
  const auto paths = WriteSegmentedWal(dir.path());
  ASSERT_GT(paths.size(), 2u);
  const long size = FileSize(paths[1]);
  FlipByte(paths[1], kHeaderBytes + kEntryBytes + kPayloadOffset + 12);
  ExpectBothCorrupt(ReadWithEveryReader(dir.path()));
  EXPECT_EQ(FileSize(paths[1]), size);  // sealed damage is never truncated
}

TEST(DurabilityWalReaderTest, HeaderOnlyNewestSegment) {
  ScratchDir dir;
  WriteSegmentedWal(dir.path());
  // A writer that opened its segment and crashed before the first append.
  ASSERT_TRUE(
      WalWriter::Open(dir.path(), kReaderDim, kReaderEntries + 1).ok());
  const auto paths = SegmentPaths(dir.path());
  ASSERT_EQ(FileSize(paths.back()), kHeaderBytes);
  ExpectSamePrefix(ReadWithEveryReader(dir.path()), kReaderEntries,
                   /*truncated=*/false);
}

TEST(DurabilityWalReaderTest, BackwardsLsnWithValidChecksumInNewestSegment) {
  ScratchDir dir;
  const auto paths = WriteSegmentedWal(dir.path());
  // Re-append the newest segment's first entry: a checksum-valid entry
  // whose LSN goes backwards.
  const std::string first_entry =
      ReadBytes(paths.back(), kHeaderBytes, kEntryBytes);
  AppendBytes(paths.back(), first_entry);
  ExpectBothCorrupt(ReadWithEveryReader(dir.path()));

  // The follower's decoder applies the same rule to frames on the wire.
  std::string frames;
  for (const std::string& path : paths) {
    frames += ReadBytes(path, kHeaderBytes, FileSize(path) - kHeaderBytes);
  }
  std::vector<uint64_t> delivered;
  const Status decoded = DecodeWalFrames(
      frames, kReaderDim,
      [&](uint64_t lsn, std::span<const double>, int32_t) {
        delivered.push_back(lsn);
      });
  EXPECT_EQ(decoded.code(), StatusCode::kCorruption);
  EXPECT_EQ(delivered.size(), kReaderEntries);
}

TEST(DurabilityCheckpointTest, ManifestRoundTripIsAtomic) {
  ScratchDir dir;
  CheckpointManifest manifest;
  manifest.dim = 2;
  manifest.min_leaf = 3;
  manifest.max_leaf = 9;
  manifest.max_fanout = 4;
  manifest.page_size = 4096;
  manifest.checkpoint_lsn = 1234;
  manifest.snapshot.first_page = 0;
  manifest.snapshot.byte_size = 99;
  manifest.snapshot.record_count = 7;
  manifest.snapshot.crc32 = 0xabcdef01;
  manifest.file = "checkpoint-00000000000000001234.db";
  ASSERT_TRUE(StoreManifest(dir.path(), manifest).ok());
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) / "MANIFEST.tmp"));

  auto loaded = LoadManifest(dir.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dim, 2u);
  EXPECT_EQ(loaded->checkpoint_lsn, 1234u);
  EXPECT_EQ(loaded->snapshot.record_count, 7u);
  EXPECT_EQ(loaded->snapshot.crc32, 0xabcdef01u);
  EXPECT_EQ(loaded->file, manifest.file);

  // A damaged manifest is Corruption, a missing one NotFound.
  {
    std::fstream f((fs::path(dir.path()) / "MANIFEST").string(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.put('\x7f');
  }
  EXPECT_EQ(LoadManifest(dir.path()).status().code(), StatusCode::kCorruption);
  fs::remove(fs::path(dir.path()) / "MANIFEST");
  EXPECT_EQ(LoadManifest(dir.path()).status().code(), StatusCode::kNotFound);
}

RTreeAnonymizerOptions SmallAnonOptions() {
  RTreeAnonymizerOptions options;
  options.base_k = 3;
  options.max_fanout = 4;
  return options;
}

std::vector<std::vector<double>> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n);
  for (auto& p : points) {
    p = {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
  }
  return points;
}

TEST(DurabilityRecoveryTest, CheckpointPlusWalTail) {
  ScratchDir dir;
  const auto points = RandomPoints(200, 11);
  IncrementalAnonymizer original(2, SmallAnonOptions());
  {
    auto wal = WalWriter::Open(dir.path(), 2, 1);
    ASSERT_TRUE(wal.ok());
    Checkpointer checkpointer(dir.path());
    for (uint64_t lsn = 1; lsn <= 200; ++lsn) {
      ASSERT_TRUE(
          (*wal)->Append(lsn, points[lsn - 1], static_cast<int32_t>(lsn % 3))
              .ok());
      original.Insert(points[lsn - 1], lsn - 1, static_cast<int32_t>(lsn % 3));
      if (lsn == 120) {
        ASSERT_TRUE((*wal)->Sync().ok());
        ASSERT_TRUE(checkpointer.Checkpoint(original.tree(), 120).ok());
      }
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }

  IncrementalAnonymizer recovered(2, SmallAnonOptions());
  RecoveryOptions options;
  options.dir = dir.path();
  auto result = RecoverInto(options, &recovered);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->loaded_checkpoint);
  EXPECT_EQ(result->checkpoint_lsn, 120u);
  EXPECT_EQ(result->checkpoint_records, 120u);
  EXPECT_EQ(result->replayed, 80u);
  EXPECT_EQ(result->recovered, 200u);
  EXPECT_EQ(result->next_lsn, 201u);

  // Identical leaf partitioning — the recovered index publishes exactly
  // the equivalence classes the uninterrupted one would.
  const auto a = original.tree().OrderedLeaves();
  const auto b = recovered.tree().OrderedLeaves();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a[i]->rids(), b[i]->rids()));
    EXPECT_EQ(Mbr::FromView(a[i]->mbr()), Mbr::FromView(b[i]->mbr()));
  }
  ASSERT_TRUE(recovered.tree().CheckInvariants().ok());
}

TEST(DurabilityRecoveryTest, FreshDirectoryRecoversToEmpty) {
  ScratchDir dir;
  IncrementalAnonymizer anonymizer(2, SmallAnonOptions());
  RecoveryOptions options;
  options.dir = dir.path() + "/does_not_exist_yet";
  auto result = RecoverInto(options, &anonymizer);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->recovered, 0u);
  EXPECT_EQ(result->next_lsn, 1u);
  EXPECT_FALSE(result->loaded_checkpoint);
}

TEST(DurabilityRecoveryTest, DetectsCorruptCheckpoint) {
  ScratchDir dir;
  IncrementalAnonymizer original(2, SmallAnonOptions());
  const auto points = RandomPoints(60, 13);
  for (size_t i = 0; i < points.size(); ++i) {
    original.Insert(points[i], i, 0);
  }
  Checkpointer checkpointer(dir.path());
  ASSERT_TRUE(checkpointer.Checkpoint(original.tree(), 60).ok());

  auto manifest = LoadManifest(dir.path());
  ASSERT_TRUE(manifest.ok());
  {
    const std::string path =
        (fs::path(dir.path()) / manifest->file).string();
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(300);
    char byte = 0;
    f.seekg(300);
    f.get(byte);
    f.seekp(300);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  IncrementalAnonymizer recovered(2, SmallAnonOptions());
  RecoveryOptions options;
  options.dir = dir.path();
  auto result = RecoverInto(options, &recovered);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(DurabilityRecoveryTest, RejectsMismatchedConfiguration) {
  ScratchDir dir;
  IncrementalAnonymizer original(2, SmallAnonOptions());
  const auto points = RandomPoints(40, 17);
  for (size_t i = 0; i < points.size(); ++i) {
    original.Insert(points[i], i, 0);
  }
  Checkpointer checkpointer(dir.path());
  ASSERT_TRUE(checkpointer.Checkpoint(original.tree(), 40).ok());

  RTreeAnonymizerOptions different = SmallAnonOptions();
  different.base_k = 7;  // different min_leaf/max_leaf
  IncrementalAnonymizer recovered(2, different);
  RecoveryOptions options;
  options.dir = dir.path();
  auto result = RecoverInto(options, &recovered);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

ServiceOptions DurableServiceOptions(const std::string& dir) {
  ServiceOptions options;
  options.anonymizer.base_k = 5;
  options.snapshot_every = 0;
  options.durability.wal_dir = dir;
  options.durability.fsync_every = 16;
  options.durability.checkpoint_every = 150;
  return options;
}

TEST(DurabilityServiceTest, RestartRecoversEverything) {
  ScratchDir dir;
  Domain domain;
  domain.lo = {0, 0};
  domain.hi = {1000, 1000};
  const auto points = RandomPoints(400, 19);

  // Session 1: ingest the first half, stop gracefully.
  {
    auto service =
        AnonymizationService::Create(2, domain, DurableServiceOptions(dir.path()));
    ASSERT_TRUE(service.ok()) << service.status();
    EXPECT_EQ((*service)->recovery().recovered, 0u);
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*service)->Ingest(points[i], static_cast<int32_t>(i % 3)).ok());
    }
    (*service)->Stop();
    const ServiceStats stats = (*service)->Stats();
    EXPECT_TRUE(stats.durable);
    EXPECT_EQ(stats.wal_appended, 200u);
    EXPECT_EQ(stats.wal_synced_lsn, 200u);
    EXPECT_GE(stats.checkpoints, 1u);
  }

  // Session 2: recovery restores all 200, then the second half goes in.
  {
    auto service =
        AnonymizationService::Create(2, domain, DurableServiceOptions(dir.path()));
    ASSERT_TRUE(service.ok()) << service.status();
    EXPECT_EQ((*service)->recovery().recovered, 200u);
    // Recovery republishes immediately: readers see the restored release
    // before any new ingest.
    ASSERT_NE((*service)->CurrentSnapshot(), nullptr);
    EXPECT_EQ((*service)->CurrentSnapshot()->info().records, 200u);
    for (size_t i = 200; i < 400; ++i) {
      ASSERT_TRUE(
          (*service)->Ingest(points[i], static_cast<int32_t>(i % 3)).ok());
    }
    (*service)->Stop();
    EXPECT_EQ((*service)->Stats().recovered, 200u);
  }

  // Session 3: everything is there exactly once, and the release is
  // k-anonymous.
  {
    auto service =
        AnonymizationService::Create(2, domain, DurableServiceOptions(dir.path()));
    ASSERT_TRUE(service.ok());
    EXPECT_EQ((*service)->recovery().recovered, 400u);
    auto release = (*service)->GetRelease(5);
    ASSERT_TRUE(release.ok());
    EXPECT_TRUE(release->CheckKAnonymous(5).ok());
    (*service)->Stop();
  }
}

TEST(DurabilityServiceTest, NonDurableServiceReportsNoDurability) {
  Domain domain;
  domain.lo = {0, 0};
  domain.hi = {10, 10};
  ServiceOptions options;
  options.anonymizer.base_k = 3;
  AnonymizationService service(2, domain, options);
  service.Stop();
  EXPECT_FALSE(service.Stats().durable);
  EXPECT_EQ(service.recovery().recovered, 0u);
}

}  // namespace
}  // namespace kanon
