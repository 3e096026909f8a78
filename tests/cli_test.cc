#include "cli_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/csv.h"
#include "data/schema.h"
#include "scratch_dir.h"

namespace kanon {
namespace {

using cli::CliOptions;
using cli::InferColumns;
using cli::ParseArgs;


bool Parse(std::initializer_list<const char*> args, CliOptions* options) {
  std::vector<const char*> argv = {"kanon_cli"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ParseArgs(static_cast<int>(argv.size()), argv.data(), options);
}

TEST(CliParseTest, RequiredFlags) {
  CliOptions options;
  EXPECT_FALSE(Parse({}, &options));
  EXPECT_FALSE(Parse({"--input", "a.csv"}, &options));
  CliOptions ok;
  EXPECT_TRUE(Parse({"--input", "a.csv", "--output", "b.csv"}, &ok));
  EXPECT_EQ(ok.k, 10u);  // default
}

TEST(CliParseTest, AllFlagsParse) {
  CliOptions o;
  ASSERT_TRUE(Parse({"--input", "a", "--output", "b", "--k", "25",
                     "--columns", "4", "--skip-header", "--algorithm",
                     "mondrian", "--recursive", "3.5,2", "--uncompacted",
                     "--bias", "0,2", "--metrics"},
                    &o));
  EXPECT_EQ(o.k, 25u);
  EXPECT_EQ(o.columns, 4u);
  EXPECT_TRUE(o.skip_header);
  EXPECT_EQ(o.algorithm, "mondrian");
  EXPECT_DOUBLE_EQ(o.recursive_c, 3.5);
  EXPECT_EQ(o.recursive_l, 2u);
  EXPECT_TRUE(o.uncompacted);
  EXPECT_EQ(o.bias, (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(o.metrics);
}

TEST(CliParseTest, RejectsUnknownFlagAndMissingValue) {
  CliOptions o;
  EXPECT_FALSE(Parse({"--input", "a", "--output", "b", "--frobnicate"}, &o));
  CliOptions o2;
  EXPECT_FALSE(Parse({"--input", "a", "--output", "b", "--k"}, &o2));
  CliOptions o3;
  EXPECT_FALSE(
      Parse({"--input", "a", "--output", "b", "--recursive", "3"}, &o3));
}

TEST(CliParseTest, ThreadsFlag) {
  CliOptions o;
  ASSERT_TRUE(Parse({"--input", "a", "--output", "b", "--threads", "4"}, &o));
  EXPECT_EQ(o.threads, 4u);
  CliOptions off;
  ASSERT_TRUE(Parse({"--input", "a", "--output", "b"}, &off));
  EXPECT_EQ(off.threads, 0u);  // default backend
  CliOptions bad;
  EXPECT_FALSE(Parse({"--input", "a", "--output", "b", "--threads"}, &bad));
  EXPECT_FALSE(
      Parse({"--input", "a", "--output", "b", "--threads", "0"}, &bad));
}

// A malformed number is a usage error, never the prefix that happens to
// parse or a default: the whole token must be a number.
TEST(CliParseTest, MalformedValuesAreUsageErrors) {
  const std::vector<std::pair<const char*, const char*>> malformed = {
      {"--k", "5x"},
      {"--entropy", "abc"},
      {"--bias", "1,x"},
      {"--recursive", "2,x"},
  };
  for (const auto& [flag, value] : malformed) {
    CliOptions o;
    EXPECT_FALSE(Parse({"--input", "a", "--output", "b", flag, value}, &o))
        << flag << " " << value;
  }
}

class CliRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = dir_.file("in.csv");
    output_ = dir_.file("out.csv");
    Rng rng(1);
    std::ofstream out(input_);
    for (int i = 0; i < 1000; ++i) {
      out << rng.UniformDouble(0, 100) << "," << rng.UniformDouble(0, 50)
          << "," << rng.Uniform(8) << "\n";
    }
  }
  size_t CountOutputRows() {
    std::ifstream in(output_);
    std::string line;
    size_t rows = 0;
    while (std::getline(in, line)) ++rows;
    return rows;
  }

  testutil::ScratchDir dir_;
  std::string input_;
  std::string output_;
};

TEST_F(CliRunTest, InferColumnsTreatsLastAsSensitive) {
  auto columns = InferColumns(input_);
  ASSERT_TRUE(columns.ok());
  EXPECT_EQ(*columns, 2u);
}

TEST_F(CliRunTest, InferColumnsReportsUnreadableFile) {
  auto columns = InferColumns("/nonexistent/x.csv");
  ASSERT_FALSE(columns.ok());
  EXPECT_EQ(columns.status().code(), StatusCode::kIoError);
  EXPECT_NE(columns.status().message().find("/nonexistent/x.csv"),
            std::string::npos);
}

TEST_F(CliRunTest, InferColumnsReportsEmptyFile) {
  const std::string empty = dir_.file("empty.csv");
  { std::ofstream out(empty); }
  auto columns = InferColumns(empty);
  ASSERT_FALSE(columns.ok());
  EXPECT_EQ(columns.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CliRunTest, EmptyInputProducesClearCliError) {
  const std::string empty = dir_.file("empty_in.csv");
  { std::ofstream out(empty); }
  CliOptions o;
  o.input = empty;
  o.output = output_;
  std::ostringstream log;
  EXPECT_EQ(cli::Run(o, log), 1);
  EXPECT_NE(log.str().find("empty"), std::string::npos) << log.str();
}

TEST_F(CliRunTest, RTreePipelineEndToEnd) {
  CliOptions o;
  o.input = input_;
  o.output = output_;
  o.k = 20;
  o.metrics = true;
  std::ostringstream log;
  EXPECT_EQ(cli::Run(o, log), 0);
  EXPECT_EQ(CountOutputRows(), 1001u);  // header + records
  EXPECT_NE(log.str().find("read 1000 records"), std::string::npos);
  EXPECT_NE(log.str().find("marginal utility"), std::string::npos);
}

TEST_F(CliRunTest, EveryAlgorithmRuns) {
  for (const char* algorithm : {"rtree", "mondrian", "grid"}) {
    CliOptions o;
    o.input = input_;
    o.output = output_;
    o.k = 15;
    o.algorithm = algorithm;
    std::ostringstream log;
    EXPECT_EQ(cli::Run(o, log), 0) << algorithm << ": " << log.str();
  }
}

TEST_F(CliRunTest, ThreadsSelectsSortedBulkLoadBackend) {
  CliOptions o;
  o.input = input_;
  o.output = output_;
  o.k = 15;
  o.threads = 2;
  std::ostringstream log;
  EXPECT_EQ(cli::Run(o, log), 0) << log.str();
  EXPECT_EQ(CountOutputRows(), 1001u);
  EXPECT_NE(log.str().find("top-down bulk load on 2 threads"),
            std::string::npos)
      << log.str();
}

TEST_F(CliRunTest, ConstraintSelectionLogsName) {
  CliOptions o;
  o.input = input_;
  o.output = output_;
  o.k = 15;
  o.entropy_l = 2.0;
  std::ostringstream log;
  EXPECT_EQ(cli::Run(o, log), 0);
  EXPECT_NE(log.str().find("entropy"), std::string::npos);
}

TEST_F(CliRunTest, UnknownAlgorithmFails) {
  CliOptions o;
  o.input = input_;
  o.output = output_;
  o.algorithm = "magic";
  std::ostringstream log;
  EXPECT_EQ(cli::Run(o, log), 1);
}

TEST_F(CliRunTest, MissingInputFails) {
  CliOptions o;
  o.input = "/nonexistent/in.csv";
  o.output = output_;
  std::ostringstream log;
  EXPECT_EQ(cli::Run(o, log), 1);
}

TEST(CliServeParseTest, ParsesFlagsAndRejectsUnknown) {
  cli::ServeOptions o;
  std::vector<const char*> argv = {"serve",  "--input", "a.csv",
                                   "--k",    "25",      "--producers",
                                   "4",      "--rate",  "5000",
                                   "--queue", "128",    "--batch",
                                   "32",     "--snapshot-every", "500",
                                   "--reject", "--release", "25,100"};
  ASSERT_TRUE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                  argv.data(), &o));
  EXPECT_EQ(o.input, "a.csv");
  EXPECT_EQ(o.service.service.anonymizer.base_k, 25u);
  EXPECT_EQ(o.producers, 4u);
  EXPECT_DOUBLE_EQ(o.rate, 5000.0);
  EXPECT_EQ(o.service.service.queue_capacity, 128u);
  EXPECT_EQ(o.service.service.max_batch, 32u);
  EXPECT_EQ(o.service.service.snapshot_every, 500u);
  EXPECT_EQ(o.service.service.backpressure, BackpressureMode::kReject);
  EXPECT_EQ(o.releases, (std::vector<size_t>{25, 100}));

  cli::ServeOptions missing;
  const char* none[] = {"serve"};
  EXPECT_FALSE(cli::ParseServeArgs(1, none, &missing));  // --input required
  cli::ServeOptions unknown;
  const char* bad[] = {"serve", "--input", "a", "--frobnicate"};
  EXPECT_FALSE(cli::ParseServeArgs(4, bad, &unknown));
}

// The write-absorbing ingest tier and its flags are gone: an old command
// line that still passes them is a usage error (kanon_cli prints usage and
// exits 2 whenever ParseServeArgs fails), never silently ignored.
TEST(CliServeParseTest, RemovedIngestTierFlagsAreUsageErrors) {
  const std::vector<std::vector<const char*>> removed = {
      {"serve", "--input", "a.csv", "--memtable-bytes", "1"},
      {"serve", "--input", "a.csv", "--merge-mode", "delta"},
      {"serve", "--input", "a.csv", "--merge-every", "20000"},
  };
  for (const auto& argv : removed) {
    cli::ServeOptions o;
    EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                     argv.data(), &o))
        << argv[3];
  }
}

TEST(CliServeParseTest, DurabilityFlagsBothSpellings) {
  cli::ServeOptions o;
  std::vector<const char*> argv = {
      "serve",        "--input",       "a.csv", "--wal-dir",
      "/tmp/wal",     "--fsync-every", "64",    "--checkpoint-every",
      "5000",         "--recover-only"};
  ASSERT_TRUE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                  argv.data(), &o));
  EXPECT_EQ(o.service.service.durability.wal_dir, "/tmp/wal");
  EXPECT_EQ(o.service.service.durability.fsync_every, 64u);
  EXPECT_EQ(o.service.service.durability.checkpoint_every, 5000u);
  EXPECT_TRUE(o.recover_only);

  // Underscore spellings are accepted too (matches the service option
  // names in docs and scripts).
  cli::ServeOptions u;
  std::vector<const char*> underscore = {
      "serve",      "--input",       "a.csv", "--wal_dir",
      "/tmp/wal2",  "--fsync_every", "1",     "--checkpoint_every",
      "100",        "--recover_only"};
  ASSERT_TRUE(cli::ParseServeArgs(static_cast<int>(underscore.size()),
                                  underscore.data(), &u));
  EXPECT_EQ(u.service.service.durability.wal_dir, "/tmp/wal2");
  EXPECT_EQ(u.service.service.durability.fsync_every, 1u);
  EXPECT_TRUE(u.recover_only);

  // --recover-only without --wal-dir is malformed.
  cli::ServeOptions bad;
  std::vector<const char*> no_dir = {"serve", "--input", "a.csv",
                                     "--recover-only"};
  EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(no_dir.size()),
                                   no_dir.data(), &bad));
}

TEST(CliServeParseTest, HttpFlags) {
  cli::ServeOptions o;
  std::vector<const char*> argv = {
      "serve",          "--listen", "0.0.0.0:8080", "--http-threads",
      "8",              "--max-body-bytes", "1024", "--domain",
      "0:100,-5:5",     "--serve-seconds", "2.5"};
  ASSERT_TRUE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                  argv.data(), &o));
  EXPECT_TRUE(o.listen);
  EXPECT_EQ(o.http.host, "0.0.0.0");
  EXPECT_EQ(o.http.port, 8080);
  EXPECT_EQ(o.http.num_threads, 8u);
  EXPECT_EQ(o.http.parser.max_body_bytes, 1024u);
  ASSERT_EQ(o.domain.dim(), 2u);
  EXPECT_DOUBLE_EQ(o.domain.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(o.domain.hi[0], 100.0);
  EXPECT_DOUBLE_EQ(o.domain.lo[1], -5.0);
  EXPECT_DOUBLE_EQ(o.domain.hi[1], 5.0);
  EXPECT_DOUBLE_EQ(o.serve_seconds, 2.5);
  // HTTP-only serving: --input is not required when --listen + --domain
  // supply the record source and dimensionality.
  EXPECT_TRUE(o.input.empty());

  // --listen without --domain (and no --input) has no record source.
  cli::ServeOptions no_domain;
  std::vector<const char*> nd = {"serve", "--listen", ":8080"};
  EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(nd.size()), nd.data(),
                                   &no_domain));

  // Inverted ranges and bad listen specs are malformed.
  cli::ServeOptions inverted;
  std::vector<const char*> inv = {"serve", "--listen", ":8080", "--domain",
                                  "5:1"};
  EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(inv.size()), inv.data(),
                                   &inverted));
  cli::ServeOptions bad_listen;
  std::vector<const char*> bl = {"serve", "--listen", "host:notaport",
                                 "--domain", "0:1"};
  EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(bl.size()), bl.data(),
                                   &bad_listen));
}

TEST(CliServeParseTest, ShardFlags) {
  cli::ServeOptions o;
  std::vector<const char*> argv = {"serve",      "--input", "a.csv",
                                   "--shards",   "4",       "--shard-by",
                                   "range"};
  ASSERT_TRUE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                  argv.data(), &o));
  EXPECT_EQ(o.service.sharding.num_shards, 4u);
  EXPECT_EQ(o.service.sharding.shard_by, ShardBy::kRange);

  cli::ServeOptions defaults;
  std::vector<const char*> plain = {"serve", "--input", "a.csv"};
  ASSERT_TRUE(cli::ParseServeArgs(static_cast<int>(plain.size()),
                                  plain.data(), &defaults));
  EXPECT_EQ(defaults.service.sharding.num_shards, 1u);
  EXPECT_EQ(defaults.service.sharding.shard_by, ShardBy::kHash);

  cli::ServeOptions underscore;
  std::vector<const char*> us = {"serve", "--input", "a.csv", "--shard_by",
                                 "hash"};
  EXPECT_TRUE(cli::ParseServeArgs(static_cast<int>(us.size()), us.data(),
                                  &underscore));

  cli::ServeOptions zero;
  std::vector<const char*> z = {"serve", "--input", "a.csv", "--shards",
                                "0"};
  EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(z.size()), z.data(),
                                   &zero));
  cli::ServeOptions bogus;
  std::vector<const char*> b = {"serve", "--input", "a.csv", "--shard-by",
                                "roundrobin"};
  EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(b.size()), b.data(),
                                   &bogus));
}

// Every serve flag value is parsed whole: a trailing letter, a sign on an
// unsigned, a non-finite bound or a non-number in a list is a usage error
// (kanon_cli prints usage and exits 2), not a silently different value.
TEST(CliServeParseTest, MalformedValuesAreUsageErrors) {
  const std::vector<std::pair<const char*, const char*>> malformed = {
      {"--snapshot-every", "abc"}, {"--k", "5x"},
      {"--k", "-1"},               {"--fsync-every", "-1"},
      {"--queue", "12x"},          {"--rate", "fast"},
      {"--domain", "0:1x0"},       {"--domain", "0:inf"},
      {"--release", "10,x"},       {"--max-staleness-ms", "5s"},
  };
  for (const auto& [flag, value] : malformed) {
    cli::ServeOptions o;
    const std::vector<const char*> argv = {"serve", "--input", "a.csv", flag,
                                           value};
    EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                     argv.data(), &o))
        << flag << " " << value;
  }
}

// The replica and DP flags land in the library option each one sets, in
// both spellings (an underscore reads as a hyphen).
TEST(CliServeParseTest, EveryFlagParses) {
  for (const bool underscore : {false, true}) {
    auto spell = [underscore](std::string flag) {
      if (underscore) std::replace(flag.begin() + 2, flag.end(), '-', '_');
      return flag;
    };
    const std::vector<std::string> args = {
        "serve",
        "--follow", "http://10.0.0.7:8080/",
        "--listen", ":0",
        "--domain", "0:1",
        spell("--max-staleness-ms"), "700",
        spell("--stale-reads"), "reject",
        spell("--repl-poll-ms"), "7",
        spell("--dp-height"), "12",
        spell("--dp-budget"), "2.5",
        spell("--dp-lifetime-budget"), "9",
        spell("--dp-key"), "s3cret",
        spell("--dp-metrics-utility")};
    std::vector<const char*> argv;
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    cli::ServeOptions o;
    ASSERT_TRUE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                    argv.data(), &o))
        << "underscore=" << underscore;
    EXPECT_TRUE(o.follow);
    EXPECT_EQ(o.follower.leader_host, "10.0.0.7");
    EXPECT_EQ(o.follower.leader_port, 8080);
    EXPECT_EQ(o.follower.max_staleness_ms, 700u);
    EXPECT_TRUE(o.follower.reject_stale_reads);
    EXPECT_EQ(o.follower.poll_interval_ms, 7u);
    EXPECT_EQ(o.service.service.dp_height, 12u);
    EXPECT_DOUBLE_EQ(o.dp.budget, 2.5);
    EXPECT_DOUBLE_EQ(o.dp.lifetime_budget, 9.0);
    EXPECT_EQ(o.dp.key_secret, "s3cret");
    EXPECT_TRUE(o.dp.utility_in_metrics);
  }

  // --follow without the scheme; --stale-reads serve is the default policy.
  cli::ServeOptions plain;
  const std::vector<const char*> p = {
      "serve",    "--follow", "127.0.0.1:9000", "--listen",    ":0",
      "--domain", "0:1",      "--stale-reads",  "serve"};
  ASSERT_TRUE(
      cli::ParseServeArgs(static_cast<int>(p.size()), p.data(), &plain));
  EXPECT_EQ(plain.follower.leader_host, "127.0.0.1");
  EXPECT_EQ(plain.follower.leader_port, 9000);
  EXPECT_FALSE(plain.follower.reject_stale_reads);

  // Out-of-bounds values are usage errors too.
  const std::vector<std::vector<const char*>> bad = {
      {"serve", "--follow", "127.0.0.1:0", "--listen", ":0", "--domain", "0:1"},
      {"serve", "--follow", "leader:x", "--listen", ":0", "--domain", "0:1"},
      {"serve", "--input", "a.csv", "--dp-height", "40"},
      {"serve", "--input", "a.csv", "--stale-reads", "maybe"},
      {"serve", "--input", "a.csv", "--repl-poll-ms", "0"},
  };
  for (const auto& argv : bad) {
    cli::ServeOptions o;
    EXPECT_FALSE(cli::ParseServeArgs(static_cast<int>(argv.size()),
                                     argv.data(), &o))
        << argv[1] << " " << argv[2];
  }
}

TEST(CliServeParseTest, ListenAddressForms) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(cli::ParseListenAddress("0.0.0.0:8080", &host, &port));
  EXPECT_EQ(host, "0.0.0.0");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(cli::ParseListenAddress(":9000", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  ASSERT_TRUE(cli::ParseListenAddress("7000", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7000);
  ASSERT_TRUE(cli::ParseListenAddress("localhost:0", &host, &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 0);  // ephemeral
  EXPECT_FALSE(cli::ParseListenAddress("", &host, &port));
  EXPECT_FALSE(cli::ParseListenAddress("host:", &host, &port));
  EXPECT_FALSE(cli::ParseListenAddress("host:70000", &host, &port));
  EXPECT_FALSE(cli::ParseListenAddress("host:12x", &host, &port));
}

TEST_F(CliRunTest, ServeModeEndToEnd) {
  cli::ServeOptions o;
  o.input = input_;
  o.service.service.anonymizer.base_k = 20;
  o.producers = 3;
  o.service.service.queue_capacity = 64;
  o.service.service.max_batch = 16;
  o.service.service.snapshot_every = 250;
  o.releases = {20, 50};
  std::ostringstream log;
  EXPECT_EQ(cli::RunServe(o, log), 0) << log.str();
  EXPECT_NE(log.str().find("read 1000 records"), std::string::npos);
  EXPECT_NE(log.str().find("inserted=1000"), std::string::npos);
  EXPECT_NE(log.str().find("records=1000"), std::string::npos);
  EXPECT_NE(log.str().find("release k1=50"), std::string::npos);
}

TEST_F(CliRunTest, ServeModeDurableRestartRecovers) {
  const std::string wal_dir = dir_.file("wal");

  cli::ServeOptions o;
  o.input = input_;
  o.service.service.anonymizer.base_k = 10;
  o.producers = 2;
  o.service.service.durability.wal_dir = wal_dir;
  o.service.service.durability.fsync_every = 32;
  o.service.service.durability.checkpoint_every = 400;
  {
    std::ostringstream log;
    EXPECT_EQ(cli::RunServe(o, log), 0) << log.str();
    EXPECT_NE(log.str().find("recovery: recovered=0"), std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("durability:"), std::string::npos);
  }
  // Restart in recover-only mode: everything the first run ingested comes
  // back, nothing is re-ingested.
  o.recover_only = true;
  {
    std::ostringstream log;
    EXPECT_EQ(cli::RunServe(o, log), 0) << log.str();
    EXPECT_NE(log.str().find("recovery: recovered=1000"), std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("records=1000"), std::string::npos);
  }
}

TEST_F(CliRunTest, ServeModeShardedEndToEnd) {
  cli::ServeOptions o;
  o.input = input_;
  o.service.service.anonymizer.base_k = 10;
  o.producers = 3;
  o.service.sharding.num_shards = 4;
  o.releases = {10, 40};
  std::ostringstream log;
  EXPECT_EQ(cli::RunServe(o, log), 0) << log.str();
  EXPECT_NE(log.str().find("inserted=1000"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("records=1000"), std::string::npos);
  // Per-shard breakdown lines appear for every shard.
  for (int s = 0; s < 4; ++s) {
    EXPECT_NE(log.str().find("shard " + std::to_string(s) + ": inserted="),
              std::string::npos)
        << log.str();
  }
  EXPECT_NE(log.str().find("release k1=40"), std::string::npos);
}

TEST_F(CliRunTest, ServeModeShardedDurableRestartRecoversPerShard) {
  const std::string wal_dir = dir_.file("wal");

  cli::ServeOptions o;
  o.input = input_;
  o.service.service.anonymizer.base_k = 10;
  o.producers = 2;
  o.service.sharding.num_shards = 2;
  o.service.service.durability.wal_dir = wal_dir;
  o.service.service.durability.fsync_every = 32;
  o.service.service.durability.checkpoint_every = 400;
  {
    std::ostringstream log;
    EXPECT_EQ(cli::RunServe(o, log), 0) << log.str();
    EXPECT_NE(log.str().find("recovery shard=0: recovered=0"),
              std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("recovery shard=1: recovered=0"),
              std::string::npos);
  }
  // Restart in recover-only mode: both shards replay their own WAL and
  // the stitched snapshot holds every record exactly once.
  o.recover_only = true;
  {
    std::ostringstream log;
    EXPECT_EQ(cli::RunServe(o, log), 0) << log.str();
    EXPECT_NE(log.str().find("recovery shard=0: recovered="),
              std::string::npos)
        << log.str();
    EXPECT_NE(log.str().find("records=1000"), std::string::npos)
        << log.str();
  }
  // Reopening the same directory with a different shard count is refused.
  o.service.sharding.num_shards = 4;
  {
    std::ostringstream log;
    EXPECT_EQ(cli::RunServe(o, log), 1);
    EXPECT_NE(log.str().find("--shards=2"), std::string::npos) << log.str();
  }
}

// `serve --follow` against an in-process durable leader: the follower
// replicates the leader's published epoch and reports it on the same
// "final snapshot:" line the leader prints.
TEST_F(CliRunTest, ServeFollowModeReportsLeadersRelease) {
  ShardedServiceOptions leader_options;
  leader_options.service.anonymizer.base_k = 5;
  leader_options.service.queue_capacity = 512;
  leader_options.service.max_batch = 32;
  leader_options.service.snapshot_every = 0;  // publish on demand
  leader_options.service.durability.wal_dir = dir_.file("leader");
  leader_options.service.durability.fsync_every = 8;
  Domain domain;
  domain.lo = {0, 0};
  domain.hi = {100, 100};
  auto leader =
      ShardedAnonymizationService::Create(2, domain, leader_options);
  ASSERT_TRUE(leader.ok()) << leader.status();
  net::AnonHttpFrontend frontend(leader->get(), {});
  net::HttpServerOptions http;
  http.num_threads = 2;
  net::HttpServer server(http, [&frontend](const net::HttpRequest& request) {
    return frontend.Handle(request);
  });
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> p = {static_cast<double>(i % 97),
                                   static_cast<double>((i * 7) % 89)};
    ASSERT_TRUE((*leader)->Ingest(p, i % 5).ok());
  }
  const auto published = (*leader)->PublishNow();
  ASSERT_NE(published, nullptr);

  const std::string follow = "127.0.0.1:" + std::to_string(server.port());
  const std::vector<const char*> argv = {
      "serve",       "--follow", follow.c_str(), "--listen",
      "127.0.0.1:0", "--domain", "0:100,0:100",  "--serve-seconds",
      "1.5"};
  cli::ServeOptions o;
  ASSERT_TRUE(
      cli::ParseServeArgs(static_cast<int>(argv.size()), argv.data(), &o));
  std::ostringstream log;
  EXPECT_EQ(cli::RunServe(o, log), 0) << log.str();
  EXPECT_NE(log.str().find("final snapshot: epoch=" +
                           std::to_string(published->info().epoch) +
                           " records=300 "),
            std::string::npos)
      << log.str();
  server.Shutdown();
  (*leader)->Stop();
}

TEST_F(CliRunTest, ServeModeMissingInputFails) {
  cli::ServeOptions o;
  o.input = "/nonexistent/in.csv";
  std::ostringstream log;
  EXPECT_EQ(cli::RunServe(o, log), 1);
  EXPECT_NE(log.str().find("/nonexistent/in.csv"), std::string::npos);
}

TEST_F(CliRunTest, SchemaSpecDrivesNames) {
  const std::string spec_path = dir_.file("spec.txt");
  {
    std::ofstream out(spec_path);
    out << "attribute alpha numeric\nattribute beta numeric\n"
        << "sensitive code\n";
  }
  CliOptions o;
  o.input = input_;
  o.output = output_;
  o.schema_path = spec_path;
  o.k = 15;
  std::ostringstream log;
  EXPECT_EQ(cli::Run(o, log), 0);
  std::ifstream in(output_);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "alpha,beta,code");
}

}  // namespace
}  // namespace kanon
