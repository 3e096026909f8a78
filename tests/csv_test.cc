#include "data/csv.h"

#include <gtest/gtest.h>

#include <fstream>

#include "scratch_dir.h"

namespace kanon {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = dir_.file("table.csv"); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  testutil::ScratchDir dir_;
  std::string path_;
};

TEST_F(CsvTest, SplitLineTrimsFields) {
  const auto f = SplitCsvLine(" a , b,c ,, d ", ',');
  ASSERT_EQ(f.size(), 5u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
  EXPECT_EQ(f[3], "");
  EXPECT_EQ(f[4], "d");
}

TEST_F(CsvTest, ReadsNumericRows) {
  WriteFile("1,2.5,7\n3,4.5,9\n");
  auto ds = ReadNumericCsv(path_, Schema::Numeric(2));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_records(), 2u);
  EXPECT_EQ(ds->value(0, 1), 2.5);
  EXPECT_EQ(ds->sensitive(1), 9);
}

TEST_F(CsvTest, SkipsHeaderWhenAsked) {
  WriteFile("x,y\n1,2\n");
  CsvOptions options;
  options.skip_header = true;
  auto ds = ReadNumericCsv(path_, Schema::Numeric(2), options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_records(), 1u);
}

TEST_F(CsvTest, DropsRowsWithMissingValues) {
  WriteFile("1,2\n?,3\n4,5\n");
  auto ds = ReadNumericCsv(path_, Schema::Numeric(2));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_records(), 2u);
}

TEST_F(CsvTest, DropsMalformedRows) {
  WriteFile("1,2\nonly-one-field\n3,4,5,6\n7,8\n");
  auto ds = ReadNumericCsv(path_, Schema::Numeric(2));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_records(), 2u);
}

TEST_F(CsvTest, MissingFileIsIoError) {
  auto ds = ReadNumericCsv("/nonexistent/nope.csv", Schema::Numeric(1));
  EXPECT_EQ(ds.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, RoundTripWriteRead) {
  Dataset d(Schema::Numeric(2));
  d.Append({1.0, 2.0}, 3);
  d.Append({4.0, 5.0}, 6);
  ASSERT_TRUE(WriteCsv(d, path_).ok());
  CsvOptions options;
  options.skip_header = true;
  auto back = ReadNumericCsv(path_, Schema::Numeric(2), options);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_records(), 2u);
  EXPECT_EQ(back->value(1, 0), 4.0);
  EXPECT_EQ(back->sensitive(0), 3);
}

}  // namespace
}  // namespace kanon
