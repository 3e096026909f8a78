#include "anon/anonymized_table.h"

#include <gtest/gtest.h>

#include <fstream>

#include "anon/rtree_anonymizer.h"
#include "common/random.h"
#include "scratch_dir.h"

namespace kanon {
namespace {

Dataset PatientData() {
  // The paper's Figure 1 example: Age, Sex(0=M,1=F), Zipcode -> Ailment.
  auto sex = std::make_shared<Hierarchy>("*", 2);
  Schema schema({{"age", AttributeType::kNumeric, {}},
                 {"sex", AttributeType::kCategorical, sex},
                 {"zipcode", AttributeType::kNumeric, {}}},
                "ailment");
  Dataset d(schema);
  d.Append({21, 0, 53706}, 0);
  d.Append({26, 0, 53706}, 1);
  d.Append({32, 1, 53710}, 2);
  d.Append({36, 1, 53715}, 3);
  d.Append({48, 0, 52108}, 1);
  d.Append({56, 1, 52100}, 4);
  return d;
}

PartitionSet Pairs() {
  PartitionSet ps;
  for (int g = 0; g < 3; ++g) {
    Partition p;
    p.rids = {static_cast<RecordId>(2 * g), static_cast<RecordId>(2 * g + 1)};
    p.box = Mbr(3);
    ps.partitions.push_back(p);
  }
  return ps;
}

TEST(AnonymizedTableTest, FromPartitionsValidatesCover) {
  const Dataset d = PatientData();
  PartitionSet ps = Pairs();
  // Boxes are empty: cover check must fail.
  EXPECT_FALSE(AnonymizedTable::FromPartitions(d, ps).ok());
}

TEST(AnonymizedTableTest, RoutesRecordsToBoxes) {
  const Dataset d = PatientData();
  PartitionSet ps = Pairs();
  for (auto& p : ps.partitions) {
    Mbr box(3);
    for (RecordId r : p.rids) box.ExpandToInclude(d.row(r));
    p.box = box;
  }
  auto table = AnonymizedTable::FromPartitions(d, std::move(ps));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_records(), 6u);
  EXPECT_EQ(table->num_partitions(), 3u);
  EXPECT_EQ(table->PartitionOf(0), table->PartitionOf(1));
  EXPECT_NE(table->PartitionOf(0), table->PartitionOf(2));
  EXPECT_EQ(table->BoxOf(0).lo(0), 21.0);
  EXPECT_EQ(table->BoxOf(0).hi(0), 26.0);
  EXPECT_EQ(table->SensitiveOf(5), 4);
}

TEST(AnonymizedTableTest, RenderRowMatchesPaperStyle) {
  const Dataset d = PatientData();
  PartitionSet ps = Pairs();
  for (auto& p : ps.partitions) {
    Mbr box(3);
    for (RecordId r : p.rids) box.ExpandToInclude(d.row(r));
    p.box = box;
  }
  auto table = AnonymizedTable::FromPartitions(d, std::move(ps));
  ASSERT_TRUE(table.ok());
  // Row 0: age [21-26], sex single value 0, zip single value.
  EXPECT_EQ(table->RenderRow(d.schema(), 0), "[21 - 26], 0, 53706, 0");
  // Row 4: ages [48-56], sexes differ -> hierarchy root "*".
  EXPECT_EQ(table->RenderRow(d.schema(), 4),
            "[48 - 56], *, [52100 - 52108], 1");
}

TEST(AnonymizedTableTest, WriteCsvProducesParseableFile) {
  Rng rng(1);
  Dataset d(Schema::Numeric(2));
  for (int i = 0; i < 200; ++i) {
    d.Append({rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)}, i % 3);
  }
  auto ps = RTreeAnonymizer().Anonymize(d, 5);
  ASSERT_TRUE(ps.ok());
  auto table = AnonymizedTable::FromPartitions(d, *std::move(ps));
  ASSERT_TRUE(table.ok());
  const testutil::ScratchDir dir;
  const std::string path = dir.file("anon_table.csv");
  ASSERT_TRUE(table->WriteCsv(path, d.schema()).ok());
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 201u);  // header + one row per record
}

}  // namespace
}  // namespace kanon
