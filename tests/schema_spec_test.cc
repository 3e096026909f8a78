#include "data/schema_spec.h"

#include <gtest/gtest.h>

#include <fstream>

#include "scratch_dir.h"

namespace kanon {
namespace {

constexpr char kAdultSpec[] = R"(
# Adult-like schema
attribute age numeric
attribute workclass categorical
hierarchy workclass 8
node workclass private 0 0
node workclass self-employed 1 2
node workclass government 3 5
node workclass federal 3 3 government
node workclass local-state 4 5 government
node workclass not-working 6 7
attribute hours numeric
sensitive occupation
)";

TEST(SchemaSpecTest, ParsesAttributesAndSensitive) {
  auto schema = ParseSchemaSpec(kAdultSpec);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->dim(), 3u);
  EXPECT_EQ(schema->attribute(0).name, "age");
  EXPECT_EQ(schema->attribute(0).type, AttributeType::kNumeric);
  EXPECT_EQ(schema->attribute(1).name, "workclass");
  EXPECT_EQ(schema->attribute(1).type, AttributeType::kCategorical);
  EXPECT_EQ(schema->sensitive_name(), "occupation");
}

TEST(SchemaSpecTest, BuildsNestedHierarchy) {
  auto schema = ParseSchemaSpec(kAdultSpec);
  ASSERT_TRUE(schema.ok());
  const auto& h = schema->attribute(1).hierarchy;
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->num_leaves(), 8);
  EXPECT_EQ(h->LcaLabel(3, 5), "government");
  EXPECT_EQ(h->LcaLabel(4, 5), "local-state");
  EXPECT_EQ(h->LcaLabel(3, 3), "federal");
  EXPECT_EQ(h->LcaLabel(0, 7), "*");
  EXPECT_TRUE(h->Validate().ok());
}

TEST(SchemaSpecTest, CommentsAndBlanksIgnored) {
  auto schema = ParseSchemaSpec(
      "\n# heading\nattribute x numeric  # trailing\n\n");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->dim(), 1u);
}

TEST(SchemaSpecTest, RejectsUnknownKeyword) {
  EXPECT_EQ(ParseSchemaSpec("colum x numeric\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaSpecTest, RejectsUnknownType) {
  EXPECT_EQ(ParseSchemaSpec("attribute x integer\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaSpecTest, RejectsDuplicateAttribute) {
  EXPECT_FALSE(
      ParseSchemaSpec("attribute x numeric\nattribute x numeric\n").ok());
}

TEST(SchemaSpecTest, RejectsHierarchyOnNumeric) {
  EXPECT_FALSE(
      ParseSchemaSpec("attribute x numeric\nhierarchy x 4\n").ok());
}

TEST(SchemaSpecTest, RejectsNodeWithoutHierarchy) {
  EXPECT_FALSE(ParseSchemaSpec(
                   "attribute x categorical\nnode x a 0 1\n")
                   .ok());
}

TEST(SchemaSpecTest, RejectsNodeRangeGaps) {
  const char* spec =
      "attribute x categorical\n"
      "hierarchy x 6\n"
      "node x a 0 1\n"
      "node x b 3 5\n";  // gap: 2 missing
  EXPECT_FALSE(ParseSchemaSpec(spec).ok());
}

TEST(SchemaSpecTest, RejectsUnknownParent) {
  const char* spec =
      "attribute x categorical\n"
      "hierarchy x 4\n"
      "node x a 0 1 nonexistent\n";
  EXPECT_FALSE(ParseSchemaSpec(spec).ok());
}

TEST(SchemaSpecTest, EmptySpecRejected) {
  EXPECT_FALSE(ParseSchemaSpec("# nothing here\n").ok());
}

TEST(SchemaSpecTest, LoadFromFile) {
  const testutil::ScratchDir dir;
  const std::string path = dir.file("schema_spec.txt");
  {
    std::ofstream out(path);
    out << kAdultSpec;
  }
  auto schema = LoadSchemaSpec(path);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->dim(), 3u);
  EXPECT_EQ(LoadSchemaSpec("/nonexistent/x").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace kanon
