#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "data/adult.h"
#include "data/agrawal_generator.h"
#include "data/landsend_generator.h"
#include "scratch_dir.h"

namespace kanon {
namespace {

TEST(AgrawalGeneratorTest, SchemaHasNineAttributes) {
  const Schema s = AgrawalGenerator::MakeSchema();
  EXPECT_EQ(s.dim(), 9u);
  EXPECT_EQ(s.attribute(0).name, "salary");
  EXPECT_EQ(s.attribute(8).name, "loan");
}

TEST(AgrawalGeneratorTest, ValueRangesMatchSpec) {
  const Dataset d = AgrawalGenerator(1).Generate(2000);
  ASSERT_EQ(d.num_records(), 2000u);
  for (RecordId r = 0; r < d.num_records(); ++r) {
    const double salary = d.value(r, 0);
    const double commission = d.value(r, 1);
    EXPECT_GE(salary, 20000.0);
    EXPECT_LE(salary, 150000.0);
    if (salary >= 75000.0) {
      EXPECT_EQ(commission, 0.0);
    } else {
      EXPECT_GE(commission, 10000.0);
      EXPECT_LE(commission, 75000.0);
    }
    EXPECT_GE(d.value(r, 2), 20.0);   // age
    EXPECT_LE(d.value(r, 2), 80.0);
    EXPECT_GE(d.value(r, 5), 0.0);    // zipcode
    EXPECT_LE(d.value(r, 5), 8.0);
    // hvalue depends on zipcode: in [0.5, 1.5] * 100k * (zip+1).
    const double zip = d.value(r, 5);
    EXPECT_GE(d.value(r, 6), 0.5 * 100000.0 * (zip + 1.0));
    EXPECT_LE(d.value(r, 6), 1.5 * 100000.0 * (zip + 1.0));
  }
}

TEST(AgrawalGeneratorTest, GroupLabelFollowsFunctionOne) {
  const Dataset d = AgrawalGenerator(2).Generate(500);
  for (RecordId r = 0; r < d.num_records(); ++r) {
    const double age = d.value(r, 2);
    const int32_t expected = (age < 40.0 || age >= 60.0) ? 0 : 1;
    EXPECT_EQ(d.sensitive(r), expected);
  }
}

TEST(AgrawalGeneratorTest, DeterministicAndAppendExtends) {
  AgrawalGenerator g(3);
  const Dataset a = g.Generate(100);
  const Dataset b = g.Generate(100);
  for (RecordId r = 0; r < 100; ++r) {
    EXPECT_EQ(a.value(r, 0), b.value(r, 0));
  }
  Dataset c = g.Generate(100);
  g.AppendTo(&c, 50, 1);
  EXPECT_EQ(c.num_records(), 150u);
  // Appended batch differs from the head batch (different stream).
  EXPECT_NE(c.value(100, 0), c.value(0, 0));
}

TEST(LandsEndGeneratorTest, SchemaHasEightAttributes) {
  const Schema s = LandsEndGenerator::MakeSchema();
  EXPECT_EQ(s.dim(), 8u);
  EXPECT_EQ(s.attribute(0).name, "zipcode");
  EXPECT_EQ(s.attribute(7).name, "shipment");
}

TEST(LandsEndGeneratorTest, RangesAndCorrelations) {
  const Dataset d = LandsEndGenerator(4).Generate(3000);
  for (RecordId r = 0; r < d.num_records(); ++r) {
    EXPECT_GE(d.value(r, 0), 501.0);    // zipcode
    EXPECT_LE(d.value(r, 0), 99950.0);
    EXPECT_GE(d.value(r, 1), 0.0);      // order day
    EXPECT_LT(d.value(r, 1), 3653.0);
    const double gender = d.value(r, 2);
    EXPECT_TRUE(gender == 0.0 || gender == 1.0);
    const double price = d.value(r, 4);
    const double cost = d.value(r, 6);
    EXPECT_GE(price, 5.0);
    EXPECT_LE(price, 500.0);
    EXPECT_LE(cost, price);  // cost is 40-70% of price
    EXPECT_GE(d.value(r, 5), 1.0);  // quantity
    EXPECT_LE(d.value(r, 5), 10.0);
  }
}

TEST(LandsEndGeneratorTest, ZipcodesAreClustered) {
  const Dataset d = LandsEndGenerator(5).Generate(5000);
  // A strong majority must fall within 3 sigma of one of the metro centers;
  // uniform data would not.
  const double centers[] = {10001, 60601, 90001, 77001,
                            30301, 98101, 2101,  53701};
  size_t near = 0;
  for (RecordId r = 0; r < d.num_records(); ++r) {
    for (double c : centers) {
      if (std::abs(d.value(r, 0) - c) < 4500.0) {
        ++near;
        break;
      }
    }
  }
  EXPECT_GT(near, d.num_records() * 9 / 10);
}

TEST(AdultTest, SynthesizeMatchesSchemaAndRanges) {
  const Dataset d = Adult::Synthesize(2000);
  EXPECT_EQ(d.dim(), 8u);
  for (RecordId r = 0; r < d.num_records(); ++r) {
    EXPECT_GE(d.value(r, 0), 17.0);  // age
    EXPECT_LE(d.value(r, 0), 90.0);
    EXPECT_GE(d.value(r, 2), 1.0);   // education_num
    EXPECT_LE(d.value(r, 2), 16.0);
    EXPECT_GE(d.value(r, 7), 1.0);   // hours
    EXPECT_LE(d.value(r, 7), 99.0);
    // sensitive is the occupation code.
    EXPECT_EQ(d.sensitive(r), static_cast<int32_t>(d.value(r, 4)));
  }
}

TEST(AdultTest, LoadParsesRawUciFormat) {
  const testutil::ScratchDir dir;
  const std::string path = dir.file("adult_sample.data");
  {
    std::ofstream out(path);
    out << "39, State-gov, 77516, Bachelors, 13, Never-married, "
           "Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, "
           "United-States, <=50K\n";
    out << "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, "
           "Exec-managerial, Husband, White, Male, 0, 0, 13, "
           "United-States, <=50K\n";
    out << "38, ?, 215646, HS-grad, 9, Divorced, Handlers-cleaners, "
           "Not-in-family, White, Male, 0, 0, 40, United-States, <=50K\n";
  }
  auto ds = Adult::Load(path);
  ASSERT_TRUE(ds.ok());
  // Third row has a missing workclass and is dropped.
  ASSERT_EQ(ds->num_records(), 2u);
  EXPECT_EQ(ds->value(0, 0), 39.0);               // age
  EXPECT_EQ(ds->value(0, 1), 5.0);                // State-gov code
  EXPECT_EQ(ds->value(1, 7), 13.0);               // hours
  EXPECT_EQ(ds->sensitive(0), 8);                 // Adm-clerical
}

TEST(AdultTest, LoadOrSynthesizeFallsBack) {
  const Dataset d = Adult::LoadOrSynthesize("/nonexistent/adult.data", 123);
  EXPECT_EQ(d.num_records(), 123u);
}

TEST(GeneratorsTest, SensitiveDiversityExists) {
  // l-diversity experiments need multiple sensitive values per data set.
  std::set<int32_t> landsend, adult;
  const Dataset l = LandsEndGenerator(6).Generate(1000);
  for (RecordId r = 0; r < l.num_records(); ++r) landsend.insert(l.sensitive(r));
  const Dataset a = Adult::Synthesize(1000);
  for (RecordId r = 0; r < a.num_records(); ++r) adult.insert(a.sensitive(r));
  EXPECT_GT(landsend.size(), 5u);
  EXPECT_GT(adult.size(), 5u);
}

}  // namespace
}  // namespace kanon
