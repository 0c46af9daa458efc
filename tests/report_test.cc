#include "core/report.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "common/random.h"
#include "core/session.h"
#include "datagen/planted.h"

namespace dar {
namespace {

DarMiningResult MineSmall(const PlantedDataset& data) {
  DarConfig config;
  config.memory_budget_bytes = 8u << 20;
  config.frequency_fraction = 0.05;
  config.initial_diameters = {80.0, 80.0};
  config.degree_threshold = 150.0;
  config.count_rule_support = true;
  auto session = Session::Builder().WithConfig(config).Build();
  EXPECT_TRUE(session.ok());
  auto result = session->Mine(data.relation, data.partition);
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie().result;
}

TEST(ReportTest, JsonContainsClustersAndRules) {
  PlantedDataSpec spec = WbcdLikeSpec(2, 2, 0.0, 61);
  auto data = GeneratePlanted(spec, 1000, 62);
  ASSERT_TRUE(data.ok());
  DarMiningResult result = MineSmall(*data);
  ASSERT_GT(result.phase1.clusters.size(), 0u);
  ASSERT_GT(result.phase2.rules.size(), 0u);

  std::string json =
      MiningResultToJson(result, data->relation.schema(), data->partition);
  EXPECT_NE(json.find("\"clusters\""), std::string::npos);
  EXPECT_NE(json.find("\"rules\""), std::string::npos);
  EXPECT_NE(json.find("\"degree\""), std::string::npos);
  EXPECT_NE(json.find("\"support_count\""), std::string::npos);
  EXPECT_NE(json.find("\"box\""), std::string::npos);
  EXPECT_NE(json.find("attr0"), std::string::npos);

  // Structural sanity: balanced braces and brackets.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ReportTest, WriteReportToStream) {
  PlantedDataSpec spec = WbcdLikeSpec(2, 2, 0.0, 63);
  auto data = GeneratePlanted(spec, 800, 64);
  ASSERT_TRUE(data.ok());
  DarMiningResult result = MineSmall(*data);
  std::ostringstream out;
  ASSERT_TRUE(WriteMiningReport(result, data->relation.schema(),
                                data->partition, out)
                  .ok());
  EXPECT_FALSE(out.str().empty());
}

TEST(ReportTest, SummaryListsRulesAndCaps) {
  PlantedDataSpec spec = WbcdLikeSpec(3, 3, 0.0, 65);
  auto data = GeneratePlanted(spec, 2000, 66);
  ASSERT_TRUE(data.ok());
  DarMiningResult result = MineSmall(*data);
  std::string summary = MiningResultSummary(
      result, data->relation.schema(), data->partition, /*max_rules=*/2);
  EXPECT_NE(summary.find("Phase I:"), std::string::npos);
  EXPECT_NE(summary.find("Phase II:"), std::string::npos);
  if (result.phase2.rules.size() > 2) {
    EXPECT_NE(summary.find("more"), std::string::npos);
  }
}

TEST(ReportTest, EscapesSpecialCharactersInLabels) {
  // A quote or a tab in an attribute name must not break the JSON, and
  // large coordinates must survive the trip through text exactly.
  Schema s = *Schema::Make({{"a\"b", AttributeKind::kInterval},
                            {"c\td", AttributeKind::kInterval}});
  Relation rel(s);
  Rng rng(67);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(rel.AppendRow({rng.Gaussian(10, 1),
                               rng.Gaussian(1234567.89, 1)})
                    .ok());
  }
  AttributePartition part = AttributePartition::SingletonPartition(s);
  DarConfig config;
  config.frequency_fraction = 0.5;
  config.initial_diameters = {5.0, 5.0};
  auto session = Session::Builder().WithConfig(config).Build();
  ASSERT_TRUE(session.ok());
  auto result = session->Mine(rel, part);
  ASSERT_TRUE(result.ok());
  std::string json = MiningResultToJson(result->result, s, part);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("c\\td"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);

  // The i-th "centroid" array belongs to cluster i; its first coordinate
  // parses back to the exact double.
  const ClusterSet& clusters = result->result.phase1.clusters;
  const std::string key = "\"centroid\":[";
  size_t pos = 0;
  bool saw_large = false;
  for (size_t i = 0; i < clusters.size(); ++i) {
    pos = json.find(key, pos);
    ASSERT_NE(pos, std::string::npos) << "cluster " << i;
    pos += key.size();
    double parsed = std::strtod(json.c_str() + pos, nullptr);
    double expect = clusters.cluster(i).acf.Centroid()[0];
    EXPECT_EQ(parsed, expect) << "cluster " << i;
    saw_large = saw_large || expect >= 1e6;
  }
  EXPECT_TRUE(saw_large);
}

}  // namespace
}  // namespace dar
