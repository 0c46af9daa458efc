#include "core/report.h"

#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "telemetry/json.h"

namespace dar {

namespace {

void WriteIdList(const std::vector<size_t>& ids, telemetry::JsonWriter& w) {
  w.BeginArray();
  for (size_t id : ids) w.Int(static_cast<int64_t>(id));
  w.EndArray();
}

void WriteDoubles(const std::vector<double>& values,
                  telemetry::JsonWriter& w) {
  w.BeginArray();
  for (double v : values) w.Double(v);
  w.EndArray();
}

}  // namespace

std::string MiningResultToJson(const DarMiningResult& result,
                               const Schema& schema,
                               const AttributePartition& partition) {
  const Phase1Result& p1 = result.phase1;
  const Phase2Result& p2 = result.phase2;
  telemetry::JsonWriter w;
  w.BeginObject();

  w.Key("parts");
  w.BeginArray();
  for (size_t p = 0; p < partition.num_parts(); ++p) {
    w.String(partition.part(p).label);
  }
  w.EndArray();

  w.Key("frequency_threshold");
  w.Int(p1.frequency_threshold);
  w.Key("effective_d0");
  WriteDoubles(p1.effective_d0, w);

  w.Key("clusters");
  w.BeginArray();
  for (size_t i = 0; i < p1.clusters.size(); ++i) {
    const FoundCluster& c = p1.clusters.cluster(i);
    w.BeginObject();
    w.Key("id");
    w.Int(static_cast<int64_t>(c.id));
    w.Key("part");
    w.Int(static_cast<int64_t>(c.part));
    w.Key("n");
    w.Int(c.acf.n());
    w.Key("centroid");
    WriteDoubles(c.acf.Centroid(), w);
    w.Key("box");
    w.BeginArray();
    for (const auto& [lo, hi] : c.acf.BoundingBox(c.part)) {
      w.BeginArray();
      w.Double(lo);
      w.Double(hi);
      w.EndArray();
    }
    w.EndArray();
    w.Key("diameter");
    w.Double(c.acf.Diameter());
    w.Key("label");
    w.String(p1.clusters.Describe(c.id, schema, partition));
    w.EndObject();
  }
  w.EndArray();

  w.Key("rules");
  w.BeginArray();
  for (const DistanceRule& rule : p2.rules) {
    w.BeginObject();
    w.Key("antecedent");
    WriteIdList(rule.antecedent, w);
    w.Key("consequent");
    WriteIdList(rule.consequent, w);
    w.Key("degree");
    w.Double(rule.degree);
    if (rule.support_count >= 0) {
      w.Key("support_count");
      w.Int(rule.support_count);
    }
    w.EndObject();
  }
  w.EndArray();

  w.Key("stats");
  w.BeginObject();
  w.Key("cliques");
  w.Int(static_cast<int64_t>(p2.cliques.size()));
  w.Key("nontrivial_cliques");
  w.Int(static_cast<int64_t>(p2.num_nontrivial_cliques));
  w.Key("graph_edges");
  w.Int(static_cast<int64_t>(p2.graph_edges));
  w.Key("rules_truncated");
  w.Bool(p2.rules_truncated);
  w.Key("cliques_truncated");
  w.Bool(p2.cliques_truncated);
  w.Key("clique_cap_truncated");
  w.Bool(p2.clique_cap_truncated);
  w.Key("clique_steps_truncated");
  w.Bool(p2.clique_steps_truncated);
  w.Key("phase1_seconds");
  w.Double(p1.seconds);
  w.Key("phase2_seconds");
  w.Double(p2.seconds);
  w.EndObject();

  w.EndObject();
  return std::move(w).TakeStr();
}

Status WriteMiningReport(const DarMiningResult& result, const Schema& schema,
                         const AttributePartition& partition,
                         std::ostream& out) {
  out << MiningResultToJson(result, schema, partition) << '\n';
  if (!out) return Status::IOError("report write failed");
  return Status::OK();
}

std::string MiningResultSummary(const DarMiningResult& result,
                                const Schema& schema,
                                const AttributePartition& partition,
                                size_t max_rules) {
  const Phase1Result& p1 = result.phase1;
  const Phase2Result& p2 = result.phase2;
  std::ostringstream os;
  os << "Phase I: " << p1.clusters.size() << " frequent clusters (s0 = "
     << p1.frequency_threshold << " tuples, " << p1.seconds << "s)\n";
  os << "Phase II: " << p2.graph_edges << " edges, "
     << p2.num_nontrivial_cliques << " non-trivial cliques, "
     << p2.rules.size() << " rules (" << p2.seconds << "s)";
  if (p2.rules_truncated) os << " [rules truncated]";
  if (p2.clique_cap_truncated) os << " [clique cap hit]";
  if (p2.clique_steps_truncated) os << " [clique step budget hit]";
  // Restored checkpoints only carry the combined legacy signal.
  if (p2.cliques_truncated && !p2.clique_cap_truncated &&
      !p2.clique_steps_truncated) {
    os << " [cliques truncated]";
  }
  os << "\n";
  size_t shown = 0;
  for (const auto& rule : p2.rules) {
    if (shown++ >= max_rules) {
      os << "  ... " << (p2.rules.size() - max_rules) << " more\n";
      break;
    }
    os << "  " << rule.ToString(p1.clusters, schema, partition) << "\n";
  }
  return os.str();
}

}  // namespace dar
