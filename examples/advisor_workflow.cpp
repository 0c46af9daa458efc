// A realistic end-to-end workflow using the library's convenience layers:
//
//   1. SuggestThresholds() derives per-attribute-set thresholds from a data
//      sample (no manual knob-tuning),
//   2. Phase1Builder streams tuples in one at a time (the data never needs
//      to be materialized as a Relation for Phase I),
//   3. Session::RunPhase2 forms the rules; the session's telemetry
//      snapshot counts tree rebuilds, graph edges and cliques,
//   4. MiningResultToJson exports everything for downstream tools.
//
// Run: ./build/examples/advisor_workflow [num_tuples] [seed]

#include <cstdlib>
#include <iostream>

#include "core/advisor.h"
#include "core/phase1_builder.h"
#include "core/report.h"
#include "core/session.h"
#include "datagen/fixtures.h"
#include "serve/query_service.h"

int main(int argc, char** argv) {
  using namespace dar;

  size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 9;

  auto data = GeneratePlanted(InsuranceSpec(), n, seed);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  const Schema& schema = data->relation.schema();

  // 1. Let the advisor pick thresholds from a sample.
  auto advice = SuggestThresholds(data->relation, data->partition);
  if (!advice.ok()) {
    std::cerr << advice.status() << "\n";
    return 1;
  }
  std::cout << "Advisor rationale:\n" << advice->rationale << "\n";

  DarConfig config;
  config.frequency_fraction = 0.08;
  config.initial_diameters = advice->initial_diameters;
  config.density_thresholds = advice->density_thresholds;
  config.degree_thresholds = advice->degree_thresholds;
  config.refine_clusters = true;

  // The session both phases record their telemetry into.
  auto session = Session::Builder().WithConfig(config).Build();
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }

  // 2. Stream Phase I row by row (here from the generated relation; in a
  //    real deployment, from a cursor or a file).
  auto builder = Phase1Builder::Make(
      config, schema, data->partition, /*executor=*/nullptr,
      telemetry::TelemetryContext(&session->metrics()));
  if (!builder.ok()) {
    std::cerr << builder.status() << "\n";
    return 1;
  }
  for (size_t r = 0; r < data->relation.num_rows(); ++r) {
    Status s = builder->AddRow(data->relation.Row(r));
    if (!s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }
  auto phase1 = std::move(*builder).Finish();
  if (!phase1.ok()) {
    std::cerr << phase1.status() << "\n";
    return 1;
  }

  // 3. Phase II from the summaries, through the Session. Its telemetry
  //    snapshot counts what both phases did.
  auto phase2 = session->RunPhase2(*phase1);
  if (!phase2.ok()) {
    std::cerr << phase2.status() << "\n";
    return 1;
  }
  const telemetry::Snapshot snapshot = session->metrics().TakeSnapshot();
  std::cout << "Telemetry saw " << snapshot.CounterOr("phase1.rebuilds")
            << " tree rebuilds, " << snapshot.CounterOr("phase2.graph_edges")
            << " graph edges and " << snapshot.CounterOr("phase2.cliques")
            << " cliques\n\n";

  DarMiningResult result{std::move(*phase1), std::move(*phase2)};
  std::cout << MiningResultSummary(result, schema, data->partition, 8);

  // 4. Machine-readable export.
  std::cout << "\nJSON report (first 600 chars):\n"
            << MiningResultToJson(result, schema, data->partition)
                   .substr(0, 600)
            << "...\n";

  // 5. Serve the batch result through dar::QueryService — the same facade
  //    streams and the TCP rule server use — so downstream code asks
  //    "which rules fire for this tuple?" without touching Phase I/II
  //    internals. MakeSnapshot wraps the result (building the rule index);
  //    AttachSnapshot pins it as the served generation.
  QueryService service;
  service.AttachSnapshot(
      QueryService::MakeSnapshot(std::move(result), data->partition), schema,
      data->partition);
  const std::vector<double> tuple0 = data->relation.Row(0);
  PointQueryRequest query;
  query.tuple = tuple0;  // the request views the tuple, it does not copy
  PointQueryResponse hits;
  if (Status s = service.PointQuery(query, hits); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "\nServing check: tuple 0 falls in " << hits.clusters.size()
            << " clusters and fires " << hits.total_rule_matches
            << " rules\n";
  return 0;
}
