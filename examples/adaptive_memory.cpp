// Demonstrates the adaptive behaviour at the heart of the paper (§3): the
// same 30-attribute WBCD-like dataset is mined under shrinking memory
// budgets. With plenty of memory the ACF-trees keep fine-grained clusters;
// under pressure each tree raises its diameter threshold and rebuilds
// itself from summaries (never rescanning the data), trading cluster
// granularity for footprint.
//
// Run: ./build/examples/adaptive_memory [num_tuples] [seed]

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/session.h"
#include "datagen/planted.h"

int main(int argc, char** argv) {
  using namespace dar;

  size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 30000;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1997;

  PlantedDataSpec spec = WbcdLikeSpec(/*num_attrs=*/30,
                                      /*clusters_per_attr=*/35,
                                      /*outlier_fraction=*/0.2, seed);
  auto data = GeneratePlanted(spec, n, seed + 1);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  std::cout << "WBCD-like dataset: " << n << " tuples x 30 attributes, "
            << "35 planted clusters per attribute, 20% outliers\n\n";
  std::cout << std::setw(12) << "memory" << std::setw(12) << "clusters"
            << std::setw(12) << "frequent" << std::setw(10) << "rebuilds"
            << std::setw(14) << "max thresh" << std::setw(10) << "seconds"
            << "\n";

  for (size_t mb : {64, 16, 4, 1}) {
    DarConfig config;
    config.memory_budget_bytes = mb << 20;
    config.frequency_fraction = 0.01;
    auto session = Session::Builder()
                       .WithConfig(config)
                       .WithThreads(0)  // parts build concurrently
                       .Build();
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    auto phase1 = session->RunPhase1(data->relation, data->partition);
    if (!phase1.ok()) {
      std::cerr << phase1.status() << "\n";
      return 1;
    }
    // The session's telemetry counts every rebuild as it happens — the
    // same number Phase1Result reports per tree after the fact.
    const int64_t rebuilds =
        session->metrics().TakeSnapshot().CounterOr("phase1.rebuilds");
    size_t raw = 0;
    double max_threshold = 0;
    for (size_t p = 0; p < phase1->raw_cluster_counts.size(); ++p) {
      raw += phase1->raw_cluster_counts[p];
      max_threshold =
          std::max(max_threshold, phase1->tree_stats[p].threshold);
    }
    std::cout << std::setw(10) << mb << "MB" << std::setw(12) << raw
              << std::setw(12) << phase1->clusters.size() << std::setw(10)
              << rebuilds << std::setw(14)
              << std::fixed << std::setprecision(2) << max_threshold
              << std::setw(10) << phase1->seconds << "\n";
  }
  std::cout << "\nLess memory => more rebuilds, higher thresholds, coarser "
               "clusters - the\nquality/footprint dial of the adaptive "
               "algorithm.\n";
  return 0;
}
