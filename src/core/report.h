#ifndef DAR_CORE_REPORT_H_
#define DAR_CORE_REPORT_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/miner_result.h"
#include "relation/partition.h"

namespace dar {

/// Serializes a mining result as JSON for downstream tools: the run's
/// thresholds, every frequent cluster (part, size, centroid, bounding box,
/// diameter) and every rule (cluster ids, degree, optional support).
/// Clusters are referenced by id from the rules, so the output is
/// self-contained. Compact JSON; doubles use the shortest form that parses
/// back exactly, and non-finite values are written as null.
std::string MiningResultToJson(const DarMiningResult& result,
                               const Schema& schema,
                               const AttributePartition& partition);

/// Writes MiningResultToJson to `out`.
Status WriteMiningReport(const DarMiningResult& result, const Schema& schema,
                         const AttributePartition& partition,
                         std::ostream& out);

/// Plain-text summary (counts, thresholds, the strongest rules) for logs
/// and CLIs. `max_rules` bounds the rule listing.
std::string MiningResultSummary(const DarMiningResult& result,
                                const Schema& schema,
                                const AttributePartition& partition,
                                size_t max_rules = 20);

}  // namespace dar

#endif  // DAR_CORE_REPORT_H_
