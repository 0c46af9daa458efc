#ifndef DAR_PERSIST_CODEC_H_
#define DAR_PERSIST_CODEC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "birch/acf_tree.h"
#include "common/executor.h"
#include "common/result.h"
#include "core/config.h"
#include "core/miner_result.h"
#include "core/model.h"
#include "core/phase1_builder.h"
#include "persist/wire.h"
#include "relation/partition.h"
#include "relation/schema.h"
#include "telemetry/context.h"

namespace dar::persist {

/// Section codecs for the checkpoint container (checkpoint_io.h). Each
/// Encode* returns a complete section payload; each Decode* re-validates
/// everything it reads (counts against remaining bytes, enum ranges,
/// cross-references against the schema/partition/layout), because a CRC
/// only rules out accidental corruption of valid bytes — it does not make
/// the bytes trustworthy.
///
/// Decoded summaries are bit-exact: doubles round-trip as raw IEEE-754
/// bits, so re-mining a restored Phase1Builder yields rules bit-identical
/// to the original run (Thm 6.1: Phase II is a pure function of the ACF
/// summaries).

// --- schema / dictionaries / partition / config ---

[[nodiscard]] std::string EncodeSchemaSection(const Schema& schema);
Result<Schema> DecodeSchemaSection(std::string_view bytes);

[[nodiscard]] std::string EncodeDictionariesSection(
    std::span<const Dictionary> dictionaries);
Result<std::vector<Dictionary>> DecodeDictionariesSection(
    std::string_view bytes);

[[nodiscard]] std::string EncodePartitionSection(
    const AttributePartition& partition);
/// Rebuilds through AttributePartition::Make, so all of Make's validation
/// (disjointness, schema bounds, nominal/discrete agreement) re-runs.
Result<AttributePartition> DecodePartitionSection(std::string_view bytes,
                                                  const Schema& schema);

/// Serializes every numeric/vector knob.
[[nodiscard]] std::string EncodeConfigSection(const DarConfig& config);
Result<DarConfig> DecodeConfigSection(std::string_view bytes);

// --- shard provenance ---

/// Provenance of one input shard, recorded in the kShards section of
/// merged checkpoints (persist/merge.h) and of stream checkpoints whose
/// StreamConfig::shard_id was set.
struct ShardInfo {
  /// Caller-assigned shard identity; -1 = anonymous. MergeCheckpoints
  /// requires non-negative ids to be unique across its inputs.
  int64_t shard_id = -1;
  /// Tuples this shard contributed.
  int64_t rows = 0;
};

[[nodiscard]] std::string EncodeShardsSection(
    std::span<const ShardInfo> shards);
Result<std::vector<ShardInfo>> DecodeShardsSection(std::string_view bytes);

// --- ACF-trees and Phase1Builder ---

/// Exact structural serialization of one tree: options, threshold,
/// counters, outlier buffers, then a preorder walk of the node structure.
/// Deliberately NOT a re-insertion log — InsertSummary could merge or
/// reorder entries, and ExtractClusters() order (hence cluster ids, hence
/// rule identities) must survive a round-trip bit-identically.
void EncodeTree(const AcfTree& tree, WireWriter& w);

/// Rebuilds a tree against `layout` (decoded images are validated against
/// it). When DAR_VALIDATE_INVARIANTS is defined the decoded tree is
/// additionally run through AcfTree::ValidateInvariants, so a CRC-valid
/// but semantically corrupt tree (e.g. version-skewed bytes) fails here
/// with the offending node path in the error.
Result<std::unique_ptr<AcfTree>> DecodeTree(
    WireReader& r, std::shared_ptr<const AcfLayout> layout,
    size_t expect_part);

[[nodiscard]] std::string EncodeBuilderSection(const Phase1Builder& builder);

/// Restores a builder ready to absorb more rows. `config` is the
/// *restoring* session's config — pass the original config for exact
/// continuation, or a config with different d0/frequency thresholds for
/// warm re-mining over the same summaries without data access. Tree
/// structure/options come from the file.
Result<Phase1Builder> DecodeBuilderSection(
    std::string_view bytes, const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor = nullptr,
    telemetry::TelemetryContext telemetry = {});

// --- mining results (RuleSnapshot payload) ---

/// Generation + rows + Phase1Result + Phase2Result. dar_persist does not
/// link dar_stream, so the RuleSnapshot object itself is (re)assembled by
/// the stream layer from these parts.
[[nodiscard]] std::string EncodeResultsSection(uint64_t generation,
                                               int64_t rows_ingested,
                                               const Phase1Result& phase1,
                                               const Phase2Result& phase2);

struct DecodedResults {
  uint64_t generation = 0;
  int64_t rows_ingested = 0;
  Phase1Result phase1;
  Phase2Result phase2;
};
Result<DecodedResults> DecodeResultsSection(std::string_view bytes);

}  // namespace dar::persist

#endif  // DAR_PERSIST_CODEC_H_
