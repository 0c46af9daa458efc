#include "persist/merge.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/stopwatch.h"
#include "core/session.h"
#include "persist/checkpoint_io.h"

namespace dar::persist {
namespace {

Status Contextualize(const std::string& path, const Status& status) {
  return {status.code(), "'" + path + "': " + status.message()};
}

/// Name of the first knob on which the two configs disagree, or "" when
/// they agree on every serialized knob.
std::string FirstConfigDiff(const DarConfig& a, const DarConfig& b) {
  if (a.memory_budget_bytes != b.memory_budget_bytes)
    return "memory_budget_bytes";
  if (a.frequency_fraction != b.frequency_fraction)
    return "frequency_fraction";
  if (a.outlier_fraction != b.outlier_fraction) return "outlier_fraction";
  if (a.initial_diameters != b.initial_diameters) return "initial_diameters";
  if (a.tree.branching_factor != b.tree.branching_factor)
    return "tree.branching_factor";
  if (a.tree.leaf_capacity != b.tree.leaf_capacity)
    return "tree.leaf_capacity";
  if (a.tree.initial_threshold != b.tree.initial_threshold)
    return "tree.initial_threshold";
  if (a.tree.memory_budget_bytes != b.tree.memory_budget_bytes)
    return "tree.memory_budget_bytes";
  if (a.tree.threshold_growth != b.tree.threshold_growth)
    return "tree.threshold_growth";
  if (a.tree.outlier_entry_min_n != b.tree.outlier_entry_min_n)
    return "tree.outlier_entry_min_n";
  if (a.tree.max_rebuilds_per_insert != b.tree.max_rebuilds_per_insert)
    return "tree.max_rebuilds_per_insert";
  if (a.refine_clusters != b.refine_clusters) return "refine_clusters";
  if (a.metric != b.metric) return "metric";
  if (a.degree_threshold != b.degree_threshold) return "degree_threshold";
  if (a.degree_thresholds != b.degree_thresholds)
    return "degree_thresholds";
  if (a.density_thresholds != b.density_thresholds)
    return "density_thresholds";
  if (a.phase2_leniency != b.phase2_leniency) return "phase2_leniency";
  if (a.prune_low_density_images != b.prune_low_density_images)
    return "prune_low_density_images";
  if (a.max_antecedent != b.max_antecedent) return "max_antecedent";
  if (a.max_consequent != b.max_consequent) return "max_consequent";
  if (a.max_rules != b.max_rules) return "max_rules";
  if (a.max_cliques != b.max_cliques) return "max_cliques";
  if (a.count_rule_support != b.count_rule_support)
    return "count_rule_support";
  return "";
}

bool PartitionsEqual(const AttributePartition& a,
                     const AttributePartition& b) {
  if (a.num_parts() != b.num_parts()) return false;
  for (size_t p = 0; p < a.num_parts(); ++p) {
    if (a.part(p).columns != b.part(p).columns ||
        a.part(p).metric != b.part(p).metric) {
      return false;
    }
  }
  return true;
}

/// Everything decoded from one shard checkpoint except the builder, whose
/// (large) payload is re-fetched from `reader` once the effective config
/// is known.
struct ShardMeta {
  CheckpointReader reader;
  DarConfig config;
  Schema schema;
  AttributePartition partition;
  std::vector<Dictionary> dictionaries;
  std::vector<ShardInfo> shards;
  bool has_shards = false;
};

Result<ShardMeta> LoadShardMeta(const std::string& path) {
  DAR_ASSIGN_OR_RETURN(CheckpointReader reader, CheckpointReader::Open(path));
  DAR_ASSIGN_OR_RETURN(std::string_view config_bytes,
                       reader.Section(SectionId::kConfig));
  DAR_ASSIGN_OR_RETURN(DarConfig config, DecodeConfigSection(config_bytes));
  DAR_ASSIGN_OR_RETURN(std::string_view schema_bytes,
                       reader.Section(SectionId::kSchema));
  DAR_ASSIGN_OR_RETURN(Schema schema, DecodeSchemaSection(schema_bytes));
  DAR_ASSIGN_OR_RETURN(std::string_view partition_bytes,
                       reader.Section(SectionId::kPartition));
  DAR_ASSIGN_OR_RETURN(AttributePartition partition,
                       DecodePartitionSection(partition_bytes, schema));
  std::vector<Dictionary> dictionaries;
  if (reader.HasSection(SectionId::kDictionaries)) {
    DAR_ASSIGN_OR_RETURN(std::string_view dict_bytes,
                         reader.Section(SectionId::kDictionaries));
    DAR_ASSIGN_OR_RETURN(dictionaries,
                         DecodeDictionariesSection(dict_bytes));
  }
  std::vector<ShardInfo> shards;
  bool has_shards = false;
  if (reader.HasSection(SectionId::kShards)) {
    DAR_ASSIGN_OR_RETURN(std::string_view shard_bytes,
                         reader.Section(SectionId::kShards));
    DAR_ASSIGN_OR_RETURN(shards, DecodeShardsSection(shard_bytes));
    has_shards = true;
  }
  ShardMeta meta{std::move(reader), std::move(config),   std::move(schema),
                 std::move(partition), std::move(dictionaries),
                 std::move(shards), has_shards};
  return meta;
}

/// Folds `from` into `into` under the prefix rule: codes are baked into
/// the shards' summaries and cannot be remapped, so per column the shorter
/// dictionary must be a code-for-code prefix of the longer, which wins.
Status ReconcileDictionaries(std::vector<Dictionary>& into,
                             const std::vector<Dictionary>& from,
                             const std::string& path) {
  if (from.empty()) return Status::OK();
  if (into.empty()) {
    into = from;
    return Status::OK();
  }
  if (into.size() != from.size()) {
    return Status::InvalidArgument(
        "'" + path + "': has " + std::to_string(from.size()) +
        " dictionaries but earlier checkpoints have " +
        std::to_string(into.size()));
  }
  for (size_t d = 0; d < into.size(); ++d) {
    const size_t common = std::min(into[d].size(), from[d].size());
    for (size_t code = 0; code < common; ++code) {
      const std::string a =
          into[d].Decode(static_cast<double>(code)).ValueOrDie();
      const std::string b =
          from[d].Decode(static_cast<double>(code)).ValueOrDie();
      if (a != b) {
        return Status::InvalidArgument(
            "'" + path + "': dictionary " + std::to_string(d) +
            " maps code " + std::to_string(code) + " to '" + b +
            "' but earlier checkpoints map it to '" + a +
            "'; nominal codes are baked into the summaries and cannot be "
            "remapped");
      }
    }
    if (from[d].size() > into[d].size()) into[d] = from[d];
  }
  return Status::OK();
}

}  // namespace

Result<MergedCheckpoint> MergeCheckpoints(std::span<const std::string> paths,
                                          const MergeOptions& options) {
  if (paths.empty()) {
    return Status::InvalidArgument(
        "MergeCheckpoints needs at least one checkpoint path");
  }
  Stopwatch watch;
  telemetry::TelemetryContext telemetry = options.telemetry;

  auto first_or = LoadShardMeta(paths[0]);
  if (!first_or.ok()) return Contextualize(paths[0], first_or.status());
  ShardMeta first = std::move(first_or).ValueOrDie();

  // The merged builder is rebuilt under the caller's config when given
  // (warm re-mine, same semantics as Session::RestoreCheckpoint) and the
  // inputs' own shared config otherwise.
  const DarConfig& effective =
      options.config != nullptr ? *options.config : first.config;
  DAR_RETURN_IF_ERROR(effective.Validate());

  DAR_ASSIGN_OR_RETURN(std::string_view builder_bytes,
                       first.reader.Section(SectionId::kBuilder));
  auto builder_or = DecodeBuilderSection(
      builder_bytes, effective, first.schema, first.partition,
      options.executor, telemetry);
  if (!builder_or.ok()) return Contextualize(paths[0], builder_or.status());
  Phase1Builder merged = std::move(builder_or).ValueOrDie();
  if (merged.rows_added() == 0) {
    return Status::InvalidArgument("'" + paths[0] +
                                   "': shard checkpoint is empty (0 rows)");
  }

  std::vector<Dictionary> dictionaries = std::move(first.dictionaries);
  std::vector<ShardInfo> shards = std::move(first.shards);
  // `provenance_path[k]` names the file that contributed shards[k], for
  // the duplicate-id diagnostics below.
  std::vector<std::string> provenance_path(shards.size(), paths[0]);
  if (!first.has_shards) {
    shards.push_back({-1, merged.rows_added()});
    provenance_path.push_back(paths[0]);
  }
  for (size_t i = 1; i < paths.size(); ++i) {
    auto meta_or = LoadShardMeta(paths[i]);
    if (!meta_or.ok()) return Contextualize(paths[i], meta_or.status());
    ShardMeta meta = std::move(meta_or).ValueOrDie();

    if (const std::string knob = FirstConfigDiff(first.config, meta.config);
        !knob.empty()) {
      return Status::InvalidArgument(
          "config mismatch: '" + paths[i] + "' disagrees with '" + paths[0] +
          "' on " + knob + "; shards must be mined under one config");
    }
    if (!(meta.schema == first.schema)) {
      return Status::InvalidArgument(
          "schema mismatch: '" + paths[i] +
          "' was mined over a different relation schema than '" + paths[0] +
          "'");
    }
    if (!PartitionsEqual(meta.partition, first.partition)) {
      return Status::InvalidArgument(
          "partition mismatch: '" + paths[i] +
          "' uses a different attribute partitioning than '" + paths[0] +
          "'");
    }
    DAR_RETURN_IF_ERROR(
        ReconcileDictionaries(dictionaries, meta.dictionaries, paths[i]));

    DAR_ASSIGN_OR_RETURN(std::string_view bytes,
                         meta.reader.Section(SectionId::kBuilder));
    // Shard builders are transient (consumed by the merge): decode them
    // serial and unobserved.
    auto shard_or = DecodeBuilderSection(bytes, effective, first.schema,
                                         first.partition);
    if (!shard_or.ok()) return Contextualize(paths[i], shard_or.status());
    Phase1Builder shard = std::move(shard_or).ValueOrDie();
    if (shard.rows_added() == 0) {
      return Status::InvalidArgument("'" + paths[i] +
                                     "': shard checkpoint is empty (0 rows)");
    }
    DAR_RETURN_IF_ERROR(merged.MergeFrom(shard));
    if (telemetry.enabled()) {
      telemetry.GetCounter("merge.builder_merges")->Increment(1);
      telemetry.GetCounter("merge.rows")->Increment(shard.rows_added());
    }

    if (meta.has_shards) {
      for (const ShardInfo& s : meta.shards) {
        shards.push_back(s);
        provenance_path.push_back(paths[i]);
      }
    } else {
      shards.push_back({-1, shard.rows_added()});
      provenance_path.push_back(paths[i]);
    }
  }

  // Non-negative shard ids assert an identity; the same shard merged twice
  // would double-count its tuples, so refuse duplicates outright.
  std::map<int64_t, size_t> first_seen;
  for (size_t k = 0; k < shards.size(); ++k) {
    if (shards[k].shard_id < 0) continue;
    auto [it, inserted] = first_seen.emplace(shards[k].shard_id, k);
    if (!inserted) {
      return Status::InvalidArgument(
          "duplicate shard id " + std::to_string(shards[k].shard_id) +
          ": contributed by both '" + provenance_path[it->second] +
          "' and '" + provenance_path[k] +
          "'; merging the same shard twice would double-count its tuples");
    }
  }

  if (telemetry.enabled()) {
    telemetry.GetCounter("merge.checkpoints")
        ->Increment(static_cast<int64_t>(paths.size()));
    telemetry.GetCounter("merge.shards")
        ->Increment(static_cast<int64_t>(shards.size()));
    telemetry
        .GetHistogram("merge.seconds", telemetry::Histogram::LatencyBounds())
        ->Record(watch.ElapsedSeconds());
  }

  return MergedCheckpoint{std::move(first.config),
                          std::move(first.schema),
                          std::move(first.partition),
                          std::move(dictionaries),
                          std::move(shards),
                          std::move(merged)};
}

Status WriteMergedCheckpoint(const MergedCheckpoint& merged,
                             const std::string& path) {
  CheckpointWriter writer;
  writer.AddSection(SectionId::kConfig, EncodeConfigSection(merged.config));
  writer.AddSection(SectionId::kSchema, EncodeSchemaSection(merged.schema));
  writer.AddSection(SectionId::kPartition,
                    EncodePartitionSection(merged.partition));
  if (!merged.dictionaries.empty()) {
    writer.AddSection(SectionId::kDictionaries,
                      EncodeDictionariesSection(merged.dictionaries));
  }
  writer.AddSection(SectionId::kBuilder,
                    EncodeBuilderSection(merged.builder));
  writer.AddSection(SectionId::kShards, EncodeShardsSection(merged.shards));
  return writer.WriteToFile(path);
}

}  // namespace dar::persist

namespace dar {

// Defined here rather than in core/session.cc because it layers on
// dar_persist (dar_core must not depend on it) — the same arrangement as
// Session::SaveCheckpoint / RestoreCheckpoint in src/stream/.
Result<MiningReport> Session::MineFromCheckpoints(
    std::span<const std::string> paths) const {
  registry_->Reset();  // mirrors Mine: one call == one reported run

  persist::MergeOptions options;
  options.config = &config_;
  options.executor = executor_.get();
  options.telemetry = telemetry::TelemetryContext(registry_.get());
  DAR_ASSIGN_OR_RETURN(persist::MergedCheckpoint merged,
                       persist::MergeCheckpoints(paths, options));

  MiningReport report;
  DAR_ASSIGN_OR_RETURN(report.result.phase1,
                       std::move(merged.builder).Finish());
  DAR_ASSIGN_OR_RETURN(report.result.phase2, RunPhase2(report.result.phase1));
  // The data itself is not available here, so the optional §6.2 support
  // rescan (config.count_rule_support) cannot run: support counts stay at
  // their unset value.
  report.telemetry = registry_->TakeSnapshot();
  return report;
}

}  // namespace dar
