// Persistence glue between dar::stream and dar::persist: checkpoint save/
// restore for StreamingMiner, the stream-state section codec, and the
// Session-facade entry points. Lives here rather than in src/persist/ so
// dar_persist depends only on dar_core — the stream types (StreamConfig,
// RuleSnapshot) stay out of the persist library, which serializes their
// contents through the generic section codecs.

#include <memory>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "core/session.h"
#include "persist/checkpoint_io.h"
#include "persist/codec.h"
#include "persist/wire.h"
#include "stream/streaming_miner.h"
#include "telemetry/metrics.h"

namespace dar {
namespace {

using persist::SectionId;

/// Everything in the kStreamState section: the stream's counters plus its
/// StreamConfig, so a restored stream resumes with the exact cadence the
/// saved one ran under.
struct StreamState {
  uint64_t generation = 0;
  int64_t rows_ingested = 0;
  int64_t rows_at_snapshot = 0;
  int64_t rows_at_checkpoint = 0;
  StreamConfig stream_config;
};

std::string EncodeStreamStateSection(const StreamState& s) {
  persist::WireWriter w;
  w.U64(s.generation);
  w.I64(s.rows_ingested);
  w.I64(s.rows_at_snapshot);
  w.I64(s.rows_at_checkpoint);
  w.I64(s.stream_config.remine_every_rows);
  w.U8(s.stream_config.build_rule_index ? 1 : 0);
  w.I64(s.stream_config.checkpoint_every_rows);
  w.Str(s.stream_config.checkpoint_path);
  // Quality knobs: an appended tail, so checkpoints written before the
  // quality layer existed still decode (the reader defaults the knobs when
  // nothing remains before the end of the section).
  w.U32(static_cast<uint32_t>(s.stream_config.score_measures.size()));
  for (const std::string& name : s.stream_config.score_measures) {
    w.Str(name);
  }
  w.U8(s.stream_config.prune_redundant ? 1 : 0);
  w.F64(s.stream_config.prune_min_overlap);
  w.U8(s.stream_config.diff_snapshots ? 1 : 0);
  w.F64(s.stream_config.drift_interval_tolerance);
  w.F64(s.stream_config.drift_degree_tolerance);
  return std::move(w).Take();
}

Result<StreamState> DecodeStreamStateSection(std::string_view bytes) {
  persist::WireReader r(bytes);
  StreamState s;
  DAR_ASSIGN_OR_RETURN(s.generation, r.U64());
  DAR_ASSIGN_OR_RETURN(s.rows_ingested, r.I64());
  DAR_ASSIGN_OR_RETURN(s.rows_at_snapshot, r.I64());
  DAR_ASSIGN_OR_RETURN(s.rows_at_checkpoint, r.I64());
  DAR_ASSIGN_OR_RETURN(s.stream_config.remine_every_rows, r.I64());
  DAR_ASSIGN_OR_RETURN(uint8_t build_index, r.U8());
  if (build_index > 1) {
    return Status::InvalidArgument("stream state: build_rule_index byte " +
                                   std::to_string(build_index) +
                                   " is not 0 or 1");
  }
  s.stream_config.build_rule_index = build_index != 0;
  DAR_ASSIGN_OR_RETURN(s.stream_config.checkpoint_every_rows, r.I64());
  DAR_ASSIGN_OR_RETURN(s.stream_config.checkpoint_path, r.Str());
  if (r.remaining() > 0) {
    // Quality-knob tail (absent in checkpoints predating the quality
    // layer, which restore with the struct defaults).
    DAR_ASSIGN_OR_RETURN(uint32_t num_measures, r.U32());
    s.stream_config.score_measures.reserve(num_measures);
    for (uint32_t m = 0; m < num_measures; ++m) {
      DAR_ASSIGN_OR_RETURN(std::string name, r.Str());
      s.stream_config.score_measures.push_back(std::move(name));
    }
    DAR_ASSIGN_OR_RETURN(uint8_t prune, r.U8());
    if (prune > 1) {
      return Status::InvalidArgument("stream state: prune_redundant byte " +
                                     std::to_string(prune) +
                                     " is not 0 or 1");
    }
    s.stream_config.prune_redundant = prune != 0;
    DAR_ASSIGN_OR_RETURN(s.stream_config.prune_min_overlap, r.F64());
    DAR_ASSIGN_OR_RETURN(uint8_t diff, r.U8());
    if (diff > 1) {
      return Status::InvalidArgument("stream state: diff_snapshots byte " +
                                     std::to_string(diff) +
                                     " is not 0 or 1");
    }
    s.stream_config.diff_snapshots = diff != 0;
    DAR_ASSIGN_OR_RETURN(s.stream_config.drift_interval_tolerance, r.F64());
    DAR_ASSIGN_OR_RETURN(s.stream_config.drift_degree_tolerance, r.F64());
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("stream state section"));
  DAR_RETURN_IF_ERROR(s.stream_config.Validate());
  if (s.rows_ingested < 0 || s.rows_at_snapshot < 0 ||
      s.rows_at_checkpoint < 0 || s.rows_at_snapshot > s.rows_ingested ||
      s.rows_at_checkpoint > s.rows_ingested) {
    return Status::InvalidArgument(
        "stream state counters out of range: rows_ingested " +
        std::to_string(s.rows_ingested) + ", rows_at_snapshot " +
        std::to_string(s.rows_at_snapshot) + ", rows_at_checkpoint " +
        std::to_string(s.rows_at_checkpoint));
  }
  return s;
}

// kRetainedRows payload: u64 rows, u64 cols, then row-major F64 values.
// Saved only by streams that retain tuples for the support post-scan.
std::string EncodeRetainedRowsSection(const Relation& rel) {
  persist::WireWriter w;
  w.U64(rel.num_rows());
  w.U64(rel.num_columns());
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    for (double value : rel.Row(r)) {
      w.F64(value);
    }
  }
  return std::move(w).Take();
}

Result<Relation> DecodeRetainedRowsSection(std::string_view bytes,
                                           const Schema& schema) {
  persist::WireReader r(bytes);
  DAR_ASSIGN_OR_RETURN(uint64_t rows, r.U64());
  DAR_ASSIGN_OR_RETURN(uint64_t cols, r.U64());
  Relation rel(schema);
  if (cols != rel.num_columns()) {
    return Status::InvalidArgument(
        "retained rows section has " + std::to_string(cols) +
        " columns, schema has " + std::to_string(rel.num_columns()));
  }
  rel.Reserve(static_cast<size_t>(rows));
  std::vector<double> row(static_cast<size_t>(cols));
  for (uint64_t i = 0; i < rows; ++i) {
    for (uint64_t c = 0; c < cols; ++c) {
      DAR_ASSIGN_OR_RETURN(row[static_cast<size_t>(c)], r.F64());
    }
    DAR_RETURN_IF_ERROR(rel.AppendRow(row));
  }
  DAR_RETURN_IF_ERROR(r.ExpectEnd("retained rows section"));
  return rel;
}

void RecordSave(telemetry::MetricsRegistry* reg, size_t bytes,
                double seconds) {
  if (reg == nullptr) return;
  reg->GetCounter("persist.saves")->Increment();
  reg->GetCounter("persist.save_bytes", telemetry::Unit::kBytes)
      ->Increment(static_cast<int64_t>(bytes));
  reg->GetGauge("persist.last_checkpoint_bytes", telemetry::Unit::kBytes)
      ->Set(static_cast<double>(bytes));
  reg->GetHistogram("persist.save_seconds",
                    telemetry::Histogram::LatencyBounds())
      ->Record(seconds);
}

void RecordLoad(telemetry::MetricsRegistry* reg, size_t bytes,
                double seconds) {
  if (reg == nullptr) return;
  reg->GetCounter("persist.loads")->Increment();
  reg->GetCounter("persist.load_bytes", telemetry::Unit::kBytes)
      ->Increment(static_cast<int64_t>(bytes));
  reg->GetHistogram("persist.load_seconds",
                    telemetry::Histogram::LatencyBounds())
      ->Record(seconds);
}

}  // namespace

Status StreamingMiner::SaveCheckpoint(
    const std::string& path, std::span<const Dictionary> dictionaries) const {
  Stopwatch watch;
  persist::CheckpointWriter writer;
  writer.AddSection(SectionId::kConfig, persist::EncodeConfigSection(config_));
  writer.AddSection(SectionId::kSchema, persist::EncodeSchemaSection(schema_));
  writer.AddSection(SectionId::kPartition,
                    persist::EncodePartitionSection(partition_));
  if (!dictionaries.empty()) {
    writer.AddSection(SectionId::kDictionaries,
                      persist::EncodeDictionariesSection(dictionaries));
  }

  StreamState state;
  state.generation = generation_.load(std::memory_order_acquire);
  state.rows_ingested = rows_ingested_.load(std::memory_order_acquire);
  state.rows_at_snapshot = rows_at_snapshot_.load(std::memory_order_acquire);
  // The file itself is a checkpoint at rows_ingested, regardless of the
  // in-memory cadence bookkeeping.
  state.rows_at_checkpoint = state.rows_ingested;
  state.stream_config = stream_config_;
  writer.AddSection(SectionId::kStreamState, EncodeStreamStateSection(state));

  writer.AddSection(SectionId::kBuilder,
                    persist::EncodeBuilderSection(builder_));

  // Shard provenance: one entry for this stream, so merge tooling
  // (persist::MergeCheckpoints, tools/dar_ckpt.py) can attribute the
  // checkpoint's tuples to a distributed-mining shard.
  const persist::ShardInfo shard{stream_config_.shard_id,
                                 state.rows_ingested};
  writer.AddSection(SectionId::kShards,
                    persist::EncodeShardsSection({&shard, 1}));

  if (retains_rows()) {
    writer.AddSection(SectionId::kRetainedRows,
                      EncodeRetainedRowsSection(retained_rows_));
  }

  std::shared_ptr<const RuleSnapshot> snap = snapshot_.load();
  if (snap != nullptr) {
    writer.AddSection(
        SectionId::kSnapshot,
        persist::EncodeResultsSection(snap->generation(),
                                      snap->rows_ingested(), snap->phase1(),
                                      snap->phase2()));
  }

  size_t bytes = 0;
  DAR_RETURN_IF_ERROR(writer.WriteToFile(path, &bytes));
  RecordSave(registry_.get(), bytes, watch.ElapsedSeconds());
  return Status::OK();
}

Status StreamingMiner::MaybeCheckpoint() {
  if (stream_config_.checkpoint_every_rows <= 0) return Status::OK();
  const int64_t rows = rows_ingested_.load(std::memory_order_relaxed);
  if (rows - rows_at_checkpoint_ < stream_config_.checkpoint_every_rows) {
    return Status::OK();
  }
  // Advance the cadence mark before writing: a failing disk surfaces one
  // error per cadence window, not one per subsequent row.
  rows_at_checkpoint_ = rows;
  return SaveCheckpoint(stream_config_.checkpoint_path);
}

Result<RestoredStream> StreamingMiner::RestoreFromFile(
    const std::string& path, const DarConfig& config,
    std::shared_ptr<Executor> executor,
    std::shared_ptr<telemetry::MetricsRegistry> registry) {
  Stopwatch watch;
  DAR_RETURN_IF_ERROR(config.Validate());
  DAR_ASSIGN_OR_RETURN(persist::CheckpointReader reader,
                       persist::CheckpointReader::Open(path));

  DAR_ASSIGN_OR_RETURN(std::string_view config_bytes,
                       reader.Section(SectionId::kConfig));
  DAR_ASSIGN_OR_RETURN(DarConfig saved_config,
                       persist::DecodeConfigSection(config_bytes));
  DAR_ASSIGN_OR_RETURN(std::string_view schema_bytes,
                       reader.Section(SectionId::kSchema));
  DAR_ASSIGN_OR_RETURN(Schema schema,
                       persist::DecodeSchemaSection(schema_bytes));
  DAR_ASSIGN_OR_RETURN(std::string_view partition_bytes,
                       reader.Section(SectionId::kPartition));
  DAR_ASSIGN_OR_RETURN(AttributePartition partition,
                       persist::DecodePartitionSection(partition_bytes,
                                                       schema));
  std::vector<Dictionary> dictionaries;
  if (reader.HasSection(SectionId::kDictionaries)) {
    DAR_ASSIGN_OR_RETURN(std::string_view dict_bytes,
                         reader.Section(SectionId::kDictionaries));
    DAR_ASSIGN_OR_RETURN(dictionaries,
                         persist::DecodeDictionariesSection(dict_bytes));
  }
  DAR_ASSIGN_OR_RETURN(std::string_view state_bytes,
                       reader.Section(SectionId::kStreamState));
  DAR_ASSIGN_OR_RETURN(StreamState state,
                       DecodeStreamStateSection(state_bytes));
  // Same invariant StreamingMiner::Make enforces: scoring needs the
  // support post-scan, which needs retained tuples.
  if (!state.stream_config.score_measures.empty() &&
      !config.count_rule_support) {
    return Status::InvalidArgument(
        "'" + path + "': the checkpointed stream scores measures (" +
        "StreamConfig::score_measures) but the restoring config has "
        "count_rule_support off");
  }
  // Shard identity travels in the provenance section (absent in
  // checkpoints predating it, which restore as anonymous).
  if (reader.HasSection(SectionId::kShards)) {
    DAR_ASSIGN_OR_RETURN(std::string_view shard_bytes,
                         reader.Section(SectionId::kShards));
    DAR_ASSIGN_OR_RETURN(std::vector<persist::ShardInfo> shards,
                         persist::DecodeShardsSection(shard_bytes));
    if (shards.size() != 1) {
      return Status::InvalidArgument(
          "'" + path + "': a stream checkpoint must describe exactly one "
          "shard, found " + std::to_string(shards.size()) +
          " (merged checkpoints cannot be restored as streams)");
    }
    state.stream_config.shard_id = shards[0].shard_id;
    if (shards[0].rows != state.rows_ingested) {
      return Status::InvalidArgument(
          "'" + path + "': shard provenance records " +
          std::to_string(shards[0].rows) + " rows but stream state records " +
          std::to_string(state.rows_ingested));
    }
  }

  // The builder is rebuilt under the *restoring* config: the serialized
  // trees are pre-frequency-filter summaries, and the finishing pipeline
  // (frequency threshold, d0 derivation) runs the restoring session's
  // knobs — which is exactly what makes warm re-mining under different
  // thresholds possible without touching the data.
  DAR_ASSIGN_OR_RETURN(std::string_view builder_bytes,
                       reader.Section(SectionId::kBuilder));
  DAR_ASSIGN_OR_RETURN(
      Phase1Builder builder,
      persist::DecodeBuilderSection(
          builder_bytes, config, schema, partition,
          executor != nullptr ? executor.get() : nullptr,
          telemetry::TelemetryContext(registry.get())));
  if (builder.rows_added() != state.rows_ingested) {
    return Status::InvalidArgument(
        "'" + path + "': builder recorded " +
        std::to_string(builder.rows_added()) +
        " rows but stream state recorded " +
        std::to_string(state.rows_ingested));
  }

  telemetry::MetricsRegistry* reg = registry.get();
  auto stream = std::make_unique<StreamingMiner>(
      PrivateTag{}, config, state.stream_config, schema, partition,
      std::move(executor), std::move(registry), std::move(builder));
  stream->rows_ingested_.store(state.rows_ingested,
                               std::memory_order_release);
  stream->rows_at_snapshot_.store(state.rows_at_snapshot,
                                  std::memory_order_release);
  stream->generation_.store(state.generation, std::memory_order_release);
  stream->rows_at_checkpoint_ = state.rows_at_checkpoint;

  if (reader.HasSection(SectionId::kRetainedRows)) {
    DAR_ASSIGN_OR_RETURN(std::string_view rows_bytes,
                         reader.Section(SectionId::kRetainedRows));
    DAR_ASSIGN_OR_RETURN(Relation retained,
                         DecodeRetainedRowsSection(rows_bytes, schema));
    if (static_cast<int64_t>(retained.num_rows()) != state.rows_ingested) {
      return Status::InvalidArgument(
          "'" + path + "': retained rows section has " +
          std::to_string(retained.num_rows()) +
          " rows but stream state recorded " +
          std::to_string(state.rows_ingested));
    }
    if (stream->retains_rows()) {
      stream->retained_rows_ = std::move(retained);
    }
    // A restoring config without count_rule_support simply drops the
    // retained tuples: the stream stops rescanning.
  } else if (stream->retains_rows() && state.rows_ingested > 0) {
    return Status::InvalidArgument(
        "'" + path + "': the restoring config sets count_rule_support but "
        "the checkpoint retained no tuples (it was saved without "
        "count_rule_support), so the support post-scan cannot resume");
  }

  if (reader.HasSection(SectionId::kSnapshot)) {
    DAR_ASSIGN_OR_RETURN(std::string_view snap_bytes,
                         reader.Section(SectionId::kSnapshot));
    DAR_ASSIGN_OR_RETURN(persist::DecodedResults results,
                         persist::DecodeResultsSection(snap_bytes));
    if (results.generation != state.generation ||
        results.rows_ingested != state.rows_at_snapshot) {
      return Status::InvalidArgument(
          "'" + path + "': snapshot section is generation " +
          std::to_string(results.generation) + " at " +
          std::to_string(results.rows_ingested) +
          " rows, stream state expects generation " +
          std::to_string(state.generation) + " at " +
          std::to_string(state.rows_at_snapshot) + " rows");
    }
    auto snap = std::make_shared<const RuleSnapshot>(
        results.generation, results.rows_ingested,
        std::move(results.phase1), std::move(results.phase2),
        stream->partition_, state.stream_config.build_rule_index);
    DAR_RETURN_IF_ERROR(snap->CheckConsistency());
    stream->snapshot_.store(std::move(snap));
  } else if (state.generation != 0) {
    return Status::InvalidArgument(
        "'" + path + "': stream state records generation " +
        std::to_string(state.generation) +
        " but the checkpoint has no snapshot section");
  }

  RecordLoad(reg, reader.total_bytes(), watch.ElapsedSeconds());

  RestoredStream out;
  out.stream = std::move(stream);
  out.schema = std::move(schema);
  out.dictionaries = std::move(dictionaries);
  out.saved_config = std::move(saved_config);
  return out;
}

// Defined here rather than in session.cc for the same reason as
// Session::OpenStream: dar_core must not depend on dar_stream/dar_persist.

Status Session::SaveCheckpoint(const StreamingMiner& stream,
                               const std::string& path,
                               std::span<const Dictionary> dictionaries) const {
  return stream.SaveCheckpoint(path, dictionaries);
}

Result<RestoredStream> Session::RestoreCheckpoint(
    const std::string& path) const {
  return StreamingMiner::RestoreFromFile(path, config_, executor_,
                                         registry_);
}

}  // namespace dar
