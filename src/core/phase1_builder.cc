#include "core/phase1_builder.h"

#include <algorithm>
#include <cmath>

#include "birch/refine.h"

namespace dar {

Result<Phase1Builder> Phase1Builder::Make(
    const DarConfig& config, const Schema& schema,
    const AttributePartition& partition, Executor* executor,
    telemetry::TelemetryContext telemetry) {
  if (partition.num_parts() == 0) {
    return Status::InvalidArgument("attribute partition is empty");
  }
  if (config.frequency_fraction <= 0 || config.frequency_fraction > 1) {
    return Status::InvalidArgument("frequency_fraction must be in (0, 1]");
  }
  for (const auto& part : partition.parts()) {
    for (size_t col : part.columns) {
      if (col >= schema.num_attributes()) {
        return Status::InvalidArgument(
            "partition references column " + std::to_string(col) +
            " outside the schema");
      }
    }
  }

  auto layout = std::make_shared<AcfLayout>();
  layout->parts.reserve(partition.num_parts());
  for (const auto& part : partition.parts()) {
    layout->parts.push_back({part.dimension(), part.metric, part.label});
  }

  std::vector<std::unique_ptr<AcfTree>> trees;
  trees.reserve(partition.num_parts());
  for (size_t p = 0; p < partition.num_parts(); ++p) {
    AcfTreeOptions opts = config.tree;
    opts.memory_budget_bytes = std::max<size_t>(
        1, config.memory_budget_bytes / partition.num_parts());
    opts.initial_threshold = p < config.initial_diameters.size()
                                 ? config.initial_diameters[p]
                                 : 0.0;
    opts.outlier_entry_min_n = 0;  // adjusted as rows arrive
    trees.push_back(std::make_unique<AcfTree>(layout, p, opts));
  }
  return Phase1Builder(config, partition, std::move(layout),
                       std::move(trees), schema.num_attributes(), executor,
                       telemetry);
}

Phase1Builder::Phase1Builder(DarConfig config, AttributePartition partition,
                             std::shared_ptr<const AcfLayout> layout,
                             std::vector<std::unique_ptr<AcfTree>> trees,
                             size_t schema_width, Executor* executor,
                             telemetry::TelemetryContext telemetry)
    : config_(std::move(config)),
      partition_(std::move(partition)),
      layout_(std::move(layout)),
      trees_(std::move(trees)),
      schema_width_(schema_width),
      executor_(executor),
      telemetry_(telemetry) {
  scratch_.resize(partition_.num_parts());
  for (size_t p = 0; p < partition_.num_parts(); ++p) {
    scratch_[p].resize(partition_.part(p).dimension());
  }
}

int64_t Phase1Builder::OutlierMinN(int64_t rows) const {
  return static_cast<int64_t>(config_.outlier_fraction *
                              config_.frequency_fraction *
                              static_cast<double>(rows));
}

void Phase1Builder::UpdateOutlierThresholds() {
  if (config_.outlier_fraction <= 0) return;
  int64_t min_n = OutlierMinN(rows_added_);
  for (auto& tree : trees_) tree->set_outlier_entry_min_n(min_n);
}

Status Phase1Builder::AddRow(std::span<const double> row) {
  if (row.size() != schema_width_) {
    return Status::InvalidArgument(
        "row width " + std::to_string(row.size()) + " != schema width " +
        std::to_string(schema_width_));
  }
  for (size_t p = 0; p < partition_.num_parts(); ++p) {
    const auto& cols = partition_.part(p).columns;
    for (size_t d = 0; d < cols.size(); ++d) {
      scratch_[p][d] = row[cols[d]];
    }
  }
  for (auto& tree : trees_) {
    DAR_RETURN_IF_ERROR(tree->InsertPoint(scratch_));
  }
  ++rows_added_;
  // Keep outlier paging roughly in step with the running count; the exact
  // value only matters at rebuild time, so a coarse cadence is fine.
  if ((rows_added_ & 0xFFF) == 0) UpdateOutlierThresholds();
  return Status::OK();
}

Status Phase1Builder::ForEachPart(
    const std::function<Status(size_t)>& fn) const {
  if (executor_ != nullptr) {
    return executor_->ParallelFor(partition_.num_parts(), fn);
  }
  Status first = Status::OK();
  for (size_t p = 0; p < partition_.num_parts(); ++p) {
    Status s = fn(p);
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  return first;
}

Status Phase1Builder::FeedPart(const Relation& rel, size_t p) {
  // Sampled absorb latency: every 64th insert is individually timed. The
  // histogram handle is resolved once per part (the lookup locks), and
  // recording is lock-free and safe from this worker thread.
  telemetry::Histogram* absorb_hist = telemetry_.GetHistogram(
      "phase1.absorb_seconds", telemetry::Histogram::LatencyBounds());
  Stopwatch feed_watch;
  // Each tree sees the exact insert sequence and outlier-paging cadence it
  // would under the streaming AddRow loop — trees only observe their own
  // insertions, so interleaving across trees is immaterial and the result
  // is bit-identical for any executor.
  PartedRow scratch(partition_.num_parts());
  for (size_t q = 0; q < partition_.num_parts(); ++q) {
    scratch[q].resize(partition_.part(q).dimension());
  }
  AcfTree& tree = *trees_[p];
  const int64_t start = rows_added_;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    // ACFs summarize the cluster's image on *every* part (Eq. 7), so each
    // tree needs the full parted row, not just its own projection.
    for (size_t q = 0; q < partition_.num_parts(); ++q) {
      const auto& cols = partition_.part(q).columns;
      for (size_t d = 0; d < cols.size(); ++d) {
        scratch[q][d] = rel.at(r, cols[d]);
      }
    }
    if (absorb_hist != nullptr && (r & 63) == 0) {
      Stopwatch insert_watch;
      DAR_RETURN_IF_ERROR(tree.InsertPoint(scratch));
      absorb_hist->Record(insert_watch.ElapsedSeconds());
    } else {
      DAR_RETURN_IF_ERROR(tree.InsertPoint(scratch));
    }
    int64_t count = start + static_cast<int64_t>(r) + 1;
    if ((count & 0xFFF) == 0 && config_.outlier_fraction > 0) {
      tree.set_outlier_entry_min_n(OutlierMinN(count));
    }
  }
  if (telemetry::Histogram* feed_hist = telemetry_.GetHistogram(
          "phase1.feed_seconds", telemetry::Histogram::LatencyBounds());
      feed_hist != nullptr) {
    feed_hist->Record(feed_watch.ElapsedSeconds());
  }
  return Status::OK();
}

Status Phase1Builder::AddRelation(const Relation& rel) {
  if (rel.num_columns() != schema_width_) {
    return Status::InvalidArgument(
        "relation width " + std::to_string(rel.num_columns()) +
        " != schema width " + std::to_string(schema_width_));
  }
  DAR_RETURN_IF_ERROR(
      ForEachPart([&](size_t p) { return FeedPart(rel, p); }));
  rows_added_ += static_cast<int64_t>(rel.num_rows());
  return Status::OK();
}

Status Phase1Builder::MergeFrom(const Phase1Builder& other) {
  if (schema_width_ != other.schema_width_) {
    return Status::InvalidArgument(
        "cannot merge Phase-I builders over different schema widths (" +
        std::to_string(schema_width_) + " vs " +
        std::to_string(other.schema_width_) + ")");
  }
  if (!LayoutsEquivalent(*layout_, *other.layout_)) {
    return Status::InvalidArgument(
        "cannot merge Phase-I builders with different attribute "
        "partitionings");
  }
  if (other.rows_added_ == 0) {
    return Status::InvalidArgument(
        "cannot merge an empty Phase-I builder (no rows added)");
  }
  DAR_RETURN_IF_ERROR(ForEachPart(
      [&](size_t p) { return trees_[p]->MergeFrom(*other.trees_[p]); }));
  rows_added_ += other.rows_added_;
  UpdateOutlierThresholds();
  return Status::OK();
}

Result<Phase1Result> Phase1Builder::Finish() && {
  return FinishTrees(trees_);
}

Result<Phase1Result> Phase1Builder::Snapshot() const {
  // Clone every live tree (part-parallel) and finish the clones; the
  // originals keep absorbing rows. Clones replay FinishScan exactly as the
  // real trees would, so for identical rows the result is bit-identical
  // to Finish().
  std::vector<std::unique_ptr<AcfTree>> clones(trees_.size());
  DAR_RETURN_IF_ERROR(ForEachPart([&](size_t p) -> Status {
    clones[p] = trees_[p]->Clone();
    return Status::OK();
  }));
  return FinishTrees(clones);
}

Result<Phase1Result> Phase1Builder::FinishTrees(
    std::vector<std::unique_ptr<AcfTree>>& trees) const {
  if (rows_added_ == 0) {
    return Status::InvalidArgument("no rows were added");
  }

  Phase1Result out;
  out.layout = layout_;
  out.frequency_threshold = std::max<int64_t>(
      1,
      static_cast<int64_t>(std::ceil(config_.frequency_fraction *
                                     static_cast<double>(rows_added_))));

  // Per-part finishing (outlier re-absorption, optional refinement,
  // frequency filtering, d0 derivation) is independent across parts; run
  // it on the executor with one output slot per part and merge in part
  // order so cluster ids never depend on scheduling.
  struct PartSlot {
    std::vector<Acf> frequent;
    double d0 = 0;
    AcfTreeStats stats;
    std::vector<Acf> outliers;
    size_t raw_count = 0;
  };
  std::vector<PartSlot> slots(partition_.num_parts());
  const int64_t s0 = out.frequency_threshold;
  DAR_RETURN_IF_ERROR(ForEachPart([&](size_t p) -> Status {
    DAR_RETURN_IF_ERROR(trees[p]->FinishScan());
    PartSlot& slot = slots[p];
    std::vector<Acf> leaf_clusters = trees[p]->ExtractClusters();
    if (config_.refine_clusters) {
      RefineOptions refine;
      refine.diameter_threshold = trees[p]->threshold();
      leaf_clusters = RefineClusters(std::move(leaf_clusters), refine);
    }
    slot.raw_count = leaf_clusters.size();
    std::vector<double> diameters;
    for (auto& acf : leaf_clusters) {
      if (acf.n() < s0) continue;
      diameters.push_back(acf.Diameter());
      slot.frequent.push_back(std::move(acf));
    }
    double d0 = 0;
    if (p < config_.density_thresholds.size()) {
      d0 = config_.density_thresholds[p];
    }
    if (d0 <= 0) {
      double median = 0;
      if (!diameters.empty()) {
        size_t mid = diameters.size() / 2;
        std::nth_element(diameters.begin(), diameters.begin() + mid,
                         diameters.end());
        median = diameters[mid];
      }
      d0 = std::max(trees[p]->threshold(), median);
    }
    slot.d0 = d0;
    slot.stats = trees[p]->Stats();
    slot.outliers = trees[p]->outliers();
    return Status::OK();
  }));

  std::vector<FoundCluster> found;
  out.raw_cluster_counts.resize(partition_.num_parts());
  out.effective_d0.resize(partition_.num_parts());
  for (size_t p = 0; p < partition_.num_parts(); ++p) {
    PartSlot& slot = slots[p];
    for (auto& acf : slot.frequent) {
      FoundCluster c;
      c.id = found.size();
      c.part = p;
      c.acf = std::move(acf);
      found.push_back(std::move(c));
    }
    out.raw_cluster_counts[p] = slot.raw_count;
    out.effective_d0[p] = slot.d0;
    out.tree_stats.push_back(slot.stats);
    for (auto& acf : slot.outliers) out.outliers.push_back(std::move(acf));
  }
  out.clusters = ClusterSet(out.layout, std::move(found));
  out.seconds = watch_.ElapsedSeconds();
  RecordTelemetry(out);
  return out;
}

void Phase1Builder::RecordTelemetry(const Phase1Result& out) const {
  if (!telemetry_.enabled()) return;
  using telemetry::Unit;
  telemetry_.GetCounter("phase1.rows")->Increment(rows_added_);
  telemetry_.GetCounter("phase1.clusters")
      ->Increment(static_cast<int64_t>(out.clusters.size()));
  telemetry_.GetCounter("phase1.outliers")
      ->Increment(static_cast<int64_t>(out.outliers.size()));
  int64_t inserts = 0, splits = 0, rebuilds = 0;
  size_t bytes = 0;
  for (size_t p = 0; p < out.tree_stats.size(); ++p) {
    const AcfTreeStats& stats = out.tree_stats[p];
    const std::string prefix = "phase1.part" + std::to_string(p);
    telemetry_.GetCounter(prefix + ".inserts")
        ->Increment(stats.points_inserted);
    telemetry_.GetCounter(prefix + ".splits")->Increment(stats.split_count);
    telemetry_.GetCounter(prefix + ".rebuilds")
        ->Increment(stats.rebuild_count);
    telemetry_.GetGauge(prefix + ".height")
        ->Set(static_cast<double>(stats.height));
    inserts += stats.points_inserted;
    splits += stats.split_count;
    rebuilds += stats.rebuild_count;
    bytes += stats.approx_bytes;
  }
  telemetry_.GetCounter("phase1.inserts")->Increment(inserts);
  telemetry_.GetCounter("phase1.splits")->Increment(splits);
  telemetry_.GetCounter("phase1.rebuilds")->Increment(rebuilds);
  telemetry_.GetGauge("phase1.tree_bytes", Unit::kBytes)
      ->Set(static_cast<double>(bytes));
  telemetry_.GetGauge("phase1.seconds", Unit::kSeconds)->Set(out.seconds);
}

}  // namespace dar
