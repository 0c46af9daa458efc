// stream_refresh and stream_scored: micro-batch streams that re-mine after
// every batch.
//
// stream_refresh is the stream-suite shape (10 attributes x 8 clusters,
// 5% noise, 205k rows in 41 batches): Ingest, then Remine, with a
// checkpoint every 8 batches, then RestoreCheckpoint plus one warm Remine.
// No readers. Its final rules are checked against a cold Session::Mine.
//
// stream_scored is the quality-suite shape (6 attributes x 4 clusters, no
// noise, 102.5k rows in 41 batches) with every cluster mean shifted by a
// quarter slot from row 30,000 on, support counting, all five measures,
// redundancy pruning and snapshot diffing on.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "core/rule_stats.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "stream/rule_snapshot.h"
#include "stream/streaming_miner.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;

struct StreamShape {
  dar::DarConfig config;
  dar::StreamConfig stream_config;
  std::function<dar::Result<dar::PlantedDataset>()> generate;
  size_t batch_rows = 0;
  size_t checkpoint_every = 0;  // batches; 0 = never
  std::string checkpoint_path;
};

// Samples of all measured passes, plus what the first pass published.
struct StreamSamples {
  std::vector<double> setup_s;
  std::vector<double> remine_s;
  std::vector<double> save_s;
  std::vector<double> restore_s;
  std::vector<double> recover_s;
  std::vector<double> ingest_rows_per_s;  // per measured batch
  double checkpoint_bytes = 0;
  std::vector<Publication> publications;  // first pass, priming included
  std::shared_ptr<const dar::RuleSnapshot> last;
  std::optional<dar::PlantedDataset> data;  // the last pass's input
  std::vector<dar::Relation> batches;       // batch 0 primes the stream
};

Publication Describe(const dar::RuleSnapshot& snapshot, double remine_s) {
  Publication p;
  p.fingerprint = Fingerprint(snapshot.rules());
  p.rules = snapshot.rules().size();
  if (snapshot.scored() != nullptr) p.pruned = snapshot.scored()->num_pruned;
  if (snapshot.diff() != nullptr) {
    p.born = snapshot.diff()->born;
    p.died = snapshot.diff()->died;
    p.drifted = snapshot.diff()->drifted;
  }
  p.remine_s = remine_s;
  return p;
}

// Everything before the measured phase: the generated input split into
// batches, a session, and a stream primed with batch 0 (ingested and
// re-mined).
struct Primed {
  std::optional<dar::PlantedDataset> data;
  std::vector<dar::Relation> batches;
  std::optional<dar::Session> session;
  std::unique_ptr<dar::StreamingMiner> stream;
  std::shared_ptr<const dar::RuleSnapshot> snapshot;
  double remine_s = 0;
};

Primed Prime(const StreamShape& shape, int threads, Report& report) {
  Primed out;
  auto data = shape.generate();
  report.Check(data.ok(), "input generation");
  if (!data.ok()) return out;
  out.data.emplace(std::move(*data));
  out.batches = SplitBatches(out.data->relation, shape.batch_rows);
  auto session = dar::Session::Builder()
                     .WithConfig(shape.config)
                     .WithThreads(threads)
                     .Build();
  report.Attempt(!session.ok());
  report.Check(session.ok(), "Session build");
  if (!session.ok()) return out;
  out.session.emplace(std::move(*session));
  auto stream = out.session->OpenStream(out.data->relation.schema(),
                                        out.data->partition,
                                        shape.stream_config);
  report.Attempt(!stream.ok());
  report.Check(stream.ok(), "OpenStream");
  if (!stream.ok()) return out;
  const dar::Status ingested = (*stream)->Ingest(out.batches[0]);
  report.Attempt(!ingested.ok());
  report.Check(ingested.ok(), "priming Ingest");
  const Clock::time_point t = Clock::now();
  auto snapshot = (*stream)->Remine();
  out.remine_s = SecondsSince(t);
  report.Attempt(!snapshot.ok());
  report.Check(snapshot.ok(), "priming Remine");
  if (!ingested.ok() || !snapshot.ok()) return out;
  out.stream = std::move(*stream);
  out.snapshot = *snapshot;
  return out;
}

// One measured pass: batches 1.. each ingested and re-mined, checkpoints
// on the cadence, then (when checkpointing) restore plus one warm remine.
void RunPass(const StreamShape& shape, int threads, int setup_reps,
             StreamSamples& samples, Report& report) {
  Primed primed;
  for (int i = 0; i < setup_reps; ++i) {
    primed = Primed{};
    const Clock::time_point t = Clock::now();
    primed = Prime(shape, threads, report);
    samples.setup_s.push_back(SecondsSince(t));
    if (primed.stream == nullptr) return;
  }
  const bool first_pass = samples.publications.empty();
  if (first_pass) {
    samples.publications.push_back(
        Describe(*primed.snapshot, primed.remine_s));
  }
  dar::StreamingMiner& stream = *primed.stream;
  std::shared_ptr<const dar::RuleSnapshot> snapshot = primed.snapshot;
  const std::vector<dar::Relation>& batches = primed.batches;
  for (size_t b = 1; b < batches.size(); ++b) {
    Clock::time_point t = Clock::now();
    const dar::Status ingested = stream.Ingest(batches[b]);
    samples.ingest_rows_per_s.push_back(
        static_cast<double>(batches[b].num_rows()) / SecondsSince(t));
    report.Attempt(!ingested.ok());
    if (!ingested.ok()) {
      report.Check(false, "Ingest: " + ingested.ToString());
      return;
    }
    t = Clock::now();
    auto remined = stream.Remine();
    const double remine_s = SecondsSince(t);
    report.Attempt(!remined.ok());
    if (!remined.ok()) {
      report.Check(false, "Remine: " + remined.status().ToString());
      return;
    }
    snapshot = *remined;
    samples.remine_s.push_back(remine_s);
    if (first_pass) samples.publications.push_back(Describe(*snapshot, remine_s));

    const bool last = b + 1 == batches.size();
    if (shape.checkpoint_every > 0 &&
        (b % shape.checkpoint_every == 0 || last)) {
      t = Clock::now();
      const dar::Status saved =
          primed.session->SaveCheckpoint(stream, shape.checkpoint_path);
      samples.save_s.push_back(SecondsSince(t));
      report.Attempt(!saved.ok());
      report.Check(saved.ok(), "SaveCheckpoint: " + saved.ToString());
    }
  }
  samples.last = snapshot;
  samples.data = std::move(primed.data);
  samples.batches = std::move(primed.batches);
  if (shape.checkpoint_every == 0) return;

  // Recovery: restore the final checkpoint and re-mine it warm.
  struct stat st {};
  if (stat(shape.checkpoint_path.c_str(), &st) == 0) {
    samples.checkpoint_bytes = static_cast<double>(st.st_size);
  }
  const Clock::time_point t = Clock::now();
  auto restored = primed.session->RestoreCheckpoint(shape.checkpoint_path);
  const double restore_s = SecondsSince(t);
  report.Attempt(!restored.ok());
  if (!restored.ok()) {
    report.Check(false, "RestoreCheckpoint: " + restored.status().ToString());
    return;
  }
  auto warm = restored->stream->Remine();
  samples.recover_s.push_back(SecondsSince(t));
  samples.restore_s.push_back(restore_s);
  report.Attempt(!warm.ok());
  report.Check(warm.ok() && SameRules((*warm)->rules(), snapshot->rules()),
               "the restored stream re-mines the same rules");
  std::remove(shape.checkpoint_path.c_str());
}

// Runs one pass, then more while another fits in `options.seconds`; sets
// the end-to-end metrics, and on traced runs replays the first pass.
StreamSamples MeasureStream(const StreamShape& shape, const Options& options,
                            Report& report) {
  StreamSamples samples;
  const Clock::time_point start = Clock::now();
  int setup_reps = kSetupReps;
  double peak_rss_mib = 0;
  double pass_s = 0;
  do {
    const Clock::time_point pass_start = Clock::now();
    RunPass(shape, options.threads, setup_reps, samples, report);
    pass_s = SecondsSince(pass_start);
    if (setup_reps == kSetupReps) peak_rss_mib = PeakRssMib();
    setup_reps = 1;
  } while (report.correct() &&
           SecondsSince(start) + pass_s <= options.seconds);
  if (!report.correct()) return samples;

  std::cout << samples.batches.size() - 1 << " measured refreshes per pass, "
            << samples.remine_s.size() << " in all; final snapshot: "
            << samples.last->rules().size() << " rules over "
            << samples.last->clusters().size() << " clusters\n";
  report.SetEndToEnd("setup_s", Median(samples.setup_s));
  report.SetEndToEnd("refresh_p50_s", Median(samples.remine_s));
  report.SetEndToEnd("refresh_p75_s", Quantile(samples.remine_s, 0.75));
  report.SetLayer("ingest_rows_per_s", Median(samples.ingest_rows_per_s));
  report.SetEndToEnd("peak_rss_mib", peak_rss_mib);
  report.SetLayer("persist.save_s", Median(samples.save_s));
  report.SetLayer("persist.restore_s", Median(samples.restore_s));
  report.SetLayer("persist.checkpoint_bytes", samples.checkpoint_bytes);
  report.SetLayer("recover_s", Median(samples.recover_s));
  if (!options.trace) return samples;

  std::vector<const dar::Relation*> batches;
  for (const dar::Relation& batch : samples.batches) {
    batches.push_back(&batch);
  }
  const std::shared_ptr<dar::Executor> executor =
      dar::MakeExecutor(options.threads);
  ReplayStream(shape.config, shape.stream_config,
               samples.data->relation.schema(), samples.data->partition,
               executor.get(), batches,
               std::vector<bool>(batches.size(), true), samples.publications,
               report);
  return samples;
}

std::string CheckpointPath(const Options& options) {
  return options.tmpdir + "/" + options.workload + "-" +
         std::to_string(getpid()) + ".darckpt";
}

}  // namespace

void RunStreamRefresh(const Options& options, Report& report) {
  constexpr size_t kAttrs = 10, kClusters = 8, kBatchRows = 5000,
                   kBatches = 41;
  StreamShape shape;
  shape.config = StreamShapeConfig(kAttrs, kClusters);
  shape.stream_config.remine_every_rows = 0;  // re-mine explicitly
  shape.generate = [&options] {
    return dar::GeneratePlanted(
        dar::WbcdLikeSpec(kAttrs, kClusters, 0.05, kShapeSeed),
        kBatchRows * kBatches, options.seed);
  };
  shape.batch_rows = kBatchRows;
  shape.checkpoint_every = 8;
  shape.checkpoint_path = CheckpointPath(options);
  const StreamSamples samples = MeasureStream(shape, options, report);
  if (!report.correct()) return;
  const dar::PlantedDataset& data = *samples.data;

  // The final snapshot equals a cold mine of the same rows. The cold mine
  // runs on its own Session: Session::Mine resets the session's metrics
  // registry, which a live stream of that Session still records into. It
  // is not timed, so it uses every core to keep the run short.
  auto cold_session = dar::Session::Builder()
                          .WithConfig(shape.config)
                          .WithThreads(options.parallel)
                          .Build();
  report.Check(cold_session.ok(), "cold Session build");
  if (!cold_session.ok()) return;
  auto cold = cold_session->Mine(data.relation, data.partition);
  report.Attempt(!cold.ok());
  report.Check(cold.ok() && SameRules(cold->rules(), samples.last->rules()),
               "the final stream snapshot equals a cold Session::Mine");
  if (options.trace && cold.ok()) {
    RecordSpeedups(shape.config, data.relation, data.partition,
                   samples.last->phase1(), options.parallel, report);
  }
}

void RunStreamScored(const Options& options, Report& report) {
  constexpr size_t kAttrs = 6, kClusters = 4, kBatchRows = 2500,
                   kBatches = 41, kDriftRow = 30625;
  StreamShape shape;
  shape.config = StreamShapeConfig(kAttrs, kClusters);
  shape.config.count_rule_support = true;
  shape.stream_config.remine_every_rows = 0;
  shape.stream_config.score_measures = {"support", "confidence", "lift",
                                        "conviction", "chi2"};
  shape.stream_config.prune_redundant = true;
  shape.stream_config.prune_min_overlap = 0.5;
  shape.stream_config.diff_snapshots = true;
  shape.stream_config.drift_interval_tolerance = 0.25;
  shape.stream_config.drift_degree_tolerance = 0.5;
  shape.generate = [&options] {
    const double slot = 1000.0 / kClusters;
    return dar::GenerateDrifting(
        dar::WbcdLikeSpec(kAttrs, kClusters, 0.0, kShapeSeed),
        kBatchRows * kBatches, kDriftRow, 0.25 * slot, options.seed);
  };
  shape.batch_rows = kBatchRows;
  const StreamSamples samples = MeasureStream(shape, options, report);
  if (!report.correct()) return;
  const dar::PlantedDataset& data = *samples.data;

  // Scores are finite, pruning never exceeds the total, and the shifted
  // means show up as born, died or drifted rules after the drift row.
  const dar::quality::ScoredRuleSet* scored = samples.last->scored();
  report.Check(scored != nullptr, "the final snapshot is scored");
  if (scored == nullptr) return;
  bool finite = true;
  for (const auto& column : scored->scores) {
    for (double score : column) finite = finite && std::isfinite(score);
  }
  report.Check(finite, "every score is finite");
  bool drift_reported = false;
  for (size_t k = 0; k < samples.publications.size(); ++k) {
    const Publication& p = samples.publications[k];
    report.Check(p.pruned <= p.rules, "pruned <= total rules");
    if ((k + 1) * kBatchRows > kDriftRow) {
      drift_reported =
          drift_reported || p.born + p.died + p.drifted > 0;
    }
  }
  report.Check(drift_reported, "the injected drift is reported");
  std::cout << "rules (born/died/drifted) by refresh:";
  for (const Publication& p : samples.publications) {
    std::cout << " " << p.rules << "(" << p.born << "/" << p.died << "/"
              << p.drifted << ")";
  }
  std::cout << "\n";
  if (!options.trace) return;

  RecordSpeedups(shape.config, data.relation, data.partition,
                 samples.last->phase1(), options.parallel, report);
  dar::SerialExecutor serial;
  dar::ThreadPoolExecutor pool(options.parallel);
  auto stats_time = [&](dar::Executor& executor) {
    const Clock::time_point t = Clock::now();
    auto stats = dar::ComputeRuleStats(data.relation, data.partition,
                                       samples.last->clusters(),
                                       samples.last->rules(), &executor);
    report.Check(stats.ok(), "speedup ComputeRuleStats");
    return SecondsSince(t);
  };
  const double one = stats_time(serial);
  const double many = stats_time(pool);
  report.SetLayer("quality.stats_speedup", many > 0 ? one / many : 0.0);
}

}  // namespace perfbench
