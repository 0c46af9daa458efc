// mine_paper: the paper's own workload. Session::Mine over the §7.2
// substitute (30 attributes x 35 clusters, 90 partial patterns over 6
// attributes each, 20% uniform noise) on 50k rows, with the thresholds of
// bench/sec72_phase2_stability.cc and max_rules raised above the complete
// rule count so the output is never truncated. The clusters and rules do
// not depend on the row count (Phase II cost holds steady in N, §7.2); at
// 50k rows Phase I is ~40% of a single-thread mine and rule formation ~55%.
//
// Each timed mine runs in a child forked from the set-up process, so every
// sample starts from the same state, as a one-shot run of the miner does.
// A second Mine in one process allocates from the first one's freed heap;
// under host memory contention that ran 20-40% slower than the first mine
// and mixed two populations in a run of a few samples.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <optional>

#include "bench.h"
#include "core/phase1_builder.h"
#include "core/session.h"
#include "datagen/planted.h"

namespace perfbench {
namespace {

// What a child reports about its mine, through a pipe.
struct MineSample {
  double seconds = 0;
  double phase1_seconds = 0;
  double peak_rss_mib = 0;
  uint64_t fingerprint = 0;
  uint64_t rules = 0;
  int64_t degree_evaluations = 0;
  int64_t graph_comparisons = 0;
  int32_t ok = 0;
  int32_t truncated = 0;
};

// Runs session.Mine in a forked child and waits for it. False when the
// child could not be started, did not report, or did not exit cleanly.
// The session must run on a serial executor: a forked child has only the
// forking thread, so a thread pool's workers would be missing in it.
bool MineInChild(dar::Session& session, const dar::PlantedDataset& data,
                 MineSample& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    MineSample sample;
    const Clock::time_point t = Clock::now();
    auto mined = session.Mine(data.relation, data.partition);
    sample.seconds = SecondsSince(t);
    sample.peak_rss_mib = PeakRssMib();
    if (mined.ok()) {
      sample.ok = 1;
      sample.phase1_seconds = mined->phase1().seconds;
      sample.fingerprint = Fingerprint(mined->rules());
      sample.rules = mined->rules().size();
      sample.degree_evaluations = mined->degree_evaluations();
      sample.graph_comparisons = mined->graph_comparisons_made();
      sample.truncated = mined->phase2().rules_truncated ||
                         mined->phase2().cliques_truncated;
    }
    const char* p = reinterpret_cast<const char*>(&sample);
    size_t left = sizeof sample;
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  char* p = reinterpret_cast<char*>(&out);
  size_t got = 0;
  while (got < sizeof out) {
    const ssize_t n = read(fds[0], p + got, sizeof out - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got == sizeof out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

void RunMinePaper(const Options& options, Report& report) {
  constexpr size_t kRows = 50000;
  constexpr int kSetupReps = 3;
  constexpr size_t kMinMines = 3;

  dar::DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.005;
  config.refine_clusters = true;
  config.density_thresholds.assign(30, 125.0);
  config.phase2_leniency = 2.0;
  config.degree_threshold = 250.0;
  config.max_rules = 1000000;  // above the complete count (~199k)

  // Set-up, repeated: input generation and the Session build (config
  // validation, executor start).
  std::vector<double> setup_s;
  std::optional<dar::PlantedDataset> data;
  std::optional<dar::Session> session;
  for (int i = 0; i < kSetupReps; ++i) {
    data.reset();
    session.reset();
    const Clock::time_point t = Clock::now();
    auto spec =
        dar::WbcdPartialPatternSpec(30, 35, 90, 6, 0.2, kShapeSeed);
    report.Check(spec.ok(), "WbcdPartialPatternSpec");
    if (!spec.ok()) return;
    auto generated = dar::GeneratePlanted(*spec, kRows, options.seed);
    report.Check(generated.ok(), "GeneratePlanted");
    if (!generated.ok()) return;
    data.emplace(std::move(*generated));
    auto built = dar::Session::Builder()
                     .WithConfig(config)
                     .WithThreads(options.threads)
                     .Build();
    setup_s.push_back(SecondsSince(t));
    report.Attempt(!built.ok());
    report.Check(built.ok(), "Session build");
    if (!built.ok()) return;
    session.emplace(std::move(*built));
  }

  std::vector<double> mine_s, phase1_s;
  MineSample first;  // the reference output: the first child's
  const Clock::time_point start = Clock::now();
  // At least kMinMines, then more while another fits in the run.
  while (mine_s.size() < kMinMines ||
         SecondsSince(start) + Median(mine_s) <= options.seconds) {
    MineSample sample;
    const bool ran = MineInChild(*session, *data, sample);
    report.Attempt(!ran || sample.ok == 0);
    if (!ran || sample.ok == 0) {
      report.Check(false, "Session::Mine in a child process");
      return;
    }
    report.Check(sample.truncated == 0, "Mine output is not truncated");
    if (mine_s.empty()) {
      first = sample;
    } else {
      report.Check(sample.fingerprint == first.fingerprint &&
                       sample.rules == first.rules,
                   "repeated Mine calls return the same rules");
    }
    mine_s.push_back(sample.seconds);
    phase1_s.push_back(sample.phase1_seconds);
  }
  const double mine_p50 = Median(mine_s);
  report.SetEndToEnd("setup_s", Median(setup_s));
  report.SetEndToEnd("refresh_p50_s", mine_p50);
  report.SetEndToEnd("refresh_p75_s", Quantile(mine_s, 0.75));
  report.SetLayer("ingest_rows_per_s",
                     static_cast<double>(kRows) / Median(phase1_s));
  report.SetEndToEnd("peak_rss_mib", first.peak_rss_mib);
  if (!options.trace) return;

  // Replay: the same mine through each layer's public function.
  dar::Executor* executor = &session->executor();
  const Clock::time_point wall = Clock::now();
  auto builder = dar::Phase1Builder::Make(config, data->relation.schema(),
                                          data->partition, executor);
  report.Check(builder.ok(), "replay Phase1Builder::Make");
  if (!builder.ok()) return;
  Clock::time_point t = Clock::now();
  const dar::Status added = builder->AddRelation(data->relation);
  const double add_s = SecondsSince(t);
  report.Check(added.ok(), "replay AddRelation");
  t = Clock::now();
  auto phase1 = std::move(*builder).Finish();
  const double finish_s = SecondsSince(t);
  report.Check(phase1.ok(), "replay Finish");
  if (!added.ok() || !phase1.ok()) return;
  Phase2Stages stages;
  const dar::Phase2Result phase2 =
      ReplayPhase2(*phase1, config, executor, stages);
  const double replay_s = SecondsSince(wall);

  report.Check(Fingerprint(phase2.rules) == first.fingerprint &&
                   phase2.rules.size() == first.rules,
               "replayed rules equal Session::Mine's rules");
  report.Check(stages.degree_evaluations == first.degree_evaluations &&
                   stages.edge_evaluations == first.graph_comparisons,
               "replayed counts equal Session::Mine's telemetry");
  RecordMineReplay(*phase1, add_s, finish_s, stages, phase2.rules.size(),
                   report);
  const double stages_s =
      add_s + finish_s + stages.edges_s + stages.cliques_s + stages.rules_s;
  report.SetLayer("trace.coverage", stages_s / mine_p50);
  report.SetLayer("trace.residual_s", mine_p50 - stages_s);
  report.SetLayer("trace.overhead", replay_s / mine_p50 - 1.0);
  RecordSpeedups(config, data->relation, data->partition, *phase1,
                 options.parallel, report);
}

}  // namespace perfbench
