// Unified JSON bench harness. Executes the phase-1-scaling,
// phase-2-stability, streaming-remine, checkpoint-persistence,
// rule-serving, shard-merge, rule-quality, clique-engine, and
// micro-kernel suites over seeded planted generators and writes
// BENCH_phase1.json / BENCH_phase2.json / BENCH_stream.json /
// BENCH_persist.json / BENCH_serve.json / BENCH_merge.json /
// BENCH_quality.json / BENCH_graph.json / BENCH_micro.json (by default
// into the current directory), seeding the perf trajectory that
// EXPERIMENTS.md ("Reading BENCH_*.json") documents.
//
// Usage: bench_main [--smoke] [--outdir DIR] [--seed N] [--threads N]
//                   [--no-timings]
//
// Every run's "telemetry" field is the *deterministic view* of the run's
// metrics (JsonExporter with include_timings=false): for a fixed seed and
// config it is bit-identical across thread counts and repeated runs. The
// "timings" objects carry wall-clock seconds and naturally vary;
// --no-timings omits them (and nothing else), so entire output files
// become byte-comparable — CI's bench-smoke job diffs a 1-thread and an
// 8-thread --smoke run exactly this way.
//
// A suite that fails does not stop the run: the remaining suites still
// run and every suite that passed writes its file. The failed suites are
// named on stderr and the exit status is 1.

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "birch/acf_tree.h"
#include "birch/metrics.h"
#include "common/executor.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/clustering_graph.h"
#include "core/rule_gen.h"
#include "core/rule_stats.h"
#include "core/session.h"
#include "datagen/graphs.h"
#include "datagen/planted.h"
#include "graph/clique.h"
#include "graph/graph.h"
#include "quality/diff.h"
#include "quality/scored_rules.h"
#include "serve/client.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "stream/streaming_miner.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace dar {
namespace {

struct BenchOptions {
  bool smoke = false;
  bool include_timings = true;
  std::string outdir = ".";
  uint64_t seed = 1997;
  int threads = 1;
};

// One benchmark execution: scalar parameters, wall-clock timings, and the
// deterministic telemetry export (a complete JSON object).
struct RunRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> params;
  std::vector<std::pair<std::string, double>> timings;
  std::string telemetry_json;
};

std::string DeterministicTelemetry(const telemetry::Snapshot& snapshot) {
  telemetry::JsonExporterOptions options;
  options.include_timings = false;
  return telemetry::JsonExporter(options).Export(snapshot);
}

int WriteSuite(const BenchOptions& options, const std::string& suite,
               const std::vector<RunRecord>& runs) {
  telemetry::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(1);
  w.Key("suite");
  w.String(suite);
  w.Key("smoke");
  w.Bool(options.smoke);
  w.Key("seed");
  w.Int(static_cast<int64_t>(options.seed));
  w.Key("runs");
  w.BeginArray();
  for (const RunRecord& run : runs) {
    w.BeginObject();
    w.Key("name");
    w.String(run.name);
    w.Key("params");
    w.BeginObject();
    for (const auto& [key, value] : run.params) {
      w.Key(key);
      w.Double(value);
    }
    w.EndObject();
    if (options.include_timings) {
      w.Key("timings");
      w.BeginObject();
      for (const auto& [key, value] : run.timings) {
        w.Key(key);
        w.Double(value);
      }
      w.EndObject();
    }
    w.Key("telemetry");
    w.Raw(run.telemetry_json);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string path = options.outdir + "/BENCH_" + suite + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << w.str() << "\n";
  if (!out.good()) {
    std::cerr << "bench_main: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (" << runs.size() << " runs)\n";
  return 0;
}

Result<Session> MakeSession(const BenchOptions& options, DarConfig config) {
  return Session::Builder()
      .WithConfig(config)
      .WithThreads(options.threads)
      .Build();
}

// --- Suite 1: Phase-I scaling (the Figure-6 axis: N grows, structure
// fixed, ACF count and scan cost should stay stable). ---

int RunPhase1Suite(const BenchOptions& options,
                   std::vector<RunRecord>& runs) {
  const size_t attrs = options.smoke ? 4 : 30;
  const size_t clusters = options.smoke ? 3 : 35;
  const std::vector<size_t> sizes =
      options.smoke ? std::vector<size_t>{2000, 4000}
                    : std::vector<size_t>{100000, 200000, 400000};
  const PlantedDataSpec spec =
      WbcdLikeSpec(attrs, clusters, 0.1, options.seed);
  for (const size_t n : sizes) {
    auto data = GeneratePlanted(spec, n, options.seed + n);
    if (!data.ok()) {
      std::cerr << data.status() << "\n";
      return 1;
    }
    DarConfig config;
    config.memory_budget_bytes = 32u << 20;
    config.frequency_fraction = 0.5 / static_cast<double>(clusters);
    config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
    config.refine_clusters = true;
    auto session = MakeSession(options, config);
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    Stopwatch watch;
    auto phase1 = session->RunPhase1(data->relation, data->partition);
    const double seconds = watch.ElapsedSeconds();
    if (!phase1.ok()) {
      std::cerr << phase1.status() << "\n";
      return 1;
    }
    RunRecord run;
    run.name = "phase1/n=" + std::to_string(n);
    run.params = {{"n", static_cast<double>(n)},
                  {"attrs", static_cast<double>(attrs)},
                  {"clusters_per_attr", static_cast<double>(clusters)}};
    run.timings = {{"seconds", seconds},
                   {"phase1_seconds", phase1->seconds}};
    run.telemetry_json =
        DeterministicTelemetry(session->metrics().TakeSnapshot());
    runs.push_back(std::move(run));
  }
  return 0;
}

// --- Suite 2: Phase-II stability (full Mine; clique and edge counts
// should stay roughly constant as N grows at fixed complexity). ---

int RunPhase2Suite(const BenchOptions& options,
                   std::vector<RunRecord>& runs) {
  const size_t attrs = options.smoke ? 4 : 10;
  const size_t clusters = options.smoke ? 3 : 8;
  const std::vector<size_t> sizes =
      options.smoke ? std::vector<size_t>{2000, 4000}
                    : std::vector<size_t>{50000, 100000, 200000};
  const PlantedDataSpec spec =
      WbcdLikeSpec(attrs, clusters, 0.05, options.seed + 1);
  for (const size_t n : sizes) {
    auto data = GeneratePlanted(spec, n, options.seed + 2 * n);
    if (!data.ok()) {
      std::cerr << data.status() << "\n";
      return 1;
    }
    DarConfig config;
    config.memory_budget_bytes = 32u << 20;
    config.frequency_fraction = 0.5 / static_cast<double>(clusters);
    config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
    config.degree_threshold = 150.0;
    config.refine_clusters = true;
    auto session = MakeSession(options, config);
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }
    Stopwatch watch;
    auto report = session->Mine(data->relation, data->partition);
    const double seconds = watch.ElapsedSeconds();
    if (!report.ok()) {
      std::cerr << report.status() << "\n";
      return 1;
    }
    RunRecord run;
    run.name = "phase2/n=" + std::to_string(n);
    run.params = {{"n", static_cast<double>(n)},
                  {"attrs", static_cast<double>(attrs)},
                  {"clusters_per_attr", static_cast<double>(clusters)}};
    run.timings = {{"seconds", seconds},
                   {"phase1_seconds", report->phase1().seconds},
                   {"phase2_seconds", report->phase2().seconds}};
    run.telemetry_json = DeterministicTelemetry(report->telemetry);
    runs.push_back(std::move(run));
  }
  return 0;
}

// --- Suite: streaming — the incremental re-mine claim. Ingest N rows as
// micro-batches into a dar::stream, then compare the cost of refreshing
// the rules incrementally (clone live summaries + Phase II, no data
// rescan) against a cold full re-mine (fresh Session::Mine over the same
// accumulated relation). The whole point of summary-only re-mining is
// that `speedup` grows with N. ---

int RunStreamSuite(const BenchOptions& options,
                   std::vector<RunRecord>& runs) {
  const size_t attrs = options.smoke ? 4 : 10;
  const size_t clusters = options.smoke ? 3 : 8;
  const size_t n = options.smoke ? 20000 : 200000;
  const size_t batch_rows = n / 20;
  constexpr int kRemines = 5;  // averaged to de-noise the short refresh
  const PlantedDataSpec spec =
      WbcdLikeSpec(attrs, clusters, 0.05, options.seed + 21);
  auto data = GeneratePlanted(spec, n, options.seed + 22);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
  config.degree_threshold = 150.0;
  auto session = MakeSession(options, config);
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  StreamConfig stream_config;
  stream_config.remine_every_rows = 0;  // remine explicitly, timed below
  auto stream = session->OpenStream(data->relation.schema(),
                                    data->partition, stream_config);
  if (!stream.ok()) {
    std::cerr << stream.status() << "\n";
    return 1;
  }
  Stopwatch ingest_watch;
  for (size_t begin = 0; begin < n; begin += batch_rows) {
    const size_t end = std::min(n, begin + batch_rows);
    Relation batch(data->relation.schema());
    batch.Reserve(end - begin);
    for (size_t r = begin; r < end; ++r) {
      (void)batch.AppendRow(data->relation.Row(r));
    }
    if (auto s = (*stream)->Ingest(batch); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }
  const double ingest_seconds = ingest_watch.ElapsedSeconds();

  Stopwatch remine_watch;
  for (int i = 0; i < kRemines; ++i) {
    auto snapshot = (*stream)->Remine();
    if (!snapshot.ok()) {
      std::cerr << snapshot.status() << "\n";
      return 1;
    }
  }
  const double incremental_seconds =
      remine_watch.ElapsedSeconds() / kRemines;

  // Cold baseline: everything the stream already knows, mined from
  // scratch (fresh trees, full Phase-I pass over all N rows).
  auto cold_session = MakeSession(options, config);
  if (!cold_session.ok()) {
    std::cerr << cold_session.status() << "\n";
    return 1;
  }
  Stopwatch cold_watch;
  auto cold = cold_session->Mine(data->relation, data->partition);
  const double cold_seconds = cold_watch.ElapsedSeconds();
  if (!cold.ok()) {
    std::cerr << cold.status() << "\n";
    return 1;
  }

  RunRecord run;
  run.name = "stream/n=" + std::to_string(n);
  run.params = {{"n", static_cast<double>(n)},
                {"attrs", static_cast<double>(attrs)},
                {"clusters_per_attr", static_cast<double>(clusters)},
                {"batch_rows", static_cast<double>(batch_rows)},
                {"remines", static_cast<double>(kRemines)}};
  run.timings = {{"ingest_seconds", ingest_seconds},
                 {"incremental_remine_seconds", incremental_seconds},
                 {"cold_remine_seconds", cold_seconds},
                 {"speedup", incremental_seconds > 0
                                 ? cold_seconds / incremental_seconds
                                 : 0.0}};
  run.telemetry_json =
      DeterministicTelemetry(session->metrics().TakeSnapshot());
  runs.push_back(std::move(run));
  return 0;
}

// --- Suite: persist — checkpoint save/restore throughput plus the warm
// re-mine claim: a restored checkpoint carries complete ACF summaries
// (Thm 6.1), so refreshing the rules after a restore costs Phase II only
// while a cold mine pays the full Phase-I scan over all N rows. The
// checkpoint file is deleted before returning so --outdir holds nothing
// but BENCH_*.json (CI diffs the 1-thread and 8-thread directories). ---

int RunPersistSuite(const BenchOptions& options,
                    std::vector<RunRecord>& runs) {
  const size_t attrs = options.smoke ? 4 : 10;
  const size_t clusters = options.smoke ? 3 : 8;
  const size_t n = options.smoke ? 20000 : 200000;
  constexpr int kReps = 3;  // averaged to de-noise the short file ops
  const PlantedDataSpec spec =
      WbcdLikeSpec(attrs, clusters, 0.05, options.seed + 31);
  auto data = GeneratePlanted(spec, n, options.seed + 32);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
  config.degree_threshold = 150.0;
  auto session = MakeSession(options, config);
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  StreamConfig stream_config;
  stream_config.remine_every_rows = 0;
  auto stream = session->OpenStream(data->relation.schema(),
                                    data->partition, stream_config);
  if (!stream.ok()) {
    std::cerr << stream.status() << "\n";
    return 1;
  }
  if (auto s = (*stream)->Ingest(data->relation); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  if (auto snapshot = (*stream)->Remine(); !snapshot.ok()) {
    std::cerr << snapshot.status() << "\n";
    return 1;
  }

  const std::string ckpt_path = options.outdir + "/bench_persist.darckpt";
  Stopwatch save_watch;
  for (int i = 0; i < kReps; ++i) {
    if (auto s = session->SaveCheckpoint(**stream, ckpt_path); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }
  const double save_seconds = save_watch.ElapsedSeconds() / kReps;
  size_t checkpoint_bytes = 0;
  {
    std::ifstream in(ckpt_path, std::ios::binary | std::ios::ate);
    if (in.good()) checkpoint_bytes = static_cast<size_t>(in.tellg());
  }

  Stopwatch load_watch;
  Result<RestoredStream> restored = Status::Internal("never restored");
  for (int i = 0; i < kReps; ++i) {
    restored = session->RestoreCheckpoint(ckpt_path);
    if (!restored.ok()) {
      std::cerr << restored.status() << "\n";
      return 1;
    }
  }
  const double load_seconds = load_watch.ElapsedSeconds() / kReps;

  // Warm refresh: Phase II from the restored summaries, no data access.
  Stopwatch warm_watch;
  for (int i = 0; i < kReps; ++i) {
    auto snapshot = restored->stream->Remine();
    if (!snapshot.ok()) {
      std::cerr << snapshot.status() << "\n";
      return 1;
    }
  }
  const double warm_seconds = warm_watch.ElapsedSeconds() / kReps;

  // Cold baseline: the same rules mined from scratch out of the raw data.
  auto cold_session = MakeSession(options, config);
  if (!cold_session.ok()) {
    std::cerr << cold_session.status() << "\n";
    return 1;
  }
  Stopwatch cold_watch;
  auto cold = cold_session->Mine(data->relation, data->partition);
  const double cold_seconds = cold_watch.ElapsedSeconds();
  if (!cold.ok()) {
    std::cerr << cold.status() << "\n";
    return 1;
  }

  std::remove(ckpt_path.c_str());

  RunRecord run;
  run.name = "persist/n=" + std::to_string(n);
  run.params = {{"n", static_cast<double>(n)},
                {"attrs", static_cast<double>(attrs)},
                {"clusters_per_attr", static_cast<double>(clusters)},
                {"reps", static_cast<double>(kReps)},
                {"checkpoint_bytes", static_cast<double>(checkpoint_bytes)}};
  run.timings = {
      {"save_seconds", save_seconds},
      {"save_bytes_per_second",
       save_seconds > 0 ? static_cast<double>(checkpoint_bytes) / save_seconds
                        : 0.0},
      {"load_seconds", load_seconds},
      {"load_bytes_per_second",
       load_seconds > 0 ? static_cast<double>(checkpoint_bytes) / load_seconds
                        : 0.0},
      {"warm_remine_seconds", warm_seconds},
      {"cold_mine_seconds", cold_seconds},
      {"warm_speedup", warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0}};
  run.telemetry_json =
      DeterministicTelemetry(session->metrics().TakeSnapshot());
  runs.push_back(std::move(run));
  return 0;
}

// --- Suite: serve — mixed query traffic from concurrent binary clients
// against a live RuleServer on loopback, with snapshot hot-swaps
// mid-traffic. Request counts are fixed (70/20/10 point/list/info by
// request index) so the suite's telemetry view is deterministic and CI
// can byte-diff it across thread counts; only the "timings" object (QPS
// and client-observed latency percentiles) varies run to run. Traffic
// runs in phases separated by a barrier: the writer ingests a chunk and
// re-mines DURING phases 1..3, so every swap overlaps live queries. Each
// client validates every response's (generation, rows_ingested) pair
// against the writer's publication ledger after the fact — a mixed-
// generation response would pair them wrongly. ---

int RunServeSuite(const BenchOptions& options, std::vector<RunRecord>& runs) {
  const size_t attrs = 4;
  const size_t clusters = 3;
  const size_t clients = 8;
  const size_t phases = 4;  // phase 0 on generation 1, then 3 hot swaps
  const size_t requests_per_phase = options.smoke ? 30 : 150;
  const size_t requests_per_client = phases * requests_per_phase;
  const size_t chunk_rows = options.smoke ? 3000 : 10000;
  const size_t n = phases * chunk_rows;

  const PlantedDataSpec spec =
      WbcdLikeSpec(attrs, clusters, 0.05, options.seed + 41);
  auto data = GeneratePlanted(spec, n, options.seed + 42);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
  config.degree_threshold = 150.0;
  auto session = MakeSession(options, config);
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  StreamConfig stream_config;
  stream_config.remine_every_rows = 0;  // the writer publishes explicitly
  auto stream = session->OpenStream(data->relation.schema(),
                                    data->partition, stream_config);
  if (!stream.ok()) {
    std::cerr << stream.status() << "\n";
    return 1;
  }

  // Generation 1 before any traffic, from the first chunk.
  auto ingest_chunk = [&](size_t phase) -> Status {
    const size_t begin = phase * chunk_rows;
    const size_t end = std::min(n, begin + chunk_rows);
    for (size_t r = begin; r < end; ++r) {
      DAR_RETURN_IF_ERROR((*stream)->IngestRow(data->relation.Row(r)));
    }
    DAR_ASSIGN_OR_RETURN(auto snapshot, (*stream)->Remine());
    (void)snapshot;
    return Status::OK();
  };
  if (auto s = ingest_chunk(0); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  telemetry::MetricsRegistry registry;
  QueryService service(&registry);
  service.AttachStream(**stream);
  serve::ServerConfig server_config;
  server_config.admission.max_concurrent = 0;  // never shed: the bench
  server_config.admission.max_per_tenant = 0;  // must drop zero responses
  server_config.admission.max_tenant_requests = 0;
  serve::RuleServer server(service, server_config, &registry);
  if (auto s = server.Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  // Publication ledger: appended only by the writer, read by clients only
  // after join.
  std::vector<std::pair<uint64_t, int64_t>> published;
  published.push_back({(*stream)->generation(), (*stream)->rows_ingested()});

  struct ClientStats {
    std::vector<double> latencies;
    uint64_t dropped = 0;
    std::vector<std::pair<uint64_t, int64_t>> seen;  // deduped pairs
    bool connect_failed = false;
  };
  std::vector<ClientStats> stats(clients);
  std::barrier sync(static_cast<std::ptrdiff_t>(clients) + 1);
  std::atomic<bool> writer_failed{false};

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      ClientStats& mine = stats[c];
      mine.latencies.reserve(requests_per_client);
      auto client = serve::RuleClient::Connect(
          "127.0.0.1", server.port(), "bench-" + std::to_string(c));
      if (!client.ok()) {
        mine.connect_failed = true;
        for (size_t p = 0; p < phases; ++p) sync.arrive_and_wait();
        return;
      }
      PointQueryResponse point;
      RuleListResponse list;
      SnapshotInfoResponse info;
      std::vector<double> tuple;
      auto note = [&mine](uint64_t generation, int64_t rows) {
        const auto pair = std::make_pair(generation, rows);
        if (std::find(mine.seen.begin(), mine.seen.end(), pair) ==
            mine.seen.end()) {
          mine.seen.push_back(pair);
        }
      };
      for (size_t p = 0; p < phases; ++p) {
        sync.arrive_and_wait();
        for (size_t i = 0; i < requests_per_phase; ++i) {
          const size_t idx = p * requests_per_phase + i;
          Stopwatch watch;
          Status status = Status::OK();
          if (idx % 10 < 7) {
            tuple = data->relation.Row((c * 131 + idx * 17) % n);
            PointQueryRequest request;
            request.tuple = tuple;
            status = client->PointQuery(request, point);
            if (status.ok()) note(point.generation, point.rows_ingested);
          } else if (idx % 10 < 9) {
            RuleListRequest request;
            request.offset = static_cast<uint32_t>(idx % 3);
            request.limit = 8;
            status = client->ListRules(request, list);
            if (status.ok()) note(list.generation, list.rows_ingested);
          } else {
            status = client->SnapshotInfo(info);
            if (status.ok()) note(info.generation, info.rows_ingested);
          }
          mine.latencies.push_back(watch.ElapsedSeconds());
          if (!status.ok()) ++mine.dropped;
        }
      }
    });
  }

  // The writer drives the barrier: phase 0 serves generation 1 untouched;
  // during phases 1..3 it ingests the next chunk and hot-swaps.
  Stopwatch traffic_watch;
  for (size_t p = 0; p < phases; ++p) {
    sync.arrive_and_wait();
    if (p + 1 < phases) {
      if (auto s = ingest_chunk(p + 1); !s.ok()) {
        std::cerr << s << "\n";
        writer_failed.store(true);
      }
      published.push_back(
          {(*stream)->generation(), (*stream)->rows_ingested()});
    }
  }
  for (std::thread& worker : workers) worker.join();
  const double traffic_seconds = traffic_watch.ElapsedSeconds();
  server.Stop();
  if (writer_failed.load()) return 1;

  uint64_t dropped = 0;
  uint64_t inconsistent = 0;
  std::vector<double> latencies;
  latencies.reserve(clients * requests_per_client);
  for (const ClientStats& mine : stats) {
    if (mine.connect_failed) {
      std::cerr << "bench serve: client failed to connect\n";
      return 1;
    }
    dropped += mine.dropped;
    for (const auto& pair : mine.seen) {
      if (std::find(published.begin(), published.end(), pair) ==
          published.end()) {
        ++inconsistent;
      }
    }
    latencies.insert(latencies.end(), mine.latencies.begin(),
                     mine.latencies.end());
  }
  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&latencies](double q) {
    if (latencies.empty()) return 0.0;
    const size_t idx = std::min(
        latencies.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies.size())));
    return latencies[idx];
  };
  const double total_requests =
      static_cast<double>(clients * requests_per_client);

  // The final queue-depth value depends on request-release interleaving;
  // pin it so the deterministic telemetry view stays byte-identical.
  registry.GetGauge("serve.queue_depth")->Set(0);

  if (dropped != 0 || inconsistent != 0) {
    std::cerr << "bench serve: " << dropped << " dropped and " << inconsistent
              << " cross-generation-inconsistent responses (want 0)\n";
    return 1;
  }

  RunRecord run;
  run.name = "serve/clients=" + std::to_string(clients);
  run.params = {{"n", static_cast<double>(n)},
                {"clients", static_cast<double>(clients)},
                {"requests_per_client", static_cast<double>(requests_per_client)},
                {"swaps", static_cast<double>(phases - 1)},
                {"dropped_responses", static_cast<double>(dropped)},
                {"inconsistent_responses", static_cast<double>(inconsistent)}};
  run.timings = {
      {"seconds", traffic_seconds},
      {"qps", traffic_seconds > 0 ? total_requests / traffic_seconds : 0.0},
      {"p50_seconds", percentile(0.50)},
      {"p99_seconds", percentile(0.99)},
      {"p999_seconds", percentile(0.999)}};
  run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
  runs.push_back(std::move(run));
  return 0;
}

// --- Suite: graph — the dar::graph clique engine on adversarial graphs,
// fed directly (no mining pipeline). graph/planted enumerates a >= 5k-node
// overlapping-planted-clique graph with G(n,p) background noise, once
// serially and once on the session executor; on multi-core hardware the
// per-component fan-out shows up as timings.speedup ~ min(threads,
// components). graph/moonmoser_cap and graph/moonmoser_steps drive the
// Moon-Moser worst case (3^k maximal cliques) into each budget separately,
// so the two truncation flags are exercised as distinct signals.
// graph/oracle_* replay verification-sized instances against the
// exponential brute-force oracle; dropped/spurious counts land in params
// and must be zero (tools/check_bench_json.py enforces it). The telemetry
// view and all params are thread-count invariant, so CI byte-diffs the
// --no-timings output across 1 and 8 threads like every other suite. ---

// Brute-force maximal-clique count oracle over bitmask subsets; only for
// graphs with <= 20 nodes.
std::vector<std::vector<uint32_t>> OracleMaximalCliques(
    const graph::Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<uint64_t> nbr(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t w : g.Neighbors(v)) nbr[v] |= uint64_t{1} << w;
  }
  std::vector<std::vector<uint32_t>> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
    bool is_clique = true;
    for (uint32_t v = 0; v < n && is_clique; ++v) {
      if (((mask >> v) & 1) != 0 &&
          ((mask & ~(uint64_t{1} << v)) & ~nbr[v]) != 0) {
        is_clique = false;
      }
    }
    if (!is_clique) continue;
    bool is_maximal = true;
    for (uint32_t v = 0; v < n && is_maximal; ++v) {
      if (((mask >> v) & 1) == 0 && (mask & nbr[v]) == mask) {
        is_maximal = false;
      }
    }
    if (!is_maximal) continue;
    std::vector<uint32_t>& clique = out.emplace_back();
    for (uint32_t v = 0; v < n; ++v) {
      if (((mask >> v) & 1) != 0) clique.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Count of cliques in `a` missing from `b` (both sorted canonical).
size_t MissingFrom(const std::vector<std::vector<uint32_t>>& a,
                   const std::vector<std::vector<uint32_t>>& b) {
  size_t missing = 0;
  for (const auto& clique : a) {
    if (!std::binary_search(b.begin(), b.end(), clique)) ++missing;
  }
  return missing;
}

void AppendGraphParams(const graph::Graph& g,
                       const graph::CliqueResult& result, RunRecord* run) {
  run->params.emplace_back("num_nodes", static_cast<double>(g.num_nodes()));
  run->params.emplace_back("num_edges", static_cast<double>(g.num_edges()));
  run->params.emplace_back("components",
                           static_cast<double>(result.num_components));
  run->params.emplace_back("degeneracy",
                           static_cast<double>(result.degeneracy));
  run->params.emplace_back("cliques",
                           static_cast<double>(result.cliques.size()));
  run->params.emplace_back("largest_clique",
                           static_cast<double>(result.largest_clique));
  run->params.emplace_back("clique_cap_truncated",
                           result.clique_cap_truncated ? 1.0 : 0.0);
  run->params.emplace_back("step_budget_truncated",
                           result.step_budget_truncated ? 1.0 : 0.0);
}

int RunGraphSuite(const BenchOptions& options, std::vector<RunRecord>& runs) {
  auto pool = MakeExecutor(options.threads);

  // (a) Adversarial planted-clique graph, always >= 5k nodes (graph
  // generation is cheap even in smoke mode; what smoke trims is noise).
  {
    PlantedCliqueGraphSpec spec;
    spec.num_nodes = options.smoke ? 6000 : 20000;
    spec.num_cliques = options.smoke ? 60 : 300;
    spec.clique_size = 24;
    spec.overlap = 6;
    spec.background_p = options.smoke ? 0.0002 : 0.0001;
    spec.seed = options.seed + 61;
    auto generated = GeneratePlantedCliqueGraph(spec);
    if (!generated.ok()) {
      std::cerr << generated.status() << "\n";
      return 1;
    }
    const graph::Graph g =
        graph::Graph::FromEdges(generated->num_nodes, generated->edges);

    graph::CliqueOptions serial_opts;
    Stopwatch serial_watch;
    const graph::CliqueResult serial_result =
        graph::EnumerateMaximalCliques(g, serial_opts);
    const double serial_seconds = serial_watch.ElapsedSeconds();

    telemetry::MetricsRegistry registry;
    graph::CliqueOptions par_opts;
    par_opts.executor = pool.get();
    par_opts.telemetry = telemetry::TelemetryContext(&registry);
    Stopwatch watch;
    const graph::CliqueResult result =
        graph::EnumerateMaximalCliques(g, par_opts);
    const double seconds = watch.ElapsedSeconds();
    if (result.cliques != serial_result.cliques) {
      std::cerr << "graph/planted: executor run diverged from serial run\n";
      return 1;
    }

    RunRecord run;
    run.name = "graph/planted";
    run.params = {
        {"planted_cliques", static_cast<double>(spec.num_cliques)},
        {"clique_size", static_cast<double>(spec.clique_size)},
        {"overlap", static_cast<double>(spec.overlap)}};
    AppendGraphParams(g, result, &run);
    run.timings = {{"seconds", seconds},
                   {"single_thread_seconds", serial_seconds},
                   {"speedup",
                    seconds > 0 ? serial_seconds / seconds : 0.0}};
    run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
    runs.push_back(std::move(run));
  }

  // (b)/(c) Moon-Moser worst case vs each budget: the cap and the step
  // budget must truncate loudly — and separately.
  for (const bool use_cap : {true, false}) {
    const size_t k = options.smoke ? 8 : 10;
    const GeneratedGraph mm = MoonMoserGraph(k);
    const graph::Graph g = graph::Graph::FromEdges(mm.num_nodes, mm.edges);
    telemetry::MetricsRegistry registry;
    graph::CliqueOptions copts;
    copts.executor = pool.get();
    copts.telemetry = telemetry::TelemetryContext(&registry);
    if (use_cap) {
      copts.max_cliques = 1000;  // 3^k is 6561 (smoke) or 59049
    } else {
      copts.max_steps = 500;
    }
    Stopwatch watch;
    const graph::CliqueResult result =
        graph::EnumerateMaximalCliques(g, copts);
    const double seconds = watch.ElapsedSeconds();
    const bool expected_flag = use_cap ? result.clique_cap_truncated
                                       : result.step_budget_truncated;
    if (!expected_flag) {
      std::cerr << "graph/moonmoser: budget failed to truncate\n";
      return 1;
    }

    RunRecord run;
    run.name = use_cap ? "graph/moonmoser_cap" : "graph/moonmoser_steps";
    run.params = {{"k", static_cast<double>(k)}};
    AppendGraphParams(g, result, &run);
    run.timings = {{"seconds", seconds}};
    run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
    runs.push_back(std::move(run));
  }

  // (d) Verification-sized instances against the brute-force oracle. Both
  // counts must be zero; a nonzero count is a bug, not a data point.
  struct OracleCase {
    const char* name;
    GeneratedGraph generated;
  };
  PlantedCliqueGraphSpec vspec;
  vspec.num_nodes = 18;
  vspec.num_cliques = 3;
  vspec.clique_size = 6;
  vspec.overlap = 2;
  vspec.background_p = 0.08;
  vspec.seed = options.seed + 62;
  auto planted_small = GeneratePlantedCliqueGraph(vspec);
  auto gnp_small = GenerateGnp(16, 0.4, options.seed + 63);
  if (!planted_small.ok() || !gnp_small.ok()) {
    std::cerr << "graph/oracle: generator failed\n";
    return 1;
  }
  for (OracleCase& oracle_case :
       std::vector<OracleCase>{{"graph/oracle_planted", *planted_small},
                               {"graph/oracle_gnp", *gnp_small}}) {
    const graph::Graph g = graph::Graph::FromEdges(
        oracle_case.generated.num_nodes, oracle_case.generated.edges);
    telemetry::MetricsRegistry registry;
    graph::CliqueOptions copts;
    copts.executor = pool.get();
    copts.telemetry = telemetry::TelemetryContext(&registry);
    Stopwatch watch;
    const graph::CliqueResult result =
        graph::EnumerateMaximalCliques(g, copts);
    const double seconds = watch.ElapsedSeconds();
    const auto oracle = OracleMaximalCliques(g);
    const size_t dropped = MissingFrom(oracle, result.cliques);
    const size_t spurious = MissingFrom(result.cliques, oracle);
    if (dropped != 0 || spurious != 0) {
      std::cerr << oracle_case.name << ": engine disagrees with oracle ("
                << dropped << " dropped, " << spurious << " spurious)\n";
      return 1;
    }

    RunRecord run;
    run.name = oracle_case.name;
    AppendGraphParams(g, result, &run);
    run.params.emplace_back("oracle_cliques",
                            static_cast<double>(oracle.size()));
    run.params.emplace_back("dropped_cliques", static_cast<double>(dropped));
    run.params.emplace_back("spurious_cliques",
                            static_cast<double>(spurious));
    run.timings = {{"seconds", seconds}};
    run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
    runs.push_back(std::move(run));
  }
  return 0;
}

// --- Suite 3: micro kernels (ACF-tree insertion, D2 distance, clique
// enumeration, rule formation, the contingency post-scan), measured
// standalone with their own registries. ---

void MicroAcfInsert(const BenchOptions& options,
                    std::vector<RunRecord>& runs) {
  const size_t n = options.smoke ? 5000 : 200000;
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "x"}};
  AcfTreeOptions tree_opts;
  tree_opts.initial_threshold = 5.0;
  tree_opts.memory_budget_bytes = 8u << 20;
  AcfTree tree(layout, 0, tree_opts);
  Rng rng(options.seed + 11);
  PartedRow row(1, std::vector<double>(1));
  Stopwatch watch;
  for (size_t i = 0; i < n; ++i) {
    row[0][0] = rng.Uniform(0, 1000);
    (void)tree.InsertPoint(row);
  }
  const double seconds = watch.ElapsedSeconds();
  const AcfTreeStats stats = tree.Stats();
  telemetry::MetricsRegistry registry;
  registry.GetCounter("micro.acf_insert.points")
      ->Increment(stats.points_inserted);
  registry.GetCounter("micro.acf_insert.splits")->Increment(stats.split_count);
  registry.GetCounter("micro.acf_insert.rebuilds")
      ->Increment(stats.rebuild_count);
  registry.GetGauge("micro.acf_insert.height")
      ->Set(static_cast<double>(stats.height));
  RunRecord run;
  run.name = "micro/acf_insert";
  run.params = {{"points", static_cast<double>(n)}};
  run.timings = {
      {"seconds", seconds},
      {"points_per_second", seconds > 0 ? static_cast<double>(n) / seconds
                                        : 0.0}};
  run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
  runs.push_back(std::move(run));
}

void MicroD2Distance(const BenchOptions& options,
                     std::vector<RunRecord>& runs) {
  const size_t evals = options.smoke ? 20000 : 2000000;
  const size_t dim = 4;
  CfVector a(dim, MetricKind::kEuclidean), b(dim, MetricKind::kEuclidean);
  Rng rng(options.seed + 12);
  std::vector<double> x(dim);
  for (int i = 0; i < 100; ++i) {
    for (double& v : x) v = rng.Uniform(0, 10);
    a.AddPoint(x);
    for (double& v : x) v = rng.Uniform(5, 15);
    b.AddPoint(x);
  }
  Stopwatch watch;
  double checksum = 0;
  for (size_t i = 0; i < evals; ++i) {
    checksum += ClusterDistance(a, b, ClusterMetric::kD2AvgInter);
  }
  const double seconds = watch.ElapsedSeconds();
  telemetry::MetricsRegistry registry;
  registry.GetCounter("micro.d2.evals")
      ->Increment(static_cast<int64_t>(evals));
  registry.GetGauge("micro.d2.checksum")->Set(checksum);
  RunRecord run;
  run.name = "micro/d2_distance";
  run.params = {{"evals", static_cast<double>(evals)},
                {"dim", static_cast<double>(dim)}};
  run.timings = {
      {"seconds", seconds},
      {"evals_per_second",
       seconds > 0 ? static_cast<double>(evals) / seconds : 0.0}};
  run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
  runs.push_back(std::move(run));
}

// micro/clique_enum, then micro/rule_gen over the same graph's cliques.
int MicroCliquesAndRules(const BenchOptions& options,
                         std::vector<RunRecord>& runs) {
  const size_t attrs = options.smoke ? 4 : 12;
  const size_t clusters = options.smoke ? 3 : 10;
  const size_t n = options.smoke ? 3000 : 60000;
  const PlantedDataSpec spec =
      WbcdLikeSpec(attrs, clusters, 0.05, options.seed + 13);
  auto data = GeneratePlanted(spec, n, options.seed + 14);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
  auto session = MakeSession(options, config);
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  auto phase1 = session->RunPhase1(data->relation, data->partition);
  if (!phase1.ok()) {
    std::cerr << phase1.status() << "\n";
    return 1;
  }
  ClusteringGraphOptions graph_opts;
  for (const double d0 : phase1->effective_d0) {
    graph_opts.d0.push_back(d0 * 2.0);
  }
  ClusteringGraph graph(phase1->clusters, graph_opts);
  Stopwatch watch;
  // Unbounded, serial: max_cliques = max_steps = 0, no executor.
  const auto cliques =
      graph::EnumerateMaximalCliques(graph.graph(), {}).cliques;
  const double seconds = watch.ElapsedSeconds();
  telemetry::MetricsRegistry registry;
  registry.GetCounter("micro.clique.nodes")
      ->Increment(static_cast<int64_t>(graph.num_nodes()));
  registry.GetCounter("micro.clique.edges")
      ->Increment(static_cast<int64_t>(graph.num_edges()));
  registry.GetCounter("micro.clique.cliques")
      ->Increment(static_cast<int64_t>(cliques.size()));
  RunRecord run;
  run.name = "micro/clique_enum";
  run.params = {{"n", static_cast<double>(n)},
                {"attrs", static_cast<double>(attrs)},
                {"clusters_per_attr", static_cast<double>(clusters)}};
  run.timings = {{"seconds", seconds}};
  run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
  runs.push_back(std::move(run));

  // Rule formation alone, with the graph's lenient d0 as the per-part
  // degree thresholds and the default arity and rule caps.
  std::vector<std::vector<size_t>> members;
  for (const auto& q : cliques) members.emplace_back(q.begin(), q.end());
  RuleGenOptions rule_opts;
  rule_opts.degree_thresholds = graph_opts.d0;
  Stopwatch rules_watch;
  const RuleGenResult rules =
      GenerateDistanceRules(phase1->clusters, members, rule_opts);
  const double rules_seconds = rules_watch.ElapsedSeconds();
  telemetry::MetricsRegistry rules_registry;
  rules_registry.GetCounter("micro.rule_gen.rules")
      ->Increment(static_cast<int64_t>(rules.rules.size()));
  rules_registry.GetCounter("micro.rule_gen.degree_evaluations")
      ->Increment(rules.degree_evaluations);
  rules_registry.GetCounter("micro.rule_gen.cliques")
      ->Increment(static_cast<int64_t>(members.size()));
  RunRecord rules_run;
  rules_run.name = "micro/rule_gen";
  rules_run.params = {
      {"n", static_cast<double>(n)},
      {"attrs", static_cast<double>(attrs)},
      {"clusters_per_attr", static_cast<double>(clusters)},
      {"truncated", rules.truncated ? 1.0 : 0.0}};
  rules_run.timings = {{"seconds", rules_seconds}};
  rules_run.telemetry_json =
      DeterministicTelemetry(rules_registry.TakeSnapshot());
  runs.push_back(std::move(rules_run));
  return 0;
}

// --- Suite: merge — distributed shard-merge scaling (ACF additivity,
// Thm 6.1). For each shard count in {1,2,4,8}: N shard checkpoints
// written by independent streams, then MergeCheckpoints + one Phase II
// via Session::MineFromCheckpoints. Each run is checked against a
// single-node Mine baseline: the rule count must match exactly. The
// planted data is float-valued, so regrouping tuples into shards may
// move CF sums by ulps; at smoke scale the rule count still matches, at
// full scale it does not yet (see DESIGN.md "Distributed mining"). The
// telemetry view is deterministic for a fixed shard count at every
// thread count — shard builders are serial and merged in shard order —
// so CI byte-diffs the --no-timings output across 1 and 8 threads. ---

int RunMergeSuite(const BenchOptions& options, std::vector<RunRecord>& runs) {
  const size_t attrs = options.smoke ? 4 : 10;
  const size_t clusters = options.smoke ? 3 : 8;
  const size_t n = options.smoke ? 20000 : 200000;
  const PlantedDataSpec spec =
      WbcdLikeSpec(attrs, clusters, 0.05, options.seed + 41);
  auto data = GeneratePlanted(spec, n, options.seed + 42);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
  config.degree_threshold = 150.0;
  config.count_rule_support = false;  // no data access on the merge path

  // Single-node baseline: the target every shard count must reproduce.
  auto baseline_session = MakeSession(options, config);
  if (!baseline_session.ok()) {
    std::cerr << baseline_session.status() << "\n";
    return 1;
  }
  Stopwatch baseline_watch;
  auto baseline = baseline_session->Mine(data->relation, data->partition);
  const double baseline_seconds = baseline_watch.ElapsedSeconds();
  if (!baseline.ok()) {
    std::cerr << baseline.status() << "\n";
    return 1;
  }
  const size_t baseline_rules = baseline->result.phase2.rules.size();

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    auto session = MakeSession(options, config);
    if (!session.ok()) {
      std::cerr << session.status() << "\n";
      return 1;
    }

    // Multi-process stand-in: each shard's slice ingested by its own
    // stream and checkpointed, then merged from the files alone.
    std::vector<std::string> paths;
    Stopwatch save_watch;
    for (size_t s = 0; s < shards; ++s) {
      StreamConfig stream_config;
      stream_config.remine_every_rows = 0;
      stream_config.shard_id = static_cast<int64_t>(s);
      auto stream = session->OpenStream(data->relation.schema(),
                                        data->partition, stream_config);
      if (!stream.ok()) {
        std::cerr << stream.status() << "\n";
        return 1;
      }
      const size_t begin = s * n / shards;
      const size_t end = (s + 1) * n / shards;
      for (size_t r = begin; r < end; ++r) {
        if (auto st = (*stream)->IngestRow(data->relation.Row(r)); !st.ok()) {
          std::cerr << st << "\n";
          return 1;
        }
      }
      std::string path = options.outdir + "/bench_merge." +
                         std::to_string(s) + ".darckpt";
      if (auto st = (*stream)->SaveCheckpoint(path); !st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
      paths.push_back(std::move(path));
    }
    const double save_seconds = save_watch.ElapsedSeconds();

    Stopwatch merge_watch;
    auto merged = session->MineFromCheckpoints(paths);
    const double merge_seconds = merge_watch.ElapsedSeconds();
    for (const std::string& path : paths) std::remove(path.c_str());
    if (!merged.ok()) {
      std::cerr << merged.status() << "\n";
      return 1;
    }
    const size_t merged_rules = merged->result.phase2.rules.size();
    if (merged_rules != baseline_rules) {
      std::cerr << "merge bench: " << shards << "-checkpoint merge mined "
                << merged_rules << " rules, single-node " << baseline_rules
                << "\n";
      return 1;
    }

    RunRecord run;
    run.name = "merge/shards=" + std::to_string(shards);
    run.params = {{"n", static_cast<double>(n)},
                  {"attrs", static_cast<double>(attrs)},
                  {"clusters_per_attr", static_cast<double>(clusters)},
                  {"num_shards", static_cast<double>(shards)},
                  {"rules", static_cast<double>(merged_rules)},
                  {"single_node_rules", static_cast<double>(baseline_rules)}};
    run.timings = {{"single_node_seconds", baseline_seconds},
                   {"checkpoint_save_seconds", save_seconds},
                   {"checkpoint_merge_mine_seconds", merge_seconds}};
    // The checkpoint-merge run's own snapshot: merge.checkpoints /
    // merge.shards plus the usual phase1/phase2 counters, all
    // shard-deterministic.
    run.telemetry_json = DeterministicTelemetry(merged->telemetry);
    runs.push_back(std::move(run));
  }
  return 0;
}

// --- Suite: quality — scored snapshots, redundancy pruning, and drift
// diffing end to end. Two runs over the same planted base spec: "drift"
// shifts every cluster mean partway through the stream (the generator's
// drift injection), "stationary" replays the identical pipeline with
// shift 0 — same row count, same re-mine cadence, fresh samples after the
// cut, but an unchanged distribution. tools/check_bench_json.py enforces
// the invariants: pruned <= total, every score finite, the stationary
// control reports zero born/died/drifted and the drift run at least one
// change. Scoring reduces executor-sharded integer counts in shard order
// and pruning/diffing are sequential sweeps over them, so the whole
// telemetry view stays byte-identical across thread counts. ---

// The quality suite's input: rows over `attrs` attributes with `clusters`
// planted clusters each, whose means shift by `shift` slots half way
// through, and the config that mines them.
struct QualityWorkload {
  size_t attrs = 0;
  size_t clusters = 0;
  PlantedDataset data;
  DarConfig config;
};

Result<QualityWorkload> MakeQualityWorkload(const BenchOptions& options,
                                            double shift) {
  QualityWorkload w;
  w.attrs = options.smoke ? 4 : 6;
  w.clusters = options.smoke ? 3 : 4;
  const size_t n = options.smoke ? 16000 : 100000;
  // No outliers: the stationary control must reproduce the planted rule
  // set exactly in both generations, and uniform outlier tuples are the
  // one source of spurious clusters.
  const PlantedDataSpec spec = WbcdLikeSpec(w.attrs, w.clusters, 0.0,
                                            options.seed + 51);
  // A shift of a quarter slot is several cluster stddevs (0.04 * slot):
  // large enough that post-cut tuples visibly move the recovered interval
  // boxes, small enough that the planted pattern structure survives.
  const double slot = 1000.0 / static_cast<double>(w.clusters);
  DAR_ASSIGN_OR_RETURN(w.data, GenerateDrifting(spec, n, n / 2, shift * slot,
                                                options.seed + 52));
  w.config.memory_budget_bytes = 32u << 20;
  w.config.frequency_fraction = 0.5 / static_cast<double>(w.clusters);
  w.config.initial_diameters.assign(w.attrs, 0.3 * 1000.0 / w.clusters);
  w.config.degree_threshold = 150.0;
  w.config.count_rule_support = true;  // scoring needs the post-scan counts
  return w;
}

int RunQualityRun(const BenchOptions& options, const std::string& label,
                  double shift, std::vector<RunRecord>& runs) {
  auto workload = MakeQualityWorkload(options, shift);
  if (!workload.ok()) {
    std::cerr << workload.status() << "\n";
    return 1;
  }
  const PlantedDataset& data = workload->data;
  const size_t n = data.relation.num_rows();
  const size_t drift_row = n / 2;
  auto session = MakeSession(options, workload->config);
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  StreamConfig stream_config;
  stream_config.remine_every_rows = 0;  // one publish per generation
  stream_config.score_measures = {"support", "confidence", "lift",
                                  "conviction", "chi2"};
  stream_config.prune_redundant = true;
  stream_config.prune_min_overlap = 0.5;
  stream_config.diff_snapshots = true;
  // Generous tolerances: generation 2 sees twice the rows of generation
  // 1, so even stationary interval boxes pick up fresh sample extremes.
  stream_config.drift_interval_tolerance = 0.25;
  stream_config.drift_degree_tolerance = 0.5;
  auto stream = session->OpenStream(data.relation.schema(),
                                    data.partition, stream_config);
  if (!stream.ok()) {
    std::cerr << stream.status() << "\n";
    return 1;
  }

  Stopwatch watch;
  for (size_t r = 0; r < drift_row; ++r) {
    if (auto s = (*stream)->IngestRow(data.relation.Row(r)); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }
  if (auto snapshot = (*stream)->Remine(); !snapshot.ok()) {
    std::cerr << snapshot.status() << "\n";
    return 1;
  }
  for (size_t r = drift_row; r < n; ++r) {
    if (auto s = (*stream)->IngestRow(data.relation.Row(r)); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }
  auto snapshot = (*stream)->Remine();
  const double seconds = watch.ElapsedSeconds();
  if (!snapshot.ok()) {
    std::cerr << snapshot.status() << "\n";
    return 1;
  }
  const quality::ScoredRuleSet* scored = (*snapshot)->scored();
  const quality::SnapshotDiffResult* diff = (*snapshot)->diff();
  if (scored == nullptr || diff == nullptr) {
    std::cerr << "bench quality: generation 2 published without scored "
                 "rules or a diff\n";
    return 1;
  }
  double min_score = 0;
  double max_score = 0;
  bool any_score = false;
  for (const auto& column : scored->scores) {
    for (const double score : column) {
      if (!any_score) {
        min_score = max_score = score;
        any_score = true;
      } else {
        min_score = std::min(min_score, score);
        max_score = std::max(max_score, score);
      }
    }
  }

  RunRecord run;
  run.name = "quality/" + label;
  run.params = {
      {"n", static_cast<double>(n)},
      {"attrs", static_cast<double>(workload->attrs)},
      {"clusters_per_attr", static_cast<double>(workload->clusters)},
      {"drift_row", static_cast<double>(drift_row)},
      {"drift_injected", shift != 0 ? 1.0 : 0.0},
      {"rules_total", static_cast<double>(scored->stats.size())},
      {"rules_pruned", static_cast<double>(scored->num_pruned)},
      {"born", static_cast<double>(diff->born)},
      {"died", static_cast<double>(diff->died)},
      {"drifted", static_cast<double>(diff->drifted)},
      {"unchanged", static_cast<double>(diff->unchanged)},
      {"min_score", min_score},
      {"max_score", max_score}};
  run.timings = {{"seconds", seconds}};
  run.telemetry_json =
      DeterministicTelemetry(session->metrics().TakeSnapshot());
  runs.push_back(std::move(run));
  return 0;
}

int RunQualitySuite(const BenchOptions& options,
                    std::vector<RunRecord>& runs) {
  if (RunQualityRun(options, "drift", 0.25, runs) != 0) return 1;
  return RunQualityRun(options, "stationary", 0.0, runs);
}

// micro/rule_stats: the contingency post-scan alone, serial, over the
// quality suite's drift stream and the rules one batch mine of it forms.
int MicroRuleStats(const BenchOptions& options,
                   std::vector<RunRecord>& runs) {
  auto workload = MakeQualityWorkload(options, 0.25);
  if (!workload.ok()) {
    std::cerr << workload.status() << "\n";
    return 1;
  }
  const Relation& rel = workload->data.relation;
  const AttributePartition& partition = workload->data.partition;
  auto session = MakeSession(options, workload->config);
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }
  auto phase1 = session->RunPhase1(rel, partition);
  if (!phase1.ok()) {
    std::cerr << phase1.status() << "\n";
    return 1;
  }
  auto phase2 = session->RunPhase2(*phase1);
  if (!phase2.ok()) {
    std::cerr << phase2.status() << "\n";
    return 1;
  }
  Stopwatch watch;
  auto stats = ComputeRuleStats(rel, partition, phase1->clusters,
                                phase2->rules, nullptr);
  const double seconds = watch.ElapsedSeconds();
  if (!stats.ok()) {
    std::cerr << stats.status() << "\n";
    return 1;
  }
  std::set<std::vector<int64_t>> signatures;
  phase1->clusters.ForEachRowAssignment(
      rel, partition, 0, rel.num_rows(),
      [&](size_t, std::span<const int64_t> assignment) {
        signatures.emplace(assignment.begin(), assignment.end());
      });
  telemetry::MetricsRegistry registry;
  registry.GetCounter("micro.rule_stats.rows")
      ->Increment(static_cast<int64_t>(rel.num_rows()));
  registry.GetCounter("micro.rule_stats.rules")
      ->Increment(static_cast<int64_t>(phase2->rules.size()));
  registry.GetCounter("micro.rule_stats.signatures")
      ->Increment(static_cast<int64_t>(signatures.size()));
  RunRecord run;
  run.name = "micro/rule_stats";
  run.params = {{"n", static_cast<double>(rel.num_rows())},
                {"attrs", static_cast<double>(workload->attrs)},
                {"clusters_per_attr",
                 static_cast<double>(workload->clusters)}};
  run.timings = {{"seconds", seconds}};
  run.telemetry_json = DeterministicTelemetry(registry.TakeSnapshot());
  runs.push_back(std::move(run));
  return 0;
}

int RunMicroSuite(const BenchOptions& options, std::vector<RunRecord>& runs) {
  MicroAcfInsert(options, runs);
  MicroD2Distance(options, runs);
  if (MicroCliquesAndRules(options, runs) != 0) return 1;
  return MicroRuleStats(options, runs);
}

int Usage() {
  std::cerr << "usage: bench_main [--smoke] [--outdir DIR] [--seed N] "
               "[--threads N] [--no-timings]\n";
  return 2;
}

int Main(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--no-timings") {
      options.include_timings = false;
    } else if (arg == "--outdir" && i + 1 < argc) {
      options.outdir = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      return Usage();
    }
  }

  // A failing suite does not stop the others: each passing suite still
  // writes its JSON, and the exit status reports the failures at the end.
  struct Suite {
    const char* name;
    int (*run)(const BenchOptions&, std::vector<RunRecord>&);
  };
  const Suite suites[] = {
      {"phase1", RunPhase1Suite}, {"phase2", RunPhase2Suite},
      {"stream", RunStreamSuite}, {"persist", RunPersistSuite},
      {"serve", RunServeSuite},   {"merge", RunMergeSuite},
      {"quality", RunQualitySuite}, {"graph", RunGraphSuite},
      {"micro", RunMicroSuite}};
  std::vector<std::string> failed;
  for (const Suite& suite : suites) {
    std::vector<RunRecord> runs;
    if (suite.run(options, runs) != 0 ||
        WriteSuite(options, suite.name, runs) != 0) {
      failed.push_back(suite.name);
    }
  }
  if (failed.empty()) return 0;
  std::cerr << "bench_main: failed suites:";
  for (const std::string& name : failed) std::cerr << " " << name;
  std::cerr << "\n";
  return 1;
}

}  // namespace
}  // namespace dar

int main(int argc, char** argv) { return dar::Main(argc, argv); }
