// serve_swap: reads beside writes. A RuleServer on loopback serves the
// stream-suite snapshot (200k primed rows) to two closed-loop binary
// connections with a 70/20/10 point/list/info mix chosen by request index,
// while the writer (this thread) ingests a 10k-row chunk and hot-swaps the
// snapshot every 0.5 s. Point queries are bound by RuleIndex::Query; list
// and info requests barely touch the index.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "persist/wire.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "stream/rule_snapshot.h"
#include "stream/streaming_miner.h"

namespace perfbench {
namespace {

constexpr size_t kAttrs = 10, kClusters = 8, kChunkRows = 10000,
                 kPrimeChunks = 20, kClients = 2, kSampleEvery = 64;
constexpr double kSwapPeriod = 0.5;  // seconds between scheduled swaps
// Sampled point answers are checked against every kCheckEvery-th
// generation, whose snapshots the ledger keeps.
constexpr uint64_t kCheckEvery = 8;
constexpr int kSetupReps = 3;

// Everything set up before traffic starts. Members are destroyed in
// reverse order: the server stops before the service it serves.
struct Serving {
  std::optional<dar::PlantedDataset> data;
  std::vector<dar::Relation> chunks;
  std::optional<dar::Session> session;
  std::unique_ptr<dar::StreamingMiner> stream;
  std::shared_ptr<const dar::RuleSnapshot> primed;
  double primed_remine_s = 0;
  std::unique_ptr<dar::telemetry::MetricsRegistry> registry;
  std::unique_ptr<dar::QueryService> service;
  std::unique_ptr<dar::serve::RuleServer> server;
};

bool SetUp(const dar::DarConfig& config, size_t rows, uint64_t seed,
           int threads, Serving& s, Report& report) {
  auto data = dar::GeneratePlanted(
      dar::WbcdLikeSpec(kAttrs, kClusters, 0.05, kShapeSeed), rows, seed);
  report.Check(data.ok(), "GeneratePlanted");
  if (!data.ok()) return false;
  s.data.emplace(std::move(*data));
  s.chunks = SplitBatches(s.data->relation, kChunkRows);
  auto session =
      dar::Session::Builder().WithConfig(config).WithThreads(threads).Build();
  report.Attempt(!session.ok());
  report.Check(session.ok(), "Session build");
  if (!session.ok()) return false;
  s.session.emplace(std::move(*session));
  dar::StreamConfig stream_config;
  stream_config.remine_every_rows = 0;  // the writer publishes explicitly
  auto stream = s.session->OpenStream(s.data->relation.schema(),
                                      s.data->partition, stream_config);
  report.Attempt(!stream.ok());
  report.Check(stream.ok(), "OpenStream");
  if (!stream.ok()) return false;
  s.stream = std::move(*stream);
  for (size_t c = 0; c < kPrimeChunks; ++c) {
    const dar::Status ingested = s.stream->Ingest(s.chunks[c]);
    report.Attempt(!ingested.ok());
    report.Check(ingested.ok(), "priming Ingest");
    if (!ingested.ok()) return false;
  }
  const Clock::time_point t = Clock::now();
  auto snapshot = s.stream->Remine();
  s.primed_remine_s = SecondsSince(t);
  report.Attempt(!snapshot.ok());
  report.Check(snapshot.ok(), "priming Remine");
  if (!snapshot.ok()) return false;
  s.primed = *snapshot;
  s.registry = std::make_unique<dar::telemetry::MetricsRegistry>();
  s.service = std::make_unique<dar::QueryService>(s.registry.get());
  s.service->AttachStream(*s.stream);
  dar::serve::ServerConfig server_config;
  server_config.admission.max_concurrent = 0;  // never shed load
  server_config.admission.max_per_tenant = 0;
  server_config.admission.max_tenant_requests = 0;
  s.server = std::make_unique<dar::serve::RuleServer>(
      *s.service, server_config, s.registry.get());
  const dar::Status started = s.server->Start();
  report.Attempt(!started.ok());
  report.Check(started.ok(), "RuleServer::Start");
  return started.ok();
}

struct Published {
  uint64_t generation = 0;
  int64_t rows = 0;
  std::shared_ptr<const dar::RuleSnapshot> snapshot;  // kept generations
};

Published Publish(std::shared_ptr<const dar::RuleSnapshot> snapshot) {
  Published p{snapshot->generation(), snapshot->rows_ingested(), nullptr};
  if (p.generation % kCheckEvery == 1) p.snapshot = std::move(snapshot);
  return p;
}

struct PointSample {
  size_t row = 0;
  dar::PointQueryResponse response;
};

struct ClientLog {
  std::vector<double> point_s;
  std::vector<double> browse_s;
  std::vector<std::pair<uint64_t, int64_t>> seen;  // distinct pairs
  std::vector<PointSample> samples;
  int64_t failed = 0;
  bool connected = false;
};

void RunClient(uint16_t port, size_t client, const dar::Relation& rows,
               const std::atomic<bool>& stop, ClientLog& log) {
  auto conn = dar::serve::RuleClient::Connect(
      "127.0.0.1", port, "bench-" + std::to_string(client));
  if (!conn.ok()) return;
  log.connected = true;
  dar::PointQueryResponse point;
  dar::RuleListResponse list;
  dar::SnapshotInfoResponse info;
  auto note = [&log](uint64_t generation, int64_t rows_ingested) {
    const auto pair = std::make_pair(generation, rows_ingested);
    if (std::find(log.seen.begin(), log.seen.end(), pair) == log.seen.end()) {
      log.seen.push_back(pair);
    }
  };
  for (size_t idx = 0; !stop.load(std::memory_order_relaxed); ++idx) {
    const Clock::time_point t = Clock::now();
    dar::Status status;
    if (idx % 10 < 7) {
      const size_t row = (client * 7919 + idx * 131) % rows.num_rows();
      const std::vector<double> tuple = rows.Row(row);
      dar::PointQueryRequest request;
      request.tuple = tuple;
      status = conn->PointQuery(request, point);
      log.point_s.push_back(SecondsSince(t));
      if (status.ok()) {
        note(point.generation, point.rows_ingested);
        if (idx % kSampleEvery == 0) log.samples.push_back({row, point});
      }
    } else {
      if (idx % 10 < 9) {
        dar::RuleListRequest request;
        request.offset = static_cast<uint32_t>(idx % 3);
        request.limit = 8;
        status = conn->ListRules(request, list);
        if (status.ok()) note(list.generation, list.rows_ingested);
      } else {
        status = conn->SnapshotInfo(info);
        if (status.ok()) note(info.generation, info.rows_ingested);
      }
      log.browse_s.push_back(SecondsSince(t));
    }
    if (!status.ok()) ++log.failed;
  }
}

double MedianMicros(std::vector<double>& seconds) {
  return Median(seconds) * 1e6;
}

// Per-layer replay of the read path on the final snapshot: RuleIndex
// query, in-process QueryService calls, and the binary codec.
void ReplayReads(const Serving& s, const dar::RuleSnapshot& snapshot,
                 double point_p50_s, Report& report) {
  constexpr size_t kQueries = 2000;
  const dar::Relation& rows = s.data->relation;
  std::vector<double> index_s, service_s, list_s, encode_s, decode_s;
  std::vector<double> wall_s;
  double hits = 0, bytes = 0;
  dar::RuleIndex::QueryScratch scratch;
  dar::PointQueryResponse response;
  dar::PointQueryResponse decoded;
  dar::RuleListResponse list;
  dar::persist::WireWriter payload;
  dar::serve::RequestHeader header;
  header.method = dar::serve::Method::kPointQuery;
  for (size_t q = 0; q < kQueries; ++q) {
    const std::vector<double> tuple = rows.Row((q * 104729) % rows.num_rows());
    Clock::time_point t = Clock::now();
    auto found = snapshot.index()->Query(tuple, scratch);
    index_s.push_back(SecondsSince(t));
    report.Check(found.ok(), "RuleIndex::Query");
    if (found.ok()) hits += static_cast<double>(found->rules.size());

    const Clock::time_point wall = Clock::now();
    dar::PointQueryRequest request;
    request.tuple = tuple;
    t = Clock::now();
    const dar::Status served = s.service->PointQuery(request, response);
    service_s.push_back(SecondsSince(t));
    report.Check(served.ok(), "QueryService::PointQuery");
    header.request_id = q;
    t = Clock::now();
    dar::serve::EncodePointQueryResponse(header, response, payload);
    encode_s.push_back(SecondsSince(t));
    bytes += static_cast<double>(payload.size());
    t = Clock::now();
    dar::persist::WireReader reader(payload.bytes());
    auto head = dar::serve::DecodeResponseHeader(reader);
    const dar::Status body =
        head.ok() ? dar::serve::DecodePointQueryBody(reader, decoded)
                  : head.status();
    decode_s.push_back(SecondsSince(t));
    wall_s.push_back(SecondsSince(wall));
    report.Check(body.ok() && decoded.rules == response.rules &&
                     found.ok() && response.total_rule_matches ==
                                       found->rules.size(),
                 "codec round trip and index agree with the service");

    dar::RuleListRequest list_request;
    list_request.offset = static_cast<uint32_t>(q % 3);
    list_request.limit = 8;
    t = Clock::now();
    const dar::Status listed = s.service->ListRules(list_request, list);
    list_s.push_back(SecondsSince(t));
    report.Check(listed.ok(), "QueryService::ListRules");
  }
  const double n = static_cast<double>(kQueries);
  report.SetLayer("index.query_us", MedianMicros(index_s));
  report.SetLayer("index.hits_per_query", hits / n);
  report.SetLayer("service.point_us", MedianMicros(service_s));
  report.SetLayer("service.list_us", MedianMicros(list_s));
  report.SetLayer("protocol.encode_point_us", MedianMicros(encode_s));
  report.SetLayer("protocol.decode_point_us", MedianMicros(decode_s));
  report.SetLayer("serve.point_response_bytes", bytes / n);
  // The point path's stages against the untraced client-observed median;
  // the residual is transport (loopback, framing, scheduling).
  const double stages_s =
      Median(service_s) + Median(encode_s) + Median(decode_s);
  report.SetLayer("trace.coverage", stages_s / point_p50_s);
  report.SetLayer("trace.residual_s", point_p50_s - stages_s);
  report.SetLayer("trace.overhead", Median(wall_s) / stages_s - 1.0);
}

}  // namespace

void RunServeSwap(const Options& options, Report& report) {
  const size_t swaps = std::max<size_t>(
      1, static_cast<size_t>(options.seconds / kSwapPeriod) - 1);
  const size_t rows = (kPrimeChunks + swaps) * kChunkRows;
  const dar::DarConfig config = StreamShapeConfig(kAttrs, kClusters);

  // Set-up, repeated: input generation, Session build, OpenStream, the
  // priming ingest and first remine, RuleServer::Start.
  std::vector<double> setup_s;
  std::unique_ptr<Serving> serving;
  for (int i = 0; i < kSetupReps; ++i) {
    serving.reset();
    serving = std::make_unique<Serving>();
    const Clock::time_point t = Clock::now();
    const bool ok = SetUp(config, rows, options.seed, options.threads,
                          *serving, report);
    setup_s.push_back(SecondsSince(t));
    if (!ok) return;
  }
  Serving& s = *serving;

  std::vector<Published> ledger = {Publish(s.primed)};
  std::vector<Publication> publications = {
      {Fingerprint(s.primed->rules()), s.primed->rules().size(), 0, 0, 0, 0,
       s.primed_remine_s}};
  std::vector<ClientLog> logs(kClients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, s.server->port(), c,
                         std::cref(s.data->relation), std::cref(stop),
                         std::ref(logs[c]));
  }
  std::vector<double> remine_s, lag_s, ingest_rows_per_s;
  std::shared_ptr<const dar::RuleSnapshot> last = s.primed;
  for (size_t k = 1; k <= swaps; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kSwapPeriod * k));
    std::this_thread::sleep_until(due);
    lag_s.push_back(SecondsSince(due));
    Clock::time_point t = Clock::now();
    const dar::Status ingested =
        s.stream->Ingest(s.chunks[kPrimeChunks + k - 1]);
    ingest_rows_per_s.push_back(static_cast<double>(kChunkRows) /
                                SecondsSince(t));
    report.Attempt(!ingested.ok());
    report.Check(ingested.ok(), "writer Ingest");
    t = Clock::now();
    auto snapshot = s.stream->Remine();
    const double seconds = SecondsSince(t);
    report.Attempt(!snapshot.ok());
    report.Check(snapshot.ok(), "writer Remine");
    if (!ingested.ok() || !snapshot.ok()) break;
    remine_s.push_back(seconds);
    last = *snapshot;
    ledger.push_back(Publish(*snapshot));
    publications.push_back({Fingerprint((*snapshot)->rules()),
                            (*snapshot)->rules().size(), 0, 0, 0, 0,
                            seconds});
  }
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kSwapPeriod * (swaps + 1))));
  stop.store(true);
  for (std::thread& client : clients) client.join();
  const double traffic_s = SecondsSince(start);
  s.server->Stop();

  // Every response pairs a published generation with its row count, and
  // sampled point answers equal an in-process query of that generation.
  std::vector<double> point_s, browse_s;
  size_t requests = 0, failed = 0, inconsistent = 0, mismatched = 0,
         verified = 0;
  dar::QueryService check;
  dar::PointQueryResponse expected;
  for (const ClientLog& log : logs) {
    report.Check(log.connected, "client connected");
    for (int64_t f = 0; f < log.failed; ++f) report.Attempt(true);
    const size_t n = log.point_s.size() + log.browse_s.size();
    for (size_t r = static_cast<size_t>(log.failed); r < n; ++r) {
      report.Attempt(false);
    }
    requests += n;
    failed += static_cast<size_t>(log.failed);
    point_s.insert(point_s.end(), log.point_s.begin(), log.point_s.end());
    browse_s.insert(browse_s.end(), log.browse_s.begin(), log.browse_s.end());
    for (const auto& [generation, rows_ingested] : log.seen) {
      const bool known = std::any_of(
          ledger.begin(), ledger.end(), [&](const Published& p) {
            return p.generation == generation && p.rows == rows_ingested;
          });
      if (!known) ++inconsistent;
    }
    for (const PointSample& sample : log.samples) {
      auto it = std::find_if(ledger.begin(), ledger.end(),
                             [&](const Published& p) {
                               return p.generation ==
                                      sample.response.generation;
                             });
      if (it == ledger.end()) {
        ++mismatched;
        continue;
      }
      if (it->snapshot == nullptr) continue;  // generation not kept
      ++verified;
      check.AttachSnapshot(it->snapshot, s.stream->schema(),
                           s.stream->partition());
      const std::vector<double> tuple = s.data->relation.Row(sample.row);
      dar::PointQueryRequest request;
      request.tuple = tuple;
      if (!check.PointQuery(request, expected).ok() ||
          expected.rules != sample.response.rules ||
          expected.clusters != sample.response.clusters) {
        ++mismatched;
      }
    }
  }
  report.Check(failed == 0, std::to_string(failed) + " requests failed");
  report.Check(inconsistent == 0,
               std::to_string(inconsistent) + " cross-generation responses");
  report.Check(mismatched == 0, std::to_string(mismatched) +
                                    " sampled point answers differ from "
                                    "QueryService::PointQuery");
  report.Check(verified > 0, "sampled point answers were verified");
  report.Check(!point_s.empty() && !browse_s.empty(), "traffic was served");
  if (!report.correct()) return;

  report.SetEndToEnd("setup_s", Median(setup_s));
  report.SetEndToEnd("refresh_p50_s", Median(remine_s));
  report.SetEndToEnd("refresh_p75_s", Quantile(remine_s, 0.75));
  report.SetLayer("ingest_rows_per_s", Median(ingest_rows_per_s));
  report.SetEndToEnd("peak_rss_mib", PeakRssMib());
  report.SetLayer("serve.qps", static_cast<double>(requests) / traffic_s);
  report.SetLayer("serve.point_p50_ms", Median(point_s) * 1e3);
  report.SetLayer("serve.point_p99_ms", Quantile(point_s, 0.99) * 1e3);
  report.SetLayer("serve.browse_p50_ms", Median(browse_s) * 1e3);
  report.SetLayer("serve.browse_p99_ms", Quantile(browse_s, 0.99) * 1e3);
  report.SetLayer("serve.writer_lag_s", Median(lag_s));
  std::cout << "serve: " << requests << " requests, " << point_s.size()
            << " point, " << browse_s.size() << " browse, " << remine_s.size()
            << " swaps, " << verified << " sampled answers verified\n";
  if (!options.trace) return;

  // The writer's refreshes through the layer functions, then the reads.
  std::vector<const dar::Relation*> batches;
  std::vector<bool> remine_after;
  for (size_t c = 0; c < kPrimeChunks + remine_s.size(); ++c) {
    batches.push_back(&s.chunks[c]);
    remine_after.push_back(c + 1 >= kPrimeChunks);
  }
  const std::shared_ptr<dar::Executor> executor =
      dar::MakeExecutor(options.threads);
  ReplayStream(config, s.stream->stream_config(), s.stream->schema(),
               s.stream->partition(), executor.get(), batches, remine_after,
               publications, report);
  ReplayReads(s, *last, Median(point_s), report);
  RecordSpeedups(config, s.data->relation, s.data->partition,
                 last->phase1(), options.parallel, report);
}

}  // namespace perfbench
