// Multi-process distributed mining: N worker *processes* each mine their
// shard of the relation and write a checkpoint; the coordinator process
// merges the checkpoints at the ACF-summary level (Thm 6.1 additivity)
// and runs Phase II exactly once. No tuple crosses a process boundary —
// only CRC-guarded checkpoint files, the same format `dar_ckpt.py`
// inspects and streams recover from.
//
// The workload is integer-valued, so every CF sum is exact and the mined
// rules are bit-identical for every shard count: running with 1 shard and
// with 8 shards must print the same summary (CI diffs exactly that).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/shard_mine [num_rows] [num_shards]
//
// Internally re-invokes itself as
//   shard_mine --worker <shard> <num_shards> <num_rows> <ckpt_path>
// once per shard — a stand-in for N machines reading slices of a shared
// table and shipping checkpoints back to one coordinator.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/session.h"
#include "stream/streaming_miner.h"

namespace {

using namespace dar;

// Every process (parent and workers) rebuilds the same deterministic
// integer relation: three interleaved co-occurrence patterns near
// (0,0,0), (100,100,100) and (200,200,200). A worker then ingests only
// its contiguous slice — as if each machine read its partition of a
// shared table.
Result<Schema> MakeSchema() {
  return Schema::Make({{"X", AttributeKind::kInterval},
                       {"Y", AttributeKind::kInterval},
                       {"Z", AttributeKind::kInterval}});
}

Status FillRelation(Relation& rel, size_t num_rows) {
  for (size_t i = 0; rel.num_rows() < num_rows; ++i) {
    for (int k = 0; k < 3 && rel.num_rows() < num_rows; ++k) {
      const double base = 100.0 * k;
      DAR_RETURN_IF_ERROR(
          rel.AppendRow({base + static_cast<double>(i % 5),
                         base + static_cast<double>(i % 7),
                         base + static_cast<double>(i % 3)}));
    }
  }
  return Status::OK();
}

DarConfig MakeConfig() {
  DarConfig config;
  config.frequency_fraction = 0.05;
  config.initial_diameters = {30.0, 30.0, 30.0};
  config.degree_threshold = 150.0;
  // The coordinator merges summaries, never tuples, so the optional §6.2
  // support rescan cannot run there; disable it in the single-node
  // reference too so the two summaries are comparable.
  config.count_rule_support = false;
  return config;
}

int Fail(const char* what, const Status& status) {
  std::cerr << "shard_mine: " << what << ": " << status.ToString() << "\n";
  return 1;
}

// --worker <shard> <num_shards> <num_rows> <ckpt_path>: mine one shard's
// slice into a checkpoint and exit. Runs serially — shard-level
// parallelism is the process fan-out itself.
int RunWorker(int64_t shard, size_t num_shards, size_t num_rows,
              const std::string& ckpt_path) {
  auto schema = MakeSchema();
  if (!schema.ok()) return Fail("schema", schema.status());
  Relation rel(*schema);
  if (auto s = FillRelation(rel, num_rows); !s.ok()) return Fail("data", s);
  auto partition = AttributePartition::Make(
      *schema, {{{"X"}, MetricKind::kEuclidean},
                {{"Y"}, MetricKind::kEuclidean},
                {{"Z"}, MetricKind::kEuclidean}});
  if (!partition.ok()) return Fail("partition", partition.status());

  auto session = Session::Builder().WithConfig(MakeConfig()).Build();
  if (!session.ok()) return Fail("session", session.status());
  StreamConfig stream_config;
  stream_config.remine_every_rows = 0;  // Phase I only; coordinator mines
  stream_config.shard_id = shard;       // provenance for duplicate checks
  auto stream = session->OpenStream(*schema, *partition, stream_config);
  if (!stream.ok()) return Fail("open stream", stream.status());

  // Balanced split: shard s takes rows [s*n/N, (s+1)*n/N).
  const size_t begin = static_cast<size_t>(shard) * num_rows / num_shards;
  const size_t end =
      (static_cast<size_t>(shard) + 1) * num_rows / num_shards;
  for (size_t r = begin; r < end; ++r) {
    if (auto s = (*stream)->IngestRow(rel.Row(r)); !s.ok()) {
      return Fail("ingest", s);
    }
  }
  if (auto s = (*stream)->SaveCheckpoint(ckpt_path); !s.ok()) {
    return Fail("checkpoint", s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    if (argc != 6) {
      std::cerr << "usage: shard_mine --worker <shard> <num_shards> "
                   "<num_rows> <ckpt_path>\n";
      return 2;
    }
    return RunWorker(std::strtoll(argv[2], nullptr, 10),
                     std::strtoull(argv[3], nullptr, 10),
                     std::strtoull(argv[4], nullptr, 10), argv[5]);
  }

  const size_t num_rows =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 6000;
  const size_t num_shards =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  if (num_rows == 0 || num_shards == 0 || num_shards > num_rows) {
    std::cerr << "shard_mine: need num_rows >= num_shards >= 1\n";
    return 2;
  }

  // 1. Fan out: one worker process per shard, each writing its
  //    checkpoint. std::system stands in for ssh/scheduler dispatch; the
  //    contract with the coordinator is only the checkpoint file.
  std::vector<std::string> ckpts;
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string path =
        "shard_mine." + std::to_string(s) + ".darckpt";
    const std::string cmd = std::string("\"") + argv[0] + "\" --worker " +
                            std::to_string(s) + " " +
                            std::to_string(num_shards) + " " +
                            std::to_string(num_rows) + " \"" + path + "\"";
    if (const int rc = std::system(cmd.c_str()); rc != 0) {
      std::cerr << "shard_mine: worker " << s << " failed (exit " << rc
                << ")\n";
      return 1;
    }
    ckpts.push_back(path);
  }
  std::cerr << "mined " << num_rows << " rows across " << num_shards
            << " worker processes\n";

  // 2. Merge + Phase II in the coordinator: compatibility-check the
  //    checkpoints (config/schema/partition/shard ids), merge the
  //    ACF-trees, and generate rules exactly once.
  auto session = Session::Builder().WithConfig(MakeConfig()).Build();
  if (!session.ok()) return Fail("session", session.status());
  auto report = session->MineFromCheckpoints(ckpts);
  if (!report.ok()) return Fail("merge-mine", report.status());

  // 3. Reference run: the same rows mined in one process. On integer
  //    data the distributed result is bit-identical, any shard count.
  auto schema = MakeSchema();
  if (!schema.ok()) return Fail("schema", schema.status());
  Relation rel(*schema);
  if (auto s = FillRelation(rel, num_rows); !s.ok()) return Fail("data", s);
  auto partition = AttributePartition::Make(
      *schema, {{{"X"}, MetricKind::kEuclidean},
                {{"Y"}, MetricKind::kEuclidean},
                {{"Z"}, MetricKind::kEuclidean}});
  if (!partition.ok()) return Fail("partition", partition.status());
  auto single = session->Mine(rel, *partition);
  if (!single.ok()) return Fail("single-node mine", single.status());

  const auto& merged_rules = report->result.phase2.rules;
  const auto& single_rules = single->result.phase2.rules;
  bool identical = merged_rules.size() == single_rules.size();
  for (size_t i = 0; identical && i < merged_rules.size(); ++i) {
    identical = merged_rules[i].antecedent == single_rules[i].antecedent &&
                merged_rules[i].consequent == single_rules[i].consequent &&
                merged_rules[i].degree == single_rules[i].degree;
  }
  // The equivalence verdict and timings go to stderr with the progress
  // chatter; stdout carries only the shard-count-invariant rule listing,
  // so CI can diff `shard_mine N 1` against `shard_mine N 8`
  // byte-for-byte.
  std::cerr << (identical ? "distributed == single-node (bit-identical "
                            "rules)\n"
                          : "MISMATCH: distributed != single-node\n");
  std::cerr << MiningResultSummary(report->result, *schema, *partition,
                                   /*max_rules=*/5);
  const auto& clusters = report->result.phase1.clusters;
  std::cout << clusters.size() << " clusters, " << merged_rules.size()
            << " rules\n";
  for (const auto& rule : merged_rules) {
    std::cout << rule.ToString(clusters, *schema, *partition) << "\n";
  }

  for (const std::string& path : ckpts) std::remove(path.c_str());
  return identical ? 0 : 1;
}
