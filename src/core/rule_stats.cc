#include "core/rule_stats.h"

#include <algorithm>
#include <limits>

namespace dar {
namespace {

// Per-shard accumulation: three counters per rule.
struct ShardCounts {
  std::vector<int64_t> antecedent;
  std::vector<int64_t> consequent;
  std::vector<int64_t> both;
};

uint64_t SignatureHash(std::span<const int64_t> signature) {
  uint64_t h = signature.size();
  for (int64_t id : signature) {
    h = (h ^ static_cast<uint64_t>(id)) * 0x9E3779B97F4A7C15ull;
  }
  // splitmix64 finalizer: the table indexes by the low bits.
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

// Row counts of distinct assignment signatures (one cluster id per part,
// -1 for a part without clusters). Signature i is stored at
// keys_[i * width, (i + 1) * width); the open-addressing slots hold
// signature indices.
class SignatureCounts {
 public:
  explicit SignatureCounts(size_t width) : width_(width), slots_(64, kEmpty) {}

  void Add(std::span<const int64_t> signature) {
    const uint64_t hash = SignatureHash(signature);
    const size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    for (; slots_[s] != kEmpty; s = (s + 1) & mask) {
      if (std::ranges::equal(this->signature(slots_[s]), signature)) {
        ++counts_[slots_[s]];
        return;
      }
    }
    keys_.insert(keys_.end(), signature.begin(), signature.end());
    counts_.push_back(1);
    slots_[s] = counts_.size() - 1;
    if (2 * counts_.size() > slots_.size()) Grow();
  }

  [[nodiscard]] size_t size() const { return counts_.size(); }
  [[nodiscard]] std::span<const int64_t> signature(size_t i) const {
    return std::span<const int64_t>(keys_).subspan(i * width_, width_);
  }
  [[nodiscard]] int64_t count(size_t i) const { return counts_[i]; }

 private:
  static constexpr size_t kEmpty = std::numeric_limits<size_t>::max();

  void Grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (size_t i = 0; i < counts_.size(); ++i) {
      size_t s = SignatureHash(signature(i)) & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = i;
    }
  }

  size_t width_;
  std::vector<int64_t> keys_;
  std::vector<int64_t> counts_;
  std::vector<size_t> slots_;
};

bool SideMatches(const std::vector<size_t>& side, const ClusterSet& clusters,
                 std::span<const int64_t> assignment) {
  for (size_t id : side) {
    const FoundCluster& c = clusters.cluster(id);
    if (assignment[c.part] != static_cast<int64_t>(id)) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<RuleStats>> ComputeRuleStats(
    const Relation& rel, const AttributePartition& partition,
    const ClusterSet& clusters, std::span<const DistanceRule> rules,
    Executor* executor) {
  std::vector<RuleStats> stats(rules.size());
  for (RuleStats& s : stats) s.total = static_cast<int64_t>(rel.num_rows());
  if (rules.empty() || rel.num_rows() == 0) return stats;

  const size_t parallelism =
      executor != nullptr ? static_cast<size_t>(executor->parallelism()) : 1;
  const size_t num_shards =
      std::max<size_t>(1, std::min(parallelism, rel.num_rows()));
  const size_t rows_per_shard =
      (rel.num_rows() + num_shards - 1) / num_shards;
  std::vector<ShardCounts> shards(num_shards);
  for (ShardCounts& shard : shards) {
    shard.antecedent.assign(rules.size(), 0);
    shard.consequent.assign(rules.size(), 0);
    shard.both.assign(rules.size(), 0);
  }

  // A row's contribution depends only on its signature, so each shard
  // first counts its rows per signature, then adds each signature's count
  // to the rules it matches.
  auto scan_shard = [&](size_t s) -> Status {
    const size_t begin = s * rows_per_shard;
    const size_t end = std::min(rel.num_rows(), begin + rows_per_shard);
    SignatureCounts signatures(partition.num_parts());
    clusters.ForEachRowAssignment(
        rel, partition, begin, end,
        [&](size_t, std::span<const int64_t> assignment) {
          signatures.Add(assignment);
        });
    ShardCounts& counts = shards[s];
    for (size_t i = 0; i < signatures.size(); ++i) {
      const std::span<const int64_t> assignment = signatures.signature(i);
      const int64_t rows = signatures.count(i);
      for (size_t k = 0; k < rules.size(); ++k) {
        const bool a = SideMatches(rules[k].antecedent, clusters, assignment);
        const bool c = SideMatches(rules[k].consequent, clusters, assignment);
        if (a) counts.antecedent[k] += rows;
        if (c) counts.consequent[k] += rows;
        if (a && c) counts.both[k] += rows;
      }
    }
    return Status::OK();
  };

  if (executor != nullptr) {
    DAR_RETURN_IF_ERROR(executor->ParallelFor(num_shards, scan_shard));
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      DAR_RETURN_IF_ERROR(scan_shard(s));
    }
  }

  // Shard-order merge: integer sums, so the totals are executor-independent.
  for (const ShardCounts& shard : shards) {
    for (size_t k = 0; k < rules.size(); ++k) {
      stats[k].antecedent += shard.antecedent[k];
      stats[k].consequent += shard.consequent[k];
      stats[k].both += shard.both[k];
    }
  }
  return stats;
}

}  // namespace dar
