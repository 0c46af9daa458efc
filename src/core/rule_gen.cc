#include "core/rule_gen.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/logging.h"

namespace dar {

namespace {

enum class Walk { kDescend, kSkip, kStop };

// Visits every combination of positions [0, n) with 1..max_size elements
// in depth-first order: {0}, {0,1}, {0,1,2}, ..., {0,2}, ..., {1}, ....
// `visit(pos)` sees the ascending positions; only `pos.back()` is new
// relative to the prefix visited before, so per-depth state can be
// extended incrementally. kSkip prunes every superset of `pos` that
// extends it; kStop ends the walk and makes it return false.
template <typename Visit>
bool ForEachCombination(size_t n, size_t max_size, std::vector<size_t>& pos,
                        Visit&& visit) {
  pos.clear();
  if (n == 0 || max_size == 0) return true;
  pos.push_back(0);
  while (true) {
    const Walk step = visit(pos);
    if (step == Walk::kStop) return false;
    if (step == Walk::kDescend && pos.size() < max_size &&
        pos.back() + 1 < n) {
      pos.push_back(pos.back() + 1);
      continue;
    }
    while (++pos.back() == n) {
      pos.pop_back();
      if (pos.empty()) return true;
    }
  }
}

uint64_t KeyHash(const std::vector<size_t>& antecedent,
                 const std::vector<size_t>& consequent) {
  uint64_t h = antecedent.size();
  for (size_t id : antecedent) h = (h ^ id) * 0x9E3779B97F4A7C15ull;
  h = (h ^ 0xFF) * 0x9E3779B97F4A7C15ull;
  for (size_t id : consequent) h = (h ^ id) * 0x9E3779B97F4A7C15ull;
  // splitmix64 finalizer: the table indexes by the low bits.
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

// Open-addressing set of (antecedent, consequent) keys, stored as indices
// into the emitted rule vector, so each key lives once, in its rule.
class RuleKeySet {
 public:
  explicit RuleKeySet(const std::vector<DistanceRule>& rules)
      : rules_(rules), slots_(64, kEmpty) {}

  // True when a rule with this key was already emitted.
  bool Contains(const std::vector<size_t>& antecedent,
                const std::vector<size_t>& consequent, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      if (slots_[s] == kEmpty) return false;
      const DistanceRule& rule = rules_[slots_[s]];
      if (rule.antecedent == antecedent && rule.consequent == consequent) {
        return true;
      }
    }
  }

  // Records `rules.back()`, whose key hashes to `hash`.
  void Insert(uint64_t hash) {
    if (2 * rules_.size() > slots_.size()) {
      slots_.assign(2 * slots_.size(), kEmpty);
      for (size_t i = 0; i + 1 < rules_.size(); ++i) {
        Place(i, KeyHash(rules_[i].antecedent, rules_[i].consequent));
      }
    }
    Place(rules_.size() - 1, hash);
  }

 private:
  static constexpr size_t kEmpty = std::numeric_limits<size_t>::max();

  void Place(size_t index, uint64_t hash) {
    const size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = index;
  }

  const std::vector<DistanceRule>& rules_;
  std::vector<size_t> slots_;
};

}  // namespace

double DegreeOfAssociation(const ClusterSet& clusters,
                           const std::vector<size_t>& antecedent,
                           const std::vector<size_t>& consequent,
                           ClusterMetric m) {
  DAR_CHECK(!antecedent.empty());
  DAR_CHECK(!consequent.empty());
  double degree = 0;
  for (size_t cy : consequent) {
    const FoundCluster& y = clusters.cluster(cy);
    for (size_t cx : antecedent) {
      const FoundCluster& x = clusters.cluster(cx);
      double d = ClusterDistance(y.acf.image(y.part), x.acf.image(y.part), m);
      degree = std::max(degree, d);
    }
  }
  return degree;
}

RuleGenResult GenerateDistanceRules(
    const ClusterSet& clusters,
    const std::vector<std::vector<size_t>>& cliques,
    const RuleGenOptions& options) {
  RuleGenResult result;

  // Rank every clique member in id order; per-member facts and the degree
  // matrix are indexed by rank. D0 is the consequent's per-part override
  // when provided, else the scalar threshold (degrees live on the
  // consequent part's scale).
  std::vector<size_t> member_id;
  for (const auto& q : cliques) {
    member_id.insert(member_id.end(), q.begin(), q.end());
  }
  std::sort(member_id.begin(), member_id.end());
  member_id.erase(std::unique(member_id.begin(), member_id.end()),
                  member_id.end());
  std::vector<size_t> rank_of(clusters.size());
  std::vector<size_t> member_part;
  std::vector<double> member_limit;
  for (size_t r = 0; r < member_id.size(); ++r) {
    const size_t part = clusters.cluster(member_id[r]).part;
    rank_of[member_id[r]] = r;
    member_part.push_back(part);
    member_limit.push_back(part < options.degree_thresholds.size()
                               ? options.degree_thresholds[part]
                               : options.degree_threshold);
  }
  const size_t m = member_id.size();

  // D(C_Y[Yp], C_X[Yp]) for ranks (y, x), computed on first use.
  std::vector<double> degree(m * m);
  std::vector<uint8_t> known(m * m, 0);
  auto degree_of = [&](size_t ry, size_t rx) {
    const size_t k = ry * m + rx;
    if (!known[k]) {
      const FoundCluster& y = clusters.cluster(member_id[ry]);
      const FoundCluster& x = clusters.cluster(member_id[rx]);
      degree[k] = ClusterDistance(y.acf.image(y.part), x.acf.image(y.part),
                                  options.metric);
      known[k] = 1;
      ++result.degree_evaluations;
    }
    return degree[k];
  };

  // Each clique's member ranks in its own order (consequent side) and
  // ascending (antecedent side: assoc sets list ids ascending).
  std::vector<std::vector<size_t>> ranks(cliques.size());
  std::vector<std::vector<size_t>> sorted_ranks(cliques.size());
  for (size_t q = 0; q < cliques.size(); ++q) {
    for (size_t id : cliques[q]) ranks[q].push_back(rank_of[id]);
    sorted_ranks[q] = ranks[q];
    std::sort(sorted_ranks[q].begin(), sorted_ranks[q].end());
  }

  RuleKeySet keys(result.rules);
  std::vector<uint64_t> assoc;       // |Q2| masks of `words` words
  std::vector<uint64_t> and_masks;   // one mask per consequent depth
  std::vector<size_t> cons_pos, ante_pos;
  std::vector<size_t> candidates;    // ranks, ids ascending
  std::vector<double> cand_degree;   // max degree over the consequent
  std::vector<double> ante_degree;   // running degree per antecedent depth
  std::vector<size_t> consequent, antecedent;  // cluster ids

  for (size_t q2 = 0; q2 < cliques.size(); ++q2) {
    const std::vector<size_t>& ys = ranks[q2];
    for (size_t q1 = 0; q1 < cliques.size(); ++q1) {
      const std::vector<size_t>& xs = sorted_ranks[q1];
      if (ys.empty() || xs.empty()) continue;  // no assoc pair, no rule
      const size_t words = (xs.size() + 63) / 64;

      // assoc(C_Yj) restricted to this Q1 (§6.2), as a bitmask over the
      // positions of `xs`. It never holds a cluster of C_Yj's own part.
      assoc.assign(ys.size() * words, 0);
      for (size_t j = 0; j < ys.size(); ++j) {
        const size_t ry = ys[j];
        uint64_t* mask = &assoc[j * words];
        for (size_t i = 0; i < xs.size(); ++i) {
          if (member_part[xs[i]] == member_part[ry]) continue;
          if (degree_of(ry, xs[i]) <= member_limit[ry]) {
            mask[i / 64] |= uint64_t{1} << (i % 64);
          }
        }
      }

      and_masks.resize(std::min(options.max_consequent, ys.size()) * words);
      bool keep_going = ForEachCombination(
          ys.size(), options.max_consequent, cons_pos,
          [&](const std::vector<size_t>& cpos) -> Walk {
            // Candidates: the intersection of assoc over the consequent,
            // extended from the prefix's intersection.
            const size_t depth = cpos.size() - 1;
            const uint64_t* own = &assoc[cpos.back() * words];
            uint64_t* cur = &and_masks[depth * words];
            const uint64_t* prev = depth == 0 ? own : cur - words;
            bool any = false;
            for (size_t w = 0; w < words; ++w) {
              cur[w] = prev[w] & own[w];
              any |= cur[w] != 0;
            }
            // Every superset's intersection is empty too.
            if (!any) return Walk::kSkip;

            consequent.clear();
            for (size_t p : cpos) consequent.push_back(member_id[ys[p]]);
            candidates.clear();
            cand_degree.clear();
            for (size_t w = 0; w < words; ++w) {
              for (uint64_t bits = cur[w]; bits != 0; bits &= bits - 1) {
                const size_t rx = xs[w * 64 + std::countr_zero(bits)];
                // Max of non-NaN values (assoc excludes NaN degrees) is
                // exact in any order, so the rule degree can be built
                // per candidate and then per antecedent prefix.
                double d = 0;
                for (size_t p : cpos) d = std::max(d, degree_of(ys[p], rx));
                candidates.push_back(rx);
                cand_degree.push_back(d);
              }
            }

            ante_degree.resize(
                std::min(options.max_antecedent, candidates.size()));
            const bool more = ForEachCombination(
                candidates.size(), options.max_antecedent, ante_pos,
                [&](const std::vector<size_t>& apos) -> Walk {
                  const size_t adepth = apos.size() - 1;
                  ante_degree[adepth] =
                      std::max(adepth == 0 ? 0.0 : ante_degree[adepth - 1],
                               cand_degree[apos.back()]);
                  antecedent.clear();
                  for (size_t p : apos) {
                    antecedent.push_back(member_id[candidates[p]]);
                  }
                  const uint64_t hash = KeyHash(antecedent, consequent);
                  if (keys.Contains(antecedent, consequent, hash)) {
                    return Walk::kDescend;
                  }
                  if (result.rules.size() >= options.max_rules) {
                    result.truncated = true;
                    return Walk::kStop;
                  }
                  DistanceRule rule;
                  rule.antecedent = antecedent;
                  rule.consequent = consequent;
                  rule.degree = ante_degree[adepth];
                  result.rules.push_back(std::move(rule));
                  keys.Insert(hash);
                  return Walk::kDescend;
                });
            return more ? Walk::kDescend : Walk::kStop;
          });
      if (!keep_going) return result;
    }
  }
  return result;
}

}  // namespace dar
