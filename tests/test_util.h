#ifndef DAR_TESTS_TEST_UTIL_H_
#define DAR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/random.h"
#include "relation/metric.h"

namespace dar {
namespace testutil {

/// Path of `name` inside this test process's own scratch directory:
/// testing::TempDir() plus a pid-unique subdirectory, created on first use
/// and removed at process exit. ctest runs every test in its own process,
/// so tests that write files never share a path under `ctest -j`.
inline std::string TempPath(const std::string& name) {
  struct ScratchDir {
    ScratchDir()
        : path(::testing::TempDir() + "/dar_test_" +
               std::to_string(static_cast<long>(::getpid()))) {
      std::filesystem::create_directories(path);
    }
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    std::string path;
  };
  static const ScratchDir dir;
  return dir.path + "/" + name;
}

/// A set of points (row-major) used as brute-force reference input.
using Points = std::vector<std::vector<double>>;

inline Points RandomPoints(Rng& rng, size_t n, size_t dim, double lo = -10,
                           double hi = 10) {
  Points pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.Uniform(lo, hi);
  }
  return pts;
}

/// Points with small integer coordinates (for discrete-metric tests).
inline Points RandomDiscretePoints(Rng& rng, size_t n, size_t dim,
                                   int64_t num_values = 4) {
  Points pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& v : p) v = static_cast<double>(rng.UniformInt(0, num_values - 1));
  }
  return pts;
}

/// Brute-force RMS pairwise distance (the CF-computable diameter form):
/// sqrt(sum_{i != j} ||p_i - p_j||^2 / (N(N-1))).
inline double BruteDiameterRms(const Points& pts) {
  size_t n = pts.size();
  if (n < 2) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sum += SquaredEuclidean(pts[i], pts[j]);
    }
  }
  return std::sqrt(sum / (static_cast<double>(n) * (n - 1)));
}

/// Brute-force average pairwise mismatch count (discrete diameter, Eq. 2
/// with the 0/1 metric).
inline double BruteDiameterDiscrete(const Points& pts) {
  size_t n = pts.size();
  if (n < 2) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sum += PointDistance(MetricKind::kDiscrete, pts[i], pts[j]);
    }
  }
  return sum / (static_cast<double>(n) * (n - 1));
}

/// Brute-force RMS inter-set distance (the CF-computable D2 form).
inline double BruteD2Rms(const Points& a, const Points& b) {
  double sum = 0;
  for (const auto& p : a) {
    for (const auto& q : b) sum += SquaredEuclidean(p, q);
  }
  return std::sqrt(sum / (static_cast<double>(a.size()) * b.size()));
}

/// Brute-force average pairwise mismatch between two sets (discrete D2 —
/// exactly Eq. 6 under the 0/1 metric).
inline double BruteD2Discrete(const Points& a, const Points& b) {
  double sum = 0;
  for (const auto& p : a) {
    for (const auto& q : b) {
      sum += PointDistance(MetricKind::kDiscrete, p, q);
    }
  }
  return sum / (static_cast<double>(a.size()) * b.size());
}

inline std::vector<double> BruteCentroid(const Points& pts) {
  std::vector<double> c(pts[0].size(), 0.0);
  for (const auto& p : pts) {
    for (size_t d = 0; d < c.size(); ++d) c[d] += p[d];
  }
  for (auto& v : c) v /= static_cast<double>(pts.size());
  return c;
}

}  // namespace testutil
}  // namespace dar

#endif  // DAR_TESTS_TEST_UTIL_H_
