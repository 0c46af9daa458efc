// The dar benchmark driver: runs one named workload and prints its metrics,
// then one JSON result line. See README.md.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tmpdir DIR]

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/executor.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload mine_paper|stream_refresh|"
               "serve_swap|stream_scored --seed N --seconds S --trace 0|1 "
               "[--tmpdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.parallel = dar::HardwareParallelism();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--tmpdir") {
      options.tmpdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  perfbench::Report report;
  if (options.workload == "mine_paper") {
    perfbench::RunMinePaper(options, report);
  } else if (options.workload == "stream_refresh") {
    perfbench::RunStreamRefresh(options, report);
  } else if (options.workload == "serve_swap") {
    perfbench::RunServeSwap(options, report);
  } else if (options.workload == "stream_scored") {
    perfbench::RunStreamScored(options, report);
  } else {
    return Usage();
  }
  return report.Print(options.trace);
}
