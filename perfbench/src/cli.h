// Command line of the benchmark binary:
//
//   perfbench --workload W --seed N [--seconds S] [--trace 0|1]
//                    [--out DIR] [--commit SHA] [--dirty 0|1]
//
// Every malformed input is rejected with a message that names it; the
// binary exits 2 without running anything.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Options {
  Workload workload = Workload::kCampaign;
  std::uint64_t seed = 0;
  double seconds = 10.0;  // measurement budget; at least one repetition runs
  bool trace = false;     // per-layer pass instead of the end-to-end pass
  std::string out_dir;    // result + span files go here when non-empty
  // Provenance for the run manifest (run.py fills these from git when the
  // checkout is a repository).
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::vector<std::string> args;  // the command line as given, for the manifest
};

struct ParseResult {
  std::optional<Options> options;  // set on success
  std::string error;               // set on failure
};

ParseResult parse_cli(const std::vector<std::string>& args);

}  // namespace perfbench
