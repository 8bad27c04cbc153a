#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

/// The three workloads (README.md says why each exists). A run measures
/// whole rounds of the workload until `seconds` of measured time have
/// passed, then checks every output it produced.
namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// false: untraced run, end-to-end metrics. true: an untraced half and a
  /// traced half, per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;  ///< verdicts attempted
  std::uint64_t failed = 0;     ///< attempted verdicts that never came back
  std::vector<Metric> metrics;
  CheckReport checks;
  /// Provenance and diagnostics printed before the result line.
  std::vector<std::string> notes;
};

/// Throws std::invalid_argument for an unknown workload name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
