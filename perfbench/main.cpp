// End-to-end verdict benchmark: runs one workload and prints, as the last
// line of stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <paper-record-all|candidate-triage|serve-open>
//             --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of an untraced half and a traced half.
// perfbench/run.py builds this binary and supplies --commit.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "host.hpp"
#include "support/cli.hpp"
#include "workloads.hpp"

namespace {

/// Metric names and units are plain identifiers, so no escaping is needed;
/// values keep all their digits. A non-finite value (which marks the run
/// incorrect) is written as 0 to keep the line valid JSON.
std::string result_line(const perfbench::RunReport& report, bool correct) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& metric = report.metrics[i];
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  return line + "}}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const llm4vv::support::CliArgs args(argc, argv);
  if (!perfbench::release_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a non-Release "
                 "build (%s)\n",
                 perfbench::build_type());
    return 3;
  }
  perfbench::RunOptions options;
  options.workload = args.get("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  options.seconds = args.get_double("seconds", 10.0);
  const std::int64_t trace = args.get_int("trace", 0);
  if (options.workload.empty()) return usage("--workload is required");
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  options.trace = trace == 1;

  std::printf("host: %s\n",
              perfbench::host_record_json(args.get("commit", "unknown")).c_str());
  std::printf("run: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());

  bool finite = true;
  for (const auto& metric : report.metrics) {
    finite = finite && std::isfinite(metric.value);
  }
  const bool correct = report.checks.ok() && finite && report.attempted > 0;
  for (const auto& message : report.checks.messages()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
  }
  if (!report.checks.ok()) {
    std::fprintf(stderr, "perfbench: %llu check failures\n",
                 static_cast<unsigned long long>(report.checks.failures()));
  }
  if (!finite) std::fprintf(stderr, "perfbench: a metric is not finite\n");
  std::printf("%s\n", result_line(report, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
