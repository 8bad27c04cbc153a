#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>

#include "support/jsonl.hpp"

namespace perfbench {

bool release_build() noexcept {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

const char* build_type() noexcept { return PERFBENCH_BUILD_TYPE; }

std::string host_record_json(const std::string& commit) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return llm4vv::support::JsonObject()
      .field("nproc", static_cast<std::int64_t>(nproc))
      .field("compiler", std::string(PERFBENCH_COMPILER))
      .field("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .field("commit", commit)
      .str();
}

double process_cpu_seconds() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
