#pragma once

#include <cstdint>
#include <string>

/// Host and provenance record, process resource readings, and the Release
/// gate. Every run prints the record so a figure can be traced to the
/// machine, compiler, build type and source tree that produced it.
namespace perfbench {

/// True only for an optimized (Release, NDEBUG) build of the benchmark and
/// the library it links.
bool release_build() noexcept;

/// CMAKE_BUILD_TYPE the benchmark was configured with.
const char* build_type() noexcept;

/// One-line JSON: nproc, compiler id and version, build type, commit.
std::string host_record_json(const std::string& commit);

/// User + system CPU seconds of this process, all threads, from getrusage.
double process_cpu_seconds() noexcept;

/// Peak resident set size of this process in MB, from getrusage.
double peak_rss_mb() noexcept;

}  // namespace perfbench
