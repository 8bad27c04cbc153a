#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/source.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

/// Open-loop load generator for serve::Server.
///
/// One connection per tenant, each with one paced sender thread and one
/// reader thread. Job j of tenant t (of T) is due at start + (j + t/T) /
/// rate, whether or not earlier jobs have been answered. A job's latency is taken from its
/// due time, not from when it was sent, so a stall in the generator or in
/// the socket is charged to every job it delays; how late each send left
/// is reported separately as lag. After its last submit a sender
/// half-closes its socket and the reader keeps reading until the server
/// closes the connection, so every frame the server ever writes for a job
/// is seen and counted.
namespace perfbench {

/// What one job saw. Times are support::now_us() values.
struct JobRecord {
  std::uint64_t due_us = 0;
  std::uint64_t sent_us = 0;
  std::uint64_t recv_us = 0;  ///< arrival of the (last) terminal frame
  std::uint32_t terminals = 0;  ///< terminal frames received for the job
  /// The (last) terminal frame, without its raw `fields` map.
  llm4vv::serve::Response response;
};

/// One tenant's connection (already connected and bound by hello) and the
/// jobs it sends, as indexes into the shared payload vector. A job's wire
/// id is its index.
struct TenantLoad {
  llm4vv::serve::Client* client = nullptr;
  std::vector<std::size_t> jobs;
};

struct LoadResult {
  std::vector<JobRecord> jobs;  ///< indexed like the payload vector
  /// Terminal frames naming a job the connection never submitted.
  std::uint64_t stray_frames = 0;
  std::string error;            ///< empty unless a connection failed
};

/// Run every tenant's jobs open-loop, each tenant at `rate_per_tenant` jobs
/// per second, all starting together. Each connection is half-closed and
/// read to its end, so it cannot be used again.
LoadResult run_open_loop(const std::vector<TenantLoad>& tenants,
                         const std::vector<llm4vv::frontend::SourceFile>& payloads,
                         double rate_per_tenant);

}  // namespace perfbench
