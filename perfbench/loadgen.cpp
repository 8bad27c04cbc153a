#include "loadgen.hpp"

#include <chrono>
#include <thread>

#include "support/stopwatch.hpp"

namespace perfbench {

namespace {

/// Lead time before the first due job, so every sender thread is running
/// before its schedule starts.
constexpr std::uint64_t kStartLeadUs = 20'000;
/// A reader that sees nothing for this long gives up on its connection.
constexpr int kReadTimeoutMs = 60'000;

void sleep_until_us(std::uint64_t due_us) {
  const std::uint64_t now = llm4vv::support::now_us();
  if (due_us > now) {
    std::this_thread::sleep_for(std::chrono::microseconds(due_us - now));
  }
}

}  // namespace

LoadResult run_open_loop(
    const std::vector<TenantLoad>& tenants,
    const std::vector<llm4vv::frontend::SourceFile>& payloads,
    double rate_per_tenant) {
  LoadResult result;
  result.jobs.resize(payloads.size());

  constexpr std::size_t kNoOwner = ~std::size_t{0};
  std::vector<std::size_t> owner(payloads.size(), kNoOwner);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (const std::size_t job : tenants[t].jobs) owner[job] = t;
  }
  std::vector<std::uint64_t> stray(tenants.size(), 0);

  const double interval_us = 1e6 / rate_per_tenant;
  const std::uint64_t start_us = llm4vv::support::now_us() + kStartLeadUs;
  std::vector<std::string> errors(tenants.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    // Sender: writes only due_us/sent_us of its own tenant's jobs.
    threads.emplace_back([&, t] {
      const auto& jobs = tenants[t].jobs;
      // Tenants are staggered so the combined arrivals are evenly spaced.
      const double offset =
          static_cast<double>(t) / static_cast<double>(tenants.size());
      for (std::size_t k = 0; k < jobs.size(); ++k) {
        JobRecord& job = result.jobs[jobs[k]];
        job.due_us = start_us + static_cast<std::uint64_t>(
                                    (static_cast<double>(k) + offset) *
                                    interval_us);
        sleep_until_us(job.due_us);
        job.sent_us = llm4vv::support::now_us();
        if (!tenants[t].client->send_submit(jobs[k], payloads[jobs[k]])) break;
      }
      tenants[t].client->shutdown_write();
    });
    // Reader: writes only recv_us/terminals/response, until the server
    // closes the connection.
    threads.emplace_back([&, t] {
      for (;;) {
        const auto response = tenants[t].client->next_response(kReadTimeoutMs);
        if (!response.has_value()) {
          if (tenants[t].client->last_error() != "eof") {
            errors[t] = "tenant " + std::to_string(t) + ": " +
                        (tenants[t].client->last_error().empty()
                             ? std::string("read timeout")
                             : tenants[t].client->last_error());
          }
          return;
        }
        if (!response->terminal()) continue;
        if (!response->has_id || response->id >= owner.size() ||
            owner[response->id] != t) {
          ++stray[t];
          continue;
        }
        JobRecord& job = result.jobs[response->id];
        job.recv_us = llm4vv::support::now_us();
        ++job.terminals;
        job.response = *response;
        job.response.fields.clear();  // the raw map is not needed; keep jobs small
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::uint64_t count : stray) result.stray_frames += count;
  for (const auto& error : errors) {
    if (!error.empty()) result.error += (result.error.empty() ? "" : "; ") + error;
  }
  return result;
}

}  // namespace perfbench
