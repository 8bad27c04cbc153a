#include "spans.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

using llm4vv::obs::SpanKind;
using llm4vv::obs::TraceEvent;

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Length of the union of `covers`, each clipped to [start, end].
std::uint64_t covered_us(std::vector<Interval>& covers, std::uint64_t start,
                         std::uint64_t end) {
  for (auto& [lo, hi] : covers) {
    lo = std::clamp(lo, start, end);
    hi = std::clamp(hi, start, end);
  }
  std::sort(covers.begin(), covers.end());
  std::uint64_t total = 0;
  std::uint64_t reach = start;
  for (const auto& [lo, hi] : covers) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) {
      total += hi - from;
      reach = hi;
    }
  }
  return total;
}

}  // namespace

void SpanSummary::merge(const SpanSummary& other) noexcept {
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    kinds[k].count += other.kinds[k].count;
    kinds[k].total_us += other.kinds[k].total_us;
    kinds[k].self_us += other.kinds[k].self_us;
  }
}

SpanSummary aggregate_spans(const std::vector<TraceEvent>& events,
                            std::uint64_t dropped) {
  if (dropped != 0) {
    throw IncompleteTrace("tracer dropped " + std::to_string(dropped) +
                          " spans; per-layer figures would be incomplete");
  }
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_id.emplace(events[i].span_id, i);
  }
  std::vector<std::vector<Interval>> covers(events.size());
  for (const TraceEvent& event : events) {
    if (event.parent_id != 0) {
      const auto parent = by_id.find(event.parent_id);
      if (parent != by_id.end()) {
        covers[parent->second].emplace_back(event.start_us, event.end_us);
      }
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (event.kind != SpanKind::kJudge || event.flow_id == 0) continue;
    const auto flush = by_id.find(event.flow_id);
    if (flush != by_id.end() && events[flush->second].kind == SpanKind::kFlush) {
      const TraceEvent& origin = events[flush->second];
      covers[i].emplace_back(origin.start_us, origin.end_us);
    }
  }

  SpanSummary summary;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    const std::uint64_t end = std::max(event.end_us, event.start_us);
    const std::uint64_t duration = end - event.start_us;
    SpanTotals& totals = summary.kinds[static_cast<std::size_t>(event.kind)];
    ++totals.count;
    totals.total_us += static_cast<double>(duration);
    totals.self_us += static_cast<double>(
        duration - covered_us(covers[i], event.start_us, end));
  }
  return summary;
}

}  // namespace perfbench
