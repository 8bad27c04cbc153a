#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"

/// Span aggregator: per span kind, the count, total time and self time of
/// the spans an obs::Tracer collected.
///
/// A span's self time is its duration minus the part of its interval that
/// its children (spans whose parent_id names it) cover. A judge span also
/// counts as covered the client.flush span that served it: the flush
/// publishes its own span id as flow_id and the judge span carries that id
/// back, so judge self time is the judge layer's own work net of the model
/// forward pass it waited on.
namespace perfbench {

struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;

  double mean_us() const noexcept {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
  double mean_self_us() const noexcept {
    return count == 0 ? 0.0 : self_us / static_cast<double>(count);
  }
};

struct SpanSummary {
  std::array<SpanTotals, llm4vv::obs::kSpanKindCount> kinds{};

  const SpanTotals& of(llm4vv::obs::SpanKind kind) const noexcept {
    return kinds[static_cast<std::size_t>(kind)];
  }
  /// Add another summary's totals (several traced rounds, one report).
  void merge(const SpanSummary& other) noexcept;
};

/// Thrown when the tracer lost spans: a summary with holes in it would
/// understate every layer it touched, so a traced run must not report it.
class IncompleteTrace : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Aggregate collected events. `dropped` is Tracer::dropped() for the same
/// tracer; nonzero throws IncompleteTrace.
SpanSummary aggregate_spans(const std::vector<llm4vv::obs::TraceEvent>& events,
                            std::uint64_t dropped);

}  // namespace perfbench
