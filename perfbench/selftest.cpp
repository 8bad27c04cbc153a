// Self-test of the benchmark's own machinery: the span aggregator on a
// hand-built span set with a known answer, and every output check, first on
// real results (must pass) and then on deliberately corrupted copies (must
// fail). Run with `python3 perfbench/run.py --self-test`; exits 0 when every
// expectation holds.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "checks.hpp"
#include "core/experiments.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;
using llm4vv::obs::SpanKind;
using llm4vv::obs::TraceEvent;
using llm4vv::probing::IssueType;

int g_failures = 0;

void expect(bool condition, const std::string& what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Run `check` on a fresh report; true when it reported a failure.
bool rejects(const std::function<void(CheckReport&)>& check) {
  CheckReport report;
  check(report);
  return !report.ok();
}

TraceEvent span(std::uint64_t id, SpanKind kind, std::uint64_t start,
                std::uint64_t end, std::uint64_t parent = 0,
                std::uint64_t flow = 0) {
  TraceEvent event;
  event.span_id = id;
  event.kind = kind;
  event.start_us = start;
  event.end_us = end;
  event.parent_id = parent;
  event.flow_id = flow;
  return event;
}

void test_span_aggregator() {
  // run [0,1000] holds two overlapping compiles and two judges; both judges
  // were served by flush 4 (flow origin: its own id), which covers
  // [100,160]. Judge 5 [90,200] loses 60 us to it, judge 6 [150,250]
  // loses 10. The run's children cover [10,70] and [90,250].
  const std::vector<TraceEvent> events = {
      span(1, SpanKind::kRun, 0, 1000),
      span(2, SpanKind::kCompile, 10, 40, 1),
      span(3, SpanKind::kCompile, 30, 70, 1),
      span(4, SpanKind::kFlush, 100, 160, 0, 4),
      span(5, SpanKind::kJudge, 90, 200, 1, 4),
      span(6, SpanKind::kJudge, 150, 250, 1, 4),
  };
  const SpanSummary summary = aggregate_spans(events, 0);
  const auto& compile = summary.of(SpanKind::kCompile);
  const auto& judge = summary.of(SpanKind::kJudge);
  const auto& flush = summary.of(SpanKind::kFlush);
  const auto& run = summary.of(SpanKind::kRun);
  expect(compile.count == 2 && near(compile.total_us, 70) &&
             near(compile.self_us, 70),
         "aggregator: compile count, total and self");
  expect(judge.count == 2 && near(judge.total_us, 210) &&
             near(judge.self_us, 140) && near(judge.mean_self_us(), 70),
         "aggregator: judge self time is net of the flow-linked flush");
  expect(flush.count == 1 && near(flush.self_us, 60), "aggregator: flush");
  expect(run.count == 1 && near(run.self_us, 780),
         "aggregator: run self time is net of the union of its children");
  bool threw = false;
  try {
    aggregate_spans(events, 1);
  } catch (const IncompleteTrace&) {
    threw = true;
  }
  expect(threw, "aggregator: a dropped span fails the traced run");
}

std::size_t first_index(const Batch& batch,
                        const std::function<bool(std::size_t)>& match) {
  for (std::size_t i = 0; i < batch.files.size(); ++i) {
    if (match(i)) return i;
  }
  return batch.files.size();
}

void test_pipeline_checks() {
  const Batch batch = probed_batch(llm4vv::frontend::Flavor::kOpenACC, 150,
                                   0.35, 0.15, 7, 8);
  const LayerPass layers = run_layer_pass(
      {batch}, {llm4vv::llm::PromptStyle::kAgentDirect}, 0, 16);
  const auto& outcomes = layers.outcomes[0];
  expect(!rejects([&](CheckReport& r) { check_reference_vm(outcomes, r); }),
         "reference VM check passes on real outcomes");
  const std::size_t ran = first_index(
      batch, [&](std::size_t i) { return outcomes[i].exec.ran; });
  auto altered = outcomes;
  altered[ran].exec.stdout_text += "x";
  expect(rejects([&](CheckReport& r) { check_reference_vm(altered, r); }),
         "reference VM check rejects an altered stdout");
  altered = outcomes;
  ++altered[ran].exec.steps;
  expect(rejects([&](CheckReport& r) { check_reference_vm(altered, r); }),
         "reference VM check rejects an altered step count");

  llm4vv::judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const llm4vv::judge::Llmj>(
      llm4vv::core::make_simulated_client(2),
      llm4vv::llm::PromptStyle::kAgentDirect, cache);
  for (const auto mode : {llm4vv::pipeline::PipelineMode::kRecordAll,
                          llm4vv::pipeline::PipelineMode::kFilterEarly}) {
    const char* name =
        mode == llm4vv::pipeline::PipelineMode::kRecordAll ? "record-all"
                                                            : "filter-early";
    llm4vv::pipeline::PipelineConfig config;
    config.mode = mode;
    config.judge_batch_size = 1;
    const llm4vv::pipeline::ValidationPipeline pipe(
        llm4vv::toolchain::CompilerDriver(batch.persona),
        llm4vv::toolchain::Executor(), judge, config);
    const auto result = pipe.run(batch.files);
    const auto check = [&](const llm4vv::pipeline::PipelineResult& res) {
      return rejects([&](CheckReport& r) {
        check_pipeline_records(batch, outcomes, res, mode, r);
      });
    };
    expect(!check(result),
           std::string("pipeline checks pass on a real ") + name + " run");

    auto flipped = result;
    flipped.records[0].pipeline_says_valid = !flipped.records[0].pipeline_says_valid;
    expect(check(flipped), std::string(name) + ": rejects a flipped verdict");
    auto dropped = result;
    dropped.records[1].dropped = true;
    expect(check(dropped), std::string(name) + ": rejects a dropped record");
    auto missing = result;
    missing.records.pop_back();
    expect(check(missing), std::string(name) + ": rejects a missing record");
    const std::size_t bracket = first_index(batch, [&](std::size_t i) {
      return batch.issues[i] == IssueType::kRemovedOpeningBracket;
    });
    auto accepted = result;
    accepted.records[bracket].compiled = true;
    expect(check(accepted),
           std::string(name) + ": rejects an issue-1 file that compiled");
    const std::size_t valid = first_index(batch, [&](std::size_t i) {
      return batch.issues[i] == IssueType::kNoIssue && result.records[i].compiled;
    });
    const std::size_t undeclared = first_index(batch, [&](std::size_t i) {
      return batch.issues[i] == IssueType::kUndeclaredVariable &&
             batch.files[i].language != llm4vv::frontend::Language::kFortran;
    });
    accepted = result;
    accepted.records[undeclared].compiled = true;
    expect(check(accepted),
           std::string(name) + ": rejects an issue-2 file that compiled");
    auto crashed = result;
    crashed.records[valid].executed = false;
    crashed.records[valid].pipeline_says_valid = false;
    expect(check(crashed),
           std::string(name) + ": rejects a valid file that did not exit 0");
  }
}

void test_known_fault() {
  llm4vv::frontend::SourceFile misplaced;
  misplaced.language = llm4vv::frontend::Language::kFortran;
  misplaced.content =
      "program t\n  integer :: errs\n  errs = 0\n"
      "  print *, 'undeclared_729 PASSED'\nend program undeclared_972\n";
  expect(misplaced_fortran_rename(misplaced, IssueType::kUndeclaredVariable),
         "known fault: renames in a '...' literal and the END PROGRAM label");
  auto used = misplaced;
  used.content = "program t\n  integer :: errs\n  errs = undeclared_5\n"
                 "end program undeclared_5\n";
  expect(!misplaced_fortran_rename(used, IssueType::kUndeclaredVariable),
         "known fault: not when a renamed word is a real use");
  auto c_file = misplaced;
  c_file.language = llm4vv::frontend::Language::kC;
  expect(!misplaced_fortran_rename(c_file, IssueType::kUndeclaredVariable) &&
             !misplaced_fortran_rename(misplaced,
                                       IssueType::kRemovedOpeningBracket),
         "known fault: Fortran issue-2 files only");

  // candidate-triage's fixed Fortran share holds files the fault leaves
  // valid: they compile, the checks exempt them, and they count as failed.
  const Batch batch = triage_inputs(1)[0];
  auto judge = std::make_shared<const llm4vv::judge::Llmj>(
      llm4vv::core::make_simulated_client(2),
      llm4vv::llm::PromptStyle::kAgentDirect);
  llm4vv::pipeline::PipelineConfig config;
  config.mode = llm4vv::pipeline::PipelineMode::kFilterEarly;
  const llm4vv::pipeline::ValidationPipeline pipe(
      llm4vv::toolchain::CompilerDriver(batch.persona),
      llm4vv::toolchain::Executor(), judge, config);
  const auto result = pipe.run(batch.files);
  const LayerPass layers = run_layer_pass(
      {batch}, {llm4vv::llm::PromptStyle::kAgentDirect}, 0, 0);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    failed += failed_by_known_fault(batch, i, result.records[i]);
  }
  expect(failed > 0 && !rejects([&](CheckReport& r) {
           check_pipeline_records(batch, layers.outcomes[0], result,
                                  config.mode, r);
         }),
         "known fault: " + std::to_string(failed) +
             " candidate-triage files fail by it, and the checks pass");
}

void test_paper_check() {
  const Batch batch = paper_inputs(1)[0];
  llm4vv::judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const llm4vv::judge::Llmj>(
      llm4vv::core::make_simulated_client(2),
      llm4vv::llm::PromptStyle::kAgentDirect, cache);
  llm4vv::pipeline::PipelineConfig config;
  config.judge_batch_size = 1;
  const llm4vv::pipeline::ValidationPipeline pipe(
      llm4vv::toolchain::CompilerDriver(batch.persona),
      llm4vv::toolchain::Executor(), judge, config);
  const auto result = pipe.run(batch.files);
  expect(!rejects([&](CheckReport& r) { check_paper_accuracy(batch, 1, result, r); }),
         "paper check passes on the OpenACC suite, LLMJ 1");
  auto shifted = result;
  for (std::size_t i = 0; i < shifted.records.size(); i += 10) {
    shifted.records[i].judge_says_valid = !shifted.records[i].judge_says_valid;
  }
  expect(rejects([&](CheckReport& r) { check_paper_accuracy(batch, 1, shifted, r); }),
         "paper check rejects verdicts flipped on every 10th file");
}

void test_serve_checks() {
  const Batch payloads = serve_inputs(5, 40);
  auto server_judge = std::make_shared<const llm4vv::judge::Llmj>(
      llm4vv::core::make_simulated_client(2),
      llm4vv::llm::PromptStyle::kAgentDirect);
  llm4vv::serve::Server server(llm4vv::toolchain::CompilerDriver(payloads.persona),
                               llm4vv::toolchain::Executor(), server_judge);
  server.start();
  llm4vv::serve::Client a, b;
  expect(a.connect("127.0.0.1", server.port(), "tenant-a") &&
             b.connect("127.0.0.1", server.port(), "tenant-b"),
         "serve: both tenants connect");
  std::vector<TenantLoad> tenants = {{&a, {}}, {&b, {}}};
  for (std::size_t j = 0; j < payloads.files.size(); ++j) {
    tenants[j % 2].jobs.push_back(j);
  }
  const LoadResult load = run_open_loop(tenants, payloads.files, 400.0);
  const auto totals = server.tenants().totals();
  server.request_drain();
  server.wait();

  const LayerPass layers = run_layer_pass(
      {payloads}, {llm4vv::llm::PromptStyle::kAgentDirect}, 0, 0);
  llm4vv::judge::JudgeCacheConfig cache;
  cache.enabled = false;
  const llm4vv::judge::Llmj reference(llm4vv::core::make_simulated_client(1),
                                      llm4vv::llm::PromptStyle::kAgentDirect,
                                      cache);
  const auto frames = [&](const LoadResult& l) {
    return rejects([&](CheckReport& r) { check_serve_frames(l, r); });
  };
  const auto verdicts = [&](const LoadResult& l) {
    return rejects([&](CheckReport& r) {
      check_serve_verdicts(payloads, layers.outcomes[0], l, reference, 0, r);
    });
  };
  const auto accounting = [&](const llm4vv::serve::TenantStats& t) {
    return rejects([&](CheckReport& r) {
      check_tenant_totals(t, payloads.files.size(), r);
    });
  };
  expect(!frames(load) && !verdicts(load) && !accounting(totals),
         "serve checks pass on a real open-loop run");

  auto missing = load;
  missing.jobs[3].terminals = 0;
  expect(frames(missing), "serve: rejects a missing frame");
  auto doubled = load;
  doubled.jobs[4].terminals = 2;
  expect(frames(doubled), "serve: rejects a second terminal frame");
  auto shed = load;
  shed.jobs[5].response.type = llm4vv::serve::ResponseType::kShed;
  expect(frames(shed), "serve: rejects a shed frame");
  auto flipped = load;
  flipped.jobs[6].response.judge_valid = !flipped.jobs[6].response.judge_valid;
  expect(verdicts(flipped), "serve: rejects a flipped verdict");
  auto in_flight = totals;
  in_flight.in_flight = 1;
  expect(accounting(in_flight), "serve: rejects a job left in flight");
  auto unbalanced = totals;
  ++unbalanced.submitted;
  expect(accounting(unbalanced), "serve: rejects submitted != accepted + shed");
}

}  // namespace

int main() {
  test_span_aggregator();
  test_pipeline_checks();
  test_known_fault();
  test_paper_check();
  test_serve_checks();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
