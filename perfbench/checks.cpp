#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/paper_data.hpp"
#include "metrics/metrics.hpp"
#include "vm/interp.hpp"

namespace perfbench {

namespace {

using llm4vv::probing::IssueType;

constexpr std::size_t kKeptMessages = 8;
constexpr double kPaperTolerance = 0.03;

std::string at(const char* what, std::size_t index) {
  return std::string(what) + " (file " + std::to_string(index) + ")";
}

}  // namespace

bool misplaced_fortran_rename(const llm4vv::frontend::SourceFile& file,
                              IssueType issue) {
  if (issue != IssueType::kUndeclaredVariable ||
      file.language != llm4vv::frontend::Language::kFortran) {
    return false;
  }
  const std::string& text = file.content;
  bool renamed = false;
  for (std::size_t at = text.find("undeclared_"); at != std::string::npos;
       at = text.find("undeclared_", at + 1)) {
    const std::size_t line = text.rfind('\n', at) + 1;  // npos + 1 == 0
    const std::string before = text.substr(line, at - line);
    const std::size_t indent = before.find_first_not_of(' ');
    const bool label = indent != std::string::npos &&
                       before.compare(indent, std::string::npos,
                                      "end program ") == 0;
    const bool in_literal =
        std::count(before.begin(), before.end(), '\'') % 2 == 1;
    if (!label && !in_literal) return false;
    renamed = true;
  }
  return renamed;
}

bool failed_by_known_fault(const Batch& batch, std::size_t index,
                           const llm4vv::pipeline::PipelineRecord& record) {
  return record.compiled &&
         misplaced_fortran_rename(batch.files[index], batch.issues[index]);
}

void CheckReport::fail(const std::string& what) {
  ++failures_;
  if (messages_.size() < kKeptMessages) messages_.push_back(what);
}

void check_reference_vm(const std::vector<FileOutcome>& outcomes,
                        CheckReport& report) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (out.compile.module == nullptr) {
      if (out.exec.ran) report.fail(at("ran a file that did not compile", i));
      continue;
    }
    const auto ref = llm4vv::vm::execute_reference(*out.compile.module);
    if (!out.exec.ran || out.exec.return_code != ref.return_code ||
        out.exec.stdout_text != ref.stdout_text ||
        out.exec.stderr_text != ref.stderr_text || out.exec.trap != ref.trap ||
        out.exec.steps != ref.steps) {
      report.fail(at("execute layer differs from vm::execute_reference", i));
    }
  }
}

void check_pipeline_records(const Batch& batch,
                            const std::vector<FileOutcome>& outcomes,
                            const llm4vv::pipeline::PipelineResult& result,
                            llm4vv::pipeline::PipelineMode mode,
                            CheckReport& report) {
  if (result.records.size() != batch.files.size() ||
      outcomes.size() != batch.files.size()) {
    report.fail("pipeline returned " + std::to_string(result.records.size()) +
                " records for " + std::to_string(batch.files.size()) +
                " files");
    return;
  }
  const bool filter = mode == llm4vv::pipeline::PipelineMode::kFilterEarly;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const auto& r = result.records[i];
    const auto& out = outcomes[i];
    const IssueType issue = batch.issues[i];
    if (r.index != i || r.dropped || r.judge_error) {
      report.fail(at("record dropped, misplaced or judge error", i));
      continue;
    }
    if (r.compiled != out.compile.success) {
      report.fail(at("compile verdict differs from a direct compile", i));
    }
    if (r.compiled && (r.exec_rc != out.exec.return_code ||
                       r.executed != out.exec.passed())) {
      report.fail(at("execute outcome differs from a direct run", i));
    }
    if (r.pipeline_says_valid != (r.compiled && r.executed &&
                                  r.judge_says_valid)) {
      report.fail(at("pipeline verdict != compiled && exit 0 && judge", i));
    }
    if (r.judged != (filter ? r.compiled && r.executed : true)) {
      report.fail(at("judge stage reached by the wrong files", i));
    }
    if ((issue == IssueType::kRemovedOpeningBracket ||
         issue == IssueType::kUndeclaredVariable) &&
        r.compiled && !failed_by_known_fault(batch, i, r)) {
      report.fail(at("issue-1/2 file accepted by compile", i));
    }
    if (issue == IssueType::kNoIssue && r.compiled && !r.executed) {
      report.fail(at("valid file compiled but did not exit 0", i));
    }
  }
}

void check_paper_accuracy(const Batch& batch, int llmj,
                          const llm4vv::pipeline::PipelineResult& result,
                          CheckReport& report) {
  if (result.records.size() != batch.issues.size()) {
    report.fail("paper check: record count differs from the suite");
    return;
  }
  std::vector<llm4vv::metrics::JudgmentRecord> judge, pipe;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    judge.push_back({batch.issues[i], result.records[i].judge_says_valid});
    pipe.push_back({batch.issues[i], result.records[i].pipeline_says_valid});
  }
  const struct {
    const char* table;
    double measured;
    double paper;
  } rows[] = {
      {"IX (LLMJ)", llm4vv::metrics::evaluate(judge).overall_accuracy,
       llm4vv::core::table9_overall(batch.flavor, llmj).overall_accuracy},
      {"VI (pipeline)", llm4vv::metrics::evaluate(pipe).overall_accuracy,
       llm4vv::core::table6_overall(batch.flavor, llmj).overall_accuracy},
  };
  for (const auto& row : rows) {
    if (!(std::fabs(row.measured - row.paper) <= kPaperTolerance)) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "%s LLMJ %d Table %s accuracy %.2f%% vs paper %.2f%%",
                    llm4vv::frontend::flavor_name(batch.flavor), llmj,
                    row.table, 100.0 * row.measured, 100.0 * row.paper);
      report.fail(line);
    }
  }
}

void check_serve_frames(const LoadResult& load, CheckReport& report) {
  if (!load.error.empty()) report.fail("load generator: " + load.error);
  if (load.stray_frames != 0) {
    report.fail(std::to_string(load.stray_frames) +
                " terminal frames for jobs their connection never sent");
  }
  for (std::size_t j = 0; j < load.jobs.size(); ++j) {
    const JobRecord& job = load.jobs[j];
    if (job.terminals != 1) {
      report.fail(at("job did not get exactly one terminal frame", j));
    } else if (job.response.type != llm4vv::serve::ResponseType::kVerdict) {
      report.fail(at("job's terminal frame is not a verdict", j));
    } else if (job.response.cached) {
      report.fail(at("distinct payload served from the judge cache", j));
    }
  }
}

void check_serve_verdicts(const Batch& payloads,
                          const std::vector<FileOutcome>& outcomes,
                          const LoadResult& load,
                          const llm4vv::judge::Llmj& reference_judge,
                          std::uint64_t judge_seed, CheckReport& report) {
  if (load.jobs.size() != payloads.files.size() ||
      outcomes.size() != payloads.files.size()) {
    report.fail("serve check: job count differs from the payloads");
    return;
  }
  for (std::size_t j = 0; j < load.jobs.size(); ++j) {
    const auto& frame = load.jobs[j].response;
    if (frame.type != llm4vv::serve::ResponseType::kVerdict) continue;
    const auto& out = outcomes[j];
    const auto decision = reference_judge.evaluate(
        payloads.files[j], &out.compile, &out.exec, judge_seed);
    if (frame.verdict != llm4vv::judge::verdict_name(decision.verdict) ||
        frame.judge_valid != decision.says_valid ||
        frame.compiled != out.compile.success ||
        frame.executed != out.exec.passed()) {
      report.fail(at("verdict frame differs from a separate evaluate", j));
    }
  }
}

void check_tenant_totals(const llm4vv::serve::TenantStats& totals,
                         std::uint64_t jobs, CheckReport& report) {
  if (totals.submitted != totals.accepted + totals.shed_total()) {
    report.fail("tenants: submitted != accepted + shed");
  }
  if (totals.in_flight != 0) report.fail("tenants: jobs still in flight");
  if (totals.submitted != jobs || totals.shed_total() != 0 ||
      totals.completed_ok != jobs) {
    report.fail("tenants: " + std::to_string(totals.completed_ok) + " of " +
                std::to_string(jobs) + " jobs completed, " +
                std::to_string(totals.shed_total()) + " shed");
  }
}

}  // namespace perfbench
