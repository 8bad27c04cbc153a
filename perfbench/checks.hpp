#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "judge/judge.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "serve/tenancy.hpp"

/// Independent output checks, run at the end of each workload. None of them
/// compares against a stored copy of earlier output: each one re-derives
/// what a correct result must satisfy from the inputs, a separate code path
/// (the reference interpreter, a separate judge) or the paper's tables.
namespace perfbench {

class CheckReport {
 public:
  void fail(const std::string& what);
  bool ok() const noexcept { return failures_ == 0; }
  std::uint64_t failures() const noexcept { return failures_; }
  /// The first few failure messages (all are counted).
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Every module the execute layer ran gives the same return code, stdout,
/// stderr, trap and step count under vm::execute_reference, the pinned
/// switch interpreter.
void check_reference_vm(const std::vector<FileOutcome>& outcomes,
                        CheckReport& report);

/// The prober's known fault (CHANGES.md): in a Fortran file,
/// probing::use_undeclared_variable can rename a word that is not a variable
/// use, because it takes only '"' to open a string and counts the
/// `end program` label as a use. The renamed word then sits in a '...'
/// literal or on the END PROGRAM line, which the Fortran front end does not
/// check, so the file stays valid. True for an issue-2 Fortran file all of
/// whose renamed words sit there.
bool misplaced_fortran_rename(const llm4vv::frontend::SourceFile& file,
                              llm4vv::probing::IssueType issue);

/// A verdict that the known fault makes wrong: a misplaced_fortran_rename
/// file that compiled. The workload counts it as failed; the checks below
/// exempt it from "rejected by compile".
bool failed_by_known_fault(const Batch& batch, std::size_t index,
                           const llm4vv::pipeline::PipelineRecord& record);

/// Every pipeline record against the inputs and the single-call outcomes:
/// no record dropped or errored; compile and execute agree with the single
/// calls; pipeline_says_valid == compiled && exited 0 && judge_says_valid;
/// every issue-1 (removed opening bracket) and issue-2 (undeclared
/// variable) file is rejected by compile, except failed_by_known_fault; every ground-truth-valid file
/// that compiles exits 0; filter-early judges exactly the survivors.
void check_pipeline_records(const Batch& batch,
                            const std::vector<FileOutcome>& outcomes,
                            const llm4vv::pipeline::PipelineResult& result,
                            llm4vv::pipeline::PipelineMode mode,
                            CheckReport& report);

/// Overall LLMJ accuracy (Table IX) and pipeline accuracy (Table VI) of one
/// agent judge (1 or 2) on one paper suite lie within 3 percentage points
/// of the paper.
void check_paper_accuracy(const Batch& batch, int llmj,
                          const llm4vv::pipeline::PipelineResult& result,
                          CheckReport& report);

/// Every job got exactly one terminal frame, it is a verdict, and no frame
/// was served from the judge cache (every payload is distinct).
void check_serve_frames(const LoadResult& load, CheckReport& report);

/// Every verdict frame equals what a separate Llmj::evaluate (its own model
/// client, cache off) decides on the same file and the same compile and
/// execute outcomes, and its compiled/executed flags equal those outcomes.
void check_serve_verdicts(const Batch& payloads,
                          const std::vector<FileOutcome>& outcomes,
                          const LoadResult& load,
                          const llm4vv::judge::Llmj& reference_judge,
                          std::uint64_t judge_seed, CheckReport& report);

/// Tenant accounting after the load: submitted == accepted + shed, nothing
/// shed (no limits are set), everything completed, nothing in flight.
void check_tenant_totals(const llm4vv::serve::TenantStats& totals,
                         std::uint64_t jobs, CheckReport& report);

}  // namespace perfbench
