#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probing/prober.hpp"
#include "toolchain/compiler.hpp"

/// The workloads' inputs. Every input is made from the run's --seed (the
/// paper suites from the paper's own seeds); the program under test only
/// ever receives the generated files.
namespace perfbench {

/// Files of one programming model with their ground truth, and the
/// compiler persona that builds them (nvc for OpenACC, clang for OpenMP, as
/// in the paper).
struct Batch {
  llm4vv::frontend::Flavor flavor = llm4vv::frontend::Flavor::kOpenACC;
  llm4vv::toolchain::CompilerConfig persona;
  std::vector<llm4vv::frontend::SourceFile> files;
  std::vector<llm4vv::probing::IssueType> issues;  ///< per file
};

/// Derive an independent 64-bit stream value from a seed and a label.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label) noexcept;

/// Probe a freshly generated base suite of `base_count` valid files at 2/15
/// of the base per issue type: six types, so 80% of the base is drawn and
/// 5/6 of the draw is invalid.
Batch probed_batch(llm4vv::frontend::Flavor flavor, std::size_t base_count,
                   double cpp_share, double fortran_share,
                   std::uint64_t corpus_seed, std::uint64_t probe_seed);

/// paper-record-all: the Part Two suites (1782 OpenACC + 296 OpenMP files)
/// at the paper's corpus and probing seeds. `seed` only permutes the order
/// in which each suite is handed to the pipeline.
std::vector<Batch> paper_inputs(std::uint64_t seed);

/// Seed of candidate-triage's Fortran-bearing OpenACC share. It does not
/// follow --seed: at this seed the share holds Fortran issue-2 files that the
/// prober's known fault leaves valid (checks.hpp, misplaced_fortran_rename),
/// so every run fails on the same number of them.
constexpr std::uint64_t kFortranSeed = 15;

/// candidate-triage: a raw-LLM-output-shaped batch. OpenACC: 2550 C/C++
/// files from `seed` and 450 files with Fortran wherever a template has a
/// Fortran form, from kFortranSeed, each set probed at 2/15 of its base per
/// issue type (2400 files, shuffled by `seed`); OpenMP: 1500 C/C++ files
/// probed the same way (1200 files). So 5/6 are invalid, with the prober's
/// duplicates left in.
std::vector<Batch> triage_inputs(std::uint64_t seed);

/// serve-open: `jobs` payloads drawn from a mixed valid/invalid probed
/// OpenACC pool. Every payload is distinct: job j carries its own trailing
/// comment, so no two jobs share a judge-cache key.
Batch serve_inputs(std::uint64_t seed, std::size_t jobs);

}  // namespace perfbench
