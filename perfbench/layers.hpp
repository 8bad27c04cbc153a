#pragma once

#include <cstdint>
#include <vector>

#include "inputs.hpp"
#include "llm/model.hpp"
#include "toolchain/executor.hpp"

/// Single calls into each layer's public functions, timed one at a time on
/// one thread over a workload's own inputs. The compile and execute results
/// double as the per-file outcomes the output checks compare against.
namespace perfbench {

/// What the compile and execute layers produced for one input file.
struct FileOutcome {
  llm4vv::toolchain::CompileResult compile;
  llm4vv::toolchain::ExecutionRecord exec;
};

struct LayerTimings {
  double compile_us_per_file = 0.0;   ///< CompilerDriver::compile
  double execute_us_per_file = 0.0;   ///< Executor::run, compiled files
  double execute_msteps_per_s = 0.0;  ///< VM steps per execute second / 1e6
  double fused_per_file = 0.0;        ///< superinstruction sites per run
  double prompt_us = 0.0;             ///< judge::build_prompt
  double perceive_us = 0.0;           ///< llm::perceive
  double generate_us = 0.0;           ///< SimulatedCoderModel::generate
  double tokenize_mb_per_s = 0.0;     ///< default_tokenizer() over prompts
  double decode_us = 0.0;             ///< serve::parse_request, submit lines
};

struct LayerPass {
  /// Per batch, per file: compile and execute results (every file).
  std::vector<std::vector<FileOutcome>> outcomes;
  LayerTimings timings;
};

/// Compile and execute every file of every batch, timing each call. The
/// judge, llm and serve layers are timed on the first `prompt_files` files
/// (across batches), once per prompt style.
LayerPass run_layer_pass(const std::vector<Batch>& batches,
                         const std::vector<llm4vv::llm::PromptStyle>& styles,
                         std::uint64_t judge_seed, std::size_t prompt_files);

}  // namespace perfbench
