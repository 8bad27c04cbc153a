#include "layers.hpp"

#include <chrono>
#include <string>

#include "judge/prompt.hpp"
#include "llm/coder_model.hpp"
#include "llm/perception.hpp"
#include "llm/tokenizer.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Keeps a result observable so the timed call cannot be optimized away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

LayerPass run_layer_pass(const std::vector<Batch>& batches,
                         const std::vector<llm4vv::llm::PromptStyle>& styles,
                         std::uint64_t judge_seed, std::size_t prompt_files) {
  const llm4vv::toolchain::Executor executor;
  const llm4vv::llm::SimulatedCoderModel model;
  const llm4vv::llm::Tokenizer& tokenizer = llm4vv::llm::default_tokenizer();
  llm4vv::llm::GenerationParams params;
  params.seed = judge_seed;

  LayerPass pass;
  double compile_us = 0.0, execute_us = 0.0, prompt_us = 0.0,
         perceive_us = 0.0, generate_us = 0.0, tokenize_us = 0.0,
         decode_us = 0.0;
  std::uint64_t compiled = 0, executed = 0, steps = 0, fused = 0,
                prompts = 0, prompt_bytes = 0, decoded = 0, files_total = 0;
  for (const Batch& batch : batches) {
    const llm4vv::toolchain::CompilerDriver compiler(batch.persona);
    auto& outcomes = pass.outcomes.emplace_back(batch.files.size());
    for (std::size_t i = 0; i < batch.files.size(); ++i) {
      const auto& file = batch.files[i];
      FileOutcome& out = outcomes[i];
      auto start = Clock::now();
      out.compile = compiler.compile(file);
      compile_us += us_since(start);
      ++compiled;
      if (out.compile.module != nullptr) {
        start = Clock::now();
        out.exec = executor.run(out.compile.module);
        execute_us += us_since(start);
        ++executed;
        steps += out.exec.steps;
        fused += out.exec.fused_instructions;
      }
      if (files_total++ >= prompt_files) continue;

      const std::string line = llm4vv::serve::encode_submit(files_total, file);
      start = Clock::now();
      const auto request = llm4vv::serve::parse_request(line);
      decode_us += us_since(start);
      keep(request);
      ++decoded;
      for (const auto style : styles) {
        start = Clock::now();
        const std::string prompt = llm4vv::judge::build_prompt(
            style, file, &out.compile, &out.exec);
        prompt_us += us_since(start);
        start = Clock::now();
        const auto perception = llm4vv::llm::perceive(prompt);
        perceive_us += us_since(start);
        keep(perception);
        start = Clock::now();
        const auto completion = model.generate(prompt, params);
        generate_us += us_since(start);
        keep(completion);
        start = Clock::now();
        const std::size_t tokens = tokenizer.count_tokens(prompt);
        tokenize_us += us_since(start);
        keep(tokens);
        ++prompts;
        prompt_bytes += prompt.size();
      }
    }
  }
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  LayerTimings& t = pass.timings;
  t.compile_us_per_file = per(compile_us, compiled);
  t.execute_us_per_file = per(execute_us, executed);
  // Steps per microsecond is millions of steps per second.
  t.execute_msteps_per_s =
      execute_us > 0.0 ? static_cast<double>(steps) / execute_us : 0.0;
  t.fused_per_file = per(static_cast<double>(fused), executed);
  t.prompt_us = per(prompt_us, prompts);
  t.perceive_us = per(perceive_us, prompts);
  t.generate_us = per(generate_us, prompts);
  t.tokenize_mb_per_s = tokenize_us > 0.0
                            ? static_cast<double>(prompt_bytes) / tokenize_us
                            : 0.0;
  t.decode_us = per(decode_us, decoded);
  return pass;
}

}  // namespace perfbench
