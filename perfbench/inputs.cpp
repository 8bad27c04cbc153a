#include "inputs.hpp"

#include "core/experiments.hpp"
#include "corpus/generator.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using llm4vv::frontend::Flavor;

Batch to_batch(Flavor flavor,
               std::vector<llm4vv::probing::ProbedFile> probed) {
  Batch batch;
  batch.flavor = flavor;
  batch.persona = flavor == Flavor::kOpenACC ? llm4vv::toolchain::nvc_persona()
                                             : llm4vv::toolchain::clang_persona();
  batch.files.reserve(probed.size());
  batch.issues.reserve(probed.size());
  for (auto& file : probed) {
    batch.files.push_back(std::move(file.file));
    batch.issues.push_back(file.issue);
  }
  return batch;
}

}  // namespace

Batch probed_batch(Flavor flavor, std::size_t base_count, double cpp_share,
                   double fortran_share, std::uint64_t corpus_seed,
                   std::uint64_t probe_seed) {
  llm4vv::corpus::GeneratorConfig gen;
  gen.flavor = flavor;
  gen.count = base_count;
  gen.seed = corpus_seed;
  gen.max_version = 45;
  gen.cpp_share = cpp_share;
  gen.fortran_share = fortran_share;
  llm4vv::probing::ProbingConfig probe;
  probe.issue_counts.fill(base_count * 2 / 15);
  probe.seed = probe_seed;
  return to_batch(flavor, llm4vv::probing::probe_suite(
                              llm4vv::corpus::generate_suite(gen), probe)
                              .files);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label) noexcept {
  std::uint64_t state = llm4vv::support::hash_mix(seed, label);
  return llm4vv::support::splitmix64(state);
}

std::vector<Batch> paper_inputs(std::uint64_t seed) {
  const llm4vv::core::ExperimentOptions paper;  // the paper's seeds
  std::vector<Batch> batches;
  for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
    auto files = llm4vv::core::build_part_two_suite(flavor, paper).files;
    llm4vv::support::Rng rng(derive_seed(seed, batches.size() + 1));
    rng.shuffle(files);
    batches.push_back(to_batch(flavor, std::move(files)));
  }
  return batches;
}

std::vector<Batch> triage_inputs(std::uint64_t seed) {
  std::vector<Batch> batches;
  Batch openacc = probed_batch(Flavor::kOpenACC, 2550, 0.35, 0.0,
                               derive_seed(seed, 11), derive_seed(seed, 12));
  const Batch fortran =
      probed_batch(Flavor::kOpenACC, 450, 0.35, 1.0,
                   derive_seed(kFortranSeed, 13), derive_seed(kFortranSeed, 14));
  openacc.files.insert(openacc.files.end(), fortran.files.begin(),
                       fortran.files.end());
  openacc.issues.insert(openacc.issues.end(), fortran.issues.begin(),
                        fortran.issues.end());
  // Shuffle files and issues alike, so the Fortran share is spread over the
  // pass.
  std::vector<std::size_t> order(openacc.files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  llm4vv::support::Rng rng(derive_seed(seed, 15));
  rng.shuffle(order);
  Batch mixed;
  mixed.flavor = openacc.flavor;
  mixed.persona = openacc.persona;
  for (const std::size_t i : order) {
    mixed.files.push_back(std::move(openacc.files[i]));
    mixed.issues.push_back(openacc.issues[i]);
  }
  batches.push_back(std::move(mixed));
  batches.push_back(probed_batch(Flavor::kOpenMP, 1500, 0.35, 0.0,
                                 derive_seed(seed, 21), derive_seed(seed, 22)));
  return batches;
}

Batch serve_inputs(std::uint64_t seed, std::size_t jobs) {
  const Batch pool =
      probed_batch(Flavor::kOpenACC, 1536, 0.35, 0.0, derive_seed(seed, 31),
                   derive_seed(seed, 32));
  Batch payloads;
  payloads.flavor = pool.flavor;
  payloads.persona = pool.persona;
  payloads.files.reserve(jobs);
  payloads.issues.reserve(jobs);
  llm4vv::support::Rng rng(derive_seed(seed, 33));
  for (std::size_t j = 0; j < jobs; ++j) {
    const auto pick = static_cast<std::size_t>(rng.next_below(pool.files.size()));
    llm4vv::frontend::SourceFile file = pool.files[pick];
    file.content += "\n// perfbench job " + std::to_string(seed) + "-" +
                    std::to_string(j) + "\n";
    payloads.files.push_back(std::move(file));
    payloads.issues.push_back(pool.issues[pick]);
  }
  return payloads;
}

}  // namespace perfbench
