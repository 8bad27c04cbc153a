#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/experiments.hpp"
#include "host.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "support/stopwatch.hpp"

namespace perfbench {

namespace {

using llm4vv::judge::Llmj;
using llm4vv::llm::ModelClient;
using llm4vv::llm::PromptStyle;
using llm4vv::obs::SpanKind;
using llm4vv::pipeline::PipelineConfig;
using llm4vv::pipeline::PipelineMode;
using llm4vv::pipeline::PipelineResult;
using llm4vv::pipeline::ValidationPipeline;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;
/// Files per workload whose prompts the single-call pass times.
constexpr std::size_t kPromptFiles = 4096;
/// Events per tracer ring: far above what one traced round records per
/// thread, so a traced round never drops.
constexpr std::size_t kTraceRing = 1 << 18;
constexpr std::uint64_t kJudgeSeed = 0;
/// serve-open offered load, split evenly over the two tenants: a fixed
/// rate well below the server's capacity, so queueing stays bounded.
constexpr double kServeRatePerSecond = 2000.0;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of (value, weight) samples.
double weighted_percentile(std::vector<std::pair<double, double>> samples,
                           double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (const auto& sample : samples) total += sample.second;
  double seen = 0.0;
  for (const auto& [value, weight] : samples) {
    seen += weight;
    if (seen >= q * total) return value;
  }
  return samples.back().first;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Build kSetups times, keep the last, return the median build time. The
/// previous rig is torn down, untimed, before the next is built, so only
/// one is ever alive.
template <typename Rig>
double timed_setups(const std::function<Rig()>& make, Rig& kept) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    kept = Rig();
    const llm4vv::support::Stopwatch watch;
    kept = make();
    seconds.push_back(watch.seconds());
  }
  return median(seconds);
}

/// `rss_mb` is peak_rss_mb() read when the measured rounds ended, before
/// the output checks allocate anything.
std::vector<Metric> end_to_end_metrics(double setup_s, double verdicts_per_s,
                                       double cpu_ms_per_verdict,
                                       double sim_gpu_s_per_verdict,
                                       double p50_ms, double p99_ms,
                                       double rss_mb) {
  return {{"setup_s", setup_s, "s"},
          {"verdicts_per_s", verdicts_per_s, "verdicts/s"},
          {"cpu_ms_per_verdict", cpu_ms_per_verdict, "ms"},
          {"sim_gpu_s_per_verdict", sim_gpu_s_per_verdict, "s"},
          {"verdict_latency_p50_ms", p50_ms, "ms"},
          {"verdict_latency_p99_ms", p99_ms, "ms"},
          {"peak_rss_mb", rss_mb, "MB"}};
}

/// Everything the per-layer report is made of. A layer that is not on a
/// workload's path reads 0 (README.md lists which).
struct PerLayer {
  bool served = false;  ///< queue-wait spans belong to the server
  SpanSummary spans;
  std::uint64_t dropped = 0;
  double traced_wall_ratio = 0.0;
  LayerTimings timings;
  double serve_io_us = 0.0;
  double reuse_ratio = 0.0;
  double batch_occupancy = 0.0;
  double judged_per_file = 0.0;
  double lag_p99_ms = 0.0;
};

std::vector<Metric> per_layer_metrics(const PerLayer& p) {
  const double queue_wait = p.spans.of(SpanKind::kQueueWait).mean_us();
  const LayerTimings& t = p.timings;
  return {
      {"compile.span_us", p.spans.of(SpanKind::kCompile).mean_us(), "us"},
      {"execute.span_us", p.spans.of(SpanKind::kExecute).mean_us(), "us"},
      {"pipeline.queue_wait_us", p.served ? 0.0 : queue_wait, "us"},
      {"judge.self_us", p.spans.of(SpanKind::kJudge).mean_self_us(), "us"},
      {"llm.flush_us", p.spans.of(SpanKind::kFlush).mean_us(), "us"},
      {"serve.queue_wait_us", p.served ? queue_wait : 0.0, "us"},
      {"obs.traced_wall_ratio", p.traced_wall_ratio, "ratio"},
      {"obs.dropped_spans", static_cast<double>(p.dropped), "count"},
      {"compile.us_per_file", t.compile_us_per_file, "us"},
      {"execute.us_per_file", t.execute_us_per_file, "us"},
      {"execute.msteps_per_s", t.execute_msteps_per_s, "Msteps/s"},
      {"judge.prompt_us", t.prompt_us, "us"},
      {"llm.perceive_us", t.perceive_us, "us"},
      {"llm.generate_us", t.generate_us, "us"},
      {"llm.tokenize_mb_per_s", t.tokenize_mb_per_s, "MB/s"},
      {"serve.decode_us", t.decode_us, "us"},
      {"serve.io_us", p.serve_io_us, "us"},
      {"judge.reuse_ratio", p.reuse_ratio, "ratio"},
      {"llm.batch_occupancy", p.batch_occupancy, "prompts/pass"},
      {"pipeline.judged_per_file", p.judged_per_file, "ratio"},
      {"execute.fused_per_file", t.fused_per_file, "sites/file"},
      {"loadgen.lag_p99_ms", p.lag_p99_ms, "ms"},
  };
}

/// Decisions served without a model call over all judge decisions, between
/// two snapshots of the judge's counters.
double reuse_ratio(const llm4vv::judge::JudgeCacheStats& before,
                   const llm4vv::judge::JudgeCacheStats& after) {
  const double reused = static_cast<double>(
      (after.hits - before.hits) +
      (after.duplicate_misses - before.duplicate_misses));
  return ratio(reused,
               reused + static_cast<double>(after.misses - before.misses));
}

/// Prompts per formed forward pass between two client snapshots.
double batch_occupancy(const llm4vv::llm::ClientStats& before,
                       const llm4vv::llm::ClientStats& after) {
  return ratio(static_cast<double>(after.requests - before.requests),
               static_cast<double>(after.formed_batches -
                                   before.formed_batches));
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ---------------------------------------------------------------------------
// Batch front: ValidationPipeline::run.
// ---------------------------------------------------------------------------

/// One ValidationPipeline::run per round: which batch, through which judge.
struct PassSpec {
  std::size_t batch = 0;
  std::size_t judge = 0;
  int llmj = 1;  ///< the paper's judge number, for the Table VI/IX check
};

struct BatchRig {
  std::vector<Batch> batches;
  std::vector<std::shared_ptr<ModelClient>> clients;
  std::vector<std::shared_ptr<Llmj>> judges;
  std::vector<PassSpec> passes;
  std::vector<PromptStyle> styles;
  PipelineConfig config;
  std::vector<std::unique_ptr<ValidationPipeline>> pipelines;  ///< per pass
};

std::vector<std::unique_ptr<ValidationPipeline>> make_pipelines(
    const BatchRig& rig, const PipelineConfig& config) {
  std::vector<std::unique_ptr<ValidationPipeline>> pipelines;
  for (const PassSpec& pass : rig.passes) {
    pipelines.push_back(std::make_unique<ValidationPipeline>(
        llm4vv::toolchain::CompilerDriver(rig.batches[pass.batch].persona),
        llm4vv::toolchain::Executor(), rig.judges[pass.judge], config));
  }
  return pipelines;
}

/// The paper's Part Two protocol, wired as core::run_part_two wires it
/// (record-all, one client per suite shared by both agent judges, judge
/// cache off, judge_batch_size 1, batcher window 0) but with one worker per
/// stage instead of two: verdicts do not depend on the worker count, and
/// three busy threads on a 4-CPU host swing far less from run to run than
/// six.
BatchRig paper_rig(std::uint64_t seed) {
  BatchRig rig;
  rig.batches = paper_inputs(seed);
  rig.styles = {PromptStyle::kAgentDirect, PromptStyle::kAgentIndirect};
  rig.config.mode = PipelineMode::kRecordAll;
  rig.config.compile_workers = 1;
  rig.config.execute_workers = 1;
  rig.config.judge_workers = 1;
  rig.config.judge_batch_size = 1;
  rig.config.judge_seed = kJudgeSeed;
  llm4vv::judge::JudgeCacheConfig cache;
  cache.enabled = false;
  for (std::size_t b = 0; b < rig.batches.size(); ++b) {
    auto client = llm4vv::core::make_simulated_client(2);
    rig.clients.push_back(client);
    for (int llmj = 1; llmj <= 2; ++llmj) {
      rig.judges.push_back(
          std::make_shared<Llmj>(client, rig.styles[llmj - 1], cache));
      rig.passes.push_back({b, rig.judges.size() - 1, llmj});
    }
  }
  rig.pipelines = make_pipelines(rig, rig.config);
  return rig;
}

/// The production shape: filter-early, one memoizing judge shared by both
/// flavors, judge groups of 8 and a 200 us adaptive-batcher window.
BatchRig triage_rig(std::uint64_t seed) {
  BatchRig rig;
  rig.batches = triage_inputs(seed);
  rig.styles = {PromptStyle::kAgentDirect};
  rig.config.mode = PipelineMode::kFilterEarly;
  rig.config.compile_workers = 2;
  rig.config.execute_workers = 2;
  rig.config.judge_workers = 2;
  rig.config.judge_batch_size = 8;
  rig.config.judge_seed = kJudgeSeed;
  llm4vv::llm::BatcherConfig batcher;
  batcher.max_batch = 8;
  batcher.window_us = 200;
  rig.clients.push_back(llm4vv::core::make_simulated_client(2, batcher));
  rig.judges.push_back(
      std::make_shared<Llmj>(rig.clients.back(), PromptStyle::kAgentDirect));
  for (std::size_t b = 0; b < rig.batches.size(); ++b) {
    rig.passes.push_back({b, 0, 1});
  }
  rig.pipelines = make_pipelines(rig, rig.config);
  return rig;
}

struct RoundStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> pass_wall_s;
};

/// Run every pass once. Each round starts with empty judge caches, so every
/// round does the same work.
RoundStats run_round(
    const BatchRig& rig,
    const std::vector<std::unique_ptr<ValidationPipeline>>& pipelines,
    std::vector<PipelineResult>& results) {
  for (const auto& judge : rig.judges) judge->clear_cache();
  results.clear();
  RoundStats stats;
  const double cpu_start = process_cpu_seconds();
  for (std::size_t i = 0; i < rig.passes.size(); ++i) {
    const std::uint64_t start = llm4vv::support::now_us();
    results.push_back(pipelines[i]->run(rig.batches[rig.passes[i].batch].files));
    const double wall =
        static_cast<double>(llm4vv::support::now_us() - start) * 1e-6;
    stats.pass_wall_s.push_back(wall);
    stats.wall_s += wall;
  }
  stats.cpu_s = process_cpu_seconds() - cpu_start;
  return stats;
}

RunReport run_batch(const RunOptions& options,
                    const std::function<BatchRig()>& make_rig, bool paper) {
  RunReport report;
  BatchRig rig;
  const double setup_s = timed_setups<BatchRig>(make_rig, rig);
  const LayerPass layers =
      run_layer_pass(rig.batches, rig.styles, kJudgeSeed, kPromptFiles);
  for (const auto& outcomes : layers.outcomes) {
    check_reference_vm(outcomes, report.checks);
  }

  std::uint64_t verdicts_per_round = 0;
  for (const PassSpec& pass : rig.passes) {
    verdicts_per_round += rig.batches[pass.batch].files.size();
  }
  const auto check_round = [&](const std::vector<PipelineResult>& results) {
    report.attempted += verdicts_per_round;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const PassSpec& pass = rig.passes[i];
      const Batch& batch = rig.batches[pass.batch];
      for (std::size_t k = 0; k < results[i].records.size(); ++k) {
        const auto& record = results[i].records[k];
        if (record.dropped || record.judge_error ||
            failed_by_known_fault(batch, k, record)) {
          ++report.failed;
        }
      }
      check_pipeline_records(batch, layers.outcomes[pass.batch], results[i],
                             rig.config.mode, report.checks);
      if (paper) check_paper_accuracy(batch, pass.llmj, results[i], report.checks);
    }
  };

  // Untraced rounds: the end-to-end figures, or the baseline wall time of
  // the traced run.
  const double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<llm4vv::judge::JudgeCacheStats> judge_before;
  for (const auto& judge : rig.judges) judge_before.push_back(judge->cache_stats());
  std::vector<llm4vv::llm::ClientStats> client_before;
  for (const auto& client : rig.clients) client_before.push_back(client->stats());
  std::vector<double> round_walls, rates;
  // Per-verdict latency: each verdict waits for the run() call that
  // returns it, so a pass contributes its wall time weighted by its files.
  std::vector<std::pair<double, double>> latencies;
  std::vector<double> cpu_ms;  // per round, per verdict
  double gpu_s = 0.0, judged = 0.0, measured = 0.0;
  std::vector<PipelineResult> results;
  do {
    const RoundStats round = run_round(rig, rig.pipelines, results);
    measured += round.wall_s;
    round_walls.push_back(round.wall_s);
    rates.push_back(static_cast<double>(verdicts_per_round) / round.wall_s);
    cpu_ms.push_back(1e3 * round.cpu_s / static_cast<double>(verdicts_per_round));
    for (std::size_t i = 0; i < results.size(); ++i) {
      gpu_s += results[i].judge_gpu_seconds;
      judged += static_cast<double>(results[i].judge_stage.processed);
      latencies.emplace_back(
          round.pass_wall_s[i] * 1e3,
          static_cast<double>(rig.batches[rig.passes[i].batch].files.size()));
    }
    check_round(results);
  } while (measured < untraced_budget);
  const double rss_mb = peak_rss_mb();
  const double verdicts = static_cast<double>(report.attempted);

  if (!options.trace) {
    report.metrics = end_to_end_metrics(
        setup_s, median(rates), median(cpu_ms), gpu_s / verdicts,
        weighted_percentile(latencies, 0.50),
        weighted_percentile(latencies, 0.99), rss_mb);
    return report;
  }

  PerLayer layer;
  layer.timings = layers.timings;
  layer.judged_per_file = judged / verdicts;
  double reuse = 0.0, occupancy = 0.0;
  for (std::size_t j = 0; j < rig.judges.size(); ++j) {
    reuse += reuse_ratio(judge_before[j], rig.judges[j]->cache_stats());
  }
  for (std::size_t c = 0; c < rig.clients.size(); ++c) {
    occupancy += batch_occupancy(client_before[c], rig.clients[c]->stats());
  }
  layer.reuse_ratio = reuse / static_cast<double>(rig.judges.size());
  layer.batch_occupancy = occupancy / static_cast<double>(rig.clients.size());

  // Traced rounds: a fresh tracer per round, attached to the pipeline and
  // to every model client, so flush spans link to the judge spans they
  // served.
  std::vector<double> traced_walls;
  measured = 0.0;
  do {
    const auto tracer = std::make_shared<llm4vv::obs::Tracer>(kTraceRing);
    PipelineConfig traced = rig.config;
    traced.trace = tracer;
    const auto pipelines = make_pipelines(rig, traced);
    for (const auto& client : rig.clients) client->set_tracer(tracer);
    const RoundStats round = run_round(rig, pipelines, results);
    for (const auto& client : rig.clients) client->set_tracer(nullptr);
    measured += round.wall_s;
    traced_walls.push_back(round.wall_s);
    check_round(results);
    layer.dropped += tracer->dropped();
    try {
      layer.spans.merge(aggregate_spans(tracer->collect(), tracer->dropped()));
    } catch (const IncompleteTrace& e) {
      report.checks.fail(e.what());
    }
  } while (measured < options.seconds / 2);
  layer.traced_wall_ratio = median(traced_walls) / median(round_walls);
  report.metrics = per_layer_metrics(layer);
  return report;
}

// ---------------------------------------------------------------------------
// Service front: serve::Server over loopback.
// ---------------------------------------------------------------------------

const char* const kTenants[] = {"tenant-a", "tenant-b"};

/// The server wired as llm4vv-serve wires it (registry attached, judge
/// cache on, batcher max 4 with window 0, 2 workers, job batch 4), with two
/// tenants weighted 3:1 and no rate or quota limit. Members are declared
/// so that connections close before the server drains.
struct ServeRig {
  Batch payloads;
  std::shared_ptr<llm4vv::obs::Registry> registry;
  std::shared_ptr<ModelClient> client;
  std::shared_ptr<Llmj> judge;
  std::unique_ptr<llm4vv::serve::Server> server;
  std::vector<std::unique_ptr<llm4vv::serve::Client>> connections;
};

ServeRig serve_rig(Batch payloads,
                   const std::shared_ptr<llm4vv::obs::Tracer>& tracer) {
  ServeRig rig;
  rig.payloads = std::move(payloads);
  rig.registry = std::make_shared<llm4vv::obs::Registry>();
  llm4vv::llm::BatcherConfig batcher;
  batcher.max_batch = 4;
  rig.client = llm4vv::core::make_simulated_client(4, batcher);
  if (tracer != nullptr) rig.client->set_tracer(tracer);
  rig.client->register_metrics(*rig.registry, "serve.llm.client");
  rig.judge = std::make_shared<Llmj>(rig.client, PromptStyle::kAgentDirect);

  llm4vv::serve::ServerConfig config;
  config.workers = 2;
  config.job_batch = 4;
  config.judge_seed = kJudgeSeed;
  config.registry = rig.registry;
  config.trace = tracer;
  for (std::size_t t = 0; t < 2; ++t) {
    llm4vv::serve::TenantConfig tenant;
    tenant.weight = t == 0 ? 3 : 1;
    config.tenants.emplace_back(kTenants[t], tenant);
  }
  rig.server = std::make_unique<llm4vv::serve::Server>(
      llm4vv::toolchain::CompilerDriver(rig.payloads.persona),
      llm4vv::toolchain::Executor(), rig.judge, config);
  rig.server->start();
  for (const char* tenant : kTenants) {
    auto connection = std::make_unique<llm4vv::serve::Client>();
    if (!connection->connect("127.0.0.1", rig.server->port(), tenant)) {
      throw std::runtime_error("connect " + std::string(tenant) + ": " +
                               connection->last_error());
    }
    rig.connections.push_back(std::move(connection));
  }
  return rig;
}

bool is_verdict(const JobRecord& job) {
  return job.terminals == 1 &&
         job.response.type == llm4vv::serve::ResponseType::kVerdict;
}

struct ServePhase {
  LoadResult load;
  double cpu_ms_per_verdict = 0.0;
  llm4vv::serve::TenantStats totals;
  double reuse_ratio = 0.0;
  double batch_occupancy = 0.0;
  double judged_per_file = 0.0;
};

/// Offer every payload open-loop, tenants alternating, then drain.
ServePhase run_serve_phase(ServeRig& rig) {
  std::vector<TenantLoad> tenants(rig.connections.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    tenants[t].client = rig.connections[t].get();
  }
  for (std::size_t j = 0; j < rig.payloads.files.size(); ++j) {
    tenants[j % tenants.size()].jobs.push_back(j);
  }
  const auto judge_before = rig.judge->cache_stats();
  const auto client_before = rig.client->stats();
  ServePhase phase;
  const double cpu_start = process_cpu_seconds();
  phase.load = run_open_loop(tenants, rig.payloads.files,
                             kServeRatePerSecond /
                                 static_cast<double>(tenants.size()));
  const double cpu_s = process_cpu_seconds() - cpu_start;
  std::uint64_t verdicts = 0;
  for (const JobRecord& job : phase.load.jobs) verdicts += is_verdict(job);
  phase.cpu_ms_per_verdict = ratio(1e3 * cpu_s, static_cast<double>(verdicts));
  phase.totals = rig.server->tenants().totals();
  const auto judge_after = rig.judge->cache_stats();
  phase.reuse_ratio = reuse_ratio(judge_before, judge_after);
  phase.batch_occupancy = batch_occupancy(client_before, rig.client->stats());
  phase.judged_per_file = ratio(
      static_cast<double>((judge_after.hits - judge_before.hits) +
                          (judge_after.misses - judge_before.misses) +
                          (judge_after.duplicate_misses -
                           judge_before.duplicate_misses)),
      static_cast<double>(rig.payloads.files.size()));
  rig.server->request_drain();
  rig.server->wait();
  return phase;
}

RunReport run_serve(const RunOptions& options) {
  RunReport report;
  const double phase_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const auto jobs = static_cast<std::size_t>(kServeRatePerSecond * phase_seconds);
  report.notes.push_back(
      "seeds: {\"corpus\":\"" + hex(derive_seed(options.seed, 31)) +
      "\",\"probe\":\"" + hex(derive_seed(options.seed, 32)) +
      "\",\"payload\":\"" + hex(derive_seed(options.seed, 33)) + "\"}");
  ServeRig rig;
  const double setup_s = timed_setups<ServeRig>(
      [&] { return serve_rig(serve_inputs(options.seed, jobs), nullptr); }, rig);
  const ServePhase untraced = run_serve_phase(rig);
  const double rss_mb = peak_rss_mb();

  const LayerPass layers = run_layer_pass({rig.payloads},
                                          {PromptStyle::kAgentDirect},
                                          kJudgeSeed, kPromptFiles);
  check_reference_vm(layers.outcomes[0], report.checks);
  llm4vv::judge::JudgeCacheConfig no_cache;
  no_cache.enabled = false;
  const Llmj reference_judge(llm4vv::core::make_simulated_client(1),
                             PromptStyle::kAgentDirect, no_cache);

  const auto finish_phase = [&](const ServeRig& phase_rig,
                                const ServePhase& phase) {
    report.attempted += phase_rig.payloads.files.size();
    for (const JobRecord& job : phase.load.jobs) {
      if (!is_verdict(job)) ++report.failed;
    }
    check_serve_frames(phase.load, report.checks);
    check_tenant_totals(phase.totals, phase_rig.payloads.files.size(),
                        report.checks);
    check_serve_verdicts(phase_rig.payloads, layers.outcomes[0], phase.load,
                         reference_judge, kJudgeSeed, report.checks);
  };
  const auto latencies_ms = [](const LoadResult& load) {
    std::vector<double> ms;
    for (const JobRecord& job : load.jobs) {
      if (is_verdict(job)) {
        ms.push_back(static_cast<double>(job.recv_us - job.due_us) * 1e-3);
      }
    }
    return ms;
  };

  finish_phase(rig, untraced);
  const std::vector<double> latency = latencies_ms(untraced.load);
  std::vector<double> lag_ms, io_us;
  std::uint64_t first_due = ~std::uint64_t{0}, last_recv = 0;
  double gpu_s = 0.0;
  for (const JobRecord& job : untraced.load.jobs) {
    lag_ms.push_back(static_cast<double>(job.sent_us - job.due_us) * 1e-3);
    if (!is_verdict(job)) continue;
    first_due = std::min(first_due, job.due_us);
    last_recv = std::max(last_recv, job.recv_us);
    gpu_s += job.response.gpu_seconds;
    io_us.push_back(static_cast<double>(job.recv_us - job.sent_us) -
                    static_cast<double>(job.response.latency_us));
  }
  const double lag_p99_ms = percentile(lag_ms, 0.99);
  report.notes.push_back("loadgen: {\"lag_p99_ms\":" + std::to_string(lag_p99_ms) +
                         ",\"jobs\":" + std::to_string(jobs) + "}");
  const auto verdicts = static_cast<double>(latency.size());

  if (!options.trace) {
    const double span_s =
        last_recv > first_due ? static_cast<double>(last_recv - first_due) * 1e-6
                              : 0.0;
    report.metrics = end_to_end_metrics(
        setup_s, ratio(verdicts, span_s), untraced.cpu_ms_per_verdict,
        ratio(gpu_s, verdicts), percentile(latency, 0.50),
        percentile(latency, 0.99), rss_mb);
    return report;
  }

  const auto tracer = std::make_shared<llm4vv::obs::Tracer>(kTraceRing);
  ServeRig traced_rig = serve_rig(rig.payloads, tracer);
  const ServePhase traced = run_serve_phase(traced_rig);
  finish_phase(traced_rig, traced);

  PerLayer layer;
  layer.served = true;
  layer.timings = layers.timings;
  layer.serve_io_us = median(io_us);
  layer.reuse_ratio = untraced.reuse_ratio;
  layer.batch_occupancy = untraced.batch_occupancy;
  layer.judged_per_file = untraced.judged_per_file;
  layer.lag_p99_ms = lag_p99_ms;
  layer.dropped = tracer->dropped();
  try {
    layer.spans = aggregate_spans(tracer->collect(), tracer->dropped());
  } catch (const IncompleteTrace& e) {
    report.checks.fail(e.what());
  }
  // An open loop's wall time is its schedule; tracing cost shows in the
  // time each job takes, so the ratio is taken on median latency.
  layer.traced_wall_ratio =
      ratio(median(latencies_ms(traced.load)), median(latency));
  report.metrics = per_layer_metrics(layer);
  return report;
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "paper-record-all") {
    const llm4vv::core::ExperimentOptions paper;
    RunReport report = run_batch(
        options, [&] { return paper_rig(options.seed); }, /*paper=*/true);
    report.notes.insert(
        report.notes.begin(),
        "seeds: {\"corpus\":\"" + hex(paper.corpus_seed) +
            "\",\"probe_offset\":" + std::to_string(paper.probe_seed_offset) +
            ",\"judge\":" + std::to_string(kJudgeSeed) + ",\"order\":[\"" +
            hex(derive_seed(options.seed, 1)) + "\",\"" +
            hex(derive_seed(options.seed, 2)) + "\"]}");
    return report;
  }
  if (options.workload == "candidate-triage") {
    RunReport report = run_batch(
        options, [&] { return triage_rig(options.seed); }, /*paper=*/false);
    report.notes.insert(
        report.notes.begin(),
        "seeds: {\"openacc\":[\"" + hex(derive_seed(options.seed, 11)) +
            "\",\"" + hex(derive_seed(options.seed, 12)) + "\"],\"openmp\":[\"" +
            hex(derive_seed(options.seed, 21)) + "\",\"" +
            hex(derive_seed(options.seed, 22)) + "\"],\"judge\":" +
            std::to_string(kJudgeSeed) + "}");
    return report;
  }
  if (options.workload == "serve-open") return run_serve(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
