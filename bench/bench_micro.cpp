// M1 — google-benchmark micro-benchmarks of the library's hot kernels:
// Jaccard set intersection, TRW-S sweeps, exact/MC reliability, the worm
// simulator tick loop, and JSON feed parsing.
#include <benchmark/benchmark.h>

#include "api/requests.hpp"
#include "bayes/least_effort.hpp"
#include "bayes/metric.hpp"
#include "bayes/reliability.hpp"
#include "bench_util.hpp"
#include "core/optimizer.hpp"
#include "core/serialization.hpp"
#include "mrf/bp.hpp"
#include "mrf/compiled.hpp"
#include "mrf/icm.hpp"
#include "mrf/trws.hpp"
#include "nvd/paper_tables.hpp"
#include "runner/batch_runner.hpp"
#include "runner/workload.hpp"
#include "sim/worm_sim.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace icsdiv;

void BM_JaccardSimilarity(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (std::size_t i = 0; i < size; ++i) {
    a.push_back("CVE-2015-" + std::to_string(1000 + i * 2));
    b.push_back("CVE-2015-" + std::to_string(1000 + i * 3));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(nvd::jaccard_similarity(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_JaccardSimilarity)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SimilarityTableFromFeed(benchmark::State& state) {
  const nvd::OverlapSpec spec = nvd::os_table_spec();
  const nvd::VulnerabilityDatabase feed = nvd::generate_feed(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nvd::SimilarityTable::from_database(feed, spec.products));
  }
}
BENCHMARK(BM_SimilarityTableFromFeed);

// Solver-kernel benches share one instance shape: a connected random
// network at average degree 16 with a single service, so hosts≈N gives
// ≈8N MRF edges (1250 → 10k edges, 12500 → 100k edges, 125000 → 1M
// edges, the README table's rows).  The MRF is compiled once in setup so
// the loop measures the sweep kernel itself, and every counter reports
// edges processed per solver iteration.  The 1M-edge row is gated behind
// ICSDIV_BENCH_FULL=1: its setup alone dwarfs a CI smoke budget.
void solver_scale_args(benchmark::internal::Benchmark* bench) {
  bench->Arg(200)->Arg(1250)->Arg(12500);
  if (bench::full_grid_requested()) bench->Arg(125000);
}

void BM_TrwsIteration(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 16.0;
  params.services = 1;  // one component: measures the raw sweep kernel
  const auto instance = bench::make_scalability_instance(params);
  const core::DiversificationProblem problem(*instance.network);
  const mrf::CompiledMrf compiled(problem.mrf());
  const mrf::TrwsSolver solver;
  mrf::SolveOptions options;
  options.max_iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_compiled(compiled, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(problem.mrf().edge_count()));
}
BENCHMARK(BM_TrwsIteration)->Apply(solver_scale_args)->Arg(1000)->Arg(4000);

void BM_BpIteration(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 16.0;
  params.services = 1;
  const auto instance = bench::make_scalability_instance(params);
  const core::DiversificationProblem problem(*instance.network);
  const mrf::CompiledMrf compiled(problem.mrf());
  const mrf::BpSolver solver;
  mrf::SolveOptions options;
  options.max_iterations = 1;  // one Jacobi pass + decode, single-threaded
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_compiled(compiled, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(problem.mrf().edge_count()));
}
BENCHMARK(BM_BpIteration)->Apply(solver_scale_args);

void BM_IcmSweep(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 16.0;
  params.services = 1;
  const auto instance = bench::make_scalability_instance(params);
  const core::DiversificationProblem problem(*instance.network);
  const mrf::IcmSolver solver;
  mrf::SolveOptions options;
  options.max_iterations = 1;  // one coordinate-descent sweep
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(problem.mrf(), options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(problem.mrf().edge_count()));
}
BENCHMARK(BM_IcmSweep)->Arg(200)->Arg(1250)->Arg(12500);

void BM_CompileMrf(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 16.0;
  params.services = 1;
  const auto instance = bench::make_scalability_instance(params);
  const core::DiversificationProblem problem(*instance.network);
  for (auto _ : state) {
    const mrf::CompiledMrf compiled(problem.mrf());
    benchmark::DoNotOptimize(compiled.message_size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(problem.mrf().edge_count()));
}
BENCHMARK(BM_CompileMrf)->Arg(1250)->Arg(12500);

void BM_ReliabilityExact(benchmark::State& state) {
  // Ladder graph: series-parallel, the reducer solves it without factoring.
  const auto rungs = static_cast<std::uint32_t>(state.range(0));
  bayes::ReliabilityProblem problem;
  problem.node_count = 2 * rungs;
  problem.source = 0;
  problem.target = 2 * rungs - 1;
  for (std::uint32_t r = 0; r + 1 < rungs; ++r) {
    problem.edges.push_back({2 * r, 2 * r + 2, 0.3});
    problem.edges.push_back({2 * r + 1, 2 * r + 3, 0.4});
    problem.edges.push_back({2 * r, 2 * r + 3, 0.2});
  }
  problem.edges.push_back({0, 1, 0.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(bayes::reliability_exact(problem, 64));
  }
}
BENCHMARK(BM_ReliabilityExact)->Arg(4)->Arg(8)->Arg(12);

void BM_ReliabilityMonteCarlo(benchmark::State& state) {
  bayes::ReliabilityProblem diamond{
      4, {{0, 1, 0.9}, {1, 3, 0.9}, {0, 2, 0.5}, {2, 3, 0.5}}, 0, 3};
  support::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bayes::reliability_monte_carlo(diamond, static_cast<std::size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_ReliabilityMonteCarlo)->Arg(1000)->Arg(10000);

// The compiled Bayesian pillar shares the worm-simulator workload shape
// (500 hosts, average degree 10, 3 services): ~2.5k attack-DAG edges, the
// entry at host 0 and the far target at host 499.
void BM_CompileReliability(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = 500;
  params.average_degree = 10.0;
  params.services = 3;
  const auto instance = bench::make_scalability_instance(params);
  const core::Optimizer optimizer(*instance.network);
  const auto assignment = optimizer.optimize().assignment;
  for (auto _ : state) {
    const bayes::CompiledReliability compiled(assignment, 0, bayes::PropagationModel{});
    benchmark::DoNotOptimize(compiled.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2500);
}
BENCHMARK(BM_CompileReliability);

void BM_Reliability(benchmark::State& state) {
  // Single-target Monte-Carlo compromise probability on the compiled
  // substrate, sequential (the README table's before/after row).
  bench::ScalabilityParams params;
  params.hosts = 500;
  params.average_degree = 10.0;
  params.services = 3;
  const auto instance = bench::make_scalability_instance(params);
  const core::Optimizer optimizer(*instance.network);
  const auto assignment = optimizer.optimize().assignment;
  const bayes::CompiledReliability compiled(assignment, 0, bayes::PropagationModel{});
  bayes::InferenceOptions mc;
  mc.engine = bayes::InferenceEngine::MonteCarlo;
  mc.mc_samples = static_cast<std::size_t>(state.range(0));
  mc.parallel = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.compromise_probability(499, mc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Reliability)->Arg(10000)->Arg(100000);

void BM_DbnMetric(benchmark::State& state) {
  // The full Def. 6 query — both nets — through bn_diversity_metric's
  // one-compile one-pass path, sequential.
  bench::ScalabilityParams params;
  params.hosts = 500;
  params.average_degree = 10.0;
  params.services = 3;
  const auto instance = bench::make_scalability_instance(params);
  const core::Optimizer optimizer(*instance.network);
  const auto assignment = optimizer.optimize().assignment;
  bayes::DiversityMetricOptions options;
  options.inference.engine = bayes::InferenceEngine::MonteCarlo;
  options.inference.mc_samples = static_cast<std::size_t>(state.range(0));
  options.inference.parallel = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bayes::bn_diversity_metric(assignment, 0, 499, options).d_bn);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DbnMetric)->Arg(50000)->Arg(400000);

/// The evaluate path's inputs: a request-path benchmark network (average
/// degree 8, 4 services × 4 products) under its TRW-S optimum, queried on
/// the first four evaluate-miss pairs, entry 2 + k → target hosts − 1 − 7k.
/// Three of the four end Infeasible for the exact engine.
struct EvaluatePathInstance {
  runner::WorkloadInstance workload;
  core::Assignment assignment;
  std::vector<std::pair<core::HostId, core::HostId>> pairs;
};

EvaluatePathInstance make_evaluate_path_instance(std::size_t hosts) {
  runner::WorkloadParams params;
  params.hosts = hosts;
  params.average_degree = 8.0;
  params.services = 4;
  params.products_per_service = 4;
  params.seed = 2020 + hosts * 10;
  runner::WorkloadInstance workload = runner::make_workload(params);
  core::Assignment assignment = core::Optimizer(*workload.network).optimize().assignment;
  std::vector<std::pair<core::HostId, core::HostId>> pairs;
  for (std::size_t k = 0; k < 4; ++k) {
    pairs.emplace_back(static_cast<core::HostId>(2 + k),
                       static_cast<core::HostId>(hosts - 1 - 7 * k));
  }
  return {std::move(workload), std::move(assignment), std::move(pairs)};
}

void BM_DbnMetricAuto(benchmark::State& state) {
  // d_bn as an evaluate request computes it, default options: the Auto
  // engine tries the exact reducer on both nets and samples whatever
  // stays too large on the global pool (ICSDIV_THREADS=1 makes the
  // sampling sequential; the estimate is the same at any width).
  const EvaluatePathInstance instance =
      make_evaluate_path_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& [entry, target] : instance.pairs) {
      benchmark::DoNotOptimize(bayes::bn_diversity_metric(instance.assignment, entry, target).d_bn);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_DbnMetricAuto)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_LeastEffort(benchmark::State& state) {
  const EvaluatePathInstance instance =
      make_evaluate_path_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& [entry, target] : instance.pairs) {
      benchmark::DoNotOptimize(
          bayes::least_attack_effort(instance.assignment, entry, target).exploit_count);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_LeastEffort)->Arg(2000)->Unit(benchmark::kMillisecond);

/// Round-robin assignment over each instance's candidate list — the cheap
/// diversified stand-in for the Optimizer at worm-bench scale (running the
/// real optimizer at 100k hosts would dominate setup by minutes without
/// changing what the tick loop measures).
core::Assignment round_robin_assignment(const core::Network& network) {
  core::Assignment assignment(network);
  for (core::HostId host = 0; host < network.host_count(); ++host) {
    std::size_t slot = 0;
    for (const core::ServiceInstance& inst : network.services_of(host)) {
      assignment.assign(host, inst.service,
                        inst.candidates[(host + slot) % inst.candidates.size()]);
      ++slot;
    }
  }
  return assignment;
}

/// The historical 500-host rows keep the optimizer assignment so their
/// numbers stay comparable across baselines; larger rows switch to the
/// round-robin stand-in.
core::Assignment worm_bench_assignment(const core::Network& network) {
  if (network.host_count() <= 500) {
    return core::Optimizer(network).optimize().assignment;
  }
  return round_robin_assignment(network);
}

// Worm benches are parameterised by host count: 500 (the historical row),
// 12500 (~62k links), and — behind ICSDIV_BENCH_FULL=1 — 100000 hosts
// (~500k links), the past-paper-scale target.  The entry is host 0 and
// the target the last host.
void worm_scale_args(benchmark::internal::Benchmark* bench) {
  bench->Arg(500)->Arg(12500);
  if (bench::full_grid_requested()) bench->Arg(100000);
}

void BM_WormTick(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 10.0;
  params.services = 3;
  const auto instance = bench::make_scalability_instance(params);
  const core::Assignment assignment = worm_bench_assignment(*instance.network);
  const sim::WormSimulator simulator(assignment, sim::SimulationParams{});
  const auto target = static_cast<core::HostId>(params.hosts - 1);
  support::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run_once(0, target, rng));
  }
}
BENCHMARK(BM_WormTick)->Apply(worm_scale_args);

void BM_Mttc(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 10.0;
  params.services = 3;
  const auto instance = bench::make_scalability_instance(params);
  const core::Assignment assignment = worm_bench_assignment(*instance.network);
  const sim::WormSimulator simulator(assignment, sim::SimulationParams{});
  const auto target = static_cast<core::HostId>(params.hosts - 1);
  const auto runs = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.mttc(0, target, runs, /*seed=*/11, /*parallel=*/false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(runs));
}
void mttc_scale_args(benchmark::internal::Benchmark* bench) {
  bench->Args({500, 64})->Args({500, 256})->Args({12500, 16});
  if (bench::full_grid_requested()) bench->Args({100000, 4});
}
BENCHMARK(BM_Mttc)->Apply(mttc_scale_args);

/// One solve cell of the end-to-end `solve_large` workload: TRW-S over the
/// decomposed, unpinned problem of a 6000-host network (degree 16, 4
/// services × 4 products, seed 2020), 10 iterations at tolerance 0, through
/// Optimizer::optimize_problem — component split, solve, decode and the
/// similarity walk.  The problem is built in setup; single-threaded.
void BM_SolveCell(benchmark::State& state) {
  bench::ScalabilityParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 16.0;
  params.services = 4;
  params.products_per_service = 4;
  params.seed = 2020;
  const auto instance = bench::make_scalability_instance(params);
  const core::DiversificationProblem problem(*instance.network);
  const core::Optimizer optimizer(*instance.network);
  core::OptimizeOptions options;
  options.solver = "trws";
  options.solve.max_iterations = 10;
  options.solve.tolerance = 0.0;
  options.parallel = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize_problem(problem, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SolveCell)->Arg(6000)->Unit(benchmark::kMillisecond);

/// The staged batch engine on a shared-prefix attack grid (1 workload ×
/// 2 solvers × 2 strategies × 2 detections = 8 cells).  range(0) toggles
/// artifact reuse: 0 = cold (every cell re-runs its full pipeline, the
/// pre-engine behaviour), 1 = cached (stage DAG deduplication).  Reported
/// items/s are cells/s.
void BM_BatchGrid(benchmark::State& state) {
  runner::ScenarioGrid grid;
  grid.hosts = {120};
  grid.degrees = {8.0};
  grid.services = {3};
  grid.products_per_service = {4};
  grid.solvers = {"trws", "icm"};
  grid.constraints = {"none"};
  grid.seeds = {2020};
  grid.solve.max_iterations = 40;
  runner::AttackGrid attack;
  attack.entries = {0, 7};
  attack.target = 119;
  attack.strategies = {"sophisticated", "uniform"};
  attack.detections = {0.0, 0.02};
  attack.runs = 50;
  attack.max_ticks = 5000;
  grid.attack = attack;
  const std::vector<runner::ScenarioSpec> specs = grid.expand();

  runner::BatchOptions options;
  options.threads = 1;
  options.inner_parallel = false;
  options.reuse_artifacts = state.range(0) != 0;
  const runner::BatchRunner batch(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.run(specs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_BatchGrid)->Arg(0)->Arg(1);

void BM_JsonParseFeed(benchmark::State& state) {
  const nvd::OverlapSpec spec = nvd::browser_table_spec();
  const std::string text = nvd::generate_feed(spec).to_json().dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::Json::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParseFeed);

/// api::request_from_frame on the compact `optimize` frame of a
/// range(0)-host deployment (degree 8, 4 services × 4 products: the
/// daemon_mixed networks).  range(1) = 0: cold, a fresh DocumentTable per
/// decode, so the scan reads the whole frame and interns both documents
/// (a daemon miss).  range(1) = 1: warm, the table already holds both
/// documents, so the scan skips them (a daemon repeat).  Both copy the
/// frame into the decoder, as the daemon's read buffer hands it over.
void BM_DecodeFrame(benchmark::State& state) {
  runner::WorkloadParams params;
  params.hosts = static_cast<std::size_t>(state.range(0));
  params.average_degree = 8.0;
  params.services = 4;
  params.products_per_service = 4;
  params.seed = 2020;
  const runner::WorkloadInstance workload = runner::make_workload(params);
  api::OptimizeRequest optimize;
  optimize.catalog = core::catalog_to_json(*workload.catalog);
  optimize.network = core::network_to_json(*workload.network);
  const std::string frame = api::request_to_wire(optimize).dump();
  const bool warm = state.range(1) != 0;
  api::DocumentTable warm_table(96, 32u << 20);
  if (warm) (void)api::request_from_frame(frame, &warm_table);
  for (auto _ : state) {
    api::DocumentTable cold_table(96, 32u << 20);
    benchmark::DoNotOptimize(api::request_from_frame(frame, warm ? &warm_table : &cold_table));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeFrame)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Rng(benchmark::State& state) {
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Rng);

}  // namespace

BENCHMARK_MAIN();
