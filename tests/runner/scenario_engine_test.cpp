// The staged scenario engine: artifact reuse across shared grid prefixes,
// cached-vs-uncached bit-identity at several thread counts, deterministic
// stage_stats, refcount eviction, and shared failure propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "runner/scenario_engine.hpp"

namespace icsdiv::runner {
namespace {

/// 1 workload × 2 solvers × {2 strategies × 2 detections} = 8 cells that
/// share their generate/problem prefix and pairwise share solves.
ScenarioGrid shared_prefix_grid() {
  ScenarioGrid grid;
  grid.name = "shared-prefix";
  grid.hosts = {16};
  grid.degrees = {4.0};
  grid.services = {2};
  grid.products_per_service = {3};
  grid.solvers = {"trws", "icm"};
  grid.constraints = {"none"};
  grid.seeds = {7};
  grid.solve.max_iterations = 20;
  AttackGrid attack;
  attack.entries = {0, 1};
  attack.target = 15;
  attack.strategies = {"sophisticated", "uniform"};
  attack.detections = {0.0, 0.1};
  attack.runs = 15;
  attack.max_ticks = 500;
  grid.attack = attack;
  return grid;
}

/// The deterministic column subset, as CSV text, for exact comparison.
std::string deterministic_csv(const BatchReport& report) {
  std::ostringstream out;
  report.write_csv(out, /*include_timings=*/false);
  return out.str();
}

TEST(ScenarioEngine, CachedAndUncachedAreBitIdenticalAcrossThreadCounts) {
  const ScenarioGrid grid = shared_prefix_grid();
  const std::vector<ScenarioSpec> specs = grid.expand();

  // The uncached single-thread run is the reference: it executes exactly
  // the historical per-cell pipeline.
  BatchOptions reference_options;
  reference_options.threads = 1;
  reference_options.reuse_artifacts = false;
  reference_options.inner_parallel = false;
  const BatchReport reference = BatchRunner(reference_options).run(specs);
  ASSERT_EQ(reference.failed_count(), 0u) << reference.results[0].error;
  const std::string expected = deterministic_csv(reference);

  for (const bool reuse : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      BatchOptions options;
      options.threads = threads;
      options.reuse_artifacts = reuse;
      options.inner_parallel = threads > 1;  // in-cell fan-out must not matter
      const BatchReport report = BatchRunner(options).run(specs);
      EXPECT_EQ(deterministic_csv(report), expected)
          << "reuse=" << reuse << " threads=" << threads;
      // Reuse changes the execution plan, never a deterministic column.
      EXPECT_EQ(report.stage_stats.workload.executed, reuse ? 1u : specs.size());
    }
  }
}

TEST(ScenarioEngine, StageStatsCountSharedPrefixes) {
  const ScenarioGrid grid = shared_prefix_grid();
  const BatchReport report = BatchRunner(BatchOptions{.threads = 4}).run(grid);
  ASSERT_EQ(report.results.size(), 8u);
  ASSERT_EQ(report.failed_count(), 0u) << report.results[0].error;

  const StageStats& stats = report.stage_stats;
  // 8 cells: one workload, one problem, one solve per solver, one channel
  // pool per solve, one attack evaluation per cell.
  EXPECT_EQ(stats.workload.executed, 1u);
  EXPECT_EQ(stats.workload.planned, 8u);
  EXPECT_EQ(stats.workload.hits, 7u);
  EXPECT_EQ(stats.problem.executed, 1u);
  EXPECT_LT(stats.problem.executed, report.results.size());  // the headline claim
  EXPECT_EQ(stats.solve.executed, 2u);
  EXPECT_EQ(stats.solve.hits, 6u);
  EXPECT_EQ(stats.channels.executed, 2u);
  EXPECT_EQ(stats.attack.executed, 8u);
  EXPECT_EQ(stats.attack.hits, 0u);
  EXPECT_EQ(stats.metric.planned, 0u);

  // The stats block makes it into the JSON report.
  const support::Json json = report.to_json();
  const auto& block = json.as_object().at("stage_stats").as_object();
  EXPECT_EQ(block.at("workload").as_object().at("executed").as_integer(), 1);
  EXPECT_EQ(block.at("solve").as_object().at("hits").as_integer(), 6);
}

TEST(ScenarioEngine, RefcountEvictionReleasesEveryConsumedPayload) {
  const BatchReport report =
      BatchRunner(BatchOptions{.threads = 4}).run(shared_prefix_grid());
  const StageStats& stats = report.stage_stats;
  // Every payload with planned consumers is evicted once the last one
  // finishes: workload (by the problem build), problem (by the solves),
  // solve (by the channel builds and cell finalizes), channels (by the
  // attack evals).
  EXPECT_EQ(stats.workload.evicted, stats.workload.executed);
  EXPECT_EQ(stats.problem.evicted, stats.problem.executed);
  EXPECT_EQ(stats.solve.evicted, stats.solve.executed);
  EXPECT_EQ(stats.channels.evicted, stats.channels.executed);

  // Solve-only grids evict too: each cell's finalize is a planned solve
  // consumer, so assignments do not accumulate for the whole batch (the
  // pre-refactor per-cell lifetime).
  ScenarioGrid solve_only = shared_prefix_grid();
  solve_only.attack.reset();
  const BatchReport plain = BatchRunner(BatchOptions{.threads = 2}).run(solve_only);
  ASSERT_EQ(plain.failed_count(), 0u);
  EXPECT_EQ(plain.stage_stats.solve.executed, 2u);
  EXPECT_EQ(plain.stage_stats.solve.evicted, 2u);
}

TEST(ScenarioEngine, MetricEvaluationIsSharedAcrossAttackSiblings) {
  // Cells that differ only in the attack axes share one solve and one
  // metric evaluation — the metrics block never multiplied the grid, but
  // the monolithic runner still recomputed it per cell.
  ScenarioGrid grid = shared_prefix_grid();
  grid.solvers = {"icm"};
  MetricsSpec metrics;
  metrics.entries = {0};
  metrics.targets = {14, 15};
  metrics.engine = "montecarlo";
  metrics.samples = 10'000;
  grid.metrics = metrics;

  const BatchReport report = BatchRunner(BatchOptions{.threads = 2}).run(grid);
  ASSERT_EQ(report.results.size(), 4u);
  ASSERT_EQ(report.failed_count(), 0u) << report.results[0].error;
  EXPECT_EQ(report.stage_stats.metric.executed, 1u);
  EXPECT_EQ(report.stage_stats.metric.hits, 3u);
  // All four cells carry the identical d_bn columns.
  for (const ScenarioResult& result : report.results) {
    EXPECT_TRUE(result.metrics_evaluated);
    EXPECT_EQ(result.d_bn_mean, report.results[0].d_bn_mean);
    EXPECT_EQ(result.metric_pairs, 2u);
  }
}

TEST(ScenarioEngine, SharedFailedStageFailsEveryConsumerCell) {
  ScenarioGrid grid = shared_prefix_grid();
  grid.solvers = {"no-such-solver"};
  const BatchReport report = BatchRunner(BatchOptions{.threads = 2}).run(grid);
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.failed_count(), 4u);
  // One shared solve execution fails once; every dependent cell reports
  // its message and keeps the attack axis echo for aggregate grouping.
  EXPECT_EQ(report.stage_stats.solve.executed, 1u);
  for (const ScenarioResult& result : report.results) {
    EXPECT_NE(result.error.find("no-such-solver"), std::string::npos) << result.error;
    EXPECT_FALSE(result.attacked);
    EXPECT_FALSE(result.attack_strategy.empty());
  }
}

TEST(ScenarioEngine, ThrowingOnResultPropagatesInsteadOfHanging) {
  // The run_cells / parallel_for contract: exceptions propagate, first
  // wins.  The DAG still drains (refcounts and sibling cells stay sound)
  // before the rethrow — a regression here showed up as a permanent hang
  // at threads > 1 while threads == 1 propagated.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    BatchOptions options;
    options.threads = threads;
    options.on_result = [](const ScenarioResult&) {
      throw std::runtime_error("callback boom");
    };
    EXPECT_THROW(BatchRunner(options).run(shared_prefix_grid().expand()), std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ScenarioEngine, OnResultFiresOncePerCellFromTheEngine) {
  std::atomic<std::size_t> calls{0};
  BatchOptions options;
  options.threads = 3;
  options.on_result = [&](const ScenarioResult&) { ++calls; };
  const BatchReport report = ScenarioEngine(std::move(options)).run(shared_prefix_grid().expand());
  EXPECT_EQ(calls.load(), report.results.size());
}

TEST(ScenarioEngine, KeyHasherSeparatesFieldsAndDomains) {
  // Order and field boundaries matter; permuted values must not collide.
  KeyHasher a;
  a.mix(std::uint64_t{1}).mix(std::uint64_t{2});
  KeyHasher b;
  b.mix(std::uint64_t{2}).mix(std::uint64_t{1});
  EXPECT_FALSE(a.key() == b.key());

  KeyHasher s1;
  s1.mix(std::string("ab")).mix(std::string("c"));
  KeyHasher s2;
  s2.mix(std::string("a")).mix(std::string("bc"));
  EXPECT_FALSE(s1.key() == s2.key());

  // ±0.0 compare equal everywhere downstream, so they share a key.
  KeyHasher z1;
  z1.mix(0.0);
  KeyHasher z2;
  z2.mix(-0.0);
  EXPECT_TRUE(z1.key() == z2.key());

  // Same fields, same key (the cache's correctness hinges on this).
  KeyHasher c1;
  c1.mix(std::string("trws")).mix(std::uint64_t{40});
  KeyHasher c2;
  c2.mix(std::string("trws")).mix(std::uint64_t{40});
  EXPECT_TRUE(c1.key() == c2.key());
}

TEST(ScenarioEngine, SolveKeyIgnoresTheUnreadTimeLimitField) {
  // No solver reads SolveOptions::time_limit_seconds (a wall-clock budget
  // is a cancel deadline, whose result is truncated and never cached), so
  // it must not split solves either.  Dropping it from the key also makes
  // every solve record of a store written with it in the key a miss.
  ScenarioSpec spec = shared_prefix_grid().expand().front();
  const ArtifactKey plain = scenario_solve_key(spec);
  spec.solve.time_limit_seconds = 0.5;
  EXPECT_TRUE(scenario_solve_key(spec) == plain);
  spec.solve.max_iterations += 1;
  EXPECT_FALSE(scenario_solve_key(spec) == plain);
}

}  // namespace
}  // namespace icsdiv::runner
