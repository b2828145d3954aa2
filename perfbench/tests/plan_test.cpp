// Self-tests for the benchmark's stage planning: de-duplication of shared
// stages (checked against the engine's own counters) and the critical
// path over a hand-built stage DAG.  Run: .bench_build/cmake/perfbench_tests
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "plan.hpp"
#include "runner/scenario_engine.hpp"

namespace {

int failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

icsdiv::runner::ScenarioGrid small_grid() {
  icsdiv::runner::ScenarioGrid grid;
  grid.hosts = {30, 40};
  grid.degrees = {4.0};
  grid.services = {2};
  grid.products_per_service = {3};
  grid.solvers = {"trws", "icm"};
  grid.constraints = {"none", "pinned"};
  grid.seeds = {5, 6};
  grid.solve.max_iterations = 5;
  icsdiv::runner::AttackGrid attack;
  attack.entries = {0, 3};
  attack.target = 29;
  attack.strategies = {"sophisticated", "uniform"};
  attack.detections = {0.0, 0.05};
  attack.runs = 5;
  grid.attack = attack;
  icsdiv::runner::MetricsSpec metrics;
  metrics.entries = {0};
  metrics.targets = {29};
  metrics.engine = "montecarlo";
  metrics.samples = 1000;
  grid.metrics = metrics;
  return grid;
}

void test_dedup_matches_engine() {
  const auto specs = small_grid().expand();
  const perfbench::StagePlan plan = perfbench::plan_stages(specs);
  const icsdiv::runner::BatchReport report =
      icsdiv::runner::ScenarioEngine(icsdiv::runner::BatchOptions{.threads = 1}).run(specs);
  const icsdiv::runner::StageStats& stats = report.stage_stats;
  const icsdiv::runner::StageCounters* counters[] = {&stats.workload, &stats.problem,
                                                      &stats.solve,    &stats.channels,
                                                      &stats.attack,   &stats.metric};
  for (std::size_t s = 0; s < perfbench::kStageCount; ++s) {
    check(plan.executed[s] == counters[s]->executed, "executed count equals the engine's");
    check(plan.planned[s] == counters[s]->planned, "planned count equals the engine's");
  }
  // 2 hosts x 2 seeds workloads; x2 constraints problems; x2 solvers
  // solves; one channel build per solve; 4 attack variants per solve.
  check(plan.executed[0] == 4 && plan.executed[1] == 8 && plan.executed[2] == 16,
        "workload/problem/solve executions");
  check(plan.executed[3] == 16 && plan.executed[4] == 64 && plan.executed[5] == 16,
        "channels/attack/metric executions");
  check(plan.cells.size() == specs.size(), "one task set per cell");
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    check(plan.tasks[t].parent == perfbench::kNone || plan.tasks[t].parent < t,
          "parents precede children");
  }
}

void test_dedup_separates_differing_fields() {
  icsdiv::runner::ScenarioSpec a;
  a.workload.hosts = 20;
  icsdiv::runner::ScenarioSpec b = a;
  b.solve.max_iterations = a.solve.max_iterations + 1;  // new solve, shared problem
  icsdiv::runner::ScenarioSpec c = a;
  c.seed = a.seed + 1;  // new workload
  icsdiv::runner::ScenarioSpec d = a;
  d.parallel = !a.parallel;  // not part of any key
  const perfbench::StagePlan plan = perfbench::plan_stages({a, b, c, d});
  check(plan.executed[0] == 2, "seed splits the workload");
  check(plan.executed[1] == 2, "problems follow workloads");
  check(plan.executed[2] == 3, "max_iterations splits the solve; parallel does not");
  check(plan.cells[3].solve == plan.cells[0].solve, "parallel flag shares the solve");
}

void test_critical_path() {
  using perfbench::Stage;
  using perfbench::StageTask;
  // workload(1) -> problem(2) -> solve(3) -> channels(1) -> attack(4)
  //                           \-> solve(10)
  //             -> problem(0.5) -> solve(1)
  const std::vector<StageTask> tasks{
      {Stage::Workload, perfbench::kNone, 0, 2}, {Stage::Problem, 0, 0, 2},
      {Stage::Solve, 1, 0, 1},                   {Stage::Channels, 2, 0, 1},
      {Stage::Attack, 3, 0, 0},                  {Stage::Solve, 1, 0, 0},
      {Stage::Problem, 0, 0, 1},                 {Stage::Solve, 6, 0, 0}};
  const std::vector<double> busy{1, 2, 3, 1, 4, 10, 0.5, 1};
  check(std::abs(perfbench::critical_path_seconds(tasks, busy) - 13.0) < 1e-12,
        "longest chain is workload -> problem -> the 10 s solve");
  const std::vector<double> flat{1, 2, 3, 1, 4, 1, 0.5, 1};
  check(std::abs(perfbench::critical_path_seconds(tasks, flat) - 11.0) < 1e-12,
        "longest chain runs through channels and attack");
  check(perfbench::critical_path_seconds({}, {}) == 0.0, "empty DAG");
}

}  // namespace

int main() {
  test_dedup_matches_engine();
  test_dedup_separates_differing_fields();
  test_critical_path();
  if (failures != 0) return EXIT_FAILURE;
  std::cout << "perfbench_tests: all passed\n";
  return EXIT_SUCCESS;
}
