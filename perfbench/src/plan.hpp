// Stage-task planning for the traced batch replay.
//
// The scenario engine runs each *unique* stage task once and shares the
// result between every cell that needs it.  The replay must do the same
// work, so it plans the same way: a stage task is identified by exactly
// the spec fields the engine's stage key hashes (runner/scenario_engine.cpp),
// chained onto its parent stage.  Here the identity is a readable string
// rather than a 128-bit hash, so a test can compare the plan against the
// engine's own `stage_stats` counters.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "runner/scenario.hpp"

namespace perfbench {

enum class Stage : std::size_t { Workload, Problem, Solve, Channels, Attack, Metric };
inline constexpr std::size_t kStageCount = 6;
inline constexpr std::array<const char*, kStageCount> kStageNames{
    "workload", "problem", "solve", "channels", "attack", "metric"};

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

struct StageTask {
  Stage stage = Stage::Workload;
  std::size_t parent = kNone;  ///< index of the task this one consumes
  std::size_t spec = 0;        ///< first cell that planned the task
  std::size_t consumers = 0;   ///< child tasks reading its output
};

struct CellTasks {
  std::size_t workload = kNone, problem = kNone, solve = kNone;
  std::size_t channels = kNone, attack = kNone, metric = kNone;
};

struct StagePlan {
  std::vector<StageTask> tasks;  ///< parents always precede their children
  std::vector<CellTasks> cells;  ///< per spec, in spec order
  std::array<std::size_t, kStageCount> planned{};
  std::array<std::size_t, kStageCount> executed{};
};

namespace detail {

inline std::string field(double value) {
  if (value == 0.0) value = 0.0;  // +0 and -0 share a key, as in the engine
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

template <typename T>
std::string field(const std::vector<T>& values) {
  std::string out = "[";
  for (const T& value : values) out += std::to_string(value) + ",";
  return out + "]";
}

}  // namespace detail

/// Deduplicates the stage tasks of `specs` exactly as the engine does with
/// artifact reuse on.  The attack stage's channel pools depend only on the
/// solve (the propagation model is fixed), so every strategy and detection
/// of one solve shares them.
inline StagePlan plan_stages(const std::vector<icsdiv::runner::ScenarioSpec>& specs) {
  using detail::field;
  StagePlan plan;
  std::map<std::string, std::size_t> index;
  const auto intern = [&](Stage stage, const std::string& key, std::size_t parent,
                          std::size_t spec) {
    const auto s = static_cast<std::size_t>(stage);
    ++plan.planned[s];
    const std::string full = std::to_string(s) + "|" + key;
    if (const auto it = index.find(full); it != index.end()) return it->second;
    ++plan.executed[s];
    plan.tasks.push_back({stage, parent, spec, 0});
    if (parent != kNone) ++plan.tasks[parent].consumers;
    index.emplace(full, plan.tasks.size() - 1);
    return plan.tasks.size() - 1;
  };

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const icsdiv::runner::ScenarioSpec& spec = specs[i];
    const icsdiv::runner::WorkloadParams& w = spec.workload;
    CellTasks cell;
    std::string key = std::to_string(w.hosts) + "|" + field(w.average_degree) + "|" +
                      std::to_string(w.services) + "|" + std::to_string(w.products_per_service) +
                      "|" + field(w.similar_pair_fraction) + "|" + field(w.max_similarity) + "|" +
                      std::to_string(spec.seed);
    cell.workload = intern(Stage::Workload, key, kNone, i);
    key += "|" + spec.constraints;
    cell.problem = intern(Stage::Problem, key, cell.workload, i);
    key += "|" + spec.solver + "|" + std::to_string(spec.solve.max_iterations) + "|" +
           field(spec.solve.tolerance) + "|" + field(spec.solve.time_limit_seconds) + "|" +
           field(spec.solve.initial_labels) + "|" + std::to_string(spec.decompose);
    cell.solve = intern(Stage::Solve, key, cell.problem, i);
    if (spec.attack) {
      cell.channels = intern(Stage::Channels, key, cell.solve, i);
      const icsdiv::runner::AttackSpec& a = *spec.attack;
      const std::string attack_key = key + "|" + field(a.entries) + "|" +
                                     std::to_string(a.target) + "|" + a.strategy + "|" +
                                     field(a.detection) + "|" + std::to_string(a.runs) + "|" +
                                     std::to_string(a.max_ticks) + "|" + std::to_string(a.seed);
      cell.attack = intern(Stage::Attack, attack_key, cell.channels, i);
    }
    if (spec.metrics) {
      const icsdiv::runner::MetricsSpec& m = *spec.metrics;
      const std::string metric_key = key + "|" + field(m.entries) + "|" + field(m.targets) +
                                     "|" + m.engine + "|" + std::to_string(m.samples) + "|" +
                                     std::to_string(m.exact_max_edges) + "|" +
                                     std::to_string(m.seed);
      cell.metric = intern(Stage::Metric, metric_key, cell.solve, i);
    }
    plan.cells.push_back(cell);
  }
  return plan;
}

/// The longest chain of dependent stage busy times.  Every stage task has
/// at most one parent and parents precede children, so one forward pass
/// over the tasks accumulates each chain.  `busy` is aligned with `tasks`.
inline double critical_path_seconds(const std::vector<StageTask>& tasks,
                                    const std::vector<double>& busy) {
  std::vector<double> chain(tasks.size(), 0.0);
  double longest = 0.0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    chain[t] = busy[t] + (tasks[t].parent == kNone ? 0.0 : chain[tasks[t].parent]);
    longest = std::max(longest, chain[t]);
  }
  return longest;
}

}  // namespace perfbench
