// Generated attack networks behind the exact-reliability and least-effort
// golden pins: the request-path benchmark's network shape (500/1000/2000
// hosts, average degree 8, 4 services × 4 products, first variant),
// diversified by the deterministic greedy-colouring baseline.  The pins
// query the benchmark's evaluate-miss pairs, entry 2 + k → target
// hosts − 1 − 7k.
#pragma once

#include <map>
#include <memory>

#include "core/baselines.hpp"
#include "runner/workload.hpp"

namespace icsdiv::bayes::test_networks {

struct GeneratedNetwork {
  runner::WorkloadInstance workload;
  core::Assignment assignment;
};

/// Built once per size and shared by every test in the binary.
inline const GeneratedNetwork& generated_network(std::size_t hosts) {
  static std::map<std::size_t, std::unique_ptr<GeneratedNetwork>> cache;
  std::unique_ptr<GeneratedNetwork>& slot = cache[hosts];
  if (!slot) {
    runner::WorkloadParams params;
    params.hosts = hosts;
    params.average_degree = 8.0;
    params.services = 4;
    params.products_per_service = 4;
    params.seed = 2020 + hosts * 10;
    runner::WorkloadInstance workload = runner::make_workload(params);
    core::Assignment assignment = core::greedy_coloring_assignment(*workload.network);
    slot = std::make_unique<GeneratedNetwork>(
        GeneratedNetwork{std::move(workload), std::move(assignment)});
  }
  return *slot;
}

}  // namespace icsdiv::bayes::test_networks
