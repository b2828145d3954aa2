// Two-terminal network reliability on directed graphs.
//
// The BN metric needs P(target compromised | entry compromised) where each
// directed attack edge "fires" independently with its infection rate —
// exactly two-terminal (s,t) reliability.  Exact computation is #P-hard in
// general; our exact engine runs the classic factoring algorithm with
// series/parallel/irrelevant-branch reductions.  The reductions cost
// O(V + E) for the first pass and amortised O(1) per further series or
// parallel step (a 2000-host attack DAG of the request-path benchmark
// reduces in about 0.4 ms on a 4-vCPU x86 box); factoring is exponential
// in the *residual* edge count and is therefore capped (`max_edges`).
// A Monte-Carlo engine covers arbitrary sizes and cross-validates the
// exact one in tests; its sampling loop runs on the compiled substrate
// (compiled.hpp) while preserving the seed-era RNG stream bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace icsdiv::bayes {

/// A directed edge that works with probability `probability`.
struct ReliabilityEdge {
  std::uint32_t from;
  std::uint32_t to;
  double probability;
};

struct ReliabilityProblem {
  std::size_t node_count = 0;
  std::vector<ReliabilityEdge> edges;
  std::uint32_t source = 0;
  std::uint32_t target = 0;

  void validate() const;
};

/// Exact s→t connectivity probability via factoring + reductions.  Throws
/// Infeasible when the reduced problem still exceeds `max_edges` (the
/// factoring recursion is exponential in the residual edge count).
/// `cancel` is polled once per reduction sweep and factoring node (site
/// "bayes.exact"); expiry throws DeadlineExceededError / CancelledError.
[[nodiscard]] double reliability_exact(const ReliabilityProblem& problem,
                                       std::size_t max_edges = 40,
                                       const support::CancelToken& cancel = {});

/// Monte-Carlo estimate with `samples` independent trials.
[[nodiscard]] double reliability_monte_carlo(const ReliabilityProblem& problem,
                                             std::size_t samples, support::Rng& rng);

}  // namespace icsdiv::bayes
