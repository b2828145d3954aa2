// Two-terminal reliability: exact factoring vs brute force vs Monte Carlo.
#include "bayes/reliability.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <optional>

#include "bayes/compiled.hpp"
#include "generated_networks.hpp"
#include "support/rng.hpp"

namespace icsdiv::bayes {
namespace {

/// Brute-force reference: enumerate all 2^E edge subsets.
double reliability_brute_force(const ReliabilityProblem& problem) {
  const std::size_t m = problem.edges.size();
  double total = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double probability = 1.0;
    for (std::size_t e = 0; e < m; ++e) {
      probability *= (mask >> e) & 1 ? problem.edges[e].probability
                                     : 1.0 - problem.edges[e].probability;
    }
    if (probability == 0.0) continue;
    // BFS over the active subset.
    std::vector<bool> reached(problem.node_count, false);
    std::vector<std::uint32_t> stack{problem.source};
    reached[problem.source] = true;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (std::size_t e = 0; e < m; ++e) {
        if (!((mask >> e) & 1)) continue;
        if (problem.edges[e].from == u && !reached[problem.edges[e].to]) {
          reached[problem.edges[e].to] = true;
          stack.push_back(problem.edges[e].to);
        }
      }
    }
    if (reached[problem.target]) total += probability;
  }
  return total;
}

ReliabilityProblem series(double p1, double p2) {
  return ReliabilityProblem{3, {{0, 1, p1}, {1, 2, p2}}, 0, 2};
}

TEST(ReliabilityExact, SeriesAndParallelAnalytic) {
  EXPECT_NEAR(reliability_exact(series(0.5, 0.4)), 0.2, 1e-12);

  const ReliabilityProblem parallel{2, {{0, 1, 0.5}, {0, 1, 0.4}}, 0, 1};
  EXPECT_NEAR(reliability_exact(parallel), 1.0 - 0.5 * 0.6, 1e-12);

  // Diamond: two series branches in parallel.
  const ReliabilityProblem diamond{
      4, {{0, 1, 0.9}, {1, 3, 0.9}, {0, 2, 0.5}, {2, 3, 0.5}}, 0, 3};
  const double branch_a = 0.81;
  const double branch_b = 0.25;
  EXPECT_NEAR(reliability_exact(diamond), 1.0 - (1.0 - branch_a) * (1.0 - branch_b), 1e-12);
}

TEST(ReliabilityExact, EdgeCases) {
  // Source equals target.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{1, {}, 0, 0}), 1.0);
  // Disconnected.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{2, {}, 0, 1}), 0.0);
  // Certain edge.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{2, {{0, 1, 1.0}}, 0, 1}), 1.0);
  // Impossible edge.
  EXPECT_DOUBLE_EQ(reliability_exact(ReliabilityProblem{2, {{0, 1, 0.0}}, 0, 1}), 0.0);
  // Edge *into* the source never helps.
  EXPECT_NEAR(reliability_exact(ReliabilityProblem{3, {{1, 0, 0.9}, {0, 2, 0.3}}, 0, 2}),
              0.3, 1e-12);
}

TEST(ReliabilityExact, DirectionalityMatters) {
  // The only route runs against the edge direction: unreachable.
  const ReliabilityProblem reversed{3, {{1, 0, 0.9}, {1, 2, 0.9}}, 0, 2};
  EXPECT_DOUBLE_EQ(reliability_exact(reversed), 0.0);
}

TEST(ReliabilityExact, CycleHandled) {
  // 0→1→2→target with a 2-cycle between 1 and 2.
  const ReliabilityProblem cyclic{
      4, {{0, 1, 0.8}, {1, 2, 0.7}, {2, 1, 0.9}, {2, 3, 0.6}}, 0, 3};
  EXPECT_NEAR(reliability_exact(cyclic), reliability_brute_force(cyclic), 1e-12);
}

class ReliabilityRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliabilityRandomSweep, ExactMatchesBruteForce) {
  support::Rng rng(GetParam());
  // Random DAG-ish digraph: 6 nodes, up to 12 edges (brute force: 4096 subsets).
  ReliabilityProblem problem;
  problem.node_count = 6;
  problem.source = 0;
  problem.target = 5;
  const std::size_t edge_count = 8 + rng.index(5);
  for (std::size_t e = 0; e < edge_count; ++e) {
    const auto from = static_cast<std::uint32_t>(rng.index(6));
    auto to = static_cast<std::uint32_t>(rng.index(6));
    if (to == from) to = (to + 1) % 6;
    problem.edges.push_back({from, to, 0.1 + 0.8 * rng.uniform()});
  }
  const double exact = reliability_exact(problem);
  const double brute = reliability_brute_force(problem);
  EXPECT_NEAR(exact, brute, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliabilityRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

/// Small digraphs that exercise every reduction rule: cycles, parallel
/// edges, self-loops, p=0 and p=1 edges, and edges into the source.  At
/// most 13 edges, so brute force stays at ≤ 8192 subsets.
ReliabilityProblem random_reducible(std::uint64_t seed) {
  support::Rng rng(seed);
  ReliabilityProblem problem;
  problem.node_count = 4 + rng.index(4);
  const auto n = static_cast<std::uint32_t>(problem.node_count);
  problem.source = static_cast<std::uint32_t>(rng.index(n));
  problem.target = (problem.source + 1 + static_cast<std::uint32_t>(rng.index(n - 1))) % n;
  const std::size_t edge_count = 6 + rng.index(8);
  while (problem.edges.size() < edge_count) {
    const auto from = static_cast<std::uint32_t>(rng.index(n));
    auto to = static_cast<std::uint32_t>(rng.index(n));  // self-loops allowed
    if (rng.bernoulli(0.1)) to = problem.source;
    double probability = rng.uniform();
    const std::size_t kind = rng.index(8);
    if (kind == 0) probability = 0.0;
    if (kind == 1) probability = 1.0;
    problem.edges.push_back({from, to, probability});
    if (rng.bernoulli(0.2) && problem.edges.size() < edge_count) {
      problem.edges.push_back({from, to, rng.uniform()});  // parallel twin
    }
  }
  return problem;
}

TEST(ReliabilityExact, ReducerMatchesBruteForceOnIrregularDigraphs) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    const ReliabilityProblem problem = random_reducible(seed);
    EXPECT_NEAR(reliability_exact(problem, /*max_edges=*/64), reliability_brute_force(problem),
                1e-12);
  }
}

TEST(ReliabilityExact, EdgesSettledByMergesAndContractionsAreReduced) {
  // Each case is a Wheatstone bridge (5 edges, irreducible) plus a gadget
  // whose series contraction or parallel merge rounds to p = 0 (a dead
  // edge) or to p = 1 out of the source (absorbed).  Only when the reducer
  // acts on that settled edge does the residual fit a 5-edge budget.
  const auto bridge = [](std::uint32_t s, std::uint32_t a, std::uint32_t b, std::uint32_t t) {
    return std::vector<ReliabilityEdge>{
        {s, a, 0.6}, {s, b, 0.7}, {a, b, 0.3}, {a, t, 0.8}, {b, t, 0.4}};
  };
  const double near_one = 1.0 - std::ldexp(1.0, -30);
  const double nearer_one = 1.0 - std::ldexp(1.0, -31);
  std::vector<ReliabilityProblem> cases;
  // Contraction s→c→t underflows to a dead s→t edge.
  cases.push_back({5, bridge(0, 1, 2, 4), 0, 4});
  cases.back().edges.push_back({0, 3, 1e-200});
  cases.back().edges.push_back({3, 4, 1e-200});
  // Parallel s→h pair (first scan) merges to a certain source edge.
  cases.push_back({5, bridge(1, 2, 3, 4), 0, 4});
  cases.back().edges.push_back({0, 1, near_one});
  cases.back().edges.push_back({0, 1, near_one});
  // Contraction s→x→h creates a twin of s→h; the merge is certain.
  cases.push_back({6, bridge(2, 3, 4, 5), 0, 5});
  cases.back().edges.push_back({0, 1, nearer_one});
  cases.back().edges.push_back({1, 2, nearer_one});
  cases.back().edges.push_back({0, 2, near_one});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_NEAR(reliability_exact(cases[i], /*max_edges=*/5), reliability_brute_force(cases[i]),
                1e-12);
  }
}

/// Exact values on generated attack DAGs, pinned bit for bit (hex floats)
/// from the sweep-by-sweep reducer the incremental one replaced; nullopt
/// pins an Infeasible outcome at the default 40-edge budget.
struct ExactPin {
  std::size_t hosts;
  core::HostId entry;
  core::HostId target;
  std::optional<double> model;
  std::optional<double> baseline;
};

TEST(ReliabilityExact, GoldenPinsOnGeneratedAttackDags) {
  constexpr std::nullopt_t kInfeasible = std::nullopt;
  const ExactPin pins[] = {
      {500, 2, 499, kInfeasible, kInfeasible},
      {500, 3, 492, 0x1.9bd0b48c70a16p-7, 0x1.41205bc01a36fp-8},
      {500, 4, 485, kInfeasible, kInfeasible},
      {500, 5, 478, 0x1.a5c025da4890fp-11, 0x1.80b6ea6110b34p-12},
      {500, 6, 471, kInfeasible, kInfeasible},
      {500, 7, 464, kInfeasible, kInfeasible},
      {1000, 2, 999, kInfeasible, kInfeasible},
      {1000, 3, 992, kInfeasible, kInfeasible},
      {1000, 4, 985, kInfeasible, kInfeasible},
      {1000, 5, 978, 0x1.352f72800f2dp-11, 0x1.9be0d9045c6e3p-12},
      {1000, 6, 971, 0x1.b54d302a63714p-8, 0x1.41205bc01a36fp-8},
      {1000, 7, 964, kInfeasible, kInfeasible},
      {2000, 2, 1999, kInfeasible, kInfeasible},
      {2000, 3, 1992, kInfeasible, kInfeasible},
      {2000, 4, 1985, kInfeasible, kInfeasible},
      {2000, 5, 1978, 0x1.b04b3d08d86e5p-14, 0x1.d768ebda22e78p-17},
      {2000, 6, 1971, kInfeasible, kInfeasible},
      {2000, 7, 1964, 0x1.5dda8522357bbp-10, 0x1.cc34b7b463ecep-12},
  };
  for (const ExactPin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << pin.hosts << ": " << pin.entry << " -> " << pin.target);
    const CompiledReliability compiled(test_networks::generated_network(pin.hosts).assignment,
                                       pin.entry);
    for (const bool baseline : {false, true}) {
      const ReliabilityProblem problem = compiled.reliability_problem(pin.target, baseline);
      const std::optional<double>& expected = baseline ? pin.baseline : pin.model;
      if (expected) {
        EXPECT_EQ(reliability_exact(problem), *expected);
      } else {
        EXPECT_THROW((void)reliability_exact(problem), Infeasible);
      }
    }
  }
}

TEST(ReliabilityExact, ExpiredTokenStopsTheReducer) {
  const CompiledReliability compiled(test_networks::generated_network(2000).assignment, 2);
  const ReliabilityProblem problem = compiled.reliability_problem(1999);
  const auto expired = support::CancelToken::with_deadline(support::CancelToken::Clock::now() -
                                                           std::chrono::milliseconds(1));
  try {
    (void)reliability_exact(problem, 40, expired);
    ADD_FAILURE() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& error) {
    EXPECT_NE(std::string(error.what()).find("bayes.exact"), std::string::npos) << error.what();
  }
  const support::CancelToken cancelled = support::CancelToken::cancellable();
  cancelled.cancel();
  EXPECT_THROW((void)reliability_exact(problem, 40, cancelled), CancelledError);
}

TEST(ReliabilityExact, AutoEngineDoesNotSwallowADeadline) {
  // The pair is Infeasible for the exact engine, so Auto would fall back to
  // sampling; expiry must surface from the exact attempt instead.
  const CompiledReliability compiled(test_networks::generated_network(2000).assignment, 2);
  InferenceOptions options;
  options.cancel = support::CancelToken::with_deadline(support::CancelToken::Clock::now() -
                                                       std::chrono::milliseconds(1));
  const core::HostId targets[] = {1999};
  try {
    (void)compiled.solve_targets(targets, options);
    ADD_FAILURE() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& error) {
    EXPECT_NE(std::string(error.what()).find("bayes.exact"), std::string::npos) << error.what();
  }
}

TEST(ReliabilityMonteCarlo, AgreesWithExact) {
  const ReliabilityProblem diamond{
      4, {{0, 1, 0.9}, {1, 3, 0.9}, {0, 2, 0.5}, {2, 3, 0.5}}, 0, 3};
  const double exact = reliability_exact(diamond);
  support::Rng rng(2024);
  const double estimate = reliability_monte_carlo(diamond, 200'000, rng);
  EXPECT_NEAR(estimate, exact, 0.005);
}

TEST(ReliabilityMonteCarlo, DeterministicPerSeed) {
  const ReliabilityProblem problem = series(0.3, 0.7);
  support::Rng a(9);
  support::Rng b(9);
  EXPECT_DOUBLE_EQ(reliability_monte_carlo(problem, 10'000, a),
                   reliability_monte_carlo(problem, 10'000, b));
}

TEST(ReliabilityProblem, Validation) {
  ReliabilityProblem bad{2, {{0, 5, 0.5}}, 0, 1};
  EXPECT_THROW(bad.validate(), icsdiv::InvalidArgument);
  ReliabilityProblem bad_probability{2, {{0, 1, 1.5}}, 0, 1};
  EXPECT_THROW(bad_probability.validate(), icsdiv::InvalidArgument);
  ReliabilityProblem bad_terminal{2, {}, 0, 7};
  EXPECT_THROW(bad_terminal.validate(), icsdiv::InvalidArgument);
}

TEST(ReliabilityExact, OversizedProblemRaisesInfeasible) {
  // A dense bipartite-ish mess the reducer cannot shrink below the cap.
  support::Rng rng(3);
  ReliabilityProblem problem;
  problem.node_count = 12;
  problem.source = 0;
  problem.target = 11;
  for (std::uint32_t a = 0; a < 12; ++a) {
    for (std::uint32_t b = 0; b < 12; ++b) {
      if (a != b && rng.bernoulli(0.7)) problem.edges.push_back({a, b, 0.5});
    }
  }
  EXPECT_THROW((void)reliability_exact(problem, /*max_edges=*/10), icsdiv::Infeasible);
}

}  // namespace
}  // namespace icsdiv::bayes
