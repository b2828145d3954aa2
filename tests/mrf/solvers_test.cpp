// Solver correctness: TRW-S, BP, ICM against the exhaustive oracle, plus
// decomposition and multilevel wrappers.
#include <gtest/gtest.h>

#include <map>

#include "mrf/bp.hpp"
#include "mrf/decompose.hpp"
#include "mrf/exhaustive.hpp"
#include "mrf/icm.hpp"
#include "mrf/multilevel.hpp"
#include "mrf/registry.hpp"
#include "mrf/trws.hpp"
#include "support/rng.hpp"

namespace icsdiv::mrf {
namespace {

/// Random pairwise MRF over a random graph: `n` variables, `labels` labels,
/// uniform unaries in [0,1], similarity-style symmetric matrices.
Mrf random_mrf(std::size_t n, std::size_t labels, double edge_probability,
               support::Rng& rng) {
  Mrf mrf;
  for (std::size_t i = 0; i < n; ++i) {
    const VariableId v = mrf.add_variable(labels);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(labels * labels, 0.0);
  for (std::size_t a = 0; a < labels; ++a) {
    for (std::size_t b = a; b < labels; ++b) {
      const double value = a == b ? 1.0 : rng.uniform() * 0.6;
      data[a * labels + b] = value;
      data[b * labels + a] = value;
    }
  }
  const MatrixId m = mrf.add_matrix(labels, labels, std::move(data));
  for (VariableId u = 0; u < n; ++u) {
    for (VariableId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(edge_probability)) mrf.add_edge(u, v, m);
    }
  }
  return mrf;
}

/// Chain MRF (a tree): TRW-S and BP must both be exact here.
Mrf chain_mrf(std::size_t n, std::size_t labels, support::Rng& rng) {
  Mrf mrf = random_mrf(n, labels, 0.0, rng);
  std::vector<Cost> data(labels * labels);
  for (auto& c : data) c = rng.uniform();
  const MatrixId m = mrf.add_matrix(labels, labels, std::move(data));
  for (VariableId v = 0; v + 1 < n; ++v) mrf.add_edge(v, v + 1, m);
  return mrf;
}

TEST(Exhaustive, FindsKnownOptimum) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(2);
  mrf.unary(a)[0] = 5.0;
  mrf.unary(b)[1] = 5.0;
  const MatrixId m = mrf.add_matrix(2, 2, {0, 0, 0, 0});
  mrf.add_edge(a, b, m);
  const SolveResult result = ExhaustiveSolver().solve(mrf);
  EXPECT_EQ(result.labels, (std::vector<Label>{1, 0}));
  EXPECT_DOUBLE_EQ(result.energy, 0.0);
  EXPECT_TRUE(result.converged);
}

TEST(Exhaustive, RefusesHugeLabelSpaces) {
  Mrf mrf;
  for (int i = 0; i < 40; ++i) mrf.add_variable(10);
  EXPECT_THROW(ExhaustiveSolver().solve(mrf), icsdiv::InvalidArgument);
}

class SolverOracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverOracleSweep, TrwsMatchesExhaustiveOnSmallInstances) {
  support::Rng rng(GetParam());
  const Mrf mrf = random_mrf(8, 3, 0.4, rng);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  const SolveResult trws = TrwsSolver().solve(mrf);

  // Sound bound and a primal within a small gap of the optimum (TRW-S is
  // not exact on loopy graphs, but on these weak similarity couplings it
  // lands on or near the optimum).
  EXPECT_LE(trws.lower_bound, exact.energy + 1e-9);
  EXPECT_GE(trws.energy, exact.energy - 1e-9);
  EXPECT_LE(trws.energy, exact.energy + 0.15);
}

TEST_P(SolverOracleSweep, TrwsExactOnChains) {
  support::Rng rng(GetParam() * 7 + 1);
  const Mrf mrf = chain_mrf(9, 4, rng);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  const SolveResult trws = TrwsSolver().solve(mrf);
  EXPECT_NEAR(trws.energy, exact.energy, 1e-9);
  // On trees the LP relaxation is tight: bound meets energy.
  EXPECT_NEAR(trws.lower_bound, exact.energy, 1e-6);
  EXPECT_TRUE(trws.converged);
}

TEST_P(SolverOracleSweep, BpExactOnChains) {
  support::Rng rng(GetParam() * 13 + 5);
  const Mrf mrf = chain_mrf(7, 3, rng);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  const SolveResult bp = BpSolver().solve(mrf);
  EXPECT_NEAR(bp.energy, exact.energy, 1e-9);
}

TEST_P(SolverOracleSweep, IcmNeverWorseThanItsStart) {
  support::Rng rng(GetParam() * 3 + 2);
  const Mrf mrf = random_mrf(12, 3, 0.3, rng);
  std::vector<Label> start(mrf.variable_count());
  for (auto& label : start) label = static_cast<Label>(rng.index(3));
  const Cost start_energy = mrf.energy(start);

  SolveOptions options;
  options.initial_labels = start;
  const SolveResult icm = IcmSolver().solve(mrf, options);
  EXPECT_LE(icm.energy, start_energy + 1e-12);
  EXPECT_TRUE(icm.converged);

  // And TRW-S should do at least as well as ICM on these instances.
  const SolveResult trws = TrwsSolver().solve(mrf);
  EXPECT_LE(trws.energy, icm.energy + 0.1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOracleSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

TEST(Trws, HandlesIsolatedVariables) {
  Mrf mrf;
  const VariableId a = mrf.add_variable(3);
  mrf.unary(a)[2] = -1.0;
  (void)mrf.add_variable(2);
  const SolveResult result = TrwsSolver().solve(mrf);
  EXPECT_EQ(result.labels[a], 2);
  EXPECT_NEAR(result.energy, -1.0, 1e-12);
  EXPECT_NEAR(result.lower_bound, -1.0, 1e-12);
}

TEST(Trws, EmptyModel) {
  const SolveResult result = TrwsSolver().solve(Mrf{});
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.energy, 0.0);
}

TEST(Trws, RespectsForbiddenCosts) {
  // Two variables, all combinations forbidden except (1, 0).
  Mrf mrf;
  const VariableId a = mrf.add_variable(2);
  const VariableId b = mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {kForbidden, kForbidden, 0.0, kForbidden});
  mrf.add_edge(a, b, m);
  const SolveResult result = TrwsSolver().solve(mrf);
  EXPECT_EQ(result.labels, (std::vector<Label>{1, 0}));
  EXPECT_LT(result.energy, 1.0);
}

TEST(Bp, DampingValidation) {
  support::Rng rng(1);
  const Mrf mrf = random_mrf(3, 2, 0.5, rng);
  BpOptions bad;
  bad.damping = 1.0;
  EXPECT_THROW(BpSolver().solve_bp(mrf, bad), icsdiv::InvalidArgument);
}

TEST(Decompose, ComponentsFoundCorrectly) {
  Mrf mrf;
  for (int i = 0; i < 6; ++i) mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {1, 0, 0, 1});
  mrf.add_edge(0, 1, m);
  mrf.add_edge(1, 2, m);
  mrf.add_edge(4, 5, m);
  const auto components = mrf_components(mrf);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<VariableId>{0, 1, 2}));
  EXPECT_EQ(components[1], (std::vector<VariableId>{3}));
  EXPECT_EQ(components[2], (std::vector<VariableId>{4, 5}));
}

TEST(Decompose, MatchesWholeProblemSolve) {
  support::Rng rng(77);
  // Two disjoint blobs in one MRF.
  Mrf mrf;
  for (int i = 0; i < 10; ++i) {
    const VariableId v = mrf.add_variable(3);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(9);
  for (auto& c : data) c = rng.uniform();
  const MatrixId m = mrf.add_matrix(3, 3, std::move(data));
  for (VariableId v = 0; v < 4; ++v) mrf.add_edge(v, v + 1, m);
  for (VariableId v = 5; v < 9; ++v) mrf.add_edge(v, v + 1, m);

  const TrwsSolver base;
  const SolveResult whole = base.solve(mrf);
  const SolveResult split = DecomposedSolver(base, /*parallel=*/true).solve(mrf, SolveOptions{});
  EXPECT_NEAR(split.energy, whole.energy, 1e-9);
  EXPECT_NEAR(split.lower_bound, whole.lower_bound, 1e-6);
  EXPECT_NEAR(mrf.energy(split.labels), split.energy, 1e-12);
}

TEST(Decompose, SubproblemExtractionValidatesClosure) {
  Mrf mrf;
  mrf.add_variable(2);
  mrf.add_variable(2);
  const MatrixId m = mrf.add_matrix(2, 2, {0, 1, 1, 0});
  mrf.add_edge(0, 1, m);
  EXPECT_THROW(extract_subproblem(mrf, {0}), icsdiv::InvalidArgument);
}

/// Random MRF with several components and every shape the one-pass split
/// must carry over: isolated and one-label variables, parallel edges (both
/// orientations), a matrix shared per label-count pair and per-edge
/// matrices.  Variables are dealt round-robin into at most six groups and
/// edges stay inside a group, so components are small enough for the
/// exhaustive solver.
Mrf random_multicomponent_mrf(support::Rng& rng) {
  Mrf mrf;
  const std::size_t n = 6 + rng.index(13);
  const std::size_t groups = 3 + rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    const VariableId v = mrf.add_variable(1 + rng.index(3));
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  const auto random_matrix = [&](std::size_t rows, std::size_t cols) {
    std::vector<Cost> data(rows * cols);
    for (auto& cost : data) cost = rng.uniform();
    return mrf.add_matrix(rows, cols, std::move(data));
  };
  std::map<std::pair<std::size_t, std::size_t>, MatrixId> shared;
  const auto add_edge = [&](VariableId u, VariableId v) {
    const std::size_t rows = mrf.label_count(u);
    const std::size_t cols = mrf.label_count(v);
    MatrixId matrix = 0;
    if (rng.bernoulli(0.5)) {
      const auto it = shared.find({rows, cols});
      matrix = it != shared.end() ? it->second : random_matrix(rows, cols);
      shared.emplace(std::make_pair(rows, cols), matrix);
    } else {
      matrix = random_matrix(rows, cols);
    }
    mrf.add_edge(u, v, matrix);
  };
  const VariableId isolated = static_cast<VariableId>(rng.index(n));
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const auto u = static_cast<VariableId>(rng.index(n));
    const auto v = static_cast<VariableId>(rng.index(n));
    if (u == v || u % groups != v % groups || u == isolated || v == isolated) continue;
    add_edge(u, v);
    if (rng.bernoulli(0.2)) add_edge(u, v);
    if (rng.bernoulli(0.2)) add_edge(v, u);
  }
  return mrf;
}

void expect_same_mrf(const Mrf& actual, const Mrf& expected) {
  ASSERT_EQ(actual.variable_count(), expected.variable_count());
  for (VariableId v = 0; v < expected.variable_count(); ++v) {
    const auto a = actual.unary(v);
    const auto e = expected.unary(v);
    EXPECT_EQ(std::vector<Cost>(a.begin(), a.end()), std::vector<Cost>(e.begin(), e.end()));
  }
  ASSERT_EQ(actual.matrix_count(), expected.matrix_count());
  for (MatrixId m = 0; m < expected.matrix_count(); ++m) {
    EXPECT_EQ(actual.matrix(m).rows, expected.matrix(m).rows);
    EXPECT_EQ(actual.matrix(m).cols, expected.matrix(m).cols);
    EXPECT_EQ(actual.matrix(m).data, expected.matrix(m).data);
  }
  ASSERT_EQ(actual.edge_count(), expected.edge_count());
  for (std::size_t e = 0; e < expected.edge_count(); ++e) {
    EXPECT_EQ(actual.edges()[e].u, expected.edges()[e].u);
    EXPECT_EQ(actual.edges()[e].v, expected.edges()[e].v);
    EXPECT_EQ(actual.edges()[e].matrix, expected.edges()[e].matrix);
  }
  EXPECT_EQ(actual.incident_edges(), expected.incident_edges());
}

TEST(Decompose, OnePassSplitEqualsPerComponentExtraction) {
  support::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const Mrf mrf = random_multicomponent_mrf(rng);
    const auto components = mrf_components(mrf);
    const ComponentSplit split(mrf);
    ASSERT_EQ(split.size(), components.size()) << "trial " << trial;
    for (std::size_t c = 0; c < components.size(); ++c) {
      const SubProblem actual = split.extract(c);
      const SubProblem expected = extract_subproblem(mrf, components[c]);
      EXPECT_EQ(actual.parent_variable, expected.parent_variable);
      expect_same_mrf(actual.mrf, expected.mrf);
    }
    EXPECT_THROW((void)split.extract(components.size()), icsdiv::InvalidArgument);
  }
  EXPECT_EQ(ComponentSplit(Mrf{}).size(), 0u);
}

TEST(Decompose, SplitOfSparselySpreadComponentKeepsParentOrder) {
  // Component {0, 1} owns edges 0, 300 (reversed) and 599; the edges
  // between them form a chain over variables 2–9.  The first component's
  // edge ids are too sparse for the bitmap walk, so they are sorted.
  Mrf mrf;
  for (int v = 0; v < 10; ++v) mrf.add_variable(2);
  const MatrixId a = mrf.add_matrix(2, 2, {0, 1, 1, 0});
  const MatrixId b = mrf.add_matrix(2, 2, {1, 0, 0, 1});
  mrf.add_edge(0, 1, a);
  for (int e = 1; e < 599; ++e) {
    if (e == 300) mrf.add_edge(1, 0, b);
    else mrf.add_edge(static_cast<VariableId>(2 + e % 7), static_cast<VariableId>(3 + e % 7), b);
  }
  mrf.add_edge(0, 1, b);
  const auto components = mrf_components(mrf);
  const ComponentSplit split(mrf);
  ASSERT_EQ(split.size(), components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    const SubProblem actual = split.extract(c);
    const SubProblem expected = extract_subproblem(mrf, components[c]);
    EXPECT_EQ(actual.parent_variable, expected.parent_variable);
    expect_same_mrf(actual.mrf, expected.mrf);
  }
  EXPECT_EQ(split.extract(0).mrf.edge_count(), 3u);
}

/// The decomposed solve as it was built before the one-pass split: one
/// extract_subproblem per component, solved and merged in order.
SolveResult per_component_reference(const Solver& base, const Mrf& mrf,
                                    const SolveOptions& options) {
  SolveResult merged;
  merged.labels.assign(mrf.variable_count(), 0);
  merged.energy = 0;
  merged.lower_bound = 0;
  merged.converged = true;
  for (const auto& component : mrf_components(mrf)) {
    const SubProblem sub = extract_subproblem(mrf, component);
    const SolveResult r = base.solve(sub.mrf, options);
    for (std::size_t i = 0; i < sub.parent_variable.size(); ++i) {
      merged.labels[sub.parent_variable[i]] = r.labels[i];
    }
    merged.energy += r.energy;
    merged.lower_bound += r.lower_bound;
    merged.iterations = std::max(merged.iterations, r.iterations);
    merged.converged = merged.converged && r.converged;
    merged.truncated = merged.truncated || r.truncated;
  }
  return merged;
}

TEST(Decompose, EveryRegisteredSolverMatchesPerComponentReference) {
  support::Rng rng(4048);
  SolveOptions options;
  options.max_iterations = 20;
  const SolverRegistry& registry = SolverRegistry::instance();
  for (int trial = 0; trial < 8; ++trial) {
    const Mrf mrf = random_multicomponent_mrf(rng);
    for (const std::string& name : registry.names()) {
      const std::unique_ptr<Solver> base = registry.create(name);
      const SolveResult expected = per_component_reference(*base, mrf, options);
      for (const bool parallel : {false, true}) {
        const SolveResult actual = DecomposedSolver(*base, parallel).solve(mrf, options);
        const std::string where = name + (parallel ? " parallel" : " serial") + " trial " +
                                  std::to_string(trial);
        EXPECT_EQ(actual.labels, expected.labels) << where;
        EXPECT_EQ(actual.energy, expected.energy) << where;
        EXPECT_EQ(actual.lower_bound, expected.lower_bound) << where;
        EXPECT_EQ(actual.iterations, expected.iterations) << where;
        EXPECT_EQ(actual.converged, expected.converged) << where;
        EXPECT_EQ(actual.truncated, expected.truncated) << where;
      }
    }
  }
}

TEST(Multilevel, SolvesAndMatchesEnergyEvaluation) {
  support::Rng rng(31);
  const Mrf mrf = random_mrf(40, 3, 0.15, rng);
  const TrwsSolver base;
  const MultilevelSolver solver(base, MultilevelOptions{.min_variables = 8});
  const SolveResult result = solver.solve(mrf, SolveOptions{});
  EXPECT_EQ(result.labels.size(), mrf.variable_count());
  EXPECT_NEAR(mrf.energy(result.labels), result.energy, 1e-9);

  // Multilevel should stay in the same quality band as plain ICM.  Note:
  // same-label coarsening is a weak fit for anti-ferromagnetic (diversity)
  // energies — merged pairs are forced onto one label, which these
  // energies penalise — so we assert a band, not dominance (bench A3
  // quantifies the trade-off).
  const SolveResult icm = IcmSolver().solve(mrf);
  EXPECT_LE(result.energy, icm.energy * 1.2);
}

TEST(Multilevel, FallsBackWhenNothingContractable) {
  // Variables with differing label counts cannot be matched.
  Mrf mrf;
  mrf.add_variable(2);
  mrf.add_variable(3);
  const MatrixId m = mrf.add_matrix(2, 3, {0, 1, 2, 3, 4, 5});
  mrf.add_edge(0, 1, m);
  const TrwsSolver base;
  const MultilevelSolver solver(base, MultilevelOptions{.min_variables = 1});
  const SolveResult result = solver.solve(mrf, SolveOptions{});
  EXPECT_DOUBLE_EQ(result.energy, 0.0);  // labels (0, 0)
}

TEST(SolveOptions, InitialLabelsValidated) {
  Mrf mrf;
  mrf.add_variable(2);
  SolveOptions options;
  options.initial_labels = {5};
  EXPECT_THROW(TrwsSolver().solve(mrf, options), icsdiv::InvalidArgument);
  EXPECT_THROW(IcmSolver().solve(mrf, options), icsdiv::InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::mrf
