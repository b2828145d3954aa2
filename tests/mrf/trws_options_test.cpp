// Solver option paths: deadlines, primal tracking, warm starts, the
// spanning-forest bound's guarantees across random instances, and the
// message fixed-point replay.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/problem.hpp"
#include "mrf/exhaustive.hpp"
#include "mrf/icm.hpp"
#include "mrf/trws.hpp"
#include "runner/scenario.hpp"
#include "runner/workload.hpp"
#include "support/rng.hpp"

namespace icsdiv::mrf {
namespace {

Mrf random_instance(std::uint64_t seed, std::size_t n, std::size_t labels, double density) {
  support::Rng rng(seed);
  Mrf mrf;
  for (std::size_t i = 0; i < n; ++i) {
    const VariableId v = mrf.add_variable(labels);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(labels * labels);
  for (std::size_t a = 0; a < labels; ++a) {
    for (std::size_t b = a; b < labels; ++b) {
      const double value = a == b ? 1.0 : 0.5 * rng.uniform();
      data[a * labels + b] = data[b * labels + a] = value;
    }
  }
  const MatrixId m = mrf.add_matrix(labels, labels, std::move(data));
  for (VariableId u = 0; u < n; ++u) {
    for (VariableId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(density)) mrf.add_edge(u, v, m);
    }
  }
  return mrf;
}

TEST(TrwsOptions, TrackBestPrimalOffStillReturnsPolishedLabels) {
  const Mrf mrf = random_instance(3, 20, 3, 0.2);
  TrwsOptions options;
  options.track_best_primal = false;
  options.max_iterations = 20;
  const SolveResult off = TrwsSolver().solve_trws(mrf, options);

  SolveOptions defaults;
  defaults.max_iterations = 20;
  const SolveResult on = TrwsSolver().solve(mrf, defaults);

  EXPECT_NEAR(mrf.energy(off.labels), off.energy, 1e-12);
  // Per-iteration tracking can only match or beat final-only extraction.
  EXPECT_LE(on.energy, off.energy + 1e-9);
}

TEST(TrwsOptions, DeadlineStopsEarlyAndTruncates) {
  const Mrf mrf = random_instance(5, 60, 4, 0.3);
  SolveOptions options;
  options.max_iterations = 100000;
  options.tolerance = 0.0;  // never converge by tolerance
  options.cancel = support::CancelToken::after_ms(20);
  const SolveResult result = TrwsSolver().solve(mrf, options);
  EXPECT_LT(result.iterations, 100000u);
  EXPECT_LT(result.seconds, 2.0);
  // A wall-clock stop is flagged, so no cache keeps it as the solve.
  EXPECT_TRUE(result.truncated);
  EXPECT_FALSE(result.converged);
  EXPECT_NEAR(mrf.energy(result.labels), result.energy, 1e-12);
}

TEST(TrwsOptions, MaxIterationsRespected) {
  const Mrf mrf = random_instance(7, 15, 3, 0.3);
  SolveOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  const SolveResult result = TrwsSolver().solve(mrf, options);
  EXPECT_EQ(result.iterations, 3u);
}

class BoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundSweep, BoundIsValidAndImproves) {
  const Mrf mrf = random_instance(GetParam(), 8, 3, 0.35);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);

  SolveOptions one_iteration;
  one_iteration.max_iterations = 1;
  const SolveResult early = TrwsSolver().solve(mrf, one_iteration);
  SolveOptions many;
  many.max_iterations = 60;
  const SolveResult late = TrwsSolver().solve(mrf, many);

  // Valid at every stage...
  EXPECT_LE(early.lower_bound, exact.energy + 1e-9);
  EXPECT_LE(late.lower_bound, exact.energy + 1e-9);
  // ...and no worse after more iterations (best-so-far is reported).
  EXPECT_GE(late.lower_bound, early.lower_bound - 1e-9);
}

TEST_P(BoundSweep, TreeInstancesSolveToProvenOptimality) {
  support::Rng rng(GetParam() * 101);
  // Random spanning tree over 12 variables.
  Mrf mrf;
  for (int i = 0; i < 12; ++i) {
    const VariableId v = mrf.add_variable(3);
    for (auto& cost : mrf.unary(v)) cost = rng.uniform();
  }
  std::vector<Cost> data(9);
  for (auto& c : data) c = rng.uniform();
  const MatrixId m = mrf.add_matrix(3, 3, std::move(data));
  for (VariableId v = 1; v < 12; ++v) {
    mrf.add_edge(static_cast<VariableId>(rng.index(v)), v, m);
  }
  const SolveResult result = TrwsSolver().solve(mrf);
  const SolveResult exact = ExhaustiveSolver().solve(mrf);
  EXPECT_NEAR(result.energy, exact.energy, 1e-9);
  // The forest bound covers every edge of a tree: certificate is tight.
  EXPECT_NEAR(result.lower_bound, exact.energy, 1e-9);
  EXPECT_LE(result.gap(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundSweep, ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---------------------------------------------------------------------------
// Message fixed-point replay (DESIGN.md §5).  Once a full TRW-S iteration
// leaves every message bit-identical, later iterations reuse its bound and
// extraction instead of sweeping.  The pins below were captured before the
// replay existed, on a §VIII workload (300 hosts, degree 8, 2 services × 4
// products, seed 2020): unpinned, every component reaches the fixed point
// within two iterations; pinned (every 4th host's first service fixed),
// the pinned component does not.

std::uint64_t label_digest(const std::vector<Label>& labels) {
  std::uint64_t h = 1469598103934665603ull;
  for (Label l : labels) {
    h ^= l;
    h *= 1099511628211ull;
  }
  return h;
}

struct FixedPointPin {
  const char* recipe;
  Cost tolerance;
  bool track_best_primal;
  std::size_t max_iterations;
  Cost energy;
  Cost lower_bound;
  std::size_t iterations;
  bool converged;
  std::uint64_t digest;
};

constexpr FixedPointPin kFixedPointPins[] = {
    {"none", 0, true, 1, 223.56216252776079, 6, 1, false, 10782888773314734865ull},
    {"none", 0, true, 2, 223.56216252776079, 6, 2, false, 10782888773314734865ull},
    {"none", 0, true, 10, 223.56216252776079, 6, 10, false, 10782888773314734865ull},
    {"none", 0, false, 1, 223.56216252776079, 6, 1, false, 10782888773314734865ull},
    {"none", 0, false, 2, 223.56216252776079, 6, 2, false, 10782888773314734865ull},
    {"none", 0, false, 10, 223.56216252776079, 6, 10, false, 10782888773314734865ull},
    {"none", 1e-9, true, 1, 223.56216252776079, 6, 1, false, 10782888773314734865ull},
    {"none", 1e-9, true, 2, 223.56216252776079, 6, 2, true, 10782888773314734865ull},
    {"none", 1e-9, true, 10, 223.56216252776079, 6, 2, true, 10782888773314734865ull},
    {"none", 1e-9, false, 1, 223.56216252776079, 6, 1, false, 10782888773314734865ull},
    {"none", 1e-9, false, 2, 223.56216252776079, 6, 2, true, 10782888773314734865ull},
    {"none", 1e-9, false, 10, 223.56216252776079, 6, 2, true, 10782888773314734865ull},
    {"pinned", 0, true, 1, 284.12515853390244, 88.107889449876566, 1, false,
     11050508549074847100ull},
    {"pinned", 0, true, 2, 284.04485065699629, 115.92821174266302, 2, false,
     10113223345922807417ull},
    {"pinned", 0, true, 10, 278.51949605157949, 129.99471041146973, 10, false,
     9271506288081060688ull},
    {"pinned", 0, false, 1, 284.12515853390244, 88.107889449876566, 1, false,
     11050508549074847100ull},
    {"pinned", 0, false, 2, 284.04485065699629, 115.92821174266302, 2, false,
     10113223345922807417ull},
    {"pinned", 0, false, 10, 278.51949605157949, 129.99471041146973, 10, false,
     9271506288081060688ull},
    {"pinned", 1e-9, true, 1, 284.12515853390244, 88.107889449876566, 1, false,
     11050508549074847100ull},
    {"pinned", 1e-9, true, 2, 284.04485065699629, 115.92821174266302, 2, false,
     10113223345922807417ull},
    {"pinned", 1e-9, true, 10, 278.51949605157949, 129.99471041146973, 10, false,
     9271506288081060688ull},
    {"pinned", 1e-9, false, 1, 284.12515853390244, 88.107889449876566, 1, false,
     11050508549074847100ull},
    {"pinned", 1e-9, false, 2, 284.04485065699629, 115.92821174266302, 2, false,
     10113223345922807417ull},
    {"pinned", 1e-9, false, 10, 278.51949605157949, 129.99471041146973, 10, false,
     9271506288081060688ull},
};

const runner::WorkloadInstance& fixed_point_workload() {
  static const runner::WorkloadInstance instance = [] {
    runner::WorkloadParams params;
    params.hosts = 300;
    params.average_degree = 8.0;
    params.services = 2;
    params.products_per_service = 4;
    params.seed = 2020;
    return runner::make_workload(params);
  }();
  return instance;
}

core::DiversificationProblem fixed_point_problem(const std::string& recipe) {
  const core::Network& network = *fixed_point_workload().network;
  return core::DiversificationProblem(network, runner::apply_constraint_recipe(recipe, network));
}

class FixedPointReplay : public ::testing::TestWithParam<FixedPointPin> {};

TEST_P(FixedPointReplay, MatchesPreReplayPins) {
  const FixedPointPin& pin = GetParam();
  const core::DiversificationProblem problem = fixed_point_problem(pin.recipe);
  TrwsOptions options;
  options.tolerance = pin.tolerance;
  options.track_best_primal = pin.track_best_primal;
  options.max_iterations = pin.max_iterations;
  const SolveResult result = TrwsSolver().solve_trws(problem.mrf(), options);
  EXPECT_DOUBLE_EQ(result.energy, pin.energy);
  EXPECT_DOUBLE_EQ(result.lower_bound, pin.lower_bound);
  EXPECT_EQ(result.iterations, pin.iterations);
  EXPECT_EQ(result.converged, pin.converged);
  EXPECT_EQ(label_digest(result.labels), pin.digest);
  EXPECT_FALSE(result.truncated);
}

INSTANTIATE_TEST_SUITE_P(Pins, FixedPointReplay, ::testing::ValuesIn(kFixedPointPins),
                         [](const auto& param_info) {
                           const FixedPointPin& pin = param_info.param;
                           return std::string(pin.recipe) + "_tol" +
                                  (pin.tolerance == 0 ? "0" : "1e9") +
                                  (pin.track_best_primal ? "_track" : "_final") + "_it" +
                                  std::to_string(pin.max_iterations);
                         });

TEST(FixedPointReplay, LongToleranceZeroRunAgreesWithShortOne) {
  const core::DiversificationProblem problem = fixed_point_problem("none");
  SolveOptions options;
  options.tolerance = 0.0;  // never converges: every iteration runs
  options.max_iterations = 10;
  const SolveResult short_run = TrwsSolver().solve(problem.mrf(), options);
  options.max_iterations = 5000;
  const SolveResult long_run = TrwsSolver().solve(problem.mrf(), options);
  EXPECT_EQ(short_run.iterations, 10u);
  EXPECT_EQ(long_run.iterations, 5000u);
  EXPECT_EQ(long_run.labels, short_run.labels);
  EXPECT_EQ(long_run.energy, short_run.energy);
  EXPECT_EQ(long_run.lower_bound, short_run.lower_bound);
  EXPECT_EQ(long_run.converged, short_run.converged);
  EXPECT_EQ(long_run.truncated, short_run.truncated);
}

TEST(IcmOptions, WarmStartPreserved) {
  const Mrf mrf = random_instance(9, 10, 3, 0.0);  // no edges: unary argmin
  SolveOptions options;
  options.initial_labels.assign(10, 2);
  const SolveResult result = mrf::IcmSolver().solve(mrf, options);
  // With no pairwise terms ICM lands on the per-variable unary argmin.
  for (VariableId v = 0; v < 10; ++v) {
    const auto unary = mrf.unary(v);
    const auto best = std::min_element(unary.begin(), unary.end()) - unary.begin();
    EXPECT_EQ(result.labels[v], static_cast<Label>(best));
  }
}

}  // namespace
}  // namespace icsdiv::mrf
