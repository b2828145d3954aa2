#include "core/optimizer.hpp"

#include "core/metrics.hpp"
#include "mrf/decompose.hpp"
#include "mrf/registry.hpp"

namespace icsdiv::core {

std::unique_ptr<mrf::Solver> make_solver(const std::string& name) {
  return mrf::SolverRegistry::instance().create(name);
}

OptimizeOutcome Optimizer::optimize(const ConstraintSet& constraints,
                                    const OptimizeOptions& options) const {
  const DiversificationProblem problem(*network_, constraints, options.problem);
  return optimize_problem(problem, options);
}

OptimizeOutcome Optimizer::optimize_problem(const DiversificationProblem& problem,
                                            const OptimizeOptions& options) const {
  const std::unique_ptr<mrf::Solver> base = make_solver(options.solver);

  mrf::SolveResult solve_result;
  if (options.decompose) {
    const mrf::DecomposedSolver decomposed(*base, options.parallel);
    solve_result = decomposed.solve(problem.mrf(), options.solve);
  } else {
    // Whole-problem solves share the problem's cached compiled view, so a
    // repeated optimize_problem call (solver comparisons, option sweeps)
    // pays the CSR/transpose compilation once.
    solve_result = base->solve_compiled(problem.compiled(), options.solve);
  }

  OptimizeOutcome outcome{problem.decode(solve_result.labels), std::move(solve_result)};
  const EdgeSimilarity similarity = edge_similarity(outcome.assignment);
  outcome.pairwise_similarity = similarity.total;
  outcome.average_similarity = similarity.average();
  outcome.constraints_satisfied = problem.constraints().satisfied_by(outcome.assignment);
  return outcome;
}

}  // namespace icsdiv::core
