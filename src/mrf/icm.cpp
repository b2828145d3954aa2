#include "mrf/icm.hpp"

#include <algorithm>

#include "support/stopwatch.hpp"

namespace icsdiv::mrf {

SolveResult IcmSolver::solve(const Mrf& mrf, const SolveOptions& options) const {
  const CompiledMrf compiled(mrf);
  return solve_compiled(compiled, options);
}

SolveResult IcmSolver::solve_compiled(const CompiledMrf& compiled,
                                      const SolveOptions& options) const {
  support::Stopwatch watch;
  const Mrf& mrf = compiled.mrf();
  SolveResult result;
  const std::size_t n = compiled.variable_count();
  result.labels.assign(n, 0);
  if (!options.initial_labels.empty()) {
    mrf.check_labeling(options.initial_labels);
    result.labels = options.initial_labels;
  }
  if (n == 0) {
    result.energy = 0;
    result.converged = true;
    return result;
  }

  std::vector<Cost> score_store(compiled.max_label_count());
  Cost* score = score_store.data();

  bool changed = true;
  std::size_t iteration = 0;
  while (changed && iteration < options.max_iterations) {
    if (options.cancel.expired()) {
      // ICM is monotone coordinate descent: the current labels are the
      // best assignment seen, so return them tagged truncated.
      result.truncated = true;
      break;
    }
    changed = false;
    ++iteration;
    for (VariableId i = 0; i < n; ++i) {
      const std::size_t count = compiled.label_count(i);
      const Cost* unary = compiled.unary(i);
      std::copy(unary, unary + count, score);
      for (const CompiledIncident& in : compiled.incident(i)) {
        // The neighbour's fixed label selects one contiguous row of the
        // reverse-oriented matrix view (transposed cache when this end is
        // `u`), replacing the historical column-strided m.at(x, other).
        const Cost* row =
            in.recv + static_cast<std::size_t>(result.labels[in.other]) * count;
        for (std::size_t x = 0; x < count; ++x) score[x] += row[x];
      }
      const auto best = static_cast<Label>(std::min_element(score, score + count) - score);
      if (best != result.labels[i] && score[best] < score[result.labels[i]]) {
        result.labels[i] = best;
        changed = true;
      }
    }
  }

  result.energy = mrf.energy(result.labels);
  result.iterations = iteration;
  result.converged = !changed;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace icsdiv::mrf
