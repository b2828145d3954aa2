#include "mrf/bp.hpp"

#include <algorithm>
#include <cmath>

#include "mrf/kernels.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::mrf {

namespace {

/// Per-shard scratch: one aggregate buffer sized max_label_count plus the
/// sum_rows pointer list, so no allocation happens inside the solve loop.
struct Scratch {
  std::vector<Cost> total;
  std::vector<const Cost*> rows;  ///< sum_rows pointer scratch
};

}  // namespace

SolveResult BpSolver::solve(const Mrf& mrf, const SolveOptions& options) const {
  BpOptions extended = defaults_;
  static_cast<SolveOptions&>(extended) = options;
  return solve_bp(mrf, extended);
}

SolveResult BpSolver::solve_compiled(const CompiledMrf& compiled,
                                     const SolveOptions& options) const {
  BpOptions extended = defaults_;
  static_cast<SolveOptions&>(extended) = options;
  return solve_bp(compiled, extended);
}

SolveResult BpSolver::solve_bp(const Mrf& mrf, const BpOptions& options) const {
  const CompiledMrf compiled(mrf);
  return solve_bp(compiled, options);
}

SolveResult BpSolver::solve_bp(const CompiledMrf& compiled, const BpOptions& options) const {
  support::Stopwatch watch;
  const Mrf& mrf = compiled.mrf();
  SolveResult result;
  const std::size_t n = compiled.variable_count();
  result.labels.assign(n, 0);
  if (n == 0) {
    result.energy = 0;
    result.converged = true;
    return result;
  }
  require(options.damping >= 0.0 && options.damping < 1.0, "BpSolver", "damping must be in [0,1)");
  require(options.decode_interval >= 1, "BpSolver", "decode_interval must be at least 1");

  // Tie-breaking perturbation of the unaries (see BpOptions); messages and
  // beliefs use the perturbed copy, final energies the true potentials.
  std::vector<Cost> unaries(compiled.unary(0), compiled.unary(0) + compiled.unary_size());
  if (options.symmetry_breaking > 0.0) {
    support::Rng noise(options.symmetry_breaking_seed);
    for (Cost& cost : unaries) cost += options.symmetry_breaking * noise.uniform();
  }

  // Double-buffered flat messages in the compiled layout: Jacobi reads
  // `messages`, writes `next_messages`, and swaps.
  std::vector<Cost> messages(compiled.message_size(), 0);
  std::vector<Cost> next_messages(compiled.message_size(), 0);

  if (!options.initial_labels.empty()) {
    mrf.check_labeling(options.initial_labels);
    result.labels = options.initial_labels;
  }
  result.energy = mrf.energy(result.labels);

  // Variable shards: each directed message is written only by its source
  // variable and each label only by its owner, so shard boundaries never
  // change results — only which thread computes them.
  support::ThreadPool* pool = nullptr;
  std::size_t thread_count = options.threads;
  if (thread_count != 1) {
    pool = &support::global_thread_pool();
    if (thread_count == 0) thread_count = pool->size();
  }
  const std::size_t shard_count = std::max<std::size_t>(1, std::min(n, thread_count));
  std::vector<Scratch> scratch(shard_count);
  std::size_t max_incident = 0;
  for (VariableId i = 0; i < n; ++i) {
    max_incident = std::max(max_incident, compiled.incident(i).size());
  }
  for (Scratch& s : scratch) {
    s.total.resize(compiled.max_label_count());
    s.rows.resize(max_incident + 1);
  }
  const auto shard_begin = [&](std::size_t s) { return s * n / shard_count; };

  // One Jacobi update of every message out of variable i.  The aggregate
  // (unary + all incoming messages) is computed once per variable, and each
  // outgoing edge subtracts its own reverse message — O(deg·L) instead of
  // the historical O(deg²·L) per-edge re-aggregation.
  const support::simd::Kernels& k = support::simd::kernels();
  const double keep = 1.0 - options.damping;
  const auto update_variable = [&](VariableId i, Scratch& s, double& local_max) {
    const std::size_t count = compiled.label_count(i);
    const Cost* unary = unaries.data() + compiled.unary_offset(i);
    Cost* total = s.total.data();
    kernels::aggregate(k, compiled, i, unary, messages.data(), total, s.rows.data());
    for (const CompiledIncident& out_edge : compiled.incident(i)) {
      const Cost* reverse = messages.data() + out_edge.msg_in;
      const std::size_t out_count = compiled.label_count(out_edge.other);
      Cost* out = next_messages.data() + out_edge.msg_out;
      // Fused aggregate-subtract + min-convolution; the 1.0 scale is an
      // exact multiply, so this matches the historical sub-then-convolve
      // sequence bit for bit.
      const Cost delta = k.min_convolve2(out, out_edge.send, 1.0, total, reverse, count, out_count);
      const Cost* old = messages.data() + out_edge.msg_out;
      const double block_max = k.damp_update(out, old, delta, options.damping, keep, out_count);
      local_max = std::max(local_max, block_max);
    }
  };

  const auto decode_variable = [&](VariableId i, Scratch& s, std::vector<Label>& labels) {
    const std::size_t count = compiled.label_count(i);
    const Cost* unary = unaries.data() + compiled.unary_offset(i);
    Cost* belief = s.total.data();
    kernels::aggregate(k, compiled, i, unary, messages.data(), belief, s.rows.data());
    labels[i] = static_cast<Label>(std::min_element(belief, belief + count) - belief);
  };

  const auto run_shards = [&](const std::function<void(std::size_t)>& body) {
    if (shard_count == 1 || pool == nullptr) {
      for (std::size_t s = 0; s < shard_count; ++s) body(s);
    } else {
      pool->parallel_for(shard_count, body);
    }
  };

  std::vector<double> shard_delta(shard_count, 0.0);
  std::vector<Label> labels(n, 0);  // decode buffer, hoisted out of the loop

  // The type-erased shard bodies are built once here — everything they
  // capture is stable across iterations — so the solve loop allocates
  // nothing, serial or sharded.
  const std::function<void(std::size_t)> update_shard = [&](std::size_t s) {
    double local_max = 0.0;
    for (VariableId i = shard_begin(s); i < shard_begin(s + 1); ++i) {
      update_variable(i, scratch[s], local_max);
    }
    shard_delta[s] = local_max;
  };
  const std::function<void(std::size_t)> decode_shard = [&](std::size_t s) {
    for (VariableId i = shard_begin(s); i < shard_begin(s + 1); ++i) {
      decode_variable(i, scratch[s], labels);
    }
  };

  for (std::size_t iteration = 1; iteration <= options.max_iterations; ++iteration) {
    run_shards(update_shard);
    double max_delta = 0.0;
    for (const double d : shard_delta) max_delta = std::max(max_delta, d);
    messages.swap(next_messages);
    result.iterations = iteration;

    const bool converged_now = max_delta < options.tolerance;
    const bool expired = options.cancel.expired();
    const bool last = iteration == options.max_iterations;

    // Decode from beliefs and keep the best labeling seen (BP can cycle).
    // The O(E) energy evaluation is amortised by decode_interval.
    if (converged_now || expired || last || iteration % options.decode_interval == 0) {
      run_shards(decode_shard);
      const Cost energy = mrf.energy(labels);
      if (energy < result.energy) {
        result.energy = energy;
        result.labels = labels;
      }
    }

    if (converged_now) {
      result.converged = true;
      break;
    }
    if (expired) {
      result.truncated = true;
      break;
    }
  }

  result.seconds = watch.seconds();
  return result;
}

}  // namespace icsdiv::mrf
