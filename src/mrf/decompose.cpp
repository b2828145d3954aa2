#include "mrf/decompose.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::mrf {

namespace {

/// Small union–find over variable ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

/// Component id of every variable, components numbered by their smallest
/// variable id; returns the component count through `count`.
std::vector<std::size_t> component_ids(const Mrf& mrf, std::size_t& count) {
  UnionFind uf(mrf.variable_count());
  for (const MrfEdge& edge : mrf.edges()) uf.merge(edge.u, edge.v);

  // A root is its component's smallest variable, so it is met first.
  std::vector<std::size_t> component(mrf.variable_count(), kUnset);
  count = 0;
  for (VariableId v = 0; v < mrf.variable_count(); ++v) {
    const std::size_t root = uf.find(v);
    if (component[root] == kUnset) component[root] = count++;
    component[v] = component[root];
  }
  return component;
}

}  // namespace

std::vector<std::vector<VariableId>> mrf_components(const Mrf& mrf) {
  std::size_t count = 0;
  const std::vector<std::size_t> component = component_ids(mrf, count);
  std::vector<std::vector<VariableId>> components(count);
  for (VariableId v = 0; v < mrf.variable_count(); ++v) components[component[v]].push_back(v);
  return components;
}

ComponentSplit::ComponentSplit(const Mrf& mrf) : mrf_(mrf) {
  std::size_t count = 0;
  const std::vector<std::size_t> component = component_ids(mrf, count);

  // Stable counting sort by component: variables stay ascending inside
  // each component.
  variable_offset_.assign(count + 1, 0);
  for (VariableId v = 0; v < mrf.variable_count(); ++v) ++variable_offset_[component[v] + 1];
  for (std::size_t c = 0; c < count; ++c) variable_offset_[c + 1] += variable_offset_[c];
  variables_.resize(mrf.variable_count());
  local_.resize(mrf.variable_count());
  std::vector<std::size_t> cursor(variable_offset_.begin(), variable_offset_.end() - 1);
  for (VariableId v = 0; v < mrf.variable_count(); ++v) {
    const std::size_t slot = cursor[component[v]]++;
    variables_[slot] = v;
    local_[v] = static_cast<VariableId>(slot - variable_offset_[component[v]]);
  }
}

SubProblem ComponentSplit::extract(std::size_t component) const {
  require(component < size(), "ComponentSplit::extract", "component index out of range");
  const std::size_t begin = variable_offset_[component];
  const std::size_t end = variable_offset_[component + 1];
  const auto& incident = mrf_.incident_edges();
  SubProblem sub;
  // Incident lists are ascending, so their ends bound the component's
  // edge ids.
  std::size_t first = std::numeric_limits<std::size_t>::max();
  std::size_t last = 0;
  std::size_t incidences = 0;
  for (std::size_t k = begin; k < end; ++k) {
    const VariableId parent = variables_[k];
    const VariableId local = sub.mrf.add_variable(mrf_.label_count(parent));
    const auto source = mrf_.unary(parent);
    std::copy(source.begin(), source.end(), sub.mrf.unary(local).begin());
    sub.parent_variable.push_back(parent);
    if (!incident[parent].empty()) {
      first = std::min(first, incident[parent].front());
      last = std::max(last, incident[parent].back());
      incidences += incident[parent].size();
    }
  }

  // Copy only the matrices the component uses, in order of first use.
  const auto edges = mrf_.edges();
  std::unordered_map<MatrixId, MatrixId> matrix_map;
  const auto add_edge = [&](std::size_t e) {
    const MrfEdge& edge = edges[e];
    auto [it, inserted] = matrix_map.try_emplace(edge.matrix, 0);
    if (inserted) {
      const CostMatrix& m = mrf_.matrix(edge.matrix);
      it->second = sub.mrf.add_matrix(m.rows, m.cols, m.data);
    }
    sub.mrf.add_edge(local_[edge.u], local_[edge.v], it->second);
  };

  // Edges go in parent order: read off a bitmap over [first, last] when
  // it has fewer words than the component has edge ends, else sorted,
  // each edge taken at its `u` end.
  if (incidences > 0 && (last - first) / 64 < incidences) {
    std::vector<std::uint64_t> marked((last - first) / 64 + 1, 0);
    for (std::size_t k = begin; k < end; ++k) {
      for (const std::size_t e : incident[variables_[k]]) {
        marked[(e - first) / 64] |= std::uint64_t{1} << ((e - first) % 64);
      }
    }
    for (std::size_t word = 0; word < marked.size(); ++word) {
      for (std::uint64_t bits = marked[word]; bits != 0; bits &= bits - 1) {
        add_edge(first + 64 * word + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  } else {
    std::vector<std::size_t> edge_ids;
    for (std::size_t k = begin; k < end; ++k) {
      for (const std::size_t e : incident[variables_[k]]) {
        if (edges[e].u == variables_[k]) edge_ids.push_back(e);
      }
    }
    std::sort(edge_ids.begin(), edge_ids.end());
    for (const std::size_t e : edge_ids) add_edge(e);
  }
  return sub;
}

SubProblem extract_subproblem(const Mrf& mrf, const std::vector<VariableId>& variables) {
  SubProblem sub;
  sub.parent_variable = variables;

  std::unordered_map<VariableId, VariableId> to_sub;
  to_sub.reserve(variables.size());
  for (VariableId parent : variables) {
    const VariableId local = sub.mrf.add_variable(mrf.label_count(parent));
    const auto source = mrf.unary(parent);
    auto target = sub.mrf.unary(local);
    std::copy(source.begin(), source.end(), target.begin());
    to_sub.emplace(parent, local);
  }

  // Copy only the matrices actually referenced, de-duplicated.
  std::unordered_map<MatrixId, MatrixId> matrix_map;
  for (const MrfEdge& edge : mrf.edges()) {
    const auto u_it = to_sub.find(edge.u);
    const auto v_it = to_sub.find(edge.v);
    if (u_it == to_sub.end() && v_it == to_sub.end()) continue;
    require(u_it != to_sub.end() && v_it != to_sub.end(), "extract_subproblem",
            "variable set is not closed under adjacency");
    auto [m_it, inserted] = matrix_map.try_emplace(edge.matrix, 0);
    if (inserted) {
      const CostMatrix& m = mrf.matrix(edge.matrix);
      m_it->second = sub.mrf.add_matrix(m.rows, m.cols, m.data);
    }
    sub.mrf.add_edge(u_it->second, v_it->second, m_it->second);
  }
  return sub;
}

SolveResult DecomposedSolver::solve(const Mrf& mrf, const SolveOptions& options) const {
  support::Stopwatch watch;
  const ComponentSplit split(mrf);

  SolveResult merged;
  merged.labels.assign(mrf.variable_count(), 0);
  merged.energy = 0;
  merged.lower_bound = 0;
  merged.converged = true;

  std::vector<SolveResult> results(split.size());
  const auto solve_component = [&](std::size_t c) {
    // Built on demand, so only the sub-MRFs being solved are alive.
    const SubProblem sub = split.extract(c);
    SolveOptions sub_options = options;
    if (!options.initial_labels.empty()) {
      sub_options.initial_labels.resize(sub.parent_variable.size());
      for (std::size_t i = 0; i < sub.parent_variable.size(); ++i) {
        sub_options.initial_labels[i] = options.initial_labels[sub.parent_variable[i]];
      }
    }
    results[c] = base_.solve(sub.mrf, sub_options);
    // Write-back is per-component disjoint, so no synchronisation needed.
    for (std::size_t i = 0; i < sub.parent_variable.size(); ++i) {
      merged.labels[sub.parent_variable[i]] = results[c].labels[i];
    }
  };

  if (parallel_ && split.size() > 1) {
    support::global_thread_pool().parallel_for(split.size(), solve_component);
  } else {
    for (std::size_t c = 0; c < split.size(); ++c) solve_component(c);
  }

  for (const SolveResult& r : results) {
    merged.energy += r.energy;
    merged.lower_bound += r.lower_bound;
    merged.iterations = std::max(merged.iterations, r.iterations);
    merged.converged = merged.converged && r.converged;
    merged.truncated = merged.truncated || r.truncated;
  }
  merged.seconds = watch.seconds();
  return merged;
}

}  // namespace icsdiv::mrf
