// Independent-component decomposition of an MRF.
//
// The diversification energy (Eq. 1) couples two variables only when they
// are the same service on connected hosts, or when an intra-host
// configuration constraint ties two services together.  Without intra-host
// constraints the MRF therefore decomposes into one independent subproblem
// per service — the structural fact behind the paper's "parallel
// computation" scaling (§V-C).  This module finds the connected components
// of an arbitrary MRF and solves them independently, optionally across the
// global thread pool.
#pragma once

#include <vector>

#include "mrf/solver.hpp"

namespace icsdiv::mrf {

/// Groups variable ids by connected component (union–find over edges);
/// components are ordered by their smallest variable id.
[[nodiscard]] std::vector<std::vector<VariableId>> mrf_components(const Mrf& mrf);

/// A sub-MRF together with the mapping back to the parent's variable ids.
struct SubProblem {
  Mrf mrf;
  std::vector<VariableId> parent_variable;  ///< sub id → parent id
};

/// Extracts the sub-MRF induced by `variables` (which must be closed under
/// edge adjacency, e.g. a component from mrf_components).
[[nodiscard]] SubProblem extract_subproblem(const Mrf& mrf,
                                            const std::vector<VariableId>& variables);

/// The connected components of an MRF, indexed in one O(V + E) pass.
/// extract(c) then builds component c's sub-MRF from the model's incident
/// lists, equal field by field to extract_subproblem(mrf,
/// mrf_components(mrf)[c]): variables in ascending parent order, edges in
/// parent order, matrices de-duplicated in order of first use.  It costs
/// O(V_c + E_c) when the component's edge ids span fewer than 64 per edge
/// end, else O(V_c + E_c log E_c).  The index holds 8 bytes per variable
/// and nothing per edge.  It borrows `mrf`, which must outlive it;
/// extract() may run concurrently.
class ComponentSplit {
 public:
  explicit ComponentSplit(const Mrf& mrf);

  [[nodiscard]] std::size_t size() const noexcept { return variable_offset_.size() - 1; }
  [[nodiscard]] SubProblem extract(std::size_t component) const;

 private:
  const Mrf& mrf_;
  std::vector<std::size_t> variable_offset_;  ///< per component, into variables_
  std::vector<VariableId> variables_;         ///< grouped by component, ascending
  std::vector<VariableId> local_;             ///< parent variable → id in its sub-MRF
};

/// Solves each component with `base`, in parallel when `parallel` is set,
/// and merges labels; energies and bounds add across components.
class DecomposedSolver final : public Solver {
 public:
  explicit DecomposedSolver(const Solver& base, bool parallel = true)
      : base_(base), parallel_(parallel) {}

  using Solver::solve;

  [[nodiscard]] std::string name() const override {
    return "decomposed(" + base_.name() + ")";
  }
  [[nodiscard]] SolveResult solve(const Mrf& mrf, const SolveOptions& options) const override;

 private:
  const Solver& base_;
  bool parallel_;
};

}  // namespace icsdiv::mrf
