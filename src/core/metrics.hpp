// Assignment-level diversity metrics.
//
// Complements the BN-based metric of §VI (see bayes/metric.hpp) with the
// structural measures the related work defines: the Eq. 3 pairwise
// similarity mass, per-service product richness (the "effective number of
// distinct resources" behind Zhang et al.'s d1), and mono-culture ratios.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/assignment.hpp"

namespace icsdiv::core {

/// The Eq. 3 similarity mass of an assignment and the number of (link,
/// shared-service) terms it sums, from one walk over the links.
struct EdgeSimilarity {
  /// Σ over links and shared services of sim(α'(u,s), α'(v,s)) — exactly
  /// the pairwise term of Eq. 1 the optimiser minimises.
  double total = 0.0;
  std::size_t terms = 0;

  /// total / terms (0 without terms); in [0, 1], lower is more diverse.
  [[nodiscard]] double average() const noexcept {
    return terms == 0 ? 0.0 : total / static_cast<double>(terms);
  }
};

[[nodiscard]] EdgeSimilarity edge_similarity(const Assignment& assignment);

/// Fraction of links whose endpoints share ≥1 identical product.
[[nodiscard]] double identical_neighbor_ratio(const Assignment& assignment);

/// Product usage histogram for one service: product name → host count.
[[nodiscard]] std::map<std::string, std::size_t> product_histogram(const Assignment& assignment,
                                                                   ServiceId service);

/// Shannon-effective number of products in use for `service`:
/// exp(−Σ p_i ln p_i).  Equals the plain count when usage is uniform; 1 for
/// a mono-culture — the "effective richness" notion of Zhang et al. [16].
[[nodiscard]] double effective_richness(const Assignment& assignment, ServiceId service);

/// Effective richness averaged over services, normalised by the number of
/// available products (d1-style network diversity in (0, 1]).
[[nodiscard]] double normalized_effective_richness(const Assignment& assignment);

}  // namespace icsdiv::core
