#include "core/metrics.hpp"

#include <cmath>

namespace icsdiv::core {

namespace {

/// Applies `body(u, v, service, product_u, product_v)` to every link and
/// shared assigned service.
template <typename Body>
void for_each_shared_service(const Assignment& assignment, Body&& body) {
  const Network& network = assignment.network();
  for (const graph::Edge& link : network.topology().edges()) {
    for (const ServiceInstance& instance : network.services_of(link.u)) {
      if (!network.host_runs(link.v, instance.service)) continue;
      const auto product_u = assignment.product_of(link.u, instance.service);
      const auto product_v = assignment.product_of(link.v, instance.service);
      if (!product_u || !product_v) continue;
      body(link.u, link.v, instance.service, *product_u, *product_v);
    }
  }
}

}  // namespace

EdgeSimilarity edge_similarity(const Assignment& assignment) {
  const ProductCatalog& catalog = assignment.network().catalog();
  EdgeSimilarity result;
  for_each_shared_service(assignment,
                          [&](HostId, HostId, ServiceId, ProductId a, ProductId b) {
                            result.total += catalog.similarity(a, b);
                            ++result.terms;
                          });
  return result;
}

double identical_neighbor_ratio(const Assignment& assignment) {
  const Network& network = assignment.network();
  std::size_t links_with_identical = 0;
  std::size_t links_considered = 0;
  for (const graph::Edge& link : network.topology().edges()) {
    bool any_shared = false;
    bool any_identical = false;
    for (const ServiceInstance& instance : network.services_of(link.u)) {
      if (!network.host_runs(link.v, instance.service)) continue;
      const auto product_u = assignment.product_of(link.u, instance.service);
      const auto product_v = assignment.product_of(link.v, instance.service);
      if (!product_u || !product_v) continue;
      any_shared = true;
      any_identical = any_identical || (*product_u == *product_v);
    }
    if (any_shared) {
      ++links_considered;
      if (any_identical) ++links_with_identical;
    }
  }
  return links_considered == 0
             ? 0.0
             : static_cast<double>(links_with_identical) / static_cast<double>(links_considered);
}

std::map<std::string, std::size_t> product_histogram(const Assignment& assignment,
                                                     ServiceId service) {
  const Network& network = assignment.network();
  const ProductCatalog& catalog = network.catalog();
  std::map<std::string, std::size_t> histogram;
  for (HostId host = 0; host < network.host_count(); ++host) {
    if (!network.host_runs(host, service)) continue;
    if (const auto product = assignment.product_of(host, service)) {
      histogram[catalog.product(*product).name] += 1;
    }
  }
  return histogram;
}

double effective_richness(const Assignment& assignment, ServiceId service) {
  const auto histogram = product_histogram(assignment, service);
  double total = 0.0;
  for (const auto& [name, count] : histogram) total += static_cast<double>(count);
  if (total == 0.0) return 0.0;
  double entropy = 0.0;
  for (const auto& [name, count] : histogram) {
    const double p = static_cast<double>(count) / total;
    entropy -= p * std::log(p);
  }
  return std::exp(entropy);
}

double normalized_effective_richness(const Assignment& assignment) {
  const Network& network = assignment.network();
  const ProductCatalog& catalog = network.catalog();
  double sum = 0.0;
  std::size_t services_seen = 0;
  for (ServiceId service = 0; service < catalog.service_count(); ++service) {
    const auto& available = catalog.products_of(service);
    if (available.empty()) continue;
    bool in_use = false;
    for (HostId host = 0; host < network.host_count() && !in_use; ++host) {
      in_use = network.host_runs(host, service);
    }
    if (!in_use) continue;
    sum += effective_richness(assignment, service) / static_cast<double>(available.size());
    ++services_seen;
  }
  return services_seen == 0 ? 0.0 : sum / static_cast<double>(services_seen);
}

}  // namespace icsdiv::core
