// Services and products (Def. 2's S and P) with pairwise vulnerability
// similarity.
//
// A ProductCatalog owns the universe of services (OS, web browser,
// database, ...) and the diverse products that can provide each service,
// together with the per-service similarity values sim(x_i, x_j) from
// Def. 1.  Catalogs are typically populated from nvd::SimilarityTable
// (add_service_from_table) but can be built by hand for experiments.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nvd/similarity.hpp"
#include "support/error.hpp"

namespace icsdiv::core {

using ServiceId = std::uint32_t;
using ProductId = std::uint32_t;

struct Service {
  std::string name;
};

struct Product {
  std::string name;
  ServiceId service;
};

class ProductCatalog {
 public:
  ProductCatalog() = default;

  ServiceId add_service(std::string name);
  /// Adds a product providing `service`; names must be unique per service.
  ProductId add_product(ServiceId service, std::string name);

  /// Imports a whole similarity table as one service: every product row
  /// becomes a product, and all pairwise similarities are registered.
  ServiceId add_service_from_table(std::string name, const nvd::SimilarityTable& table);

  [[nodiscard]] std::size_t service_count() const noexcept { return services_.size(); }
  [[nodiscard]] std::size_t product_count() const noexcept { return products_.size(); }

  [[nodiscard]] const Service& service(ServiceId id) const;
  [[nodiscard]] const Product& product(ProductId id) const;

  [[nodiscard]] std::optional<ServiceId> find_service(std::string_view name) const noexcept;
  [[nodiscard]] std::optional<ProductId> find_product(ServiceId service,
                                                      std::string_view name) const noexcept;
  /// Throwing lookups for call sites where absence is a bug.
  [[nodiscard]] ServiceId service_id(std::string_view name) const;
  [[nodiscard]] ProductId product_id(ServiceId service, std::string_view name) const;

  /// Products providing a given service, in registration order.
  [[nodiscard]] const std::vector<ProductId>& products_of(ServiceId service) const;

  /// Registers sim(a, b) = sim(b, a) = value; products must share a service.
  void set_similarity(ProductId a, ProductId b, double value);

  /// Def. 1 similarity; 1 for identical products, otherwise the registered
  /// value (default 0 — "no statistical evidence of shared vulnerability").
  /// Products of different services throw (the pairwise cost of Eq. 3 only
  /// compares products of the same service).
  [[nodiscard]] double similarity(ProductId a, ProductId b) const;

 private:
  std::vector<Service> services_;
  std::vector<Product> products_;
  std::vector<std::vector<ProductId>> by_service_;
  /// Dense similarity of each service: the strict lower triangle over the
  /// products' positions in by_service_, entry (i, j), i > j, at
  /// i(i − 1)/2 + j.  Empty (all zero) until the service's first
  /// set_similarity; from then on every added product appends its row.
  std::vector<std::vector<double>> similarity_;  ///< per service
  std::vector<std::size_t> position_;            ///< product → index in by_service_
  [[nodiscard]] std::size_t slot(ProductId a, ProductId b) const noexcept;
};

}  // namespace icsdiv::core
