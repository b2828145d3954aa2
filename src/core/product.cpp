#include "core/product.hpp"

#include <algorithm>

namespace icsdiv::core {

ServiceId ProductCatalog::add_service(std::string name) {
  require(!name.empty(), "ProductCatalog::add_service", "service name must not be empty");
  require(!find_service(name).has_value(), "ProductCatalog::add_service",
          "duplicate service name: " + name);
  const auto id = static_cast<ServiceId>(services_.size());
  services_.push_back(Service{std::move(name)});
  by_service_.emplace_back();
  similarity_.emplace_back();
  return id;
}

ProductId ProductCatalog::add_product(ServiceId service, std::string name) {
  require(service < services_.size(), "ProductCatalog::add_product", "unknown service id");
  require(!name.empty(), "ProductCatalog::add_product", "product name must not be empty");
  require(!find_product(service, name).has_value(), "ProductCatalog::add_product",
          "duplicate product name within service: " + name);
  std::vector<ProductId>& members = by_service_[service];
  std::vector<double>& table = similarity_[service];
  if (!table.empty()) table.resize(table.size() + members.size(), 0.0);
  const auto id = static_cast<ProductId>(products_.size());
  products_.push_back(Product{std::move(name), service});
  position_.push_back(members.size());
  members.push_back(id);
  return id;
}

ServiceId ProductCatalog::add_service_from_table(std::string name,
                                                 const nvd::SimilarityTable& table) {
  const ServiceId service = add_service(std::move(name));
  std::vector<ProductId> ids;
  ids.reserve(table.product_count());
  for (const std::string& product_name : table.product_names()) {
    ids.push_back(add_product(service, product_name));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      const double value = table.similarity(i, j);
      if (value > 0.0) set_similarity(ids[i], ids[j], value);
    }
  }
  return service;
}

const Service& ProductCatalog::service(ServiceId id) const {
  require(id < services_.size(), "ProductCatalog::service", "unknown service id");
  return services_[id];
}

const Product& ProductCatalog::product(ProductId id) const {
  require(id < products_.size(), "ProductCatalog::product", "unknown product id");
  return products_[id];
}

std::optional<ServiceId> ProductCatalog::find_service(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < services_.size(); ++i) {
    if (services_[i].name == name) return static_cast<ServiceId>(i);
  }
  return std::nullopt;
}

std::optional<ProductId> ProductCatalog::find_product(ServiceId service,
                                                      std::string_view name) const noexcept {
  if (service >= services_.size()) return std::nullopt;
  for (ProductId id : by_service_[service]) {
    if (products_[id].name == name) return id;
  }
  return std::nullopt;
}

ServiceId ProductCatalog::service_id(std::string_view name) const {
  if (auto id = find_service(name)) return *id;
  throw NotFound("ProductCatalog: unknown service '" + std::string(name) + "'");
}

ProductId ProductCatalog::product_id(ServiceId service, std::string_view name) const {
  if (auto id = find_product(service, name)) return *id;
  throw NotFound("ProductCatalog: unknown product '" + std::string(name) + "' in service '" +
                 this->service(service).name + "'");
}

const std::vector<ProductId>& ProductCatalog::products_of(ServiceId service) const {
  require(service < services_.size(), "ProductCatalog::products_of", "unknown service id");
  return by_service_[service];
}

void ProductCatalog::set_similarity(ProductId a, ProductId b, double value) {
  require(a < products_.size() && b < products_.size(), "ProductCatalog::set_similarity",
          "unknown product id");
  require(a != b, "ProductCatalog::set_similarity", "self-similarity is fixed at 1");
  require(products_[a].service == products_[b].service, "ProductCatalog::set_similarity",
          "similarity is defined within one service family");
  require(value >= 0.0 && value <= 1.0, "ProductCatalog::set_similarity",
          "similarity must be in [0,1]");
  std::vector<double>& table = similarity_[products_[a].service];
  if (table.empty()) {
    const std::size_t n = by_service_[products_[a].service].size();
    table.assign(n * (n - 1) / 2, 0.0);
  }
  table[slot(a, b)] = value;
}

double ProductCatalog::similarity(ProductId a, ProductId b) const {
  require(a < products_.size() && b < products_.size(), "ProductCatalog::similarity",
          "unknown product id");
  require(products_[a].service == products_[b].service, "ProductCatalog::similarity",
          "similarity is defined within one service family");
  if (a == b) return 1.0;
  const std::vector<double>& table = similarity_[products_[a].service];
  return table.empty() ? 0.0 : table[slot(a, b)];
}

std::size_t ProductCatalog::slot(ProductId a, ProductId b) const noexcept {
  const std::size_t i = std::max(position_[a], position_[b]);
  const std::size_t j = std::min(position_[a], position_[b]);
  return i * (i - 1) / 2 + j;
}

}  // namespace icsdiv::core
