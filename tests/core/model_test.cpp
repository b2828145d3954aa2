// Core domain model: catalog, network, assignment, constraints.
#include <gtest/gtest.h>

#include <map>

#include "core/assignment.hpp"
#include "core/constraints.hpp"
#include "core/network.hpp"
#include "core/product.hpp"
#include "support/strings.hpp"

namespace icsdiv::core {
namespace {

struct Fixture {
  ProductCatalog catalog;
  ServiceId os;
  ServiceId wb;
  ProductId win;
  ProductId linux_os;
  ProductId ie;
  ProductId chrome;

  Fixture() {
    os = catalog.add_service("OS");
    wb = catalog.add_service("WB");
    win = catalog.add_product(os, "Win");
    linux_os = catalog.add_product(os, "Linux");
    ie = catalog.add_product(wb, "IE");
    chrome = catalog.add_product(wb, "Chrome");
    catalog.set_similarity(win, linux_os, 0.1);
    catalog.set_similarity(ie, chrome, 0.05);
  }
};

TEST(ProductCatalog, ServicesAndProducts) {
  Fixture f;
  EXPECT_EQ(f.catalog.service_count(), 2u);
  EXPECT_EQ(f.catalog.product_count(), 4u);
  EXPECT_EQ(f.catalog.service(f.os).name, "OS");
  EXPECT_EQ(f.catalog.product(f.chrome).name, "Chrome");
  EXPECT_EQ(f.catalog.product(f.chrome).service, f.wb);
  EXPECT_EQ(f.catalog.products_of(f.os).size(), 2u);
  EXPECT_EQ(f.catalog.service_id("WB"), f.wb);
  EXPECT_EQ(f.catalog.product_id(f.os, "Linux"), f.linux_os);
  EXPECT_THROW((void)f.catalog.service_id("DB"), NotFound);
  EXPECT_THROW((void)f.catalog.product_id(f.os, "IE"), NotFound);
}

TEST(ProductCatalog, DuplicateNamesRejected) {
  Fixture f;
  EXPECT_THROW(f.catalog.add_service("OS"), InvalidArgument);
  EXPECT_THROW(f.catalog.add_product(f.os, "Win"), InvalidArgument);
  // Same product name under a different service is fine.
  EXPECT_NO_THROW(f.catalog.add_product(f.wb, "Win"));
}

TEST(ProductCatalog, SimilarityRules) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.catalog.similarity(f.win, f.win), 1.0);
  EXPECT_DOUBLE_EQ(f.catalog.similarity(f.win, f.linux_os), 0.1);
  EXPECT_DOUBLE_EQ(f.catalog.similarity(f.linux_os, f.win), 0.1);
  // Unregistered pair defaults to zero.
  ProductCatalog fresh;
  const ServiceId s = fresh.add_service("S");
  const ProductId a = fresh.add_product(s, "a");
  const ProductId b = fresh.add_product(s, "b");
  EXPECT_DOUBLE_EQ(fresh.similarity(a, b), 0.0);
  // Cross-service similarity is undefined.
  EXPECT_THROW((void)f.catalog.similarity(f.win, f.ie), InvalidArgument);
  EXPECT_THROW(f.catalog.set_similarity(f.win, f.ie, 0.3), InvalidArgument);
  EXPECT_THROW(f.catalog.set_similarity(f.win, f.win, 0.3), InvalidArgument);
  EXPECT_THROW(f.catalog.set_similarity(f.win, f.linux_os, 1.5), InvalidArgument);
}

TEST(ProductCatalog, SimilarityTableSurvivesGrowth) {
  // Products of two services interleaved, past several table growths;
  // every registered pair (and the zero default) must read back exactly.
  ProductCatalog catalog;
  const ServiceId services[] = {catalog.add_service("A"), catalog.add_service("B")};
  std::vector<ProductId> members[2];
  std::map<std::pair<ProductId, ProductId>, double> expected;
  for (int i = 0; i < 37; ++i) {
    for (int s = 0; s < 2; ++s) {
      const ProductId id = catalog.add_product(services[s], support::numbered("p", i));
      for (std::size_t k = 0; k < members[s].size(); k += 3) {
        const double value = static_cast<double>((id * 7 + k) % 11) / 10.0;
        catalog.set_similarity(members[s][k], id, value);
        expected[{std::min(members[s][k], id), std::max(members[s][k], id)}] = value;
      }
      members[s].push_back(id);
    }
  }
  for (const auto& group : members) {
    for (ProductId a : group) {
      for (ProductId b : group) {
        const auto it = expected.find({std::min(a, b), std::max(a, b)});
        const double value = a == b ? 1.0 : it == expected.end() ? 0.0 : it->second;
        EXPECT_EQ(catalog.similarity(a, b), value) << a << "," << b;
      }
    }
  }
  EXPECT_THROW((void)catalog.similarity(members[0][0], members[1][0]), InvalidArgument);
  EXPECT_THROW((void)catalog.similarity(members[0][0], 9999), InvalidArgument);
}

TEST(ProductCatalog, LargeCatalogsLoad) {
  // Five services of 600 products each, one similarity pair per service
  // registered before the last product: no size bound, and the pair and
  // the zero default read back after the table grows.
  ProductCatalog catalog;
  for (int s = 0; s < 5; ++s) {
    const ServiceId service = catalog.add_service(support::numbered("S", s));
    for (int i = 0; i < 599; ++i) (void)catalog.add_product(service, support::numbered("p", i));
    const auto& members = catalog.products_of(service);
    catalog.set_similarity(members[0], members[598], 0.25);
    (void)catalog.add_product(service, "p599");
  }
  EXPECT_EQ(catalog.product_count(), 3000u);
  for (ServiceId s = 0; s < 5; ++s) {
    const auto& members = catalog.products_of(s);
    EXPECT_EQ(catalog.similarity(members[598], members[0]), 0.25);
    EXPECT_EQ(catalog.similarity(members[599], members[0]), 0.0);
    EXPECT_EQ(catalog.similarity(members[599], members[599]), 1.0);
  }
}

TEST(Network, HostsServicesLinks) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  const HostId h1 = net.add_host("h1");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie});
  net.add_service(h1, f.os, {f.win});
  EXPECT_TRUE(net.add_link(h0, h1));
  EXPECT_FALSE(net.add_link(h1, h0));  // idempotent

  EXPECT_EQ(net.host_count(), 2u);
  EXPECT_EQ(net.instance_count(), 3u);
  EXPECT_EQ(net.host_name(h0), "h0");
  EXPECT_EQ(net.host_id("h1"), h1);
  EXPECT_THROW((void)net.host_id("nope"), NotFound);
  EXPECT_TRUE(net.host_runs(h0, f.wb));
  EXPECT_FALSE(net.host_runs(h1, f.wb));
  EXPECT_EQ(net.service_slot(h0, f.wb).value(), 1u);
  EXPECT_EQ(net.services_of(h0).size(), 2u);
}

TEST(Network, ValidationErrors) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  EXPECT_THROW(net.add_host("h0"), InvalidArgument);
  EXPECT_THROW(net.add_service(h0, f.os, std::vector<ProductId>{}), InvalidArgument);
  EXPECT_THROW(net.add_service(h0, f.os, {f.ie}), InvalidArgument);  // wrong service
  EXPECT_THROW(net.add_service(h0, f.os, {f.win, f.win}), InvalidArgument);
  net.add_service(h0, f.os, {f.win});
  EXPECT_THROW(net.add_service(h0, f.os, {f.linux_os}), InvalidArgument);  // twice
}

TEST(Assignment, AssignAndQuery) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});

  Assignment assignment(net);
  EXPECT_FALSE(assignment.complete());
  EXPECT_EQ(assignment.assigned_count(), 0u);
  EXPECT_FALSE(assignment.product_of(h0, f.os).has_value());

  assignment.assign(h0, f.os, f.linux_os);
  assignment.assign(h0, f.wb, f.chrome);
  EXPECT_TRUE(assignment.complete());
  EXPECT_EQ(assignment.product_of(h0, f.os).value(), f.linux_os);
  EXPECT_NO_THROW(assignment.validate());

  const auto tuple = assignment.host_tuple(h0);
  ASSERT_EQ(tuple.size(), 2u);
  EXPECT_EQ(tuple[0].value(), f.linux_os);
  EXPECT_EQ(tuple[1].value(), f.chrome);
}

TEST(Assignment, RejectsNonCandidates) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win});
  Assignment assignment(net);
  EXPECT_THROW(assignment.assign(h0, f.os, f.linux_os), InvalidArgument);
  EXPECT_THROW(assignment.assign(h0, f.wb, f.ie), NotFound);  // service absent
  EXPECT_THROW((void)assignment.product_of(h0, f.wb), NotFound);
}

TEST(Assignment, ToStringAndJsonRoundTrip) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("alpha");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});
  Assignment assignment(net);
  assignment.assign(h0, f.os, f.win);
  assignment.assign(h0, f.wb, f.chrome);

  EXPECT_EQ(assignment.to_string(), "alpha: OS=Win WB=Chrome\n");

  const Assignment restored = Assignment::from_json(net, assignment.to_json());
  EXPECT_EQ(restored, assignment);
}

TEST(Assignment, JsonPreservesUnassignedSlots) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win});
  net.add_service(h0, f.wb, {f.ie});
  Assignment partial(net);
  partial.assign(h0, f.os, f.win);
  const Assignment restored = Assignment::from_json(net, partial.to_json());
  EXPECT_EQ(restored.product_of(h0, f.os).value(), f.win);
  EXPECT_FALSE(restored.product_of(h0, f.wb).has_value());
}

TEST(Constraints, FixedValidation) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win});

  ConstraintSet constraints;
  constraints.fix(h0, f.os, f.win);
  EXPECT_NO_THROW(constraints.validate(net));
  EXPECT_THROW(constraints.fix(h0, f.os, f.win), InvalidArgument);  // double fix

  ConstraintSet not_candidate;
  not_candidate.fix(h0, f.os, f.linux_os);
  EXPECT_THROW(not_candidate.validate(net), InvalidArgument);

  ConstraintSet wrong_service;
  wrong_service.fix(h0, f.wb, f.ie);
  EXPECT_THROW(wrong_service.validate(net), InvalidArgument);
}

TEST(Constraints, PairSatisfaction) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});

  // If OS is Linux, WB must not be IE.
  PairConstraint no_ie_on_linux;
  no_ie_on_linux.host = kAllHosts;
  no_ie_on_linux.trigger_service = f.os;
  no_ie_on_linux.trigger_product = f.linux_os;
  no_ie_on_linux.partner_service = f.wb;
  no_ie_on_linux.partner_product = f.ie;
  no_ie_on_linux.polarity = ConstraintPolarity::Forbid;

  ConstraintSet constraints;
  constraints.add(no_ie_on_linux);
  EXPECT_NO_THROW(constraints.validate(net));

  Assignment bad(net);
  bad.assign(h0, f.os, f.linux_os);
  bad.assign(h0, f.wb, f.ie);
  EXPECT_FALSE(constraints.satisfied_by(bad));
  EXPECT_EQ(constraints.violations(bad).size(), 1u);

  Assignment good(net);
  good.assign(h0, f.os, f.linux_os);
  good.assign(h0, f.wb, f.chrome);
  EXPECT_TRUE(constraints.satisfied_by(good));

  // Trigger not firing: anything goes.
  Assignment untriggered(net);
  untriggered.assign(h0, f.os, f.win);
  untriggered.assign(h0, f.wb, f.ie);
  EXPECT_TRUE(constraints.satisfied_by(untriggered));
}

TEST(Constraints, RequirePolarity) {
  Fixture f;
  Network net(f.catalog);
  const HostId h0 = net.add_host("h0");
  net.add_service(h0, f.os, {f.win, f.linux_os});
  net.add_service(h0, f.wb, {f.ie, f.chrome});

  PairConstraint win_needs_ie;
  win_needs_ie.host = h0;
  win_needs_ie.trigger_service = f.os;
  win_needs_ie.trigger_product = f.win;
  win_needs_ie.partner_service = f.wb;
  win_needs_ie.partner_product = f.ie;
  win_needs_ie.polarity = ConstraintPolarity::Require;

  ConstraintSet constraints;
  constraints.add(win_needs_ie);

  Assignment bad(net);
  bad.assign(h0, f.os, f.win);
  bad.assign(h0, f.wb, f.chrome);
  EXPECT_FALSE(constraints.satisfied_by(bad));

  Assignment good(net);
  good.assign(h0, f.os, f.win);
  good.assign(h0, f.wb, f.ie);
  EXPECT_TRUE(constraints.satisfied_by(good));
}

TEST(Constraints, SameServicePairRejected) {
  Fixture f;
  PairConstraint bad;
  bad.trigger_service = f.os;
  bad.partner_service = f.os;
  ConstraintSet constraints;
  EXPECT_THROW(constraints.add(bad), InvalidArgument);
}

}  // namespace
}  // namespace icsdiv::core
