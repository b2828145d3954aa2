// Least attacking effort (adversarial-perspective metric).
#include "bayes/least_effort.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "core/baselines.hpp"
#include "generated_networks.hpp"
#include "support/strings.hpp"

namespace icsdiv::bayes {
namespace {

/// Path network h0—h1—h2—h3—h4 with one service, products a/b/c.
struct PathFixture {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId service;
  core::ProductId a;
  core::ProductId b;
  core::ProductId c;

  PathFixture() {
    service = catalog.add_service("OS");
    a = catalog.add_product(service, "a");
    b = catalog.add_product(service, "b");
    c = catalog.add_product(service, "c");
    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < 5; ++i) {
      network->add_host(support::numbered("h", i));
      network->add_service(static_cast<core::HostId>(i), service, {a, b, c});
    }
    for (int i = 0; i < 4; ++i) {
      network->add_link(static_cast<core::HostId>(i), static_cast<core::HostId>(i + 1));
    }
  }

  core::Assignment assign(std::initializer_list<core::ProductId> products) const {
    core::Assignment assignment(*network);
    core::HostId h = 0;
    for (core::ProductId p : products) assignment.assign(h++, service, p);
    return assignment;
  }
};

TEST(LeastEffort, MonoCultureNeedsOneExploit) {
  PathFixture f;
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a});
  const auto result = least_attack_effort(mono, 0, 4);
  ASSERT_TRUE(result.exploit_count.has_value());
  EXPECT_EQ(*result.exploit_count, 1u);
  EXPECT_EQ(result.exploited_products, (std::vector<core::ProductId>{f.a}));
  EXPECT_EQ(result.host_order.front(), 0u);
  EXPECT_EQ(result.host_order.back(), 4u);
}

TEST(LeastEffort, AlternatingNeedsTwo) {
  PathFixture f;
  const auto alternating = f.assign({f.a, f.b, f.a, f.b, f.a});
  const auto result = least_attack_effort(alternating, 0, 4);
  ASSERT_TRUE(result.exploit_count.has_value());
  EXPECT_EQ(*result.exploit_count, 2u);
}

TEST(LeastEffort, FullyDiversePathNeedsOnePerHop) {
  PathFixture f;
  // h1..h4 use three distinct products (c appears twice non-adjacently);
  // the attacker still needs all three.
  const auto diverse = f.assign({f.a, f.b, f.c, f.b, f.c});
  const auto result = least_attack_effort(diverse, 0, 4);
  ASSERT_TRUE(result.exploit_count.has_value());
  EXPECT_EQ(*result.exploit_count, 2u);  // b and c suffice (entry is free)
}

TEST(LeastEffort, EntryProductIsFree) {
  PathFixture f;
  // Entry runs a unique product the attacker never needs to exploit.
  const auto assignment = f.assign({f.c, f.a, f.a, f.a, f.a});
  const auto result = least_attack_effort(assignment, 0, 4);
  EXPECT_EQ(*result.exploit_count, 1u);
}

TEST(LeastEffort, EntryEqualsTarget) {
  PathFixture f;
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a});
  const auto result = least_attack_effort(mono, 2, 2);
  EXPECT_EQ(*result.exploit_count, 0u);
}

TEST(LeastEffort, UnreachableTarget) {
  PathFixture f;
  core::Network& net = *f.network;
  const core::HostId island = net.add_host("island");
  net.add_service(island, f.service, {f.a});
  core::Assignment assignment(net);
  for (core::HostId h = 0; h <= island; ++h) assignment.assign(h, f.service, f.a);
  const auto result = least_attack_effort(assignment, 0, island);
  EXPECT_FALSE(result.exploit_count.has_value());
}

TEST(LeastEffort, PrefersCheapDetour) {
  // Diamond: top route needs 2 products, bottom route reuses one.
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("S");
  const auto a = catalog.add_product(service, "a");
  const auto b = catalog.add_product(service, "b");
  const auto c = catalog.add_product(service, "c");
  core::Network network(catalog);
  for (const char* name : {"entry", "top", "bottom", "target"}) network.add_host(name);
  for (core::HostId h = 0; h < 4; ++h) network.add_service(h, service, {a, b, c});
  network.add_link(0, 1);
  network.add_link(0, 2);
  network.add_link(1, 3);
  network.add_link(2, 3);

  core::Assignment assignment(network);
  assignment.assign(0, service, a);
  assignment.assign(1, service, b);  // top detour product
  assignment.assign(2, service, c);  // bottom
  assignment.assign(3, service, c);  // target matches bottom
  const auto result = least_attack_effort(assignment, 0, 3);
  EXPECT_EQ(*result.exploit_count, 1u);
  EXPECT_EQ(result.exploited_products, (std::vector<core::ProductId>{c}));
  // Witness goes through the bottom host.
  EXPECT_EQ(result.host_order, (std::vector<core::HostId>{0, 2, 3}));
}

TEST(LeastEffort, MultiServiceHostsOfferChoices) {
  // A host with two services can be compromised through either product.
  core::ProductCatalog catalog;
  const auto s1 = catalog.add_service("s1");
  const auto s2 = catalog.add_service("s2");
  const auto p1 = catalog.add_product(s1, "p1");
  const auto p2 = catalog.add_product(s2, "p2");
  core::Network network(catalog);
  network.add_host("entry");
  network.add_host("mid");
  network.add_host("target");
  network.add_service(0, s1, {p1});
  network.add_service(1, s1, {p1});
  network.add_service(1, s2, {p2});
  network.add_service(2, s2, {p2});
  network.add_link(0, 1);
  network.add_link(1, 2);

  core::Assignment assignment(network);
  assignment.assign(0, s1, p1);
  assignment.assign(1, s1, p1);
  assignment.assign(1, s2, p2);
  assignment.assign(2, s2, p2);
  // Exploiting p2 alone covers both mid and target.
  const auto result = least_attack_effort(assignment, 0, 2);
  EXPECT_EQ(*result.exploit_count, 1u);
  EXPECT_EQ(result.exploited_products, (std::vector<core::ProductId>{p2}));
}

/// Full results on generated networks, pinned from the map-based search
/// the flat state store replaced: the same push/pop sequence must yield
/// the same count, witness products and compromise order.
struct EffortPin {
  std::size_t hosts;
  core::HostId entry;
  core::HostId target;
  std::size_t exploit_count;
  std::vector<core::ProductId> products;
  std::vector<core::HostId> host_order;
};

TEST(LeastEffort, GoldenPinsOnGeneratedNetworks) {
  const EffortPin pins[] = {
      {500, 2, 499, 2, {0, 7}, {2, 307, 134, 6, 449, 427, 495, 137, 146, 475, 459, 499}},
      {500, 3, 492, 2, {7, 12}, {3, 423, 492}},
      {500, 4, 485, 2, {7, 15}, {4, 235, 409, 266, 485}},
      {1000, 2, 999, 2, {1, 12}, {2, 332, 563, 849, 809, 451, 949, 432, 791, 479, 585, 391, 999}},
      {1000, 3, 992, 2, {7, 15},
       {3, 498, 676, 995, 930, 205, 915, 480, 936, 850, 711, 34, 442,
        904, 121, 105, 961, 950, 646, 841, 521, 91, 296, 487, 572, 992}},
      {1000, 4, 985, 2, {10, 11}, {4, 285, 155, 27, 448, 594, 52, 232, 930, 994, 286, 90, 985}},
      {2000, 2, 1999, 1, {13}, {2, 762, 1388, 1149, 230, 1559, 79, 1999}},
      {2000, 3, 1992, 2, {8, 10},
       {3, 326, 1800, 1591, 869, 521, 43, 940, 1981, 945,
        1904, 95, 729, 888, 836, 1581, 1526, 608, 1629, 1992}},
      {2000, 4, 1985, 2, {4, 7}, {4, 696, 802, 537, 267, 1862, 232, 37, 1985}},
  };
  for (const EffortPin& pin : pins) {
    SCOPED_TRACE(::testing::Message() << pin.hosts << ": " << pin.entry << " -> " << pin.target);
    const auto result = least_attack_effort(
        test_networks::generated_network(pin.hosts).assignment, pin.entry, pin.target);
    ASSERT_TRUE(result.exploit_count.has_value());
    EXPECT_EQ(*result.exploit_count, pin.exploit_count);
    EXPECT_EQ(result.exploited_products, pin.products);
    EXPECT_EQ(result.host_order, pin.host_order);
  }
}

TEST(LeastEffort, ExpiredTokenStopsTheSearch) {
  const auto& network = test_networks::generated_network(2000);
  const auto expired = support::CancelToken::with_deadline(support::CancelToken::Clock::now() -
                                                           std::chrono::milliseconds(1));
  try {
    (void)least_attack_effort(network.assignment, 2, 1999, kMaxDistinctProducts, expired);
    ADD_FAILURE() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& error) {
    EXPECT_NE(std::string(error.what()).find("bayes.least_effort"), std::string::npos)
        << error.what();
  }
  const support::CancelToken cancelled = support::CancelToken::cancellable();
  cancelled.cancel();
  EXPECT_THROW((void)least_attack_effort(network.assignment, 2, 1999, kMaxDistinctProducts,
                                         cancelled),
               CancelledError);
}

TEST(LeastEffort, TooManyProductsRaisesInfeasible) {
  PathFixture f;
  const auto mono = f.assign({f.a, f.b, f.c, f.a, f.b});
  EXPECT_THROW((void)least_attack_effort(mono, 0, 4, /*max_distinct_products=*/2),
               Infeasible);

  // More distinct products than a mask has bits: rejected before any
  // product is turned into a mask bit.
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("S");
  core::Network network(catalog);
  std::vector<core::ProductId> products;
  for (int i = 0; i < 40; ++i) {
    products.push_back(catalog.add_product(service, support::numbered("p", i)));
  }
  for (int i = 0; i < 40; ++i) {
    network.add_host(support::numbered("h", i));
    network.add_service(static_cast<core::HostId>(i), service, products);
    if (i > 0) network.add_link(static_cast<core::HostId>(i - 1), static_cast<core::HostId>(i));
  }
  core::Assignment distinct(network);
  for (core::HostId h = 0; h < 40; ++h) distinct.assign(h, service, products[h]);
  EXPECT_THROW((void)least_attack_effort(distinct, 0, 39), Infeasible);
}

}  // namespace
}  // namespace icsdiv::bayes
