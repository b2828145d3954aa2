// Enterprise-scale scenario: a multi-zone corporate/OT estate generated
// with the zoned topology builder, diversified under global configuration
// policies, then analysed the way an operator would:
//
//   1. identify choke-point hosts (betweenness centrality),
//   2. compute the constrained optimal assignment α̂_C,
//   3. plan a *budgeted* migration from the current mono-culture towards
//      it (the §IX upgrade-advisor workflow) and show the diminishing
//      returns per re-imaged host,
//   4. quantify the adversary's minimum effort before/after.
//
//   $ ./examples/enterprise_network [zones] [hosts-per-zone]
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "bayes/least_effort.hpp"
#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/upgrade.hpp"
#include "graph/centrality.hpp"
#include "graph/generators.hpp"
#include "nvd/paper_tables.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace icsdiv;
  using support::TextTable;

  const std::size_t zones = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;
  const std::size_t hosts_per_zone = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 24;

  // --- Catalog from the paper's NVD statistics.
  core::ProductCatalog catalog;
  const auto os = catalog.add_service_from_table("OS", nvd::paper_os_similarity());
  const auto wb = catalog.add_service_from_table("WB", nvd::paper_browser_similarity());
  const auto db = catalog.add_service_from_table("DB", nvd::paper_database_similarity());

  // --- Zoned topology: office zones chained down to the plant zone.
  support::Rng rng(2026);
  graph::ZonedTopologyParams topology_params;
  topology_params.zone_sizes.assign(zones, hosts_per_zone);
  topology_params.intra_zone_density = 0.25;
  topology_params.inter_zone_links = 3;
  const graph::Graph topology = graph::zoned_topology(topology_params, rng);

  core::Network network(catalog);
  const auto os_candidates = std::vector<core::ProductId>{
      catalog.product_id(os, "Win7"), catalog.product_id(os, "Win10"),
      catalog.product_id(os, "Ubt14.04"), catalog.product_id(os, "Deb8.0")};
  const auto wb_candidates = std::vector<core::ProductId>{
      catalog.product_id(wb, "IE10"), catalog.product_id(wb, "Edge"),
      catalog.product_id(wb, "Chrome"), catalog.product_id(wb, "Firefox")};
  const auto db_candidates = std::vector<core::ProductId>{
      catalog.product_id(db, "MSSQL14"), catalog.product_id(db, "MySQL5.5"),
      catalog.product_id(db, "MariaDB10")};
  for (std::size_t h = 0; h < topology.vertex_count(); ++h) {
    const core::HostId host = network.add_host("host" + std::to_string(h));
    network.add_service(host, os, os_candidates);
    network.add_service(host, wb, wb_candidates);
    if (h % 4 == 0) network.add_service(host, db, db_candidates);  // every 4th is a server
  }
  for (const graph::Edge& edge : topology.edges()) network.add_link(edge.u, edge.v);

  std::cout << "estate: " << network.host_count() << " hosts in " << zones << " zones, "
            << network.topology().edge_count() << " links, " << network.instance_count()
            << " service instances\n";

  // --- Global policy: Microsoft browsers only on Windows hosts.
  core::ConstraintSet policy;
  for (const char* linux_name : {"Ubt14.04", "Deb8.0"}) {
    for (const char* ms_browser : {"IE10", "Edge"}) {
      core::PairConstraint rule;
      rule.host = core::kAllHosts;
      rule.trigger_service = os;
      rule.trigger_product = catalog.product_id(os, linux_name);
      rule.partner_service = wb;
      rule.partner_product = catalog.product_id(wb, ms_browser);
      rule.polarity = core::ConstraintPolarity::Forbid;
      policy.add(rule);
    }
  }

  // --- Choke points.
  const auto betweenness = graph::betweenness_centrality(network.topology());
  std::vector<core::HostId> ranked(network.host_count());
  for (core::HostId h = 0; h < network.host_count(); ++h) ranked[h] = h;
  std::sort(ranked.begin(), ranked.end(),
            [&](core::HostId a, core::HostId b) { return betweenness[a] > betweenness[b]; });
  std::cout << "\ntop choke-point hosts by betweenness centrality:";
  for (std::size_t i = 0; i < 5 && i < ranked.size(); ++i) {
    std::cout << " " << network.host_name(ranked[i]) << " ("
              << support::TextTable::num(betweenness[ranked[i]], 0) << ")";
  }
  std::cout << '\n';

  // --- Optimal target state.
  const core::Optimizer optimizer(network);
  const auto optimal = optimizer.optimize(policy);
  const core::Assignment mono = core::mono_assignment(network);
  std::cout << "\noptimal (policy-constrained) edge similarity: "
            << TextTable::num(optimal.pairwise_similarity, 1)
            << "   mono-culture: " << TextTable::num(core::edge_similarity(mono).total, 1)
            << "   constraints satisfied: " << (optimal.constraints_satisfied ? "yes" : "no")
            << '\n';

  // --- Budgeted migration from the mono-culture.
  TextTable migration({"budget (hosts)", "Eq.1 energy", "% of optimal gap closed"});
  const core::DiversificationProblem energy_problem(network);
  const double mono_energy = energy_problem.energy_of(mono);
  const double optimal_energy = optimal.solve.energy;
  for (const std::size_t budget : {1UL, 5UL, 10UL, 20UL, 40UL, 80UL, 0UL /* unlimited */}) {
    core::UpgradePlanOptions options;
    options.budget = budget;
    const core::UpgradePlan plan = core::plan_upgrade(network, mono, policy, options);
    const double closed = (mono_energy - plan.final_energy) /
                          std::max(1e-12, mono_energy - optimal_energy) * 100.0;
    migration.add_row({budget == 0 ? std::to_string(plan.hosts_touched()) + " (unlimited)"
                                   : std::to_string(budget),
                       TextTable::num(plan.final_energy, 1), TextTable::num(closed, 1)});
  }
  std::cout << "\nbudgeted migration from the mono-culture (greedy re-imaging):\n";
  migration.print(std::cout);

  // --- Adversarial effort before/after.
  const core::HostId entry = 0;
  const core::HostId target = static_cast<core::HostId>(network.host_count() - 1);
  const auto effort_mono = bayes::least_attack_effort(mono, entry, target);
  const auto effort_optimal = bayes::least_attack_effort(optimal.assignment, entry, target);
  std::cout << "\nminimum distinct exploits to reach " << network.host_name(target)
            << " from " << network.host_name(entry) << ": mono-culture "
            << (effort_mono.exploit_count ? std::to_string(*effort_mono.exploit_count) : "inf")
            << " -> diversified "
            << (effort_optimal.exploit_count ? std::to_string(*effort_optimal.exploit_count)
                                             : "inf")
            << "\n";
  return 0;
}
