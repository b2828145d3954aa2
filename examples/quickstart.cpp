// Quickstart: the Fig. 2 example network.
//
// Six hosts, two services (web browser, database), three diverse products
// each.  We build the catalog with hand-set similarities, wire the
// topology, compute the optimal assignment α̂ with TRW-S and print it next
// to the mono-culture and random baselines.
//
//   $ ./examples/quickstart
#include <iostream>

#include "core/baselines.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "support/table.hpp"

int main() {
  using namespace icsdiv;

  // --- Catalog: wb1..wb3 and db1..db3 with moderate intra-family overlap.
  core::ProductCatalog catalog;
  const core::ServiceId wb = catalog.add_service("WB");
  const core::ServiceId db = catalog.add_service("DB");
  const core::ProductId wb1 = catalog.add_product(wb, "wb1");
  const core::ProductId wb2 = catalog.add_product(wb, "wb2");
  const core::ProductId wb3 = catalog.add_product(wb, "wb3");
  const core::ProductId db1 = catalog.add_product(db, "db1");
  const core::ProductId db2 = catalog.add_product(db, "db2");
  const core::ProductId db3 = catalog.add_product(db, "db3");
  catalog.set_similarity(wb1, wb2, 0.35);  // same engine lineage
  catalog.set_similarity(wb2, wb3, 0.10);
  catalog.set_similarity(db1, db2, 0.20);  // shared storage backend
  catalog.set_similarity(db2, db3, 0.05);

  // --- Network: Fig. 2's six hosts; each runs a subset of {WB, DB} with a
  // customised candidate range.
  core::Network network(catalog);
  const auto h0 = network.add_host("h0");
  const auto h1 = network.add_host("h1");
  const auto h2 = network.add_host("h2");
  const auto h3 = network.add_host("h3");
  const auto h4 = network.add_host("h4");
  const auto h5 = network.add_host("h5");
  network.add_service(h0, db, {db1, db2, db3});
  network.add_service(h0, wb, {wb1, wb2, wb3});
  network.add_service(h1, db, {db1, db2, db3});
  network.add_service(h1, wb, {wb1, wb2});
  network.add_service(h2, wb, {wb1, wb2, wb3});
  network.add_service(h2, db, {db2, db3});
  network.add_service(h3, wb, {wb2, wb3});
  network.add_service(h3, db, {db1, db2});
  network.add_service(h4, db, {db1, db2, db3});
  network.add_service(h4, wb, {wb1, wb2, wb3});
  network.add_service(h5, wb, {wb1, wb2});
  for (const auto& [a, b] : {std::pair{h0, h1}, {h0, h2}, {h1, h2}, {h1, h3},
                            {h2, h4}, {h3, h4}, {h3, h5}, {h4, h5}}) {
    network.add_link(a, b);
  }

  // --- Optimise and compare against baselines.
  const core::Optimizer optimizer(network);
  const core::OptimizeOutcome outcome = optimizer.optimize();

  support::Rng rng(42);
  const core::Assignment random = core::random_assignment(network, rng);
  const core::Assignment mono = core::mono_assignment(network);

  std::cout << "Optimal assignment (TRW-S):\n" << outcome.assignment.to_string() << '\n';
  std::cout << "Solver: energy=" << outcome.solve.energy
            << " lower_bound=" << outcome.solve.lower_bound
            << " iterations=" << outcome.solve.iterations
            << (outcome.solve.converged ? " (converged)" : "") << "\n\n";

  support::TextTable table({"assignment", "edge similarity (Eq.3)", "avg / link-service",
                            "identical-neighbor links"});
  const auto row = [&](const char* name, const core::Assignment& assignment) {
    const core::EdgeSimilarity similarity = core::edge_similarity(assignment);
    table.add_row({name, support::TextTable::num(similarity.total, 3),
                   support::TextTable::num(similarity.average(), 3),
                   support::TextTable::num(core::identical_neighbor_ratio(assignment), 3)});
  };
  row("optimal (TRW-S)", outcome.assignment);
  row("random", random);
  row("mono-culture", mono);
  table.print(std::cout);

  std::cout << "\nLower similarity mass means a zero-day on one host is less\n"
               "likely to propagate to its neighbours.\n";
  return 0;
}
