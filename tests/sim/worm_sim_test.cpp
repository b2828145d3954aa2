// The compiled propagation substrate and the WormSimulator facade:
// seed-era golden pins (bit-for-bit stream preservation), branching-graph
// pins where many hosts attack in one tick, detection-mode
// infection accounting, dead-state early exit, thread-count determinism,
// censoring-bias reporting, and the integer-threshold Bernoulli identity.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/optimizer.hpp"
#include "runner/workload.hpp"
#include "sim/worm_sim.hpp"
#include "support/strings.hpp"

namespace icsdiv {
namespace {

using core::HostId;

/// Line network h0—h1—…—h{n-1} with one service and two products that
/// share similarity `sim_ab`.
struct LineFixture {
  core::ProductCatalog catalog;
  std::unique_ptr<core::Network> network;
  core::ServiceId service;
  core::ProductId a;
  core::ProductId b;

  explicit LineFixture(double sim_ab = 0.5, int hosts = 6) {
    service = catalog.add_service("OS");
    a = catalog.add_product(service, "A");
    b = catalog.add_product(service, "B");
    if (sim_ab > 0.0) catalog.set_similarity(a, b, sim_ab);
    network = std::make_unique<core::Network>(catalog);
    for (int i = 0; i < hosts; ++i) {
      const HostId h = network->add_host(support::numbered("h", i));
      network->add_service(h, service, {a, b});
    }
    for (HostId h = 0; h + 1 < static_cast<HostId>(hosts); ++h) network->add_link(h, h + 1);
  }

  core::Assignment assign(std::initializer_list<core::ProductId> products) const {
    core::Assignment assignment(*network);
    HostId h = 0;
    for (core::ProductId p : products) assignment.assign(h++, service, p);
    return assignment;
  }
};

// ---------------------------------------------------------------------------
// Golden pins: captured from the seed-era vector<vector<DirectedLink>>
// implementation (commit 21c5ff9) on the 6-host line fixture.  The compiled
// substrate must reproduce the per-run splitmix64 streams bit-for-bit.

TEST(CompiledGolden, SophisticatedMonoMatchesSeedEra) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.08;
  params.model.similarity_weight = 0.5;
  const sim::WormSimulator simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 200, 11, /*parallel=*/false);
  EXPECT_DOUBLE_EQ(r.mean, 9.9749999999999996);
  EXPECT_DOUBLE_EQ(r.std_dev, 3.2227793180209074);
  EXPECT_DOUBLE_EQ(r.ci95_half_width, 0.44665442556790674);
  EXPECT_EQ(r.censored, 0u);
}

TEST(CompiledGolden, UniformSilentMixedMatchesSeedEra) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.a, f.b, f.a, f.b});
  sim::SimulationParams params;
  params.model.p_avg = 0.08;
  params.model.similarity_weight = 0.5;
  params.strategy = sim::AttackerStrategy::Uniform;
  params.silent_probability = 0.25;
  const sim::WormSimulator simulator(mixed, params);
  const auto r = simulator.mttc(0, 5, 200, 5, /*parallel=*/false);
  EXPECT_DOUBLE_EQ(r.mean, 39.905000000000001);
  EXPECT_DOUBLE_EQ(r.std_dev, 17.132530255768526);
  EXPECT_EQ(r.censored, 0u);
}

TEST(CompiledGolden, DetectionModeMatchesSeedEra) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.3;
  params.model.similarity_weight = 0.5;
  params.detection_probability = 0.3;
  params.max_ticks = 400;
  const sim::WormSimulator simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 200, 9, /*parallel=*/false);
  EXPECT_DOUBLE_EQ(r.mean, 362.75999999999999);
  EXPECT_DOUBLE_EQ(r.std_dev, 115.23060732427653);
  EXPECT_EQ(r.censored, 181u);
}

TEST(CompiledGolden, EpidemicCurveAndRunOnceMatchSeedEra) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.2;
  params.model.similarity_weight = 0.8;
  const sim::WormSimulator simulator(mono, params);
  support::Rng rng(5);
  const auto curve = simulator.epidemic_curve(0, 30, rng);
  const std::vector<std::size_t> expected{1, 2, 3, 4, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
                                          6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6};
  EXPECT_EQ(curve, expected);

  support::Rng rng2(2);
  const auto run = simulator.run_once(0, 5, rng2);
  EXPECT_TRUE(run.target_reached);
  EXPECT_EQ(run.ticks, 5u);
  EXPECT_EQ(run.infected_count, 6u);
}

// ---------------------------------------------------------------------------
// Branching-graph pins.  On the line fixture at most about one host attacks
// per tick, so the order in which different attackers' draws interleave is
// never exercised.  These pins run a 400-host runner::make_workload network
// (degree 8, 4 services × 4 products, seed 2020) under its optimizer
// assignment, where hundreds of hosts attack in the same tick.  Captured
// from the per-attacker frontier scan that preceded the attempt list.

struct BranchingFixture {
  runner::WorkloadInstance workload;
  core::Assignment assignment;

  explicit BranchingFixture(std::size_t hosts)
      : workload(make(hosts)),
        assignment(core::Optimizer(*workload.network).optimize().assignment) {}

  static runner::WorkloadInstance make(std::size_t hosts) {
    runner::WorkloadParams params;
    params.hosts = hosts;
    params.average_degree = 8.0;
    params.services = 4;
    params.products_per_service = 4;
    return runner::make_workload(params);
  }
};

const BranchingFixture& branching400() {
  static const BranchingFixture fixture(400);
  return fixture;
}

sim::SimulationParams attack(sim::AttackerStrategy strategy, double detection,
                             double silent = 0.0, std::size_t max_ticks = 100'000) {
  sim::SimulationParams params;
  params.strategy = strategy;
  params.detection_probability = detection;
  params.silent_probability = silent;
  params.max_ticks = max_ticks;
  return params;
}

constexpr HostId kBranchEntry = 3;
constexpr HostId kBranchTarget = 397;

void expect_mttc(const sim::MttcResult& r, double mean, double std_dev, double uncensored_mean,
                 std::size_t censored) {
  EXPECT_EQ(r.runs, 200u);
  EXPECT_EQ(r.mean, mean);
  EXPECT_EQ(r.std_dev, std_dev);
  EXPECT_EQ(r.uncensored_mean, uncensored_mean);
  EXPECT_EQ(r.censored, censored);
}

TEST(BranchingGolden, SophisticatedWithAndWithoutDefender) {
  const auto& f = branching400();
  const sim::WormSimulator plain(f.assignment, attack(sim::AttackerStrategy::Sophisticated, 0.0));
  ASSERT_EQ(plain.compiled().link_count(), 3200u);
  expect_mttc(plain.mttc(kBranchEntry, kBranchTarget, 200, 17, /*parallel=*/false), 23.48,
              9.0946778848481351, 23.48, 0);
  const sim::WormSimulator defended(f.assignment,
                                    attack(sim::AttackerStrategy::Sophisticated, 0.01));
  expect_mttc(defended.mttc(kBranchEntry, kBranchTarget, 200, 17, /*parallel=*/false),
              1025.6849999999999, 9972.264955741628, 25.944444444444443, 2);
}

TEST(BranchingGolden, UniformCensorsUnderDefender) {
  const auto& f = branching400();
  const sim::WormSimulator simulator(
      f.assignment, attack(sim::AttackerStrategy::Uniform, 0.05, 0.0, /*max_ticks=*/300));
  expect_mttc(simulator.mttc(kBranchEntry, kBranchTarget, 200, 17, /*parallel=*/false),
              219.72499999999999, 108.03349273611329, 80.06849315068493, 127);
}

TEST(BranchingGolden, UniformSilentUnderDefender) {
  const auto& f = branching400();
  const sim::WormSimulator simulator(f.assignment,
                                     attack(sim::AttackerStrategy::Uniform, 0.01, 0.3));
  expect_mttc(simulator.mttc(kBranchEntry, kBranchTarget, 200, 17, /*parallel=*/false),
              18102.415000000001, 38467.102567812246, 124.89634146341463, 36);
}

TEST(BranchingGolden, EpidemicCurveAndRunOnceUnderDefender) {
  const auto& f = branching400();
  const sim::WormSimulator slow(f.assignment, attack(sim::AttackerStrategy::Sophisticated, 0.01));
  support::Rng curve_rng(5);
  const std::vector<std::size_t> expected{
      1,   1,   1,   1,   1,   1,   2,   3,   3,   5,   7,   16,  26,  46,
      71,  99,  138, 181, 238, 284, 316, 341, 360, 371, 376, 383, 387, 390,
      393, 397, 398, 398, 400, 400, 400, 400, 400, 400, 400, 400, 400};
  EXPECT_EQ(slow.epidemic_curve(kBranchEntry, 40, curve_rng), expected);

  // The word drawn after each run pins how many words the run consumed.
  const sim::WormSimulator fast(
      f.assignment, attack(sim::AttackerStrategy::Sophisticated, 0.05, 0.0, /*max_ticks=*/300));
  support::Rng reached_rng(9);
  const auto reached = fast.run_once(kBranchEntry, kBranchTarget, reached_rng);
  EXPECT_TRUE(reached.target_reached);
  EXPECT_FALSE(reached.extinct);
  EXPECT_EQ(reached.ticks, 22u);
  EXPECT_EQ(reached.infected_count, 394u);
  EXPECT_EQ(reached_rng(), 16773269978476419652ull);

  support::Rng extinct_rng(11);
  const auto extinct = fast.run_once(kBranchEntry, kBranchTarget, extinct_rng);
  EXPECT_FALSE(extinct.target_reached);
  EXPECT_TRUE(extinct.extinct);
  EXPECT_EQ(extinct.ticks, 300u);
  EXPECT_EQ(extinct.infected_count, 396u);
  EXPECT_EQ(extinct_rng(), 6787686602364507198ull);
}

TEST(BranchingGolden, UniformDefenderBitIdenticalAcross1And2And8Threads) {
  const auto& f = branching400();
  const sim::WormSimulator simulator(
      f.assignment, attack(sim::AttackerStrategy::Uniform, 0.05, 0.0, /*max_ticks=*/300));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    expect_mttc(simulator.mttc(kBranchEntry, kBranchTarget, 200, 17, /*parallel=*/true, threads),
                219.72499999999999, 108.03349273611329, 80.06849315068493, 127);
  }
}

TEST(BranchingGolden, SimStateReusedAcrossEntriesAndHostCounts) {
  // One SimState carried across entries and across simulators of 400 and
  // 200 hosts, defender on: every run must match a fresh state, words
  // consumed included.
  const auto& large = branching400();
  const BranchingFixture small(200);
  const auto params = attack(sim::AttackerStrategy::Uniform, 0.05, 0.2, /*max_ticks=*/300);
  const sim::WormSimulator sim_large(large.assignment, params);
  const sim::WormSimulator sim_small(small.assignment, params);
  struct Step {
    const sim::WormSimulator* simulator;
    HostId entry;
    HostId target;
  };
  const Step steps[] = {{&sim_large, 3, 397}, {&sim_large, 50, 7},  {&sim_small, 3, 197},
                        {&sim_large, 3, 397}, {&sim_small, 120, 1}, {&sim_large, 50, 7}};
  sim::SimState reused;
  std::uint64_t seed = 30;
  for (const Step& step : steps) {
    support::Rng rng_reused(seed);
    support::Rng rng_fresh(seed++);
    sim::SimState fresh_state;
    const auto a = step.simulator->run_once(step.entry, step.target, rng_reused, reused);
    const auto b = step.simulator->run_once(step.entry, step.target, rng_fresh, fresh_state);
    EXPECT_EQ(a.target_reached, b.target_reached) << "seed " << seed;
    EXPECT_EQ(a.extinct, b.extinct) << "seed " << seed;
    EXPECT_EQ(a.ticks, b.ticks) << "seed " << seed;
    EXPECT_EQ(a.infected_count, b.infected_count) << "seed " << seed;
    EXPECT_EQ(rng_reused(), rng_fresh()) << "seed " << seed;
  }
}

TEST(BranchingGolden, StoredChannelsRebuildTheLinkSources) {
  // The channels record does not carry each link's source; it is rebuilt
  // at load time, and the defender's compaction reads it.  A loaded table
  // must re-serialise byte for byte and give the pinned stream.
  const auto& f = branching400();
  const auto params = attack(sim::AttackerStrategy::Uniform, 0.05, 0.0, /*max_ticks=*/300);
  const std::string record = sim::PropagationChannels(f.assignment, params.model).serialize();
  const auto loaded = std::make_shared<const sim::PropagationChannels>(
      sim::PropagationChannels::deserialize(record));
  EXPECT_EQ(loaded->serialize(), record);
  const sim::CompiledPropagation simulator(loaded, params);
  expect_mttc(simulator.mttc(kBranchEntry, kBranchTarget, 200, 17, /*parallel=*/false),
              219.72499999999999, 108.03349273611329, 80.06849315068493, 127);

  // The offsets follow three model fields, two u64 counts and the span's
  // u64 length.  Tables the tick would index out of bounds are rejected.
  constexpr std::size_t kFirstOffset = 8 + 8 + 1 + 8 + 8 + 8;
  std::string descending = record;
  for (std::size_t b = 4; b < 8; ++b) descending[kFirstOffset + b] = '\xff';  // offsets[1]
  EXPECT_THROW(static_cast<void>(sim::PropagationChannels::deserialize(descending)),
               InvalidArgument);
  std::string shifted = record;
  shifted[kFirstOffset] = '\x01';  // offsets[0] = 1
  EXPECT_THROW(static_cast<void>(sim::PropagationChannels::deserialize(shifted)),
               InvalidArgument);
  // The link targets follow the 401 offsets and their own u64 length.
  std::string stray = record;
  for (std::size_t b = 0; b < 4; ++b) stray[kFirstOffset + 401 * 4 + 8 + b] = '\xff';
  EXPECT_THROW(static_cast<void>(sim::PropagationChannels::deserialize(stray)), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Detection-mode infection accounting (the seed-era bug: active.size() was
// reported, so remediated hosts vanished from the count).

TEST(DetectionAccounting, RemediatedHostsStayInInfectedCount) {
  // p = 1 everywhere and detection = 1: tick 1 infects h1, the defender
  // immediately remediates it, and the worm is walled off.  The seed-era
  // code reported infected_count = 1 (just the entry); the compromise of
  // h1 must stay counted.
  LineFixture f(0.0, 4);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 1.0;
  params.detection_probability = 1.0;
  params.max_ticks = 50;
  const sim::WormSimulator simulator(mono, params);
  support::Rng rng(7);
  const auto result = simulator.run_once(0, 3, rng);
  EXPECT_FALSE(result.target_reached);
  EXPECT_TRUE(result.extinct);
  EXPECT_EQ(result.ticks, 50u);          // censoring contract: horizon reported
  EXPECT_EQ(result.infected_count, 2u);  // entry + the remediated h1
}

TEST(DetectionAccounting, EpidemicCurveIsCumulativeUnderRemediation) {
  LineFixture f(0.0, 4);
  const auto mono = f.assign({f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 1.0;
  params.detection_probability = 1.0;
  const sim::WormSimulator simulator(mono, params);
  support::Rng rng(3);
  const auto curve = simulator.epidemic_curve(0, 10, rng);
  // Tick 1 infects h1 (cumulative 2); remediation then walls the worm
  // off, and the curve must hold at 2 — the seed-era active.size() curve
  // dropped back to 1.
  const std::vector<std::size_t> expected{1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2};
  EXPECT_EQ(curve, expected);
}

TEST(DetectionAccounting, CurveStaysMonotoneWithPartialDetection) {
  LineFixture f(0.6);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.4;
  params.detection_probability = 0.35;
  const sim::WormSimulator simulator(mono, params);
  support::Rng rng(17);
  const auto curve = simulator.epidemic_curve(0, 40, rng);
  ASSERT_EQ(curve.size(), 41u);
  EXPECT_EQ(curve.front(), 1u);
  for (std::size_t t = 1; t < curve.size(); ++t) EXPECT_GE(curve[t], curve[t - 1]);
  EXPECT_LE(curve.back(), 6u);
}

// ---------------------------------------------------------------------------
// Dead-state early exit.

TEST(DeadState, WalledOffWormExitsImmediately) {
  // h0—h1 linked; target h2 isolated.  The seed-era loop (without a
  // defender there was no exit at all) would spin 200M empty ticks; the
  // dead-state check must return promptly with the censoring fields
  // unchanged.
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("OS");
  const auto a = catalog.add_product(service, "A");
  core::Network network(catalog);
  for (int i = 0; i < 3; ++i) {
    const HostId h = network.add_host(support::numbered("n", i));
    network.add_service(h, service, {a});
  }
  network.add_link(0, 1);  // h2 stays unreachable
  core::Assignment assignment(network);
  for (HostId h = 0; h < 3; ++h) assignment.assign(h, service, a);

  sim::SimulationParams params;
  params.model.p_avg = 1.0;
  params.max_ticks = 200'000'000;  // hostile without the early exit
  const sim::WormSimulator simulator(assignment, params);
  support::Rng rng(1);
  const auto result = simulator.run_once(0, 2, rng);
  EXPECT_FALSE(result.target_reached);
  EXPECT_TRUE(result.extinct);
  EXPECT_EQ(result.ticks, 200'000'000u);
  EXPECT_EQ(result.infected_count, 2u);
}

TEST(DeadState, ReachedTargetIsNotExtinct) {
  LineFixture f(0.9);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.9;
  const sim::WormSimulator simulator(mono, params);
  support::Rng rng(2);
  const auto result = simulator.run_once(0, 5, rng);
  EXPECT_TRUE(result.target_reached);
  EXPECT_FALSE(result.extinct);
}

// ---------------------------------------------------------------------------
// MTTC determinism and censoring-bias reporting.

TEST(Mttc, BitIdenticalAcross1And2And8Threads) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.a, f.b, f.a, f.b});
  sim::SimulationParams params;
  params.model.p_avg = 0.15;
  params.model.similarity_weight = 0.6;
  params.detection_probability = 0.05;
  params.max_ticks = 500;
  const sim::WormSimulator simulator(mixed, params);

  const auto sequential = simulator.mttc(0, 5, 120, 23, /*parallel=*/false);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto chunked = simulator.mttc(0, 5, 120, 23, /*parallel=*/true, threads);
    EXPECT_DOUBLE_EQ(chunked.mean, sequential.mean) << threads << " threads";
    EXPECT_DOUBLE_EQ(chunked.uncensored_mean, sequential.uncensored_mean);
    EXPECT_DOUBLE_EQ(chunked.std_dev, sequential.std_dev);
    EXPECT_DOUBLE_EQ(chunked.ci95_half_width, sequential.ci95_half_width);
    EXPECT_EQ(chunked.censored, sequential.censored);
    EXPECT_EQ(chunked.runs, sequential.runs);
  }
}

TEST(Mttc, UncensoredMeanEqualsMeanWithoutCensoring) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.3;
  const sim::WormSimulator simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 100, 13);
  ASSERT_EQ(r.censored, 0u);
  EXPECT_DOUBLE_EQ(r.uncensored_mean, r.mean);
}

TEST(Mttc, UncensoredMeanStripsTheHorizonBias) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.3;
  params.model.similarity_weight = 0.5;
  params.detection_probability = 0.3;
  params.max_ticks = 400;
  const sim::WormSimulator simulator(mono, params);
  const auto r = simulator.mttc(0, 5, 200, 9);
  ASSERT_GT(r.censored, 0u);
  ASSERT_LT(r.censored, r.runs);
  // Censored runs clamp to the horizon, so the all-runs mean sits far
  // above the mean of the runs that actually reached the target.
  EXPECT_LT(r.uncensored_mean, r.mean);
  EXPECT_LT(r.uncensored_mean, static_cast<double>(params.max_ticks));
}

TEST(Mttc, AllCensoredReportsNaNUncensoredMean) {
  core::ProductCatalog catalog;
  const auto service = catalog.add_service("OS");
  const auto a = catalog.add_product(service, "A");
  core::Network network(catalog);
  for (int i = 0; i < 2; ++i) {
    const HostId h = network.add_host(support::numbered("n", i));
    network.add_service(h, service, {a});
  }
  core::Assignment assignment(network);  // two isolated hosts
  assignment.assign(0, service, a);
  assignment.assign(1, service, a);
  sim::SimulationParams params;
  params.max_ticks = 10;
  const sim::WormSimulator simulator(assignment, params);
  const auto r = simulator.mttc(0, 1, 20, 4);
  EXPECT_EQ(r.censored, 20u);
  EXPECT_DOUBLE_EQ(r.mean, 10.0);
  EXPECT_TRUE(std::isnan(r.uncensored_mean));
}

// ---------------------------------------------------------------------------
// Substrate mechanics.

TEST(SimState, ScratchReuseMatchesFreshStates) {
  LineFixture f(0.5);
  const auto mixed = f.assign({f.a, f.b, f.a, f.b, f.a, f.b});
  sim::SimulationParams params;
  params.model.p_avg = 0.2;
  params.detection_probability = 0.1;
  params.max_ticks = 300;
  const sim::WormSimulator simulator(mixed, params);
  sim::SimState reused;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    support::Rng rng_a(seed);
    support::Rng rng_b(seed);
    sim::SimState fresh_state;
    const auto with_reuse = simulator.run_once(0, 5, rng_a, reused);
    const auto with_fresh = simulator.run_once(0, 5, rng_b, fresh_state);
    EXPECT_EQ(with_reuse.ticks, with_fresh.ticks) << "seed " << seed;
    EXPECT_EQ(with_reuse.target_reached, with_fresh.target_reached);
    EXPECT_EQ(with_reuse.infected_count, with_fresh.infected_count);
    EXPECT_EQ(with_reuse.extinct, with_fresh.extinct);
  }
}

TEST(SimState, ScratchSurvivesSwitchingSimulators) {
  LineFixture small(0.5, 4);
  LineFixture large(0.5, 8);
  const auto small_mono = small.assign({small.a, small.a, small.a, small.a});
  const auto large_mono = large.assign(
      {large.a, large.a, large.a, large.a, large.a, large.a, large.a, large.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.5;
  const sim::WormSimulator sim_small(small_mono, params);
  const sim::WormSimulator sim_large(large_mono, params);
  sim::SimState state;
  support::Rng rng(6);
  const auto a = sim_small.run_once(0, 3, rng, state);
  const auto b = sim_large.run_once(0, 7, rng, state);  // larger: state regrows
  const auto c = sim_small.run_once(0, 3, rng, state);  // smaller again
  EXPECT_LE(a.infected_count, 4u);
  EXPECT_LE(b.infected_count, 8u);
  EXPECT_LE(c.infected_count, 4u);
}

TEST(Threshold, IntegerAcceptanceMatchesUniformCompare) {
  // The compiled draw `(rng() >> 11) < ceil(p·2^53)` must accept exactly
  // the raw words `Rng::uniform() < p` accepts (the seed-era form).
  const double probabilities[] = {0.0,  1e-12, 0.04, 0.07, 0.3, 0.5,
                                  0.75, 0.999, 1.0,  0.2,  1.0 / 3.0};
  for (const double p : probabilities) {
    const auto threshold = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    support::Rng rng_a(99);
    support::Rng rng_b(99);
    for (int i = 0; i < 20'000; ++i) {
      const bool via_uniform = rng_a.uniform() < p;
      const bool via_threshold = (rng_b() >> 11) < threshold;
      ASSERT_EQ(via_uniform, via_threshold) << "p=" << p << " draw " << i;
    }
  }
}

TEST(Compiled, ExposesShapeAndParams) {
  LineFixture f(0.5);
  const auto mono = f.assign({f.a, f.a, f.a, f.a, f.a, f.a});
  sim::SimulationParams params;
  params.model.p_avg = 0.1;
  const sim::WormSimulator simulator(mono, params);
  EXPECT_EQ(simulator.compiled().host_count(), 6u);
  EXPECT_EQ(simulator.compiled().link_count(), 10u);  // 5 edges, both ways
  EXPECT_DOUBLE_EQ(simulator.compiled().params().model.p_avg, 0.1);
}

}  // namespace
}  // namespace icsdiv
