// Session semantics: cross-request caching, in-flight coalescing of
// identical requests, admission control, and the status counters that
// make all of it observable.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/status.hpp"
#include "core/baselines.hpp"
#include "core/serialization.hpp"
#include "runner/workload.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace icsdiv::api {
namespace {

/// A small synthetic deployment, serialised the way a client would send it.
struct Documents {
  support::Json catalog;
  support::Json network;
};

Documents make_documents(std::size_t hosts = 16, std::uint64_t seed = 7) {
  runner::WorkloadParams params;
  params.hosts = hosts;
  params.average_degree = 4;
  params.services = 3;
  params.products_per_service = 3;
  params.seed = seed;
  const runner::WorkloadInstance workload = runner::make_workload(params);
  return {core::catalog_to_json(*workload.catalog), core::network_to_json(*workload.network)};
}

OptimizeRequest optimize_request(const Documents& documents, std::string solver = "icm") {
  OptimizeRequest request;
  request.catalog = documents.catalog;
  request.network = documents.network;
  request.solver = std::move(solver);
  return request;
}

TEST(Session, ConcurrentIdenticalOptimizesExecuteOneSolve) {
  const Documents documents = make_documents();
  Session session;
  const Request request = optimize_request(documents);

  constexpr std::size_t kClients = 8;
  std::vector<std::future<OptimizeResponse>> futures;
  futures.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      return std::get<OptimizeResponse>(session.execute(request));
    }));
  }
  std::vector<OptimizeResponse> responses;
  responses.reserve(kClients);
  for (auto& future : futures) responses.push_back(future.get());

  // Bit-identical assignments for every caller...
  std::set<std::string> dumps;
  std::size_t executions = 0;
  for (const OptimizeResponse& response : responses) {
    dumps.insert(response.assignment.dump());
    executions += response.cached ? 0 : 1;
  }
  EXPECT_EQ(dumps.size(), 1u);
  // ...from exactly one execution (the rest coalesced or hit warm).
  EXPECT_EQ(executions, 1u);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.planned, kClients);
  EXPECT_EQ(status.solve_cache.executed, 1u);
  EXPECT_EQ(status.solve_cache.hits, kClients - 1);
  EXPECT_EQ(status.model_cache.executed, 1u);
  EXPECT_EQ(status.requests_total, kClients);
  EXPECT_EQ(status.requests_failed, 0u);
  EXPECT_GT(status.solve_seconds_total, 0.0);
}

TEST(Session, WarmCacheServesRepeatsAndDistinguishesSolvers) {
  const Documents documents = make_documents();
  Session session;

  const auto first = std::get<OptimizeResponse>(session.execute(optimize_request(documents)));
  EXPECT_FALSE(first.cached);
  const auto again = std::get<OptimizeResponse>(session.execute(optimize_request(documents)));
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.assignment.dump(), first.assignment.dump());
  EXPECT_EQ(again.solve_seconds, first.solve_seconds);  // the solving run's duration

  const auto trws =
      std::get<OptimizeResponse>(session.execute(optimize_request(documents, "trws")));
  EXPECT_FALSE(trws.cached);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.executed, 2u);  // icm once, trws once
  EXPECT_EQ(status.model_cache.executed, 1u);  // same documents throughout
}

TEST(Session, PrettyAndCompactFramesShareOneSolveCacheEntry) {
  const Documents documents = make_documents();
  Session session;
  const support::Json wire = request_to_wire(optimize_request(documents));
  const std::string compact = wire.dump();
  const std::string pretty = wire.dump_pretty();
  ASSERT_NE(compact, pretty);

  const Response first = session.execute(request_from_frame(compact));
  const std::size_t hits_before = session.status().solve_cache.hits;
  const Response second = session.execute(request_from_frame(pretty));
  EXPECT_FALSE(std::get<OptimizeResponse>(first).cached);
  EXPECT_TRUE(std::get<OptimizeResponse>(second).cached);
  EXPECT_EQ(session.status().solve_cache.hits, hits_before + 1);
  EXPECT_EQ(session.status().solve_cache.executed, 1u);

  // Apart from `cached`, the replies are byte-identical.
  OptimizeResponse uncached = std::get<OptimizeResponse>(second);
  uncached.cached = false;
  EXPECT_EQ(response_to_wire(uncached).dump(), response_to_wire(first).dump());
}

TEST(Session, DocumentDigestIsTheContentNotTheSpelling) {
  const Documents documents = make_documents();
  const Document built(documents.network);
  const Request decoded = request_from_frame(
      request_to_wire(optimize_request(documents)).dump_pretty());
  const Document& adopted = std::get<OptimizeRequest>(decoded).network;
  EXPECT_EQ(adopted.digest(), built.digest());
  EXPECT_EQ(adopted.text(), built.text());
  EXPECT_EQ(built.text(), documents.network.dump());
  EXPECT_EQ(adopted.json().dump(), documents.network.dump());  // the lazily built DOM
  EXPECT_NE(Document(documents.catalog).digest(), built.digest());
}

TEST(Session, AdoptedDocumentBuildsItsDomOnceAcrossThreads) {
  const Documents documents = make_documents();
  const Request decoded = request_from_frame(request_to_wire(optimize_request(documents)).dump());
  const Document& network = std::get<OptimizeRequest>(decoded).network;
  std::vector<std::future<const support::Json*>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(std::async(std::launch::async, [&] { return &network.json(); }));
  }
  std::set<const support::Json*> doms;
  for (auto& future : futures) doms.insert(future.get());
  EXPECT_EQ(doms.size(), 1u);
  EXPECT_EQ((*doms.begin())->dump(), network.text());
}

TEST(Session, DocumentTableCountsColdThenWarmFrames) {
  const Documents documents = make_documents();
  Session session;
  const support::Json wire = request_to_wire(optimize_request(documents));
  const std::size_t bytes = documents.catalog.dump().size() + documents.network.dump().size();

  const Request cold = request_from_frame(wire.dump(), &session.documents());
  DocumentTableStats stats = session.status().documents;
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);  // catalog and network, both interned
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, bytes);

  const Request warm = request_from_frame(wire.dump(), &session.documents());
  const Request pretty = request_from_frame(wire.dump_pretty(), &session.documents());
  stats = session.status().documents;
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, bytes);
  for (const Request* decoded : {&warm, &pretty}) {
    const OptimizeRequest& request = std::get<OptimizeRequest>(*decoded);
    EXPECT_EQ(request.network.text(), std::get<OptimizeRequest>(cold).network.text());
    EXPECT_EQ(request.network.digest(), std::get<OptimizeRequest>(cold).network.digest());
    EXPECT_EQ(request.catalog.digest(), std::get<OptimizeRequest>(cold).catalog.digest());
  }

  // The counters travel in the status reply.
  const Response reply = response_from_wire(response_to_wire(session.execute(StatusRequest{})));
  const DocumentTableStats wired = std::get<StatusResponse>(reply).documents;
  EXPECT_EQ(wired.hits, 4u);
  EXPECT_EQ(wired.misses, 2u);
  EXPECT_EQ(wired.entries, 2u);
  EXPECT_EQ(wired.bytes, bytes);
}

TEST(Session, DocumentTableEvictsTheLeastRecentlyUsedText) {
  const auto frame = [](const Documents& documents) {
    OptimizeRequest request;
    request.catalog = documents.catalog;
    request.network = documents.network;
    return request_to_wire(request).dump();
  };
  const Documents first = make_documents(12, 1);
  const Documents second = make_documents(14, 2);
  DocumentTable table(3, 1u << 20);
  (void)request_from_frame(frame(first), &table);   // catalog 1, network 1
  (void)request_from_frame(frame(second), &table);  // catalog 2, network 2: catalog 1 goes …
  EXPECT_EQ(table.stats().evicted, 1u);
  // … so network 1 is now the oldest; a hit makes network 2 the oldest.
  OptimizeRequest hot;
  hot.catalog = second.catalog;
  hot.network = first.network;
  (void)request_from_frame(request_to_wire(hot).dump(), &table);
  EXPECT_EQ(table.stats().hits, 2u);
  (void)request_from_frame(frame(first), &table);  // catalog 1 evicts network 2
  const DocumentTableStats stats = table.stats();
  EXPECT_EQ(stats.hits, 3u);    // network 1 survived
  EXPECT_EQ(stats.misses, 5u);  // catalog 1 came back
  EXPECT_EQ(stats.evicted, 2u);
  (void)request_from_frame(frame(second), &table);
  EXPECT_EQ(table.stats().misses, 6u);  // network 2 was the one evicted
}

TEST(Session, SharedDocumentTableDecodesExactlyUnderEviction) {
  // Eight threads decode frames that share documents through a table
  // that holds one text, so lookups, interning and eviction interleave.
  const std::vector<Documents> deployments = {make_documents(12, 1), make_documents(14, 2),
                                              make_documents(16, 3)};
  std::vector<std::string> frames;
  std::vector<std::vector<std::pair<std::string, runner::ArtifactKey>>> expected;
  for (const Documents& documents : deployments) {
    for (const char* solver : {"icm", "trws"}) {
      const support::Json wire = request_to_wire(optimize_request(documents, solver));
      for (const std::string& frame : {wire.dump(), wire.dump_pretty()}) {
        const OptimizeRequest request = std::get<OptimizeRequest>(request_from_frame(frame));
        frames.push_back(frame);
        expected.push_back({{std::string(request.catalog.text()), request.catalog.digest()},
                            {std::string(request.network.text()), request.network.digest()}});
      }
    }
  }
  DocumentTable table(1, 1u << 20);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 40;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t i = (t * 5 + round * 7) % frames.size();
        const OptimizeRequest request =
            std::get<OptimizeRequest>(request_from_frame(frames[i], &table));
        const bool same = request.catalog.text() == expected[i][0].first &&
                          request.catalog.digest() == expected[i][0].second &&
                          request.network.text() == expected[i][1].first &&
                          request.network.digest() == expected[i][1].second;
        if (!same) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const DocumentTableStats stats = table.stats();
  EXPECT_EQ(stats.hits + stats.misses, 2 * kThreads * kRounds);
  EXPECT_LE(stats.entries, 1u);
  EXPECT_GT(stats.evicted, 0u);
}

TEST(Session, EvaluateIsCachedAndChecksHosts) {
  const Documents documents = make_documents();
  Session session;
  const auto assignment =
      std::get<OptimizeResponse>(session.execute(optimize_request(documents))).assignment;

  EvaluateRequest evaluate;
  evaluate.catalog = documents.catalog;
  evaluate.network = documents.network;
  evaluate.assignment = assignment;
  const auto first = std::get<EvaluateResponse>(session.execute(evaluate));
  EXPECT_FALSE(first.cached);
  EXPECT_FALSE(first.pair_evaluated);
  EXPECT_GT(first.edge_similarity, 0.0);
  const auto second = std::get<EvaluateResponse>(session.execute(evaluate));
  EXPECT_TRUE(second.cached);

  evaluate.entry = "no-such-host";
  evaluate.target = "h0";
  EXPECT_THROW((void)session.execute(evaluate), NotFound);
  EXPECT_EQ(session.status().requests_failed, 1u);
}

TEST(Session, MetricPairComesFromTheBayesNet) {
  const Documents documents = make_documents(12);
  Session session;
  const auto assignment =
      std::get<OptimizeResponse>(session.execute(optimize_request(documents))).assignment;

  MetricRequest metric;
  metric.catalog = documents.catalog;
  metric.network = documents.network;
  metric.assignment = assignment;
  metric.entry = "h0";
  metric.target = "h5";
  const auto first = std::get<MetricResponse>(session.execute(metric));
  EXPECT_GT(first.d_bn, 0.0);
  EXPECT_LE(first.d_bn, 1.0 + 1e-9);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(std::get<MetricResponse>(session.execute(metric)).cached);
}

TEST(Session, IdenticalBatchRequestsCoalesce) {
  Session session;
  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "session-batch",
    "hosts": [12], "degrees": [3], "services": [2], "products_per_service": [3],
    "solvers": ["icm"], "constraints": ["none"], "seeds": [1, 2],
    "max_iterations": 20, "tolerance": 1e-6
  })");
  batch.threads = 1;

  constexpr std::size_t kClients = 4;
  std::vector<std::future<BatchResponse>> futures;
  futures.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      return std::get<BatchResponse>(session.execute(batch));
    }));
  }
  std::set<std::string> dumps;
  std::size_t executions = 0;
  for (auto& future : futures) {
    const BatchResponse response = future.get();
    EXPECT_EQ(response.cells, 2u);
    EXPECT_EQ(response.failed, 0u);
    dumps.insert(response.report.dump());
    executions += response.cached ? 0 : 1;
  }
  EXPECT_EQ(dumps.size(), 1u);
  EXPECT_EQ(executions, 1u);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.batch_cache.planned, kClients);
  EXPECT_EQ(status.batch_cache.executed, 1u);
  // The executed batch ran its cells once; coalesced callers added none.
  EXPECT_EQ(status.batch_stages.solve.planned, 2u);
  EXPECT_GT(status.batch_wall_seconds_total, 0.0);
}

TEST(Session, BatchValidatesGridBeforeRunning) {
  Session session;
  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "bad", "hosts": [8], "degrees": [3], "services": [2],
    "products_per_service": [2], "solvers": ["warp-drive"],
    "constraints": ["none"], "seeds": [1]
  })");
  EXPECT_THROW((void)session.execute(batch), InvalidArgument);
}

TEST(Session, SaturationRejectsWithRetryAfterAndKeepsStatusObservable) {
  SessionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 0;
  options.retry_after_seconds = 2.5;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> blocking{false};
  options.on_batch_result = [&](const runner::ScenarioResult&) {
    blocking.store(true);
    released.wait();
  };
  Session session(options);

  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "blocker", "hosts": [8], "degrees": [3], "services": [2],
    "products_per_service": [2], "solvers": ["icm"], "constraints": ["none"],
    "seeds": [1], "max_iterations": 10, "tolerance": 1e-6
  })");
  batch.threads = 1;
  auto blocked = std::async(std::launch::async, [&] { return session.execute(batch); });
  while (!blocking.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The single admission slot is held: the next request is rejected...
  const Documents documents = make_documents(8);
  try {
    (void)session.execute(optimize_request(documents));
    FAIL() << "expected SaturatedError";
  } catch (const SaturatedError& error) {
    EXPECT_DOUBLE_EQ(error.retry_after_seconds(), 2.5);
  }
  // ...while status (bypassing admission) still reports the load.
  StatusResponse status = session.status();
  EXPECT_EQ(status.in_flight, 1u);
  EXPECT_EQ(status.requests_rejected, 1u);

  release.set_value();
  EXPECT_EQ(std::get<BatchResponse>(blocked.get()).failed, 0u);
  EXPECT_FALSE(
      std::get<OptimizeResponse>(session.execute(optimize_request(documents))).cached);
  EXPECT_EQ(session.status().in_flight, 0u);
}

TEST(AdmissionGate, QueuesUpToLimitThenRejects) {
  AdmissionGate gate(1, 1, 0.5);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> holding{false};
  auto holder = std::async(std::launch::async, [&] {
    const AdmissionGate::Ticket ticket = gate.admit();
    holding.store(true);
    released.wait();
  });
  while (!holding.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(gate.running(), 1u);

  std::atomic<bool> queued_done{false};
  auto queued = std::async(std::launch::async, [&] {
    const AdmissionGate::Ticket ticket = gate.admit();  // waits in the queue
    queued_done.store(true);
  });
  while (gate.queued() != 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  EXPECT_THROW((void)gate.admit(), SaturatedError);  // queue full
  EXPECT_EQ(gate.rejected_total(), 1u);

  release.set_value();
  holder.get();
  queued.get();
  EXPECT_TRUE(queued_done.load());
  EXPECT_EQ(gate.running(), 0u);
  EXPECT_EQ(gate.queued(), 0u);
}

/// Deadline tests lean on failpoint delays to make "the compute is slow"
/// deterministic; the registry is global, so always leave it clean.
class SessionDeadline : public ::testing::Test {
 protected:
  void TearDown() override { support::failpoint::disarm_all(); }
};

TEST_F(SessionDeadline, OptimizeDeadlineReturnsTruncatedBestSoFarAndSkipsTheCache) {
  // Hold the compute past the request deadline before the solver starts:
  // ICM's first cancellation check sees an expired token and returns the
  // initial labels tagged truncated instead of throwing.
  support::failpoint::arm("session.compute", {support::failpoint::Action::Delay, 1.0, 60});
  const Documents documents = make_documents(8);
  Session session;
  OptimizeRequest request = optimize_request(documents);
  request.timeout_ms = 20;

  const auto truncated = std::get<OptimizeResponse>(session.execute(request));
  EXPECT_TRUE(truncated.truncated);
  EXPECT_FALSE(truncated.cached);
  EXPECT_FALSE(truncated.assignment.dump().empty());  // best-so-far, not empty
  EXPECT_EQ(session.status().requests_failed, 0u);    // truncation is a success

  // Truncated values are timing artifacts and must never be served from
  // cache: the same solve re-executes and this time completes.
  support::failpoint::disarm_all();
  request.timeout_ms = 0;
  const auto full = std::get<OptimizeResponse>(session.execute(request));
  EXPECT_FALSE(full.cached);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(session.status().solve_cache.executed, 2u);
}

TEST_F(SessionDeadline, BatchDeadlineSurfacesAsDeadlineExceededAndIsNotCached) {
  SessionOptions options;
  // Per-cell hook sleeps past the deadline, so the report would be built
  // under an expired token — the session must refuse to cache it.
  options.on_batch_result = [](const runner::ScenarioResult&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  };
  Session session(options);
  BatchRequest batch;
  batch.grid = support::Json::parse(R"({
    "name": "deadline-batch", "hosts": [8], "degrees": [3], "services": [2],
    "products_per_service": [2], "solvers": ["icm"], "constraints": ["none"],
    "seeds": [1], "max_iterations": 10, "tolerance": 1e-6
  })");
  batch.threads = 1;
  batch.timeout_ms = 40;
  EXPECT_THROW((void)session.execute(batch), DeadlineExceededError);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.requests_failed, 1u);
  EXPECT_EQ(status.requests_deadline, 1u);
  EXPECT_EQ(status.requests_admitted, 1u);

  // Same grid without the deadline: re-executed from scratch, succeeds.
  batch.timeout_ms = 0;
  EXPECT_EQ(std::get<BatchResponse>(session.execute(batch)).failed, 0u);
  EXPECT_EQ(session.status().requests_admitted, 2u);
}

TEST_F(SessionDeadline, EvaluateDeadlineSurfacesFromTheExactReducer) {
  // A 2000-host deployment (the request-path benchmark's largest size):
  // the compute starts after the deadline has passed, and the first
  // cancellation point on the evaluate path is the exact reducer's.
  runner::WorkloadParams params;
  params.hosts = 2000;
  params.average_degree = 8.0;
  params.services = 4;
  params.products_per_service = 4;
  params.seed = 2020 + 2000 * 10;
  const runner::WorkloadInstance workload = runner::make_workload(params);
  EvaluateRequest evaluate;
  evaluate.catalog = core::catalog_to_json(*workload.catalog);
  evaluate.network = core::network_to_json(*workload.network);
  evaluate.assignment = core::greedy_coloring_assignment(*workload.network).to_json();
  evaluate.entry = workload.network->host_name(2);
  evaluate.target = workload.network->host_name(1999);
  evaluate.timeout_ms = 20;
  support::failpoint::arm("session.compute", {support::failpoint::Action::Delay, 1.0, 60});

  Session session;
  try {
    (void)session.execute(evaluate);
    ADD_FAILURE() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& error) {
    const ErrorBody body = make_error_body(error);
    EXPECT_EQ(body.code, StatusCode::DeadlineExceeded);
    EXPECT_NE(body.message.find("bayes.exact"), std::string::npos) << body.message;
  }
  EXPECT_EQ(session.status().requests_deadline, 1u);
}

TEST_F(SessionDeadline, CoalescedWaiterLeavesAtItsDeadlineWithoutKillingTheCompute) {
  support::failpoint::arm("session.compute", {support::failpoint::Action::Delay, 1.0, 150});
  const Documents documents = make_documents(8);
  SessionOptions options;
  options.max_concurrent = 4;  // both callers must be *executing* to coalesce
  Session session(options);
  const Request patient_request = optimize_request(documents);
  auto patient = std::async(std::launch::async, [&] {
    return std::get<OptimizeResponse>(session.execute(patient_request));
  });
  // Join only once the patient request's compute is in flight.
  while (session.status().solve_cache.planned == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The impatient caller coalesces onto the same entry, then leaves at its
  // own deadline.  The entry token stays at the max over participants
  // (the patient has none), so the shared compute keeps running.
  OptimizeRequest impatient = optimize_request(documents);
  impatient.timeout_ms = 40;
  EXPECT_THROW((void)session.execute(impatient), DeadlineExceededError);

  const OptimizeResponse response = patient.get();
  EXPECT_FALSE(response.truncated);
  EXPECT_FALSE(response.cached);

  const StatusResponse status = session.status();
  EXPECT_EQ(status.solve_cache.planned, 2u);
  EXPECT_EQ(status.solve_cache.executed, 1u);
  EXPECT_EQ(status.requests_deadline, 1u);

  // The completed value was cached despite the abandoned waiter.
  impatient.timeout_ms = 0;
  EXPECT_TRUE(std::get<OptimizeResponse>(session.execute(impatient)).cached);
}

TEST(AdmissionGate, QueueWaitersExpireAtTheirDeadline) {
  AdmissionGate gate(1, 1, 0.5);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> holding{false};
  auto holder = std::async(std::launch::async, [&] {
    const AdmissionGate::Ticket ticket = gate.admit();
    holding.store(true);
    released.wait();
  });
  while (!holding.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Queue wait counts against the deadline: the waiter leaves on its own.
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW((void)gate.admit(support::CancelToken::after_ms(50)),
               DeadlineExceededError);
  EXPECT_GE(std::chrono::steady_clock::now() - started, std::chrono::milliseconds(40));
  EXPECT_EQ(gate.queued(), 0u);  // the abandoned waiter rolled back its slot

  // An already-expired token is rejected before touching the queue.
  EXPECT_THROW((void)gate.admit(support::CancelToken::with_deadline(
                   support::CancelToken::Clock::now() - std::chrono::milliseconds(1))),
               DeadlineExceededError);

  release.set_value();
  holder.get();
  const AdmissionGate::Ticket ticket = gate.admit();  // the slot is free again
  EXPECT_EQ(gate.running(), 1u);
  EXPECT_EQ(gate.admitted_total(), 2u);  // holder + this ticket; expired waiters don't count
}

TEST(Session, FailedComputationsAreNotCached) {
  Session session;
  const Documents documents = make_documents(8);
  EvaluateRequest evaluate;
  evaluate.catalog = documents.catalog;
  evaluate.network = documents.network;
  evaluate.assignment = support::Json::parse(R"({"broken": true})");
  EXPECT_THROW((void)session.execute(evaluate), Error);
  // Same key again: recomputed (and fails again), not served from cache.
  EXPECT_THROW((void)session.execute(evaluate), Error);
  EXPECT_EQ(session.status().eval_cache.executed, 2u);
}

}  // namespace
}  // namespace icsdiv::api
