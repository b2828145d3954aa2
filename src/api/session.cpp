#include "api/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <variant>

#include "bayes/least_effort.hpp"
#include "bayes/metric.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "mrf/registry.hpp"
#include "nvd/similarity.hpp"
#include "runner/artifact_cache.hpp"
#include "runner/scenario.hpp"
#include "sim/worm_sim.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace icsdiv::api {

// ---------------------------------------------------------------------------
// AdmissionGate.

AdmissionGate::AdmissionGate(std::size_t max_running, std::size_t max_queued,
                             double retry_after_seconds)
    : max_running_(std::max<std::size_t>(max_running, 1)),
      max_queued_(max_queued),
      retry_after_seconds_(retry_after_seconds) {}

AdmissionGate::Ticket::~Ticket() {
  if (gate_ != nullptr) gate_->leave();
}

AdmissionGate::Ticket AdmissionGate::admit(const support::CancelToken& cancel) {
  const support::MutexLock lock(mutex_);
  cancel.check("admission.queue");
  if (running_ >= max_running_) {
    if (queued_ >= max_queued_) {
      ++rejected_;
      throw SaturatedError("admission queue full (" + std::to_string(running_) + " running, " +
                               std::to_string(queued_) + " queued); retry later",
                           retry_after_seconds_);
    }
    ++queued_;
    try {
      while (running_ >= max_running_) {
        if (!cancel.valid()) {
          while (running_ >= max_running_) admitted_.wait(mutex_);
          break;
        }
        // Sliced waits so an explicit cancel() (which cannot signal the
        // condition variable) is noticed promptly; a deadline bounds the
        // slice exactly.
        auto until = support::CancelToken::Clock::now() + std::chrono::milliseconds(50);
        if (cancel.deadline_ns() != support::CancelToken::kNoDeadline) {
          until = std::min(until, cancel.deadline());
        }
        admitted_.wait_until(mutex_, until);
        if (running_ < max_running_) break;
        cancel.check("admission.queue");
      }
    } catch (...) {
      --queued_;
      throw;
    }
    --queued_;
  }
  ++running_;
  ++admitted_count_;
  return Ticket(this);
}

void AdmissionGate::leave() {
  {
    const support::MutexLock lock(mutex_);
    --running_;
  }
  admitted_.notify_one();
}

std::size_t AdmissionGate::running() const {
  const support::MutexLock lock(mutex_);
  return running_;
}

std::size_t AdmissionGate::queued() const {
  const support::MutexLock lock(mutex_);
  return queued_;
}

std::size_t AdmissionGate::rejected_total() const {
  const support::MutexLock lock(mutex_);
  return rejected_;
}

std::size_t AdmissionGate::admitted_total() const {
  const support::MutexLock lock(mutex_);
  return admitted_count_;
}

namespace {

// ---------------------------------------------------------------------------
// Cache keys.  Domain constants separate the four key spaces; within one,
// keys mix the digests of the request documents the computation depends
// on (Document::digest(), computed once at decode — no key dumps JSON).

enum class CacheDomain : std::uint64_t { Model = 101, Solve = 102, Eval = 103, Batch = 104 };

/// Operation tag inside the eval domain.
enum class EvalOp : std::uint64_t { Evaluate = 1, Report = 2, Similarity = 3, Metric = 4 };

runner::KeyHasher domain_hasher(CacheDomain domain) {
  runner::KeyHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(domain));
  return hasher;
}

void mix_key(runner::KeyHasher& hasher, const runner::ArtifactKey& key) {
  hasher.mix(key.hi).mix(key.lo);
}

runner::ArtifactKey model_key(const Document& catalog, const Document& network) {
  runner::KeyHasher hasher = domain_hasher(CacheDomain::Model);
  mix_key(hasher, catalog.digest());
  mix_key(hasher, network.digest());
  return hasher.key();
}

// ---------------------------------------------------------------------------
// CoalescingCache: content-addressed, in-flight-deduplicating, LRU.
//
// Every in-flight entry runs under its own CancelToken whose deadline is
// the fetch-max over the participants' deadlines (a participant without
// one removes the deadline), so the shared compute outlives any single
// impatient caller and is cancelled only once the *last* interested
// party's deadline has passed.  Blocked waiters leave at their own
// deadline (DeadlineExceededError) without disturbing the execution; the
// last waiter to give up additionally cancels the entry token so an
// execution nobody is waiting on can stop early.

template <typename Value>
class CoalescingCache {
 public:
  explicit CoalescingCache(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

  struct Outcome {
    std::shared_ptr<const Value> value;
    /// True for the caller whose compute() produced the value; false for
    /// warm hits and callers coalesced onto an in-flight execution.
    bool executed = false;
  };

  /// `compute` receives the entry's shared CancelToken (thread it into
  /// the computation's cancellation points); `cacheable(value)` decides
  /// whether the finished value is retained for later callers — in-flight
  /// participants receive it either way (truncated solves use this).
  template <typename Compute, typename Cacheable>
  Outcome get_or_compute(const runner::ArtifactKey& key, const support::CancelToken& cancel,
                         Compute&& compute, Cacheable&& cacheable) {
    std::shared_ptr<Entry> entry;
    {
      const support::MutexLock lock(mutex_);
      ++counters_.planned;
      if (const auto it = entries_.find(key); it != entries_.end()) {
        ++counters_.hits;
        entry = it->second;
        entry->last_used = ++tick_;
        if (!entry->done) {
          entry->cancel.extend_deadline_ns(cancel.deadline_ns());
          ++entry->waiters;
          wait_for_entry(*entry, cancel);
        }
        if (entry->error) std::rethrow_exception(entry->error);
        return {entry->value, false};
      }
      ++counters_.executed;
      entry = std::make_shared<Entry>();
      entry->cancel = cancel.deadline_ns() != support::CancelToken::kNoDeadline
                          ? support::CancelToken::with_deadline(cancel.deadline())
                          : support::CancelToken::cancellable();
      entry->last_used = ++tick_;
      entry->waiters = 1;
      entries_.emplace(key, entry);
    }
    try {
      std::shared_ptr<const Value> value = compute(entry->cancel);
      support::failpoint::evaluate("cache.insert");
      const bool keep = cacheable(*value);
      {
        const support::MutexLock lock(mutex_);
        entry->value = std::move(value);
        entry->done = true;
        --entry->waiters;
        if (keep) {
          evict_locked();
        } else {
          // Timing-dependent values (truncated solves) serve the current
          // participants but never later callers.
          entries_.erase(key);
        }
      }
      ready_.notify_all();
      return {entry->value, true};
    } catch (...) {
      {
        const support::MutexLock lock(mutex_);
        entry->error = std::current_exception();
        entry->done = true;
        --entry->waiters;
        // Failures are not cached: later callers recompute.
        entries_.erase(key);
      }
      ready_.notify_all();
      throw;
    }
  }

  template <typename Compute>
  Outcome get_or_compute(const runner::ArtifactKey& key, const support::CancelToken& cancel,
                         Compute&& compute) {
    return get_or_compute(key, cancel, std::forward<Compute>(compute),
                          [](const Value&) { return true; });
  }

  [[nodiscard]] runner::StageCounters counters() const {
    const support::MutexLock lock(mutex_);
    return counters_;
  }

 private:
  /// Entry fields are written by the executing thread and read by
  /// waiters; every access happens under the cache's mutex_ except the
  /// executor's post-completion reads of its own `value`/`cancel` (safe:
  /// after `done`, only the executor touches them).  The fields stay
  /// unannotated because the struct outlives individual lock scopes via
  /// shared_ptr — the mutex_ relationship is documented here instead.
  struct Entry {
    bool done = false;
    std::shared_ptr<const Value> value;
    std::exception_ptr error;
    std::uint64_t last_used = 0;
    /// The execution's shared token; deadline = max over participants'.
    support::CancelToken cancel;
    /// Participants still interested (executor + blocked waiters).
    std::size_t waiters = 0;
  };

  /// Blocks until the entry completes or the caller's own token expires;
  /// expiry decrements the waiter count (cancelling the entry when it was
  /// the last) and rethrows as the caller's deadline/cancel error.
  void wait_for_entry(Entry& entry, const support::CancelToken& cancel) ICSDIV_REQUIRES(mutex_) {
    while (!entry.done) {
      if (!cancel.valid()) {
        while (!entry.done) ready_.wait(mutex_);
        break;
      }
      // Sliced waits: an explicit cancel() cannot signal ready_, so poll;
      // a deadline bounds the slice exactly.
      auto until = support::CancelToken::Clock::now() + std::chrono::milliseconds(50);
      if (cancel.deadline_ns() != support::CancelToken::kNoDeadline) {
        until = std::min(until, cancel.deadline());
      }
      ready_.wait_until(mutex_, until);
      if (entry.done) break;
      if (cancel.expired()) {
        --entry.waiters;
        if (entry.waiters == 0) entry.cancel.cancel();
        cancel.check("cache.wait");  // throws the caller's own error
      }
    }
    --entry.waiters;
  }

  /// Drops least-recently-used *completed* entries beyond capacity.
  /// In-flight entries are pinned; coalesced waiters keep their shared_ptr
  /// alive regardless, eviction only forgets the key.
  void evict_locked() ICSDIV_REQUIRES(mutex_) {
    while (entries_.size() > capacity_) {
      auto victim = entries_.end();
      // lint:allow unordered-iteration -- min-by-last_used scan; ticks are unique, so order-independent
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (!it->second->done) continue;
        if (victim == entries_.end() || it->second->last_used < victim->second->last_used) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;
      entries_.erase(victim);
      ++counters_.evicted;
    }
  }

  mutable support::Mutex mutex_;
  support::CondVar ready_;
  std::size_t capacity_;  ///< immutable after construction
  std::unordered_map<runner::ArtifactKey, std::shared_ptr<Entry>, runner::ArtifactKey::Hash>
      entries_ ICSDIV_GUARDED_BY(mutex_);
  runner::StageCounters counters_ ICSDIV_GUARDED_BY(mutex_);
  std::uint64_t tick_ ICSDIV_GUARDED_BY(mutex_) = 0;
};

/// The parsed model documents; built once per (catalog, network) content,
/// the only place their DOMs get built.  Allocated behind shared_ptr and
/// never moved: the network references products owned by `catalog`, so
/// member addresses must be stable.
struct ModelArtifact {
  core::ProductCatalog catalog;
  core::Network network;

  ModelArtifact(const Document& catalog_document, const Document& network_document)
      : catalog(core::catalog_from_json(catalog_document.json())),
        network(core::network_from_json(catalog, network_document.json())) {}
  ModelArtifact(const ModelArtifact&) = delete;
  ModelArtifact& operator=(const ModelArtifact&) = delete;
};

/// A solved assignment, stored as the response fields (the assignment
/// JSON is rendered once, so every consumer sees bit-identical bytes).
struct SolveValue {
  support::Json assignment;
  double energy = 0.0;
  double pairwise_similarity = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  bool truncated = false;  ///< deadline hit mid-solve; best-so-far labels
  double seconds = 0.0;
};

/// The per-request token: a deadline when the request carries one, inert
/// (zero-cost checks) otherwise.
support::CancelToken request_token(const Request& request) {
  return std::visit(
      [](const auto& typed) {
        if constexpr (requires { typed.timeout_ms; }) {
          if (typed.timeout_ms > 0) return support::CancelToken::after_ms(typed.timeout_ms);
        }
        return support::CancelToken();
      },
      request);
}

void add_counters(runner::StageCounters& into, const runner::StageCounters& from) {
  into.planned += from.planned;
  into.executed += from.executed;
  into.hits += from.hits;
  into.evicted += from.evicted;
}

void add_stage_stats(runner::StageStats& into, const runner::StageStats& from) {
  add_counters(into.workload, from.workload);
  add_counters(into.problem, from.problem);
  add_counters(into.solve, from.solve);
  add_counters(into.channels, from.channels);
  add_counters(into.attack, from.attack);
  add_counters(into.metric, from.metric);
}

}  // namespace

// ---------------------------------------------------------------------------
// Session.

struct Session::Impl {
  explicit Impl(SessionOptions options)
      : options_(std::move(options)),
        gate_(options_.max_concurrent != 0 ? options_.max_concurrent
                                           : std::max(1u, std::thread::hardware_concurrency()),
              options_.max_queued, options_.retry_after_seconds),
        models_(options_.model_cache_capacity),
        solves_(options_.solve_cache_capacity),
        evals_(options_.eval_cache_capacity),
        batches_(options_.batch_cache_capacity),
        documents_(3 * options_.model_cache_capacity, options_.model_cache_capacity << 20) {}

  Response execute(const Request& request) {
    {
      const support::MutexLock lock(stats_mutex_);
      ++requests_total_;
    }
    try {
      // Introspection bypasses admission: health stays observable even
      // when the gate is saturated.
      if (std::holds_alternative<StatusRequest>(request)) return status();
      if (std::holds_alternative<VersionRequest>(request)) return version();
      // The deadline clock starts here — queue wait counts against it.
      const support::CancelToken cancel = request_token(request);
      const AdmissionGate::Ticket ticket = gate_.admit(cancel);
      return std::visit([this, &cancel](const auto& typed) { return run(typed, cancel); },
                        request);
    } catch (const SaturatedError&) {
      throw;  // counted via rejected_total(), not as a failure
    } catch (const CancelledError&) {
      count_deadline_failure();
      throw;
    } catch (const DeadlineExceededError&) {
      count_deadline_failure();
      throw;
    } catch (...) {
      const support::MutexLock lock(stats_mutex_);
      ++requests_failed_;
      throw;
    }
  }

  [[nodiscard]] StatusResponse status() const {
    StatusResponse response;
    response.uptime_seconds = started_.seconds();
    response.requests_rejected = gate_.rejected_total();
    response.requests_admitted = gate_.admitted_total();
    response.in_flight = gate_.running();
    response.queued = gate_.queued();
    response.model_cache = models_.counters();
    response.solve_cache = solves_.counters();
    response.eval_cache = evals_.counters();
    response.batch_cache = batches_.counters();
    response.documents = documents_.stats();
    const support::MutexLock lock(stats_mutex_);
    response.requests_total = requests_total_;
    response.requests_failed = requests_failed_;
    response.requests_deadline = requests_deadline_;
    response.solve_seconds_total = solve_seconds_total_;
    response.batch_wall_seconds_total = batch_wall_seconds_total_;
    response.batch_stages = batch_stages_;
    return response;
  }

  [[nodiscard]] DocumentTable& documents() { return documents_; }

 private:
  [[nodiscard]] static VersionResponse version() {
    VersionResponse response;
    response.requests = request_names();
    response.solvers = mrf::SolverRegistry::instance().names();
    response.constraint_recipes = runner::constraint_recipe_names();
    return response;
  }

  /// Parses (or reuses) the model documents under `key` (their
  /// model_key); chained inside the dependent caches' compute paths so
  /// model lookups are only planned on misses.
  [[nodiscard]] std::shared_ptr<const ModelArtifact> get_model(const runner::ArtifactKey& key,
                                                               const Document& catalog,
                                                               const Document& network) {
    // Model parsing is quick and its artifact is deadline-independent, so
    // it always runs to completion (inert token).
    const auto parse = [&](const support::CancelToken&) {
      return std::make_shared<const ModelArtifact>(catalog, network);
    };
    return models_.get_or_compute(key, support::CancelToken(), parse).value;
  }

  void count_solve_seconds(double seconds) {
    const support::MutexLock lock(stats_mutex_);
    solve_seconds_total_ += seconds;
  }

  void count_deadline_failure() {
    const support::MutexLock lock(stats_mutex_);
    ++requests_failed_;
    ++requests_deadline_;
  }

  [[nodiscard]] Response run(const OptimizeRequest& request, const support::CancelToken& cancel) {
    const std::string solver =
        request.solver.empty() ? core::OptimizeOptions{}.solver : request.solver;
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Solve);
    const runner::ArtifactKey model = model_key(request.catalog, request.network);
    mix_key(hasher, model);
    hasher.mix(solver);
    // Different iteration caps are different solves; the deadline is NOT
    // part of the key (it never changes a completed result).
    hasher.mix(static_cast<std::uint64_t>(request.max_iterations));
    const auto outcome = solves_.get_or_compute(
        hasher.key(), cancel,
        [&](const support::CancelToken& token) {
          support::failpoint::evaluate("session.compute");
          const std::shared_ptr<const ModelArtifact> artifact =
              get_model(model, request.catalog, request.network);
          core::OptimizeOptions options;
          options.solver = solver;
          if (request.max_iterations != 0) options.solve.max_iterations = request.max_iterations;
          options.solve.cancel = token;
          const support::Stopwatch watch;
          const core::Optimizer optimizer(artifact->network);
          const core::OptimizeOutcome solved = optimizer.optimize({}, options);
          auto value = std::make_shared<SolveValue>();
          value->assignment = solved.assignment.to_json();
          value->energy = solved.solve.energy;
          value->pairwise_similarity = solved.pairwise_similarity;
          value->iterations = solved.solve.iterations;
          value->converged = solved.solve.converged;
          value->truncated = solved.solve.truncated;
          value->seconds = watch.seconds();
          count_solve_seconds(value->seconds);
          return value;
        },
        [](const SolveValue& value) { return !value.truncated; });
    OptimizeResponse response;
    response.assignment = outcome.value->assignment;
    response.energy = outcome.value->energy;
    response.pairwise_similarity = outcome.value->pairwise_similarity;
    response.iterations = outcome.value->iterations;
    response.converged = outcome.value->converged;
    response.truncated = outcome.value->truncated;
    response.solve_seconds = outcome.value->seconds;
    response.cached = !outcome.executed;
    return response;
  }

  /// Shared eval-cache path: the cached artifact is the Response itself.
  /// `compute` receives the coalesced execution's token.
  template <typename Compute>
  [[nodiscard]] Response eval_cached(const runner::ArtifactKey& key,
                                     const support::CancelToken& cancel, Compute&& compute) {
    const auto outcome = evals_.get_or_compute(
        key, cancel,
        [&](const support::CancelToken& token) -> std::shared_ptr<const Response> {
          support::failpoint::evaluate("session.compute");
          const support::Stopwatch watch;
          auto value = std::make_shared<Response>(compute(token));
          count_solve_seconds(watch.seconds());
          return value;
        });
    Response response = *outcome.value;
    std::visit(
        [&](auto& typed) {
          if constexpr (requires { typed.cached; }) typed.cached = !outcome.executed;
        },
        response);
    return response;
  }

  [[nodiscard]] Response run(const EvaluateRequest& request, const support::CancelToken& cancel) {
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Evaluate));
    const runner::ArtifactKey model = model_key(request.catalog, request.network);
    mix_key(hasher, model);
    mix_key(hasher, request.assignment.digest());
    hasher.mix(request.entry).mix(request.target);
    return eval_cached(hasher.key(), cancel, [&](const support::CancelToken& token) -> Response {
      const std::shared_ptr<const ModelArtifact> artifact =
          get_model(model, request.catalog, request.network);
      const core::Assignment assignment =
          core::Assignment::from_json(artifact->network, request.assignment.json());
      EvaluateResponse response;
      const core::EdgeSimilarity similarity = core::edge_similarity(assignment);
      response.edge_similarity = similarity.total;
      response.average_similarity = similarity.average();
      response.normalized_richness = core::normalized_effective_richness(assignment);
      if (!request.entry.empty()) {
        const core::HostId entry = artifact->network.host_id(request.entry);
        const core::HostId target = artifact->network.host_id(request.target);
        bayes::DiversityMetricOptions metric_options;
        metric_options.inference.cancel = token;
        const bayes::DiversityMetricResult metric =
            bayes::bn_diversity_metric(assignment, entry, target, metric_options);
        response.pair_evaluated = true;
        response.d_bn = metric.d_bn;
        response.log10_p_with = metric.log10_with();
        const bayes::LeastEffortResult effort = bayes::least_attack_effort(
            assignment, entry, target, bayes::kMaxDistinctProducts, token);
        response.exploit_count = effort.exploit_count;
        sim::SimulationParams params;
        params.cancel = token;
        const sim::WormSimulator simulator(assignment, params);
        const sim::MttcResult mttc = simulator.mttc(entry, target, 500, 1);
        response.mttc_runs = mttc.runs;
        response.mttc_mean = mttc.mean;
        response.mttc_uncensored_mean = mttc.uncensored_mean;
        response.mttc_censored = mttc.censored;
      }
      return response;
    });
  }

  [[nodiscard]] Response run(const ReportRequest& request, const support::CancelToken& cancel) {
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Report));
    const runner::ArtifactKey model = model_key(request.catalog, request.network);
    mix_key(hasher, model);
    mix_key(hasher, request.assignment.digest());
    return eval_cached(hasher.key(), cancel, [&](const support::CancelToken& token) -> Response {
      const std::shared_ptr<const ModelArtifact> artifact =
          get_model(model, request.catalog, request.network);
      token.check("session.report");
      const core::Assignment assignment =
          core::Assignment::from_json(artifact->network, request.assignment.json());
      core::ReportOptions options;
      options.include_full_listing = true;
      ReportResponse response;
      response.text = core::diversification_report(assignment, {}, options);
      return response;
    });
  }

  [[nodiscard]] Response run(const SimilarityRequest& request, const support::CancelToken& cancel) {
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Similarity));
    mix_key(hasher, request.feed.digest());
    hasher.mix_range(request.cpes);
    return eval_cached(hasher.key(), cancel, [&](const support::CancelToken& token) -> Response {
      const nvd::VulnerabilityDatabase feed =
          nvd::VulnerabilityDatabase::from_json(request.feed.json());
      token.check("session.similarity");
      std::vector<nvd::ProductRef> products;
      for (const std::string& cpe : request.cpes) {
        products.push_back(nvd::ProductRef{cpe, nvd::CpeUri::parse(cpe)});
      }
      const nvd::SimilarityTable table = nvd::SimilarityTable::from_database(feed, products);
      SimilarityResponse response;
      for (std::size_t i = 0; i < products.size(); ++i) {
        for (std::size_t j = i + 1; j < products.size(); ++j) {
          response.pairs.push_back({products[i].name, products[j].name, table.similarity(i, j),
                                    table.shared_count(i, j), table.total_count(i),
                                    table.total_count(j)});
        }
      }
      return response;
    });
  }

  [[nodiscard]] Response run(const MetricRequest& request, const support::CancelToken& cancel) {
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Eval);
    hasher.mix(static_cast<std::uint64_t>(EvalOp::Metric));
    const runner::ArtifactKey model = model_key(request.catalog, request.network);
    mix_key(hasher, model);
    mix_key(hasher, request.assignment.digest());
    hasher.mix(request.entry).mix(request.target);
    return eval_cached(hasher.key(), cancel, [&](const support::CancelToken& token) -> Response {
      const std::shared_ptr<const ModelArtifact> artifact =
          get_model(model, request.catalog, request.network);
      const core::Assignment assignment =
          core::Assignment::from_json(artifact->network, request.assignment.json());
      bayes::DiversityMetricOptions metric_options;
      metric_options.inference.cancel = token;
      const bayes::DiversityMetricResult metric =
          bayes::bn_diversity_metric(assignment, artifact->network.host_id(request.entry),
                                     artifact->network.host_id(request.target), metric_options);
      MetricResponse response;
      response.d_bn = metric.d_bn;
      response.p_with = metric.p_with_similarity;
      response.p_without = metric.p_without_similarity;
      return response;
    });
  }

  [[nodiscard]] Response run(const BatchRequest& request, const support::CancelToken& cancel) {
    runner::KeyHasher hasher = domain_hasher(CacheDomain::Batch);
    mix_key(hasher, request.grid.digest());
    hasher.mix(static_cast<std::uint64_t>(request.threads));
    // The store is part of the identity: a store-backed run and a bare
    // run of the same grid report different stage counters, so they must
    // not coalesce onto one cached response.
    const std::string store_dir =
        request.store_dir.empty() ? options_.store_dir : request.store_dir;
    hasher.mix(store_dir);
    const auto outcome = batches_.get_or_compute(
        hasher.key(), cancel, [&](const support::CancelToken& token) {
          support::failpoint::evaluate("session.compute");
          const runner::ScenarioGrid grid = runner::ScenarioGrid::from_json(request.grid.json());
          const std::vector<runner::ScenarioSpec> specs = grid.expand();
          require(!specs.empty(), "batch", "grid expands to zero scenarios");
          // Fail on typos before any (potentially huge) workload gets built.
          for (const std::string& solver : grid.solvers) {
            if (!mrf::SolverRegistry::instance().contains(solver)) {
              throw InvalidArgument("unknown solver in grid: " + solver + " (registered: " +
                                    mrf::SolverRegistry::instance().names_joined(", ") + ")");
            }
          }
          const std::vector<std::string> recipes = runner::constraint_recipe_names();
          for (const std::string& recipe : grid.constraints) {
            if (std::find(recipes.begin(), recipes.end(), recipe) == recipes.end()) {
              throw InvalidArgument("unknown constraint recipe in grid: " + recipe);
            }
          }
          runner::BatchOptions options;
          options.threads = request.threads;
          options.store_dir = store_dir;
          options.on_result = options_.on_batch_result;
          options.cancel = token;
          const runner::BatchRunner batch(options);
          const runner::BatchReport report = batch.run(specs);
          // A report produced under an expired deadline is made of
          // deadline-failed cells — surface the deadline error instead of
          // caching a hollow report.
          token.check("session.batch");
          auto value = std::make_shared<BatchResponse>();
          value->report = report.to_json();
          std::ostringstream csv;
          report.write_csv(csv);
          value->csv = csv.str();
          value->cells = specs.size();
          value->failed = report.failed_count();
          {
            const support::MutexLock lock(stats_mutex_);
            batch_wall_seconds_total_ += report.wall_seconds;
            add_stage_stats(batch_stages_, report.stage_stats);
          }
          return value;
        });
    BatchResponse response = *outcome.value;
    response.cached = !outcome.executed;
    return response;
  }

  [[nodiscard]] Response run(const StatusRequest&, const support::CancelToken&) {
    return status();
  }
  [[nodiscard]] Response run(const VersionRequest&, const support::CancelToken&) {
    return version();
  }

  SessionOptions options_;
  support::Stopwatch started_;
  AdmissionGate gate_;
  CoalescingCache<ModelArtifact> models_;
  CoalescingCache<SolveValue> solves_;
  CoalescingCache<Response> evals_;
  CoalescingCache<BatchResponse> batches_;
  DocumentTable documents_;  ///< thread-safe on its own

  mutable support::Mutex stats_mutex_;
  std::size_t requests_total_ ICSDIV_GUARDED_BY(stats_mutex_) = 0;
  std::size_t requests_failed_ ICSDIV_GUARDED_BY(stats_mutex_) = 0;
  std::size_t requests_deadline_ ICSDIV_GUARDED_BY(stats_mutex_) = 0;
  double solve_seconds_total_ ICSDIV_GUARDED_BY(stats_mutex_) = 0.0;
  double batch_wall_seconds_total_ ICSDIV_GUARDED_BY(stats_mutex_) = 0.0;
  runner::StageStats batch_stages_ ICSDIV_GUARDED_BY(stats_mutex_);
};

Session::Session(SessionOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}

Session::~Session() = default;

Response Session::execute(const Request& request) { return impl_->execute(request); }

StatusResponse Session::status() const { return impl_->status(); }

DocumentTable& Session::documents() { return impl_->documents(); }

Response execute(const Request& request, Session& session) { return session.execute(request); }

}  // namespace icsdiv::api
