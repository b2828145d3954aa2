#include "runner/scenario_engine.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>

#include "bayes/compiled.hpp"
#include "core/metrics.hpp"
#include "core/optimizer.hpp"
#include "core/serialization.hpp"
#include "runner/disk_store.hpp"
#include "sim/compiled.hpp"
#include "support/bytes.hpp"
#include "support/cancel.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace icsdiv::runner {

namespace {

// ---------------------------------------------------------------------------
// Artifacts: the payload each stage shares, plus the summary that outlives
// its eviction (everything report assembly needs).

struct WorkloadSummary {
  std::size_t links = 0;
  std::size_t variables = 0;
  double seconds = 0.0;
};

struct ProblemArtifact {
  /// Co-owns the network through DiversificationProblem's shared-ownership
  /// ctor (aliased into the workload artifact), so the problem — and the
  /// assignments decoded from it — stay valid after the workload slot
  /// evicts.  In-place construction: the problem is not movable (its lazy
  /// compiled() cache holds a once_flag).
  ProblemArtifact(std::shared_ptr<const core::Network> network, core::ConstraintSet constraints)
      : problem(std::move(network), std::move(constraints)) {}

  core::DiversificationProblem problem;
};

struct ProblemSummary {
  double seconds = 0.0;
};

struct SolveArtifact {
  std::shared_ptr<const ProblemArtifact> problem;  ///< assignment points into it (compute path)
  /// Disk path: a solve record materialises its assignment onto the
  /// workload's network directly (no problem artifact exists), so the
  /// workload is the keepalive instead.
  std::shared_ptr<const WorkloadInstance> workload;
  core::OptimizeOutcome outcome;
};

struct SolveSummary {
  double energy = 0.0;
  double lower_bound = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  bool constraints_satisfied = false;
  double total_similarity = 0.0;
  double average_similarity = 0.0;
  double normalized_richness = 0.0;
  double seconds = 0.0;
};

struct ChannelsSummary {
  double seconds = 0.0;
};

/// Attack evaluation is a per-cell leaf: its "payload" is unused, the
/// summary carries the MTTC columns.
struct AttackSummary {
  std::size_t runs = 0;
  double mean = 0.0;
  double uncensored_mean = 0.0;
  std::size_t censored = 0;
  double seconds = 0.0;
};

struct MetricSummary {
  std::size_t pairs = 0;
  double d_bn_mean = 0.0;
  double d_bn_min = 0.0;
  double p_with_mean = 0.0;
  double p_without_mean = 0.0;
  double seconds = 0.0;
};

struct NoPayload {};

// ---------------------------------------------------------------------------
// Disk record codecs (DESIGN.md §13): flat little-endian summaries via
// support::ByteWriter, whose raw-bit-pattern doubles round-trip
// bit-identically — including the all-censored attack stage's NaN
// uncensored mean, which the JSON writer cannot carry.  Decoders throw on
// malformed input (records are checksummed before decoding, so a throw
// means a format bug, and the stage body catches it into the cell error).

std::string encode_summary(const WorkloadSummary& s) {
  support::ByteWriter w;
  w.u64(s.links).u64(s.variables).f64(s.seconds);
  return w.take();
}
WorkloadSummary decode_workload_summary(std::string_view data) {
  support::ByteReader r(data);
  WorkloadSummary s;
  s.links = r.u64();
  s.variables = r.u64();
  s.seconds = r.f64();
  require(r.exhausted(), "decode_workload_summary", "trailing bytes");
  return s;
}

std::string encode_summary(const ProblemSummary& s) {
  support::ByteWriter w;
  w.f64(s.seconds);
  return w.take();
}
ProblemSummary decode_problem_summary(std::string_view data) {
  support::ByteReader r(data);
  ProblemSummary s;
  s.seconds = r.f64();
  require(r.exhausted(), "decode_problem_summary", "trailing bytes");
  return s;
}

std::string encode_summary(const SolveSummary& s) {
  support::ByteWriter w;
  w.f64(s.energy)
      .f64(s.lower_bound)
      .u64(s.iterations)
      .boolean(s.converged)
      .boolean(s.constraints_satisfied)
      .f64(s.total_similarity)
      .f64(s.average_similarity)
      .f64(s.normalized_richness)
      .f64(s.seconds);
  return w.take();
}
SolveSummary decode_solve_summary(std::string_view data) {
  support::ByteReader r(data);
  SolveSummary s;
  s.energy = r.f64();
  s.lower_bound = r.f64();
  s.iterations = r.u64();
  s.converged = r.boolean();
  s.constraints_satisfied = r.boolean();
  s.total_similarity = r.f64();
  s.average_similarity = r.f64();
  s.normalized_richness = r.f64();
  s.seconds = r.f64();
  require(r.exhausted(), "decode_solve_summary", "trailing bytes");
  return s;
}

std::string encode_summary(const ChannelsSummary& s) {
  support::ByteWriter w;
  w.f64(s.seconds);
  return w.take();
}
ChannelsSummary decode_channels_summary(std::string_view data) {
  support::ByteReader r(data);
  ChannelsSummary s;
  s.seconds = r.f64();
  require(r.exhausted(), "decode_channels_summary", "trailing bytes");
  return s;
}

std::string encode_summary(const AttackSummary& s) {
  support::ByteWriter w;
  w.u64(s.runs).f64(s.mean).f64(s.uncensored_mean).u64(s.censored).f64(s.seconds);
  return w.take();
}
AttackSummary decode_attack_summary(std::string_view data) {
  support::ByteReader r(data);
  AttackSummary s;
  s.runs = r.u64();
  s.mean = r.f64();
  s.uncensored_mean = r.f64();
  s.censored = r.u64();
  s.seconds = r.f64();
  require(r.exhausted(), "decode_attack_summary", "trailing bytes");
  return s;
}

std::string encode_summary(const MetricSummary& s) {
  support::ByteWriter w;
  w.u64(s.pairs).f64(s.d_bn_mean).f64(s.d_bn_min).f64(s.p_with_mean).f64(s.p_without_mean).f64(
      s.seconds);
  return w.take();
}
MetricSummary decode_metric_summary(std::string_view data) {
  support::ByteReader r(data);
  MetricSummary s;
  s.pairs = r.u64();
  s.d_bn_mean = r.f64();
  s.d_bn_min = r.f64();
  s.p_with_mean = r.f64();
  s.p_without_mean = r.f64();
  s.seconds = r.f64();
  require(r.exhausted(), "decode_metric_summary", "trailing bytes");
  return s;
}

using WorkloadStore = ArtifactStore<WorkloadInstance, WorkloadSummary>;
using ProblemStore = ArtifactStore<ProblemArtifact, ProblemSummary>;
using SolveStore = ArtifactStore<SolveArtifact, SolveSummary>;
using ChannelsStore = ArtifactStore<sim::PropagationChannels, ChannelsSummary>;
using AttackStore = ArtifactStore<NoPayload, AttackSummary>;
using MetricStore = ArtifactStore<NoPayload, MetricSummary>;

// ---------------------------------------------------------------------------
// Stage keys: hash exactly the spec fields the stage's computation reads,
// chained onto the parent key.  A distinct tag per stage separates the
// hash domains.

enum class StageTag : std::uint64_t { Workload = 1, Problem, Solve, Channels, Attack, Metric };

KeyHasher chain(StageTag tag, const ArtifactKey& parent) {
  KeyHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(tag)).mix(parent.hi).mix(parent.lo);
  return hasher;
}

ArtifactKey workload_key(const ScenarioSpec& spec) {
  KeyHasher hasher = chain(StageTag::Workload, {});
  const WorkloadParams& w = spec.workload;
  hasher.mix(w.hosts)
      .mix(w.average_degree)
      .mix(w.services)
      .mix(w.products_per_service)
      .mix(w.similar_pair_fraction)
      .mix(w.max_similarity)
      .mix(spec.seed);  // the scenario seed is the cell's generation stream
  return hasher.key();
}

ArtifactKey problem_key(const ArtifactKey& workload, const ScenarioSpec& spec) {
  return chain(StageTag::Problem, workload).mix(spec.constraints).key();
}

ArtifactKey solve_key(const ArtifactKey& problem, const ScenarioSpec& spec) {
  KeyHasher hasher = chain(StageTag::Solve, problem);
  hasher.mix(spec.solver)
      .mix(spec.solve.max_iterations)
      .mix(spec.solve.tolerance)
      .mix(static_cast<std::uint64_t>(spec.solve.initial_labels.size()))
      .mix(spec.decompose);
  for (const mrf::Label label : spec.solve.initial_labels) {
    hasher.mix(static_cast<std::uint64_t>(label));
  }
  // ScenarioSpec::parallel is deliberately absent: the decomposed solve is
  // bit-identical at any fan-out (pinned by the batch determinism tests),
  // so cells differing only in the flag share the artifact.
  return hasher.key();
}

ArtifactKey channels_key(const ArtifactKey& solve, const bayes::PropagationModel& model) {
  return chain(StageTag::Channels, solve)
      .mix(model.p_avg)
      .mix(model.similarity_weight)
      .mix(model.consider_similarity)
      .key();
}

ArtifactKey attack_key(const ArtifactKey& channels, const AttackSpec& attack) {
  KeyHasher hasher = chain(StageTag::Attack, channels);
  hasher.mix_range(attack.entries)
      .mix(static_cast<std::uint64_t>(attack.target))
      .mix(attack.strategy)
      .mix(attack.detection)
      .mix(attack.runs)
      .mix(attack.max_ticks)
      .mix(attack.seed);
  return hasher.key();
}

ArtifactKey metric_key(const ArtifactKey& solve, const MetricsSpec& metrics) {
  KeyHasher hasher = chain(StageTag::Metric, solve);
  hasher.mix_range(metrics.entries)
      .mix_range(metrics.targets)
      .mix(metrics.engine)
      .mix(metrics.samples)
      .mix(metrics.exact_max_edges)
      .mix(metrics.seed);
  return hasher.key();
}

// ---------------------------------------------------------------------------
// Stage bodies.  Each runs inside a scheduler task: it propagates an
// ancestor's error instead of computing, catches its own exceptions into
// the slot's error, and releases the parent payloads it consumed.

sim::SimulationParams attack_params(const AttackSpec& attack) {
  sim::SimulationParams params;
  if (attack.strategy == "sophisticated") {
    params.strategy = sim::AttackerStrategy::Sophisticated;
  } else if (attack.strategy == "uniform") {
    params.strategy = sim::AttackerStrategy::Uniform;
  } else {
    throw InvalidArgument("unknown attacker strategy: " + attack.strategy +
                          " (known: sophisticated, uniform)");
  }
  params.detection_probability = attack.detection;
  params.max_ticks = attack.max_ticks;
  return params;
}

void run_workload_stage(WorkloadStore::Slot& slot, const WorkloadParams& params,
                        std::uint64_t seed, const support::CancelToken& cancel) {
  try {
    cancel.check("stage.workload");
    support::failpoint::evaluate("stage.workload");
    support::Stopwatch watch;
    WorkloadParams seeded = params;
    seeded.seed = seed;  // the scenario seed is the cell's RNG stream
    auto instance = std::make_shared<WorkloadInstance>(make_workload(seeded));
    slot.summary.links = instance->network->topology().edge_count();
    slot.summary.variables = instance->network->instance_count();
    slot.summary.seconds = watch.seconds();
    slot.payload = std::move(instance);
  } catch (const std::exception& error) {
    slot.error = error.what();
  }
}

void run_problem_stage(ProblemStore::Slot& slot, WorkloadStore& workloads,
                       std::size_t workload_slot, const std::string& recipe,
                       const support::CancelToken& cancel) {
  const WorkloadStore::Slot& parent = workloads.at(workload_slot);
  if (!parent.error.empty()) {
    slot.error = parent.error;
  } else {
    try {
      cancel.check("stage.problem");
      support::Stopwatch watch;
      const std::shared_ptr<const WorkloadInstance> workload = parent.payload;
      // Aliased shared_ptr: the network pointer, the workload's lifetime.
      std::shared_ptr<const core::Network> network(workload, workload->network.get());
      core::ConstraintSet constraints = apply_constraint_recipe(recipe, *network);
      slot.payload =
          std::make_shared<ProblemArtifact>(std::move(network), std::move(constraints));
      slot.summary.seconds = watch.seconds();
    } catch (const std::exception& error) {
      slot.error = error.what();
    }
  }
  workloads.release(workload_slot);
}

void run_solve_stage(SolveStore::Slot& slot, ProblemStore& problems, std::size_t problem_slot,
                     const ScenarioSpec& spec, bool parallel,
                     const support::CancelToken& cancel) {
  const ProblemStore::Slot& parent = problems.at(problem_slot);
  if (!parent.error.empty()) {
    slot.error = parent.error;
  } else {
    try {
      cancel.check("stage.solve");
      support::failpoint::evaluate("stage.solve");
      support::Stopwatch watch;
      const std::shared_ptr<const ProblemArtifact> problem = parent.payload;

      core::OptimizeOptions options;
      options.solver = spec.solver;
      options.solve = spec.solve;
      options.solve.cancel = cancel;
      options.decompose = spec.decompose;
      options.parallel = parallel;

      // Shared-ownership optimizer: aliases the problem artifact, so the
      // network cannot die under it however long the solve runs.
      const core::Optimizer optimizer(
          std::shared_ptr<const core::Network>(problem, &problem->problem.network()));
      core::OptimizeOutcome outcome = optimizer.optimize_problem(problem->problem, options);
      // Truncated artifacts are timing-dependent: cells sharing this slot
      // would silently consume a partial solve, so fail the cell instead.
      if (outcome.solve.truncated) cancel.check("stage.solve");
      ensure(outcome.assignment.complete(), "run_scenario",
             "solver returned an incomplete assignment");

      slot.summary.energy = outcome.solve.energy;
      slot.summary.lower_bound = outcome.solve.lower_bound;
      slot.summary.iterations = outcome.solve.iterations;
      slot.summary.converged = outcome.solve.converged;
      slot.summary.constraints_satisfied = outcome.constraints_satisfied;
      slot.summary.total_similarity = outcome.pairwise_similarity;
      slot.summary.average_similarity = outcome.average_similarity;
      slot.summary.normalized_richness = core::normalized_effective_richness(outcome.assignment);
      slot.payload =
          std::make_shared<SolveArtifact>(SolveArtifact{problem, nullptr, std::move(outcome)});
      slot.summary.seconds = watch.seconds();
    } catch (const std::exception& error) {
      slot.error = error.what();
    }
  }
  problems.release(problem_slot);
}

void run_channels_stage(ChannelsStore::Slot& slot, SolveStore& solves, std::size_t solve_slot,
                        const bayes::PropagationModel& model,
                        const support::CancelToken& cancel) {
  const SolveStore::Slot& parent = solves.at(solve_slot);
  if (!parent.error.empty()) {
    slot.error = parent.error;
  } else {
    try {
      cancel.check("stage.channels");
      support::Stopwatch watch;
      // The channel pools only read the assignment during construction, so
      // they need no keepalive of the solve artifact afterwards.
      slot.payload = std::make_shared<const sim::PropagationChannels>(
          parent.payload->outcome.assignment, model);
      slot.summary.seconds = watch.seconds();
    } catch (const std::exception& error) {
      slot.error = error.what();
    }
  }
  solves.release(solve_slot);
}

/// The attack block's MTTC aggregation over the entry hosts —
/// deterministic given the spec (historical per-entry seed formula).
void run_attack_stage(AttackStore::Slot& slot, ChannelsStore& channels,
                      std::size_t channels_slot, const AttackSpec& attack, bool parallel,
                      const support::CancelToken& cancel) {
  const ChannelsStore::Slot& parent = channels.at(channels_slot);
  if (!parent.error.empty()) {
    slot.error = parent.error;
  } else {
    try {
      cancel.check("stage.attack");
      require(!attack.entries.empty(), "run_attack", "attack block needs at least one entry");
      require(attack.runs > 0, "run_attack", "attack block needs at least one run");

      support::Stopwatch watch;
      sim::SimulationParams params = attack_params(attack);
      params.cancel = cancel;
      const sim::CompiledPropagation propagation(parent.payload, params);
      double mean_sum = 0.0;
      double uncensored_sum = 0.0;
      std::size_t uncensored_runs = 0;
      for (std::size_t e = 0; e < attack.entries.size(); ++e) {
        // Distinct deterministic seed per entry — sim::run_mttc_grid's
        // historical per-entry formula.
        const std::uint64_t entry_seed = attack.seed + 1000003ULL * e;
        const sim::MttcResult mttc = propagation.mttc(attack.entries[e], attack.target,
                                                      attack.runs, entry_seed, parallel);
        mean_sum += mttc.mean;
        slot.summary.censored += mttc.censored;
        const std::size_t reached = attack.runs - mttc.censored;
        if (reached > 0) {
          uncensored_sum += mttc.uncensored_mean * static_cast<double>(reached);
          uncensored_runs += reached;
        }
      }
      slot.summary.runs = attack.runs * attack.entries.size();
      slot.summary.mean = mean_sum / static_cast<double>(attack.entries.size());
      slot.summary.uncensored_mean =
          uncensored_runs > 0 ? uncensored_sum / static_cast<double>(uncensored_runs)
                              : std::numeric_limits<double>::quiet_NaN();
      slot.summary.seconds = watch.seconds();
    } catch (const std::exception& error) {
      slot.error = error.what();
    }
  }
  channels.release(channels_slot);
}

/// The metrics block's Def. 6 aggregation over entry × target pairs —
/// deterministic given the spec (the sharded sampler is bit-identical at
/// any thread count).
void run_metric_stage(MetricStore::Slot& slot, SolveStore& solves, std::size_t solve_slot,
                      const MetricsSpec& metrics, bool parallel,
                      const support::CancelToken& cancel) {
  const SolveStore::Slot& parent = solves.at(solve_slot);
  if (!parent.error.empty()) {
    slot.error = parent.error;
  } else {
    try {
      cancel.check("stage.metric");
      require(!metrics.entries.empty(), "run_metrics", "metrics block needs at least one entry");
      require(!metrics.targets.empty(), "run_metrics",
              "metrics block needs at least one target");

      support::Stopwatch watch;
      const core::Assignment& assignment = parent.payload->outcome.assignment;
      bayes::InferenceOptions inference;
      inference.engine = bayes::inference_engine_from_name(metrics.engine);
      inference.mc_samples = metrics.samples;
      inference.exact_max_edges = metrics.exact_max_edges;
      inference.parallel = parallel;
      inference.cancel = cancel;

      double d_bn_sum = 0.0;
      double with_sum = 0.0;
      double without_sum = 0.0;
      double d_bn_min = std::numeric_limits<double>::infinity();
      for (std::size_t e = 0; e < metrics.entries.size(); ++e) {
        // Distinct deterministic stream per entry — the attack block's
        // per-entry formula.
        inference.seed = metrics.seed + 1000003ULL * e;
        const bayes::CompiledReliability compiled(assignment, metrics.entries[e],
                                                  bayes::PropagationModel{});
        const bayes::ReliabilitySweep sweep = compiled.solve_targets(metrics.targets, inference);
        for (const core::HostId target : metrics.targets) {
          const double p_with = sweep.p[target];
          const double p_without = sweep.p_baseline[target];
          require(p_with > 0.0, "run_metrics",
                  "metrics target " + std::to_string(target) + " is unreachable from entry " +
                      std::to_string(metrics.entries[e]) + " (d_bn is undefined)");
          const double d_bn = p_without / p_with;
          d_bn_sum += d_bn;
          with_sum += p_with;
          without_sum += p_without;
          d_bn_min = std::min(d_bn_min, d_bn);
        }
      }
      const auto pairs = static_cast<double>(metrics.entries.size() * metrics.targets.size());
      slot.summary.pairs = metrics.entries.size() * metrics.targets.size();
      slot.summary.d_bn_mean = d_bn_sum / pairs;
      slot.summary.d_bn_min = d_bn_min;
      slot.summary.p_with_mean = with_sum / pairs;
      slot.summary.p_without_mean = without_sum / pairs;
      slot.summary.seconds = watch.seconds();
    } catch (const std::exception& error) {
      slot.error = error.what();
    }
  }
  solves.release(solve_slot);
}

// ---------------------------------------------------------------------------
// The task DAG and its scheduler.

struct Task {
  std::function<void()> body;  ///< never throws (stage bodies catch)
  std::atomic<std::size_t> pending{0};
  std::vector<std::size_t> dependents;
};

/// Runs the DAG: ready tasks are dispatched to the pool, and completing
/// tasks unlock their dependents (dependency counting).  Stage bodies
/// catch their own failures into slot errors, so a throwing body can only
/// be infrastructure or a user `on_result` callback — the DAG still
/// drains (dependents must run to keep refcounts and the report sound)
/// and the first exception is rethrown afterwards, the run_cells /
/// parallel_for contract ("exceptions propagate, first wins").
void run_dag(std::deque<Task>& tasks, std::size_t threads) {
  if (tasks.empty()) return;
  support::Mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex until the joins below
  const auto run_body = [&](Task& task) {
    try {
      task.body();
    } catch (...) {
      const support::MutexLock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  if (threads <= 1) {
    // Deterministic topological worklist (FIFO, seeded in plan order).
    std::vector<std::size_t> ready;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (tasks[t].pending.load(std::memory_order_relaxed) == 0) ready.push_back(t);
    }
    for (std::size_t next = 0; next < ready.size(); ++next) {
      Task& task = tasks[ready[next]];
      run_body(task);
      for (const std::size_t dependent : task.dependents) {
        if (tasks[dependent].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          ready.push_back(dependent);
        }
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  // Snapshot the initially-ready set BEFORE any worker runs: once tasks
  // execute, dependents start reaching pending == 0 through the dependency
  // path, and a live scan here would submit those a second time.
  std::vector<std::size_t> ready;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].pending.load(std::memory_order_relaxed) == 0) ready.push_back(t);
  }

  support::Mutex mutex;
  support::CondVar done;
  std::size_t remaining = tasks.size();  // guarded by mutex
  std::function<void(std::size_t)> execute;
  // The pool is declared after everything `execute` captures, so its
  // destructor (which joins the workers) runs first — no worker can still
  // be inside `execute` when the function object is destroyed.
  support::ThreadPool pool(threads);

  // Self-referential dispatch: each finished task submits the dependents
  // it unlocked from its own worker thread.
  execute = [&](std::size_t index) {
    Task& task = tasks[index];
    run_body(task);
    for (const std::size_t dependent : task.dependents) {
      if (tasks[dependent].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        try {
          pool.submit([&execute, dependent] { execute(dependent); });
        } catch (...) {
          // submit() allocates; under memory pressure the exception would
          // otherwise vanish into the discarded future and strand the
          // dependent (and `remaining`) forever.  Degrade to inline
          // execution — the DAG must drain for run() to return.
          execute(dependent);
        }
      }
    }
    {
      const support::MutexLock lock(mutex);
      --remaining;
    }
    done.notify_one();
  };

  for (const std::size_t t : ready) {
    pool.submit([&execute, t] { execute(t); });
  }
  {
    const support::MutexLock lock(mutex);
    while (remaining != 0) done.wait(mutex);
  }
  if (first_error) std::rethrow_exception(first_error);
}

constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);

/// Per-cell wiring: which store slots feed this cell's report row.
struct CellPlan {
  std::size_t workload = kNoStage;
  std::size_t problem = kNoStage;
  std::size_t solve = kNoStage;
  std::size_t channels = kNoStage;
  std::size_t attack = kNoStage;
  std::size_t metric = kNoStage;
};

/// Planning-time disposition of one freshly interned store slot: whether
/// its result comes from a validated on-disk record or a computation,
/// whether any consumer needs the payload materialised, and the wiring
/// its task body needs (the first-interning cell's spec, parent slots).
/// Indexed in parallel with the store's slots (fresh interns append).
struct SlotPlan {
  bool from_disk = false;
  bool payload_wanted = false;
  DiskArtifactStore::Record record;  ///< validated mapping when from_disk
  const ScenarioSpec* spec = nullptr;
  bool parallel = false;
  std::size_t parent = kNoStage;    ///< slot in the parent stage's store
  std::size_t workload = kNoStage;  ///< solve only: the root workload slot
};

}  // namespace

std::size_t resolve_batch_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ArtifactKey scenario_solve_key(const ScenarioSpec& spec) {
  return solve_key(problem_key(workload_key(spec), spec), spec);
}

ScenarioEngine::ScenarioEngine(BatchOptions options) : options_(std::move(options)) {}

BatchReport ScenarioEngine::run(const std::vector<ScenarioSpec>& specs) const {
  const std::size_t threads = std::min(resolve_batch_threads(options_.threads),
                                       std::max<std::size_t>(1, specs.size()));
  const bool reuse = options_.reuse_artifacts;

  BatchReport report;
  report.threads = threads;
  report.results.resize(specs.size());

  WorkloadStore workloads;
  ProblemStore problems;
  SolveStore solves;
  ChannelsStore channels;
  AttackStore attacks;
  MetricStore metrics;

  // The optional persistent tier (DESIGN.md §13).  A manifest from a
  // different format version disables it — every probe then misses.
  std::optional<DiskArtifactStore> disk_storage;
  if (!options_.store_dir.empty()) disk_storage.emplace(DiskStoreOptions{options_.store_dir});
  const DiskArtifactStore* disk =
      disk_storage && disk_storage->usable() ? &*disk_storage : nullptr;

  std::deque<Task> tasks;
  std::vector<CellPlan> cells(specs.size());
  // Slot plans, parallel to each store's slots (deque: task bodies hold
  // references into them).
  std::deque<SlotPlan> wplan, pplan, splan, chplan, aplan, mplan;

  const auto add_task = [&](std::function<void()> body,
                            const std::vector<std::size_t>& parents) {
    const std::size_t index = tasks.size();
    Task& task = tasks.emplace_back();
    task.body = std::move(body);
    task.pending.store(parents.size(), std::memory_order_relaxed);
    for (const std::size_t parent : parents) tasks[parent].dependents.push_back(index);
    return index;
  };

  // ------------------------------------------------------ phase A: interning
  // Walk the cells once, interning slots and probing the disk tier for
  // each freshly interned key.  A probe maps and fully validates the
  // record here, at plan time — execution can only decode, not discover
  // corruption.  No tasks yet: whether a slot's task computes or decodes
  // (and which parent payloads it therefore needs) is only known after
  // every cell is planned, so task wiring happens in phase B.
  const auto probe = [disk](StageTag stage, const ArtifactKey& key, SlotPlan& plan) {
    if (disk == nullptr) return;
    if (auto record = disk->load(static_cast<std::uint32_t>(stage), key)) {
      plan.from_disk = true;
      plan.record = std::move(*record);
    }
  };

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& spec = specs[i];
    CellPlan& cell = cells[i];
    const bool parallel = options_.inner_parallel.value_or(spec.parallel);

    bool fresh = false;
    const ArtifactKey wkey = workload_key(spec);
    cell.workload = workloads.intern(wkey, reuse, fresh);
    if (fresh) {
      SlotPlan& plan = wplan.emplace_back();
      plan.spec = &spec;
      probe(StageTag::Workload, wkey, plan);
    }

    const ArtifactKey pkey = problem_key(wkey, spec);
    cell.problem = problems.intern(pkey, reuse, fresh);
    if (fresh) {
      SlotPlan& plan = pplan.emplace_back();
      plan.spec = &spec;
      plan.parent = cell.workload;
      probe(StageTag::Problem, pkey, plan);
    }

    const ArtifactKey skey = solve_key(pkey, spec);
    cell.solve = solves.intern(skey, reuse, fresh);
    if (fresh) {
      SlotPlan& plan = splan.emplace_back();
      plan.spec = &spec;
      plan.parallel = parallel;
      plan.parent = cell.problem;
      plan.workload = cell.workload;
      probe(StageTag::Solve, skey, plan);
    }

    // Every cell's finalize releases the solve payload once, so solve
    // artifacts with no evaluation consumers (plain solve grids) still
    // evict as their cells complete instead of accumulating for the whole
    // batch — the pre-refactor per-cell lifetime, kept.
    solves.add_consumer(cell.solve);

    if (spec.attack) {
      // The channel pools depend on the model only — every strategy /
      // detection / horizon combination shares them.
      const ArtifactKey chkey = channels_key(skey, sim::SimulationParams{}.model);
      cell.channels = channels.intern(chkey, reuse, fresh);
      if (fresh) {
        SlotPlan& plan = chplan.emplace_back();
        plan.spec = &spec;
        plan.parent = cell.solve;
        probe(StageTag::Channels, chkey, plan);
      }

      const ArtifactKey akey = attack_key(chkey, *spec.attack);
      cell.attack = attacks.intern(akey, reuse, fresh);
      if (fresh) {
        SlotPlan& plan = aplan.emplace_back();
        plan.spec = &spec;
        plan.parallel = parallel;
        plan.parent = cell.channels;
        probe(StageTag::Attack, akey, plan);
      }
    }

    if (spec.metrics) {
      const ArtifactKey mkey = metric_key(skey, *spec.metrics);
      cell.metric = metrics.intern(mkey, reuse, fresh);
      if (fresh) {
        SlotPlan& plan = mplan.emplace_back();
        plan.spec = &spec;
        plan.parallel = parallel;
        plan.parent = cell.solve;
        probe(StageTag::Metric, mkey, plan);
      }
    }
  }

  // ------------------------------------------- phase A: disk dispositions
  // Downstream-first payload propagation: a stage that will *compute*
  // needs its parent's payload materialised.  A solve served from disk
  // decodes its assignment onto the workload's network directly (no
  // problem artifact exists on that path), so it wants the workload
  // payload instead of the problem's.  Problem records are summary-only —
  // a problem whose payload is wanted upgrades back to compute.  Workload
  // and channels records carry their payloads, so they never upgrade, and
  // the propagation terminates in one pass (wants only flow upstream).
  for (SlotPlan& plan : aplan) {
    if (!plan.from_disk) chplan[plan.parent].payload_wanted = true;
  }
  for (SlotPlan& plan : mplan) {
    if (!plan.from_disk) splan[plan.parent].payload_wanted = true;
  }
  for (SlotPlan& plan : chplan) {
    if (!plan.from_disk) splan[plan.parent].payload_wanted = true;
  }
  for (SlotPlan& plan : splan) {
    if (!plan.from_disk) {
      pplan[plan.parent].payload_wanted = true;
    } else if (plan.payload_wanted) {
      wplan[plan.workload].payload_wanted = true;
    }
  }
  for (SlotPlan& plan : pplan) {
    if (plan.from_disk && plan.payload_wanted) {
      plan.from_disk = false;  // a summary-only record cannot serve the payload
      plan.record.file.reset();
    }
    if (!plan.from_disk) wplan[plan.parent].payload_wanted = true;
  }

  const auto note_disk_loads = [](auto& store, const std::deque<SlotPlan>& plans) {
    for (const SlotPlan& plan : plans) {
      if (plan.from_disk) store.note_disk_load();
    }
  };
  note_disk_loads(workloads, wplan);
  note_disk_loads(problems, pplan);
  note_disk_loads(solves, splan);
  note_disk_loads(channels, chplan);
  note_disk_loads(attacks, aplan);
  note_disk_loads(metrics, mplan);

  // ------------------------------------------------- phase B: task wiring
  // One producing task per slot, created in stage order from the final
  // dispositions.  Compute tasks run the stage body and then publish the
  // record; disk tasks decode the plan-time-validated record (and
  // materialise the payload only when a consumer wants it).  Consumer
  // refcounts are registered here, from the final dispositions — a
  // disk-served stage holds no reference to its parent's payload.
  std::vector<std::size_t> workload_task(wplan.size()), problem_task(pplan.size()),
      solve_task(splan.size()), channels_task(chplan.size()), attack_task(aplan.size()),
      metric_task(mplan.size());

  for (std::size_t s = 0; s < wplan.size(); ++s) {
    SlotPlan& plan = wplan[s];
    WorkloadStore::Slot& slot = workloads.at(s);
    if (plan.from_disk) {
      workload_task[s] = add_task(
          [&slot, &plan, this] {
            try {
              options_.cancel.check("stage.workload");
              slot.summary = decode_workload_summary(plan.record.summary);
              if (plan.payload_wanted) {
                const support::Json doc = support::Json::parse(plan.record.payload);
                auto instance = std::make_shared<WorkloadInstance>();
                instance->catalog = std::make_unique<core::ProductCatalog>(
                    core::catalog_from_json(doc.as_object().at("catalog")));
                instance->network = std::make_unique<core::Network>(core::network_from_json(
                    *instance->catalog, doc.as_object().at("network")));
                slot.payload = std::move(instance);
              }
            } catch (const std::exception& error) {
              slot.error = error.what();
            }
            plan.record.file.reset();
          },
          {});
    } else {
      workload_task[s] = add_task(
          [&slot, &plan, &workloads, disk, this] {
            run_workload_stage(slot, plan.spec->workload, plan.spec->seed, options_.cancel);
            if (disk != nullptr && slot.error.empty()) {
              support::JsonObject doc;
              doc.set("catalog", core::catalog_to_json(*slot.payload->catalog));
              doc.set("network", core::network_to_json(*slot.payload->network));
              if (disk->publish(static_cast<std::uint32_t>(StageTag::Workload), slot.key,
                                encode_summary(slot.summary), support::Json(doc).dump())) {
                workloads.note_disk_write();
              }
            }
          },
          {});
    }
  }

  for (std::size_t s = 0; s < pplan.size(); ++s) {
    SlotPlan& plan = pplan[s];
    ProblemStore::Slot& slot = problems.at(s);
    if (plan.from_disk) {
      problem_task[s] = add_task(
          [&slot, &plan, this] {
            try {
              options_.cancel.check("stage.problem");
              slot.summary = decode_problem_summary(plan.record.summary);
            } catch (const std::exception& error) {
              slot.error = error.what();
            }
            plan.record.file.reset();
          },
          {});
    } else {
      workloads.add_consumer(plan.parent);
      problem_task[s] = add_task(
          [&slot, &plan, &workloads, &problems, disk, this] {
            run_problem_stage(slot, workloads, plan.parent, plan.spec->constraints,
                              options_.cancel);
            if (disk != nullptr && slot.error.empty() &&
                disk->publish(static_cast<std::uint32_t>(StageTag::Problem), slot.key,
                              encode_summary(slot.summary), {})) {
              problems.note_disk_write();
            }
          },
          {workload_task[plan.parent]});
    }
  }

  for (std::size_t s = 0; s < splan.size(); ++s) {
    SlotPlan& plan = splan[s];
    SolveStore::Slot& slot = solves.at(s);
    if (plan.from_disk) {
      std::vector<std::size_t> parents;
      if (plan.payload_wanted) {
        // Materialising the assignment needs the workload's network (and
        // keeps the workload alive for the artifact's lifetime).
        workloads.add_consumer(plan.workload);
        parents.push_back(workload_task[plan.workload]);
      }
      solve_task[s] = add_task(
          [&slot, &plan, &workloads, this] {
            try {
              options_.cancel.check("stage.solve");
              slot.summary = decode_solve_summary(plan.record.summary);
              if (plan.payload_wanted) {
                const WorkloadStore::Slot& parent = workloads.at(plan.workload);
                if (!parent.error.empty()) throw Error(parent.error);
                std::shared_ptr<const WorkloadInstance> workload = parent.payload;
                const support::Json doc = support::Json::parse(plan.record.payload);
                core::OptimizeOutcome outcome{
                    core::Assignment::from_json(*workload->network, doc),
                    {},
                    slot.summary.total_similarity,
                    slot.summary.average_similarity,
                    slot.summary.constraints_satisfied};
                outcome.solve.energy = slot.summary.energy;
                outcome.solve.lower_bound = slot.summary.lower_bound;
                outcome.solve.iterations = slot.summary.iterations;
                outcome.solve.converged = slot.summary.converged;
                slot.payload = std::make_shared<SolveArtifact>(
                    SolveArtifact{nullptr, std::move(workload), std::move(outcome)});
              }
            } catch (const std::exception& error) {
              slot.error = error.what();
            }
            plan.record.file.reset();
            if (plan.payload_wanted) workloads.release(plan.workload);
          },
          parents);
    } else {
      problems.add_consumer(plan.parent);
      solve_task[s] = add_task(
          [&slot, &plan, &problems, &solves, disk, this] {
            run_solve_stage(slot, problems, plan.parent, *plan.spec, plan.parallel,
                            options_.cancel);
            if (disk != nullptr && slot.error.empty() &&
                disk->publish(static_cast<std::uint32_t>(StageTag::Solve), slot.key,
                              encode_summary(slot.summary),
                              slot.payload->outcome.assignment.to_json().dump())) {
              solves.note_disk_write();
            }
          },
          {problem_task[plan.parent]});
    }
  }

  for (std::size_t s = 0; s < chplan.size(); ++s) {
    SlotPlan& plan = chplan[s];
    ChannelsStore::Slot& slot = channels.at(s);
    if (plan.from_disk) {
      channels_task[s] = add_task(
          [&slot, &plan, this] {
            try {
              options_.cancel.check("stage.channels");
              slot.summary = decode_channels_summary(plan.record.summary);
              if (plan.payload_wanted) {
                slot.payload = std::make_shared<const sim::PropagationChannels>(
                    sim::PropagationChannels::deserialize(plan.record.payload));
              }
            } catch (const std::exception& error) {
              slot.error = error.what();
            }
            plan.record.file.reset();
          },
          {});
    } else {
      solves.add_consumer(plan.parent);
      channels_task[s] = add_task(
          [&slot, &plan, &solves, &channels, disk, this] {
            run_channels_stage(slot, solves, plan.parent, sim::SimulationParams{}.model,
                               options_.cancel);
            if (disk != nullptr && slot.error.empty() &&
                disk->publish(static_cast<std::uint32_t>(StageTag::Channels), slot.key,
                              encode_summary(slot.summary), slot.payload->serialize())) {
              channels.note_disk_write();
            }
          },
          {solve_task[plan.parent]});
    }
  }

  for (std::size_t s = 0; s < aplan.size(); ++s) {
    SlotPlan& plan = aplan[s];
    AttackStore::Slot& slot = attacks.at(s);
    if (plan.from_disk) {
      attack_task[s] = add_task(
          [&slot, &plan, this] {
            try {
              options_.cancel.check("stage.attack");
              slot.summary = decode_attack_summary(plan.record.summary);
            } catch (const std::exception& error) {
              slot.error = error.what();
            }
            plan.record.file.reset();
          },
          {});
    } else {
      channels.add_consumer(plan.parent);
      attack_task[s] = add_task(
          [&slot, &plan, &channels, &attacks, disk, this] {
            run_attack_stage(slot, channels, plan.parent, *plan.spec->attack, plan.parallel,
                             options_.cancel);
            if (disk != nullptr && slot.error.empty() &&
                disk->publish(static_cast<std::uint32_t>(StageTag::Attack), slot.key,
                              encode_summary(slot.summary), {})) {
              attacks.note_disk_write();
            }
          },
          {channels_task[plan.parent]});
    }
  }

  for (std::size_t s = 0; s < mplan.size(); ++s) {
    SlotPlan& plan = mplan[s];
    MetricStore::Slot& slot = metrics.at(s);
    if (plan.from_disk) {
      metric_task[s] = add_task(
          [&slot, &plan, this] {
            try {
              options_.cancel.check("stage.metric");
              slot.summary = decode_metric_summary(plan.record.summary);
            } catch (const std::exception& error) {
              slot.error = error.what();
            }
            plan.record.file.reset();
          },
          {});
    } else {
      solves.add_consumer(plan.parent);
      metric_task[s] = add_task(
          [&slot, &plan, &solves, &metrics, disk, this] {
            run_metric_stage(slot, solves, plan.parent, *plan.spec->metrics, plan.parallel,
                             options_.cancel);
            if (disk != nullptr && slot.error.empty() &&
                disk->publish(static_cast<std::uint32_t>(StageTag::Metric), slot.key,
                              encode_summary(slot.summary), {})) {
              metrics.note_disk_write();
            }
          },
          {solve_task[plan.parent]});
    }
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::vector<std::size_t> leaves{solve_task[cells[i].solve]};
    if (cells[i].attack != kNoStage) leaves.push_back(attack_task[cells[i].attack]);
    if (cells[i].metric != kNoStage) leaves.push_back(metric_task[cells[i].metric]);

    // Finalize: assemble the report row from the stage summaries and fire
    // on_result from the completing thread — a cell "completes" when its
    // last stage does, exactly as the monolithic runner behaved.  The
    // solve/attack/metric leaves are always distinct tasks.
    add_task(
        [this, &report, &specs, &cells, &workloads, &problems, &solves, &channels, &attacks,
         &metrics, i] {
          const ScenarioSpec& row_spec = specs[i];
          const CellPlan& row_cell = cells[i];
          ScenarioResult& result = report.results[i];
          result.index = i;
          result.name = row_spec.name.empty() ? row_spec.derive_name() : row_spec.name;
          result.hosts = row_spec.workload.hosts;
          result.degree = row_spec.workload.average_degree;
          result.services = row_spec.workload.services;
          result.products_per_service = row_spec.workload.products_per_service;
          result.solver = row_spec.solver;
          result.constraints = row_spec.constraints;
          result.seed = row_spec.seed;
          if (row_spec.attack) {
            // Axis echo like solver/constraints: row_spec-derived, so a failed
            // row_cell still lands in its (strategy, detection) aggregate group.
            result.attack_strategy = row_spec.attack->strategy;
            result.attack_detection = row_spec.attack->detection;
          }
          if (row_spec.metrics) result.metric_engine = row_spec.metrics->engine;

          // First failing stage (in pipeline order) fails the cell; every
          // other field but the axis echo is then meaningless.
          const auto fail = [&](const std::string& error) { result.error = error; };
          const WorkloadStore::Slot& workload = workloads.at(row_cell.workload);
          const ProblemStore::Slot& problem = problems.at(row_cell.problem);
          const SolveStore::Slot& solve = solves.at(row_cell.solve);
          if (!workload.error.empty()) {
            fail(workload.error);
          } else if (!problem.error.empty()) {
            fail(problem.error);
          } else if (!solve.error.empty()) {
            fail(solve.error);
          } else {
            result.links = workload.summary.links;
            result.variables = workload.summary.variables;
            result.build_seconds = workload.summary.seconds + problem.summary.seconds;
            result.energy = solve.summary.energy;
            result.lower_bound = solve.summary.lower_bound;
            result.iterations = solve.summary.iterations;
            result.converged = solve.summary.converged;
            result.constraints_satisfied = solve.summary.constraints_satisfied;
            result.total_similarity = solve.summary.total_similarity;
            result.average_similarity = solve.summary.average_similarity;
            result.normalized_richness = solve.summary.normalized_richness;
            result.solve_seconds = solve.summary.seconds;
            if (row_cell.attack != kNoStage) {
              const AttackStore::Slot& attack = attacks.at(row_cell.attack);
              if (!attack.error.empty()) {
                fail(attack.error);
              } else {
                result.attacked = true;
                result.mttc_runs = attack.summary.runs;
                result.mttc_mean = attack.summary.mean;
                result.mttc_uncensored_mean = attack.summary.uncensored_mean;
                result.mttc_censored = attack.summary.censored;
                result.attack_seconds =
                    channels.at(row_cell.channels).summary.seconds + attack.summary.seconds;
              }
            }
            if (result.error.empty() && row_cell.metric != kNoStage) {
              const MetricStore::Slot& metric = metrics.at(row_cell.metric);
              if (!metric.error.empty()) {
                fail(metric.error);
              } else {
                result.metrics_evaluated = true;
                result.metric_pairs = metric.summary.pairs;
                result.d_bn_mean = metric.summary.d_bn_mean;
                result.d_bn_min = metric.summary.d_bn_min;
                result.p_with_mean = metric.summary.p_with_mean;
                result.p_without_mean = metric.summary.p_without_mean;
                result.metric_seconds = metric.summary.seconds;
              }
            }
          }
          solves.release(row_cell.solve);
          if (options_.on_result) options_.on_result(result);
        },
        leaves);
  }

  // ------------------------------------------------------------- execution
  support::Stopwatch watch;
  run_dag(tasks, threads);
  report.wall_seconds = watch.seconds();

  report.stage_stats.workload = workloads.counters();
  report.stage_stats.problem = problems.counters();
  report.stage_stats.solve = solves.counters();
  report.stage_stats.channels = channels.counters();
  report.stage_stats.attack = attacks.counters();
  report.stage_stats.metric = metrics.counters();
  return report;
}

}  // namespace icsdiv::runner
