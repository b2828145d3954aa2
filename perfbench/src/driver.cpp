// perfbench_driver — the compiled half of the end-to-end benchmark.
//
// run.py owns the workloads, the timing loops around the shipped binaries
// and the statistics; this program does what needs the library itself:
//
//   env        build type, compiler and SIMD dispatch of this build
//   exec       runs one program, recording its wall time and peak RSS
//   reference  one batch at 1 thread with artifact reuse off, written as
//              the deterministic report (the correctness oracle)
//   replay     the traced batch replay: every unique stage task, run by
//              calling the stages' public functions in engine order with
//              a span around each call
//   daemon     the daemon workload: spawns icsdivd, times its set-up,
//              drives it with closed-loop clients sending pre-encoded
//              frames, and checks every reply against in-process
//              api::execute (with --trace 1 it also times the request
//              path's layers in-process)
//
// Every subcommand writes one JSON document to --out; run.py reads it.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "bayes/compiled.hpp"
#include "core/optimizer.hpp"
#include "core/serialization.hpp"
#include "daemon/client.hpp"
#include "plan.hpp"
#include "runner/scenario_engine.hpp"
#include "sim/compiled.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

using namespace icsdiv;
using support::Json;
using support::JsonArray;
using support::JsonObject;

using Arguments = std::map<std::string, std::string>;

Arguments parse_arguments(int argc, char** argv) {
  Arguments args;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw InvalidArgument("expected --flag value pairs, got: " + flag);
    }
    args[flag.substr(2)] = argv[i + 1];
  }
  return args;
}

const std::string& required(const Arguments& args, const std::string& name) {
  const auto it = args.find(name);
  if (it == args.end()) throw InvalidArgument("missing --" + name);
  return it->second;
}

std::size_t count_arg(const Arguments& args, const std::string& name) {
  return static_cast<std::size_t>(std::stoull(required(args, name)));
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw NotFound("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw NotFound("cannot write " + path);
  file << text;
}

Json number(double value) { return std::isfinite(value) ? Json(value) : Json(nullptr); }

std::vector<runner::ScenarioSpec> load_specs(const std::string& path) {
  return runner::ScenarioGrid::from_json(Json::parse(read_file(path))).expand();
}

/// CPUs this process may run on (os.sched_getaffinity in run.py).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// env

support::simd::Dispatch best_dispatch() {
  using support::simd::Dispatch;
  for (const Dispatch dispatch : {Dispatch::Avx2, Dispatch::Neon}) {
    if (support::simd::supported(dispatch)) return dispatch;
  }
  return Dispatch::Scalar;
}

int cmd_env(const Arguments& args) {
  JsonObject env;
  env.set("build_type", PERFBENCH_BUILD_TYPE);
  env.set("compiler", PERFBENCH_COMPILER);
  env.set("nproc", nproc());
  env.set("simd_active", support::simd::name(support::simd::active()));
  env.set("simd_best", support::simd::name(best_dispatch()));
  write_file(required(args, "out"), Json(env).dump());
  return 0;
}

// ---------------------------------------------------------------------------
// exec

/// Runs argv[first..] as a child and writes {"exit", "wall_s", "peak_rss_kb"}.
/// Batches go through this small process rather than straight from Python:
/// a spawned child's ru_maxrss starts from its parent's high-water mark,
/// and this parent's is a few MiB.
int cmd_exec(const std::string& out, char** argv) {
  const support::Stopwatch watch;
  pid_t pid = -1;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv, environ) != 0) {
    throw Error(std::string("cannot spawn ") + argv[0]);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) throw Error("wait4 failed");
  const double wall = watch.seconds();
  JsonObject result;
  result.set("exit", WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status));
  result.set("wall_s", wall);
  result.set("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  write_file(out, Json(std::move(result)).dump());
  return 0;
}

// ---------------------------------------------------------------------------
// reference

int cmd_reference(const Arguments& args) {
  runner::BatchOptions options;
  options.threads = 1;
  options.reuse_artifacts = false;
  const runner::BatchReport report =
      runner::BatchRunner(options).run(load_specs(required(args, "grid")));
  write_file(required(args, "out"), report.to_json(false).dump());
  if (report.failed_count() != 0) {
    std::cerr << "reference: " << report.failed_count() << " cells failed\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// replay

/// Per-layer accumulators shared by the batch replay and the daemon's
/// in-process layer timings.
struct LayerTotals {
  double generate_s = 0.0;
  double build_s = 0.0;
  double compile_s = 0.0;
  std::map<std::string, double> solve_s;
  std::map<std::string, double> solve_iters;
  double trws_gap_sum = 0.0;
  std::size_t trws_solves = 0;
  double channels_s = 0.0;
  double mttc_s = 0.0;
  std::size_t mttc_runs = 0;
  std::size_t mttc_censored = 0;
  double metric_compile_s = 0.0;
  double metric_sample_s = 0.0;
  double metric_samples = 0.0;

  void add_solve(const std::string& solver, double seconds, const mrf::SolveResult& result) {
    solve_s[solver] += seconds;
    solve_iters[solver] += static_cast<double>(result.iterations);
    if (solver == "trws" && std::isfinite(result.lower_bound) && result.energy != 0.0) {
      trws_gap_sum += (result.energy - result.lower_bound) / result.energy;
      ++trws_solves;
    }
  }

  [[nodiscard]] Json to_json() const {
    JsonObject out;
    out.set("workload.generate_s", generate_s);
    out.set("problem.build_s", build_s);
    out.set("problem.compile_s", compile_s);
    for (const char* solver : {"trws", "bp", "icm"}) {
      const auto s = solve_s.find(solver);
      const auto it = solve_iters.find(solver);
      const double seconds = s == solve_s.end() ? 0.0 : s->second;
      const double iters = it == solve_iters.end() ? 0.0 : it->second;
      const std::string prefix = std::string("solve.") + solver;
      out.set(prefix + ".s", seconds);
      out.set(prefix + ".iters", iters);
      out.set(prefix + ".ms_per_iter", iters > 0 ? 1e3 * seconds / iters : 0.0);
    }
    out.set("solve.trws.gap_rel",
            trws_solves > 0 ? trws_gap_sum / static_cast<double>(trws_solves) : 0.0);
    out.set("channels.build_s", channels_s);
    out.set("attack.mttc_s", mttc_s);
    out.set("attack.runs_per_s", mttc_s > 0 ? static_cast<double>(mttc_runs) / mttc_s : 0.0);
    out.set("attack.censored_frac",
            mttc_runs > 0 ? static_cast<double>(mttc_censored) / static_cast<double>(mttc_runs)
                          : 0.0);
    out.set("metric.compile_s", metric_compile_s);
    out.set("metric.sample_s", metric_sample_s);
    out.set("metric.samples_per_s", metric_sample_s > 0 ? metric_samples / metric_sample_s : 0.0);
    return out;
  }
};

sim::SimulationParams attack_params(const runner::AttackSpec& attack) {
  sim::SimulationParams params;
  if (attack.strategy == "uniform") {
    params.strategy = sim::AttackerStrategy::Uniform;
  } else if (attack.strategy != "sophisticated") {
    throw InvalidArgument("unknown attacker strategy: " + attack.strategy);
  }
  params.detection_probability = attack.detection;
  params.max_ticks = attack.max_ticks;
  return params;
}

/// Owns a problem in place (DiversificationProblem is not movable).
struct ProblemHolder {
  ProblemHolder(std::shared_ptr<const core::Network> network, core::ConstraintSet constraints)
      : problem(std::move(network), std::move(constraints)) {}
  core::DiversificationProblem problem;
};

struct SolveHolder {
  std::shared_ptr<const ProblemHolder> problem;  ///< the assignment points into its network
  core::OptimizeOutcome outcome;
};

/// What one replayed stage task leaves behind: the payload its children
/// read (released after the last of them) and the report scalars.
struct TaskOutput {
  std::shared_ptr<const runner::WorkloadInstance> workload;
  std::shared_ptr<const ProblemHolder> problem;
  std::shared_ptr<const SolveHolder> solve;
  std::shared_ptr<const sim::PropagationChannels> channels;
  double energy = 0.0;
  double lower_bound = 0.0;
  double mttc_mean = 0.0;
  double d_bn_mean = 0.0;
};

struct ReplayResult {
  LayerTotals layers;
  std::vector<TaskOutput> outputs;
  std::vector<double> busy;  ///< per task, the engine-equivalent work only
  double wall = 0.0;
};

/// Runs every unique stage task of `plan` once, in plan order (parents
/// first), through the stages' public functions.  Payloads are dropped
/// after their last consumer, as the engine's refcount eviction does.
ReplayResult replay(const std::vector<runner::ScenarioSpec>& specs,
                    const perfbench::StagePlan& plan, perfbench::Tracer& tracer) {
  ReplayResult result;
  LayerTotals& layers = result.layers;
  std::vector<TaskOutput>& outputs = result.outputs;
  std::vector<double>& busy = result.busy;
  outputs.resize(plan.tasks.size());
  busy.assign(plan.tasks.size(), 0.0);
  std::vector<std::size_t> remaining(plan.tasks.size());
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) remaining[t] = plan.tasks[t].consumers;
  const auto release = [](TaskOutput& done) {
    done.workload.reset();
    done.problem.reset();
    done.solve.reset();
    done.channels.reset();
  };

  const support::Stopwatch watch;
  const std::size_t root = tracer.begin("replay");
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    const perfbench::StageTask& task = plan.tasks[t];
    const runner::ScenarioSpec& spec = specs[task.spec];
    TaskOutput& out = outputs[t];
    const TaskOutput* parent = task.parent == perfbench::kNone ? nullptr : &outputs[task.parent];
    const std::size_t span = tracer.begin(
        std::string("stage.") + perfbench::kStageNames[static_cast<std::size_t>(task.stage)],
        root);
    switch (task.stage) {
      case perfbench::Stage::Workload: {
        runner::WorkloadParams params = spec.workload;
        params.seed = spec.seed;
        layers.generate_s += tracer.time("runner.make_workload", span, [&] {
          out.workload = std::make_shared<runner::WorkloadInstance>(runner::make_workload(params));
        });
        break;
      }
      case perfbench::Stage::Problem: {
        const std::shared_ptr<const runner::WorkloadInstance> workload = parent->workload;
        std::shared_ptr<const core::Network> network(workload, workload->network.get());
        core::ConstraintSet constraints;
        layers.build_s += tracer.time("runner.apply_constraint_recipe", span, [&] {
          constraints = runner::apply_constraint_recipe(spec.constraints, *network);
        });
        layers.build_s += tracer.time("core.DiversificationProblem", span, [&] {
          out.problem = std::make_shared<ProblemHolder>(std::move(network), std::move(constraints));
        });
        // The engine's decomposed solve compiles inside the solver call;
        // this extra whole-problem compile only times the layer, so it is
        // left out of the stage's busy time.
        const double compile = tracer.time("core.DiversificationProblem.compiled", span,
                                           [&] { (void)out.problem->problem.compiled(); });
        layers.compile_s += compile;
        busy[t] -= compile;
        break;
      }
      case perfbench::Stage::Solve: {
        const std::shared_ptr<const ProblemHolder> problem = parent->problem;
        core::OptimizeOptions solve_options;
        solve_options.solver = spec.solver;
        solve_options.solve = spec.solve;
        solve_options.decompose = spec.decompose;
        solve_options.parallel = false;
        const core::Optimizer optimizer(
            std::shared_ptr<const core::Network>(problem, &problem->problem.network()));
        std::shared_ptr<SolveHolder> holder;
        const double seconds = tracer.time("core.Optimizer.optimize_problem", span, [&] {
          holder = std::make_shared<SolveHolder>(
              SolveHolder{problem, optimizer.optimize_problem(problem->problem, solve_options)});
        });
        layers.add_solve(spec.solver, seconds, holder->outcome.solve);
        out.energy = holder->outcome.solve.energy;
        out.lower_bound = holder->outcome.solve.lower_bound;
        out.solve = std::move(holder);
        break;
      }
      case perfbench::Stage::Channels: {
        const core::Assignment& assignment = parent->solve->outcome.assignment;
        layers.channels_s += tracer.time("sim.PropagationChannels", span, [&] {
          out.channels = std::make_shared<const sim::PropagationChannels>(
              assignment, sim::SimulationParams{}.model);
        });
        break;
      }
      case perfbench::Stage::Attack: {
        const runner::AttackSpec& attack = *spec.attack;
        std::optional<sim::CompiledPropagation> propagation;
        layers.channels_s += tracer.time("sim.CompiledPropagation", span, [&] {
          propagation.emplace(parent->channels, attack_params(attack));
        });
        double mean_sum = 0.0;
        for (std::size_t e = 0; e < attack.entries.size(); ++e) {
          sim::MttcResult mttc;
          layers.mttc_s += tracer.time("sim.CompiledPropagation.mttc", span, [&] {
            mttc = propagation->mttc(attack.entries[e], attack.target, attack.runs,
                                     attack.seed + 1000003ULL * e, false);
          });
          mean_sum += mttc.mean;
          layers.mttc_runs += attack.runs;
          layers.mttc_censored += mttc.censored;
        }
        out.mttc_mean = mean_sum / static_cast<double>(attack.entries.size());
        break;
      }
      case perfbench::Stage::Metric: {
        const runner::MetricsSpec& metrics = *spec.metrics;
        const core::Assignment& assignment = parent->solve->outcome.assignment;
        bayes::InferenceOptions inference;
        inference.engine = bayes::inference_engine_from_name(metrics.engine);
        inference.mc_samples = metrics.samples;
        inference.exact_max_edges = metrics.exact_max_edges;
        inference.parallel = false;
        double d_bn_sum = 0.0;
        for (std::size_t e = 0; e < metrics.entries.size(); ++e) {
          inference.seed = metrics.seed + 1000003ULL * e;
          std::optional<bayes::CompiledReliability> compiled;
          layers.metric_compile_s += tracer.time("bayes.CompiledReliability", span, [&] {
            compiled.emplace(assignment, metrics.entries[e], bayes::PropagationModel{});
          });
          bayes::ReliabilitySweep sweep;
          layers.metric_sample_s += tracer.time("bayes.solve_targets", span, [&] {
            sweep = compiled->solve_targets(metrics.targets, inference);
          });
          layers.metric_samples += static_cast<double>(metrics.samples);
          for (const core::HostId target : metrics.targets) {
            d_bn_sum += sweep.p_baseline[target] / sweep.p[target];
          }
        }
        out.d_bn_mean =
            d_bn_sum / static_cast<double>(metrics.entries.size() * metrics.targets.size());
        break;
      }
    }
    busy[t] += tracer.end(span);
    if (task.consumers == 0) release(out);
    if (task.parent != perfbench::kNone && --remaining[task.parent] == 0) {
      release(outputs[task.parent]);
    }
  }
  tracer.end(root);
  result.wall = watch.seconds();
  return result;
}

int cmd_replay(const Arguments& args) {
  const std::vector<runner::ScenarioSpec> specs = load_specs(required(args, "grid"));
  const perfbench::StagePlan plan = perfbench::plan_stages(specs);
  const std::uint64_t run_id = count_arg(args, "run-id");

  // Tracing overhead: alternate passes with span recording off and on, and
  // compare the fastest of each (interference from other processes only
  // ever adds time, and the first pass also pays the cold start).  The
  // last traced pass supplies the spans and layer times.
  perfbench::Tracer off(run_id, false);
  perfbench::Tracer first(run_id);
  perfbench::Tracer tracer(run_id);
  double untraced = replay(specs, plan, off).wall;
  double traced_best = replay(specs, plan, first).wall;
  untraced = std::min(untraced, replay(specs, plan, off).wall);
  const ReplayResult traced = replay(specs, plan, tracer);
  traced_best = std::min(traced_best, traced.wall);
  const std::vector<TaskOutput>& outputs = traced.outputs;

  JsonArray cells;
  for (const perfbench::CellTasks& cell : plan.cells) {
    JsonObject row;
    row.set("energy", number(outputs[cell.solve].energy));
    row.set("lower_bound", number(outputs[cell.solve].lower_bound));
    if (cell.attack != perfbench::kNone) {
      row.set("mttc_mean", number(outputs[cell.attack].mttc_mean));
    }
    if (cell.metric != perfbench::kNone) {
      row.set("d_bn_mean", number(outputs[cell.metric].d_bn_mean));
    }
    cells.emplace_back(std::move(row));
  }
  JsonObject executed;
  for (std::size_t s = 0; s < perfbench::kStageCount; ++s) {
    executed.set(perfbench::kStageNames[s], plan.executed[s]);
  }
  double busy_total = 0.0;
  for (const double b : traced.busy) busy_total += b;

  JsonObject result;
  result.set("untraced_wall_s", untraced);
  result.set("traced_wall_s", traced_best);
  result.set("overhead_frac", traced_best / untraced - 1.0);
  result.set("busy_s", busy_total);
  result.set("critical_path_s", perfbench::critical_path_seconds(plan.tasks, traced.busy));
  result.set("layers", traced.layers.to_json());
  result.set("executed", std::move(executed));
  result.set("cells", std::move(cells));
  result.set("spans", tracer.spans().size());
  write_file(required(args, "out"), Json(std::move(result)).dump());
  write_file(required(args, "trace"), tracer.to_json().dump());
  return 0;
}

// ---------------------------------------------------------------------------
// daemon

/// icsdivd as a child process; the destructor kills and reaps it if the
/// benchmark did not stop it cleanly.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& socket, const std::string& log) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<std::string> argv_strings{binary, "--socket", socket};
    std::vector<char*> argv;
    for (std::string& arg : argv_strings) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw Error("cannot spawn " + binary);
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  [[nodiscard]] bool exited() {
    if (pid_ > 0 && waitpid(pid_, nullptr, WNOHANG) == pid_) pid_ = -1;
    return pid_ <= 0;
  }

  /// Peak resident set size in KiB (VmHWM).  Read from /proc while the
  /// daemon runs: a spawned child's ru_maxrss starts from the spawning
  /// process's own high-water mark.
  [[nodiscard]] long peak_rss_kb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
    }
    throw Error("cannot read the daemon's VmHWM");
  }

  /// SIGTERM, then reap.  Throws unless the daemon drained and exited 0.
  void stop() {
    kill(pid_, SIGTERM);
    int status = 0;
    const pid_t reaped = waitpid(pid_, &status, 0);
    pid_ = -1;
    if (reaped <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw Error("icsdivd did not exit cleanly");
    }
  }

 private:
  pid_t pid_ = -1;
};

daemon::Client connect_when_ready(DaemonProcess& process, const std::string& socket) {
  const support::Stopwatch watch;
  while (true) {
    try {
      return daemon::Client::connect("unix:" + socket);
    } catch (const NotFound&) {
      if (process.exited()) throw Error("icsdivd exited during start-up");
      if (watch.seconds() > 60.0) throw Error("icsdivd did not start listening");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

bool reply_ok(std::string_view reply) {
  return reply.substr(0, 64).find("\"status\":\"ok\"") != std::string_view::npos;
}

/// `value` without the keys that legitimately differ between a daemon
/// cache hit and a fresh in-process execution.
Json without_volatile_keys(const Json& value) {
  if (!value.is_object()) return value;
  JsonObject stripped;
  for (const auto& [key, field] : value.as_object()) {
    if (key != "cached" && key != "solve_seconds") stripped.set(key, without_volatile_keys(field));
  }
  return stripped;
}

std::string comparable(const Json& reply) { return without_volatile_keys(reply).dump(); }

enum class Kind : std::size_t { OptimizeHit, OptimizeMiss, EvaluateHit, EvaluateMiss, Status };
constexpr std::size_t kKinds = 5;
constexpr const char* kKindNames[kKinds] = {"optimize_hit", "optimize_miss", "evaluate_hit",
                                            "evaluate_miss", "status"};

/// One request of a client's pre-generated sequence.
struct Planned {
  Kind kind = Kind::Status;
  std::size_t id = 0;                 ///< index into the kind's frame pool
  const std::string* frame = nullptr; ///< pre-encoded request payload
};

struct ClientResult {
  std::vector<std::pair<Kind, double>> latencies_ms;
  std::size_t sent = 0;
  std::size_t failed = 0;
  std::array<std::size_t, kKinds> cached{};
  std::array<std::size_t, kKinds> misses_kept{};
  std::size_t bytes = 0;
  double cpu_s = 0.0;
  bool exhausted = false;
  /// First reply text of each distinct request (key: kind, id).
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::string>> replies;
};

struct Network {
  Json catalog;
  Json network;
  Json assignment;  ///< the trws answer of the optimize pool
  std::size_t hosts = 0;
  std::vector<std::string> names;
};

int cmd_daemon(const Arguments& args) {
  const std::uint64_t seed = count_arg(args, "seed");
  const double seconds = std::stod(required(args, "seconds"));
  const bool traced = required(args, "trace") == "1";
  const std::string socket = required(args, "socket");
  const std::size_t clients = nproc();
  // setup_s is the median of this many daemon set-ups.
  constexpr std::size_t kSetups = 3;
  constexpr std::size_t kPoolIterations = 20;
  // p99 over all requests needs at least ten samples beyond it.
  constexpr std::size_t kMinRequests = 1100;
  // Distinct miss requests per miss kind.  Each client cycles through its
  // own slice of the pool, so a miss comes round again only after about
  // this many other misses of its kind, more than the 128 entries of the
  // session's solve and eval caches: it has been evicted and misses again.
  // The pool caps the generator's memory whatever the run length.
  constexpr std::size_t kMissPool = 192;
  const std::vector<std::string> solvers{"trws", "bp", "icm"};

  perfbench::Tracer tracer(seed, traced);
  constexpr std::size_t kTop = perfbench::Tracer::kRoot;
  LayerTotals layers;

  // Inputs: nine generated networks of 500, 1000 and 2000 hosts.  They are
  // fixed; the seed drives the request mix, whose work then averages out
  // over the run (per-instance energy and solve cost differ by ~10%).
  std::vector<Network> networks;
  std::vector<std::shared_ptr<const runner::WorkloadInstance>> instances;
  for (const std::size_t hosts : {500, 1000, 2000}) {
    for (std::uint64_t variant = 0; variant < 3; ++variant) {
      runner::WorkloadParams params;
      params.hosts = hosts;
      params.average_degree = 8.0;
      params.services = 4;
      params.products_per_service = 4;
      params.seed = 2020 + hosts * 10 + variant;
      std::shared_ptr<const runner::WorkloadInstance> instance;
      layers.generate_s += tracer.time("runner.make_workload", kTop,
                                       [&] {
                                         instance = std::make_shared<runner::WorkloadInstance>(
                                             runner::make_workload(params));
                                       });
      Network net;
      net.catalog = core::catalog_to_json(*instance->catalog);
      net.network = core::network_to_json(*instance->network);
      net.hosts = hosts;
      for (core::HostId h = 0; h < hosts; ++h) net.names.push_back(instance->network->host_name(h));
      networks.push_back(std::move(net));
      instances.push_back(std::move(instance));
    }
  }

  // Request pools, encoded once.
  std::vector<api::Request> optimize_pool;
  for (const Network& net : networks) {
    for (const std::string& solver : solvers) {
      optimize_pool.emplace_back(
          api::OptimizeRequest{net.catalog, net.network, solver, kPoolIterations, 0});
    }
  }
  const auto encode = [](const api::Request& request) {
    return api::request_to_wire(request).dump();
  };
  std::vector<std::string> optimize_frames;
  for (const api::Request& request : optimize_pool) optimize_frames.push_back(encode(request));

  // In-process oracle (untraced): a private session answers every pool
  // request; its trws assignments seed the evaluate requests.
  api::Session oracle;
  std::vector<std::string> optimize_expected;
  std::vector<double> energies;
  for (const api::Request& request : optimize_pool) {
    const api::Response response = api::execute(request, oracle);
    energies.push_back(std::get<api::OptimizeResponse>(response).energy);
    optimize_expected.push_back(comparable(api::response_to_wire(response)));
  }
  for (std::size_t n = 0; n < networks.size(); ++n) {
    const api::Response solved = api::execute(optimize_pool[n * solvers.size()], oracle);
    networks[n].assignment = std::get<api::OptimizeResponse>(solved).assignment;
  }

  // Evaluate hits: two entry/target pairs per network, repeated.
  std::vector<api::Request> evaluate_pool;
  for (const Network& net : networks) {
    for (const auto& [entry, target] :
         {std::pair{std::size_t{0}, net.hosts - 1}, std::pair{std::size_t{1}, net.hosts / 2}}) {
      evaluate_pool.emplace_back(api::EvaluateRequest{net.catalog, net.network, net.assignment,
                                                      net.names[entry], net.names[target], 0});
    }
  }
  std::vector<std::string> evaluate_frames;
  std::vector<std::string> evaluate_expected;
  for (const api::Request& request : evaluate_pool) {
    evaluate_frames.push_back(encode(request));
    evaluate_expected.push_back(comparable(api::response_to_wire(api::execute(request, oracle))));
  }
  const std::string status_frame = encode(api::StatusRequest{});

  // Miss pools.  Miss k targets network k mod 9, so every size misses.  An
  // optimize miss uses ICM with max_iterations 1000 + k: ICM stops once no
  // label changes, so the distinct cap changes the cache key but not the
  // work.  An evaluate miss uses its own entry/target pair (entries from
  // host 2 on, so no pair of the hit pool recurs).  Requests are rebuilt
  // from k when their replies are checked.
  const std::size_t slice = (kMissPool + clients - 1) / clients;
  const std::size_t miss_pool = slice * clients;
  const auto optimize_miss = [&](std::size_t k) -> api::Request {
    const Network& net = networks[k % networks.size()];
    return api::OptimizeRequest{net.catalog, net.network, "icm", 1000 + k, 0};
  };
  const auto evaluate_miss = [&](std::size_t k) -> api::Request {
    const Network& net = networks[k % networks.size()];
    const std::size_t pair = k / networks.size();
    return api::EvaluateRequest{net.catalog, net.network, net.assignment,
                                net.names[2 + pair], net.names[net.hosts - 1 - 7 * pair], 0};
  };
  std::vector<std::string> optimize_miss_frames;
  std::vector<std::string> evaluate_miss_frames;
  for (std::size_t k = 0; k < miss_pool; ++k) {
    optimize_miss_frames.push_back(encode(optimize_miss(k)));
    evaluate_miss_frames.push_back(encode(evaluate_miss(k)));
  }
  std::size_t frame_bytes = status_frame.size();
  for (const auto* pool :
       {&optimize_frames, &evaluate_frames, &optimize_miss_frames, &evaluate_miss_frames}) {
    for (const std::string& frame : *pool) frame_bytes += frame.size();
  }

  // Per-client request sequences: 60% repeat optimize, 10% optimize miss,
  // 10% repeat evaluate, 5% evaluate miss, 15% status.  Sized for 200
  // replies per client-second (about 3x what a 4-vCPU box serves); a
  // faster machine ends the run early.
  const std::size_t per_client = static_cast<std::size_t>(
      std::ceil(std::max(seconds * 200.0, 2.0 * kMinRequests / static_cast<double>(clients))));
  std::vector<std::vector<Planned>> sequences(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    support::Rng rng(seed * 7919ULL + c);
    std::size_t optimize_misses = 0;
    std::size_t evaluate_misses = 0;
    for (std::size_t k = 0; k < per_client; ++k) {
      const double u = rng.uniform();
      Planned request;
      if (u < 0.60) {
        request.kind = Kind::OptimizeHit;
        request.id = rng.index(optimize_frames.size());
        request.frame = &optimize_frames[request.id];
      } else if (u < 0.70) {
        request.kind = Kind::OptimizeMiss;
        request.id = c * slice + optimize_misses++ % slice;
        request.frame = &optimize_miss_frames[request.id];
      } else if (u < 0.80) {
        request.kind = Kind::EvaluateHit;
        request.id = rng.index(evaluate_frames.size());
        request.frame = &evaluate_frames[request.id];
      } else if (u < 0.85) {
        request.kind = Kind::EvaluateMiss;
        request.id = c * slice + evaluate_misses++ % slice;
        request.frame = &evaluate_miss_frames[request.id];
      } else {
        request.frame = &status_frame;
      }
      sequences[c].push_back(request);
    }
  }

  // Set-up: spawn, handshake, warm-up pass over the optimize pool.  Repeated
  // kSetups times; the last daemon serves the measured load.
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProcess> process;
  for (std::size_t s = 0; s < kSetups; ++s) {
    if (process) process->stop();
    const support::Stopwatch watch;
    process = std::make_unique<DaemonProcess>(required(args, "icsdivd"), socket,
                                              required(args, "log"));
    daemon::Client client = connect_when_ready(*process, socket);
    if (!reply_ok(client.call_text(status_frame))) throw Error("icsdivd handshake failed");
    for (const std::string& frame : optimize_frames) {
      if (!reply_ok(client.call_text(frame))) throw Error("icsdivd warm-up request failed");
    }
    setup_s.push_back(watch.seconds());
  }
  {
    // Untimed: the repeated evaluates are cache hits from the first one.
    daemon::Client client = daemon::Client::connect("unix:" + socket);
    for (const std::string& frame : evaluate_frames) {
      if (!reply_ok(client.call_text(frame))) throw Error("icsdivd warm-up request failed");
    }
  }

  // Measurement: closed loop, one connection per client.
  std::vector<ClientResult> results(clients);
  std::vector<daemon::Client> connections;
  for (std::size_t c = 0; c < clients; ++c) {
    connections.push_back(daemon::Client::connect("unix:" + socket));
  }
  std::barrier start(static_cast<std::ptrdiff_t>(clients + 1));
  std::atomic<double> started_at{0.0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> stop{false};
  const support::Stopwatch run_clock;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& result = results[c];
      result.latencies_ms.reserve(sequences[c].size());
      start.arrive_and_wait();
      const double cpu0 = thread_cpu_seconds();
      const double deadline = started_at.load() + seconds;
      std::size_t next = 0;
      while (!stop.load() && (run_clock.seconds() < deadline || completed.load() < kMinRequests)) {
        if (next == sequences[c].size()) {
          // Every client stops together, so the offered load never drops
          // below `clients` connections mid-run.
          result.exhausted = true;
          stop.store(true);
          break;
        }
        const Planned& request = sequences[c][next++];
        const double t0 = run_clock.seconds();
        ++result.sent;
        std::string reply;
        try {
          reply = connections[c].call_text(*request.frame);
        } catch (const std::exception&) {
          ++result.failed;
          break;
        }
        result.latencies_ms.emplace_back(request.kind, (run_clock.seconds() - t0) * 1e3);
        completed.fetch_add(1);
        result.bytes += request.frame->size() + reply.size() + 2 * daemon::kLengthPrefixBytes;
        if (!reply_ok(reply)) {
          ++result.failed;
          continue;
        }
        const auto kind = static_cast<std::size_t>(request.kind);
        if (request.kind == Kind::Status) continue;
        if (reply.rfind("\"cached\":true") != std::string::npos) ++result.cached[kind];
        // Keep the first reply of each distinct request (hit variants too:
        // a cached reply must equal the fresh one).  Misses: the first two
        // of each kind per client, checked after the run.
        if (request.kind == Kind::OptimizeMiss || request.kind == Kind::EvaluateMiss) {
          if (result.misses_kept[kind] == 2) continue;
          ++result.misses_kept[kind];
        }
        auto& kept = result.replies[{kind, request.id}];
        if (kept.size() < 2 && (kept.empty() || kept.back() != reply)) {
          kept.push_back(std::move(reply));
        }
      }
      result.cpu_s = thread_cpu_seconds() - cpu0;
    });
  }
  started_at.store(run_clock.seconds());
  start.arrive_and_wait();
  for (std::thread& thread : threads) thread.join();
  const double duration = run_clock.seconds() - started_at.load();
  connections.clear();

  api::StatusResponse status;
  {
    daemon::Client client = daemon::Client::connect("unix:" + socket);
    const Json reply = Json::parse(client.call_text(status_frame));
    status = std::get<api::StatusResponse>(api::response_from_wire(reply));
  }
  const long peak_rss_kb = process->peak_rss_kb();
  process->stop();
  process.reset();

  // Correctness: every kept reply equals the in-process answer.
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  for (const ClientResult& result : results) {
    for (const auto& [key, texts] : result.replies) {
      const auto [kind, id] = key;
      std::string expected;
      switch (static_cast<Kind>(kind)) {
        case Kind::OptimizeHit: expected = optimize_expected[id]; break;
        case Kind::EvaluateHit: expected = evaluate_expected[id]; break;
        case Kind::OptimizeMiss:
          expected = comparable(api::response_to_wire(api::execute(optimize_miss(id), oracle)));
          break;
        default:
          expected = comparable(api::response_to_wire(api::execute(evaluate_miss(id), oracle)));
      }
      for (const std::string& text : texts) {
        ++compared;
        if (comparable(Json::parse(text)) != expected) ++mismatches;
      }
    }
  }

  JsonObject out;
  JsonArray setup_json;
  for (const double s : setup_s) setup_json.emplace_back(s);
  out.set("setup_s", std::move(setup_json));
  out.set("duration_s", duration);
  out.set("clients", clients);
  out.set("frames_mb", static_cast<double>(frame_bytes) / 1e6);
  JsonObject latency;
  JsonObject cached_share;
  std::array<JsonArray, kKinds> by_kind;
  std::array<std::size_t, kKinds> cached{};
  std::size_t requests = 0, failed = 0, bytes = 0;
  double cpu = 0.0;
  bool exhausted = false;
  for (const ClientResult& result : results) {
    for (const auto& [kind, ms] : result.latencies_ms) {
      by_kind[static_cast<std::size_t>(kind)].emplace_back(ms);
    }
    for (std::size_t k = 0; k < kKinds; ++k) cached[k] += result.cached[k];
    requests += result.sent;
    failed += result.failed;
    bytes += result.bytes;
    cpu += result.cpu_s;
    exhausted = exhausted || result.exhausted;
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (static_cast<Kind>(k) != Kind::Status) {
      cached_share.set(kKindNames[k], static_cast<double>(cached[k]) /
                                          static_cast<double>(std::max<std::size_t>(
                                              1, by_kind[k].size())));
    }
    latency.set(kKindNames[k], std::move(by_kind[k]));
  }
  out.set("latency_ms", std::move(latency));
  out.set("cached_share", std::move(cached_share));
  out.set("requests", requests);
  out.set("failed", failed);
  out.set("bytes", bytes);
  out.set("client_cpu_s", cpu);
  out.set("sequence_exhausted", exhausted);
  out.set("peak_rss_kb", static_cast<std::int64_t>(peak_rss_kb));
  double energy_sum = 0.0;
  for (const double e : energies) energy_sum += e;
  out.set("mean_energy", energy_sum / static_cast<double>(energies.size()));
  out.set("compared", compared);
  out.set("mismatches", mismatches);
  JsonObject session;
  session.set("session.solve_hits", status.solve_cache.hits);
  session.set("session.solve_executed", status.solve_cache.executed);
  session.set("session.model_hits", status.model_cache.hits);
  session.set("session.eval_hits", status.eval_cache.hits);
  session.set("session.rejected", status.requests_rejected);
  out.set("status", std::move(session));

  if (traced) {
    // The request path's layers, timed in-process on the same requests.
    JsonObject path;
    std::vector<std::string> payloads = optimize_frames;
    payloads.insert(payloads.end(), evaluate_frames.begin(), evaluate_frames.end());
    double parse_s = 0.0;
    double parsed_bytes = 0.0;
    JsonArray wire_ms;
    for (const std::string& payload : payloads) {
      Json wire;
      parse_s += tracer.time("support.Json.parse", kTop, [&] { wire = Json::parse(payload); });
      parsed_bytes += static_cast<double>(payload.size());
      api::Request request;
      wire_ms.emplace_back(1e3 * tracer.time("api.request_from_wire", kTop,
                                             [&] { request = api::request_from_wire(wire); }));
    }
    path.set("json.parse_mb_per_s", parsed_bytes / 1e6 / parse_s);
    path.set("session.parse_ms", std::move(wire_ms));

    // Tracing overhead: the same miss pass over the optimize pool on fresh
    // sessions, alternating untraced and traced passes and comparing the
    // fastest of each, as the batch replay does.
    const auto untraced_pass = [&] {
      api::Session session_untraced;
      const support::Stopwatch watch;
      for (const api::Request& request : optimize_pool) {
        (void)api::execute(request, session_untraced);
      }
      return watch.seconds();
    };
    const auto traced_pass = [&] {
      api::Session session_warmup;
      const support::Stopwatch watch;
      for (const api::Request& request : optimize_pool) {
        tracer.time("api.execute", kTop, [&] { (void)api::execute(request, session_warmup); });
      }
      return watch.seconds();
    };
    double untraced_pool_s = untraced_pass();
    double traced_pool_s = traced_pass();
    untraced_pool_s = std::min(untraced_pool_s, untraced_pass());
    api::Session session_traced;
    JsonArray miss_ms, hit_ms, encode_ms;
    const std::size_t pool_span = tracer.begin("optimize_pool.execute");
    for (const api::Request& request : optimize_pool) {
      api::Response response;
      miss_ms.emplace_back(1e3 * tracer.time("api.execute", pool_span, [&] {
        response = api::execute(request, session_traced);
      }));
    }
    traced_pool_s = std::min(traced_pool_s, tracer.end(pool_span));
    for (const api::Request& request : optimize_pool) {
      api::Response response;
      hit_ms.emplace_back(1e3 * tracer.time("api.execute", kTop, [&] {
        response = api::execute(request, session_traced);
      }));
      encode_ms.emplace_back(1e3 * tracer.time("api.response_to_wire", kTop, [&] {
        (void)api::response_to_wire(response).dump();
      }));
    }
    path.set("session.execute_miss_ms", std::move(miss_ms));
    path.set("session.execute_hit_ms", std::move(hit_ms));
    path.set("session.encode_ms", std::move(encode_ms));
    out.set("overhead_frac", traced_pool_s / untraced_pool_s - 1.0);

    // Miss-path layers: problem build, compile and solve per pool request,
    // with the session's own options.
    for (std::size_t n = 0; n < instances.size(); ++n) {
      const std::shared_ptr<const core::Network> network(instances[n],
                                                         instances[n]->network.get());
      std::optional<ProblemHolder> problem;
      layers.build_s += tracer.time("core.DiversificationProblem", kTop,
                                    [&] { problem.emplace(network, core::ConstraintSet{}); });
      layers.compile_s += tracer.time("core.DiversificationProblem.compiled", kTop,
                                      [&] { (void)problem->problem.compiled(); });
      const core::Optimizer optimizer(network);
      for (const std::string& solver : solvers) {
        core::OptimizeOptions options;
        options.solver = solver;
        options.solve.max_iterations = kPoolIterations;
        std::optional<core::OptimizeOutcome> outcome;
        const double solve_s = tracer.time("core.Optimizer.optimize_problem", kTop, [&] {
          outcome.emplace(optimizer.optimize_problem(problem->problem, options));
        });
        layers.add_solve(solver, solve_s, outcome->solve);
      }
    }
    // Evaluate-path layers: the MTTC and d_bn substrates on the evaluate pool.
    for (std::size_t e = 0; e < evaluate_pool.size(); ++e) {
      const auto& request = std::get<api::EvaluateRequest>(evaluate_pool[e]);
      const core::Network& network = *instances[e / 2]->network;
      const core::Assignment assignment =
          core::Assignment::from_json(network, request.assignment);
      const core::HostId entry = network.host_id(request.entry);
      const core::HostId target = network.host_id(request.target);
      std::shared_ptr<const sim::PropagationChannels> channels;
      layers.channels_s += tracer.time("sim.PropagationChannels", kTop, [&] {
        channels = std::make_shared<const sim::PropagationChannels>(
            assignment, sim::SimulationParams{}.model);
      });
      const sim::CompiledPropagation propagation(channels, sim::SimulationParams{});
      sim::MttcResult mttc;
      layers.mttc_s += tracer.time("sim.CompiledPropagation.mttc", kTop,
                                   [&] { mttc = propagation.mttc(entry, target, 500, 1); });
      layers.mttc_runs += mttc.runs;
      layers.mttc_censored += mttc.censored;
      std::optional<bayes::CompiledReliability> compiled;
      layers.metric_compile_s += tracer.time("bayes.CompiledReliability", kTop, [&] {
        compiled.emplace(assignment, entry, bayes::PropagationModel{});
      });
      const bayes::InferenceOptions inference;
      layers.metric_sample_s += tracer.time("bayes.solve_targets", kTop, [&] {
        const std::vector<core::HostId> targets{target};
        (void)compiled->solve_targets(targets, inference);
      });
      layers.metric_samples += static_cast<double>(inference.mc_samples);
    }
    out.set("layers", layers.to_json());
    out.set("request_path", std::move(path));
    write_file(required(args, "trace-out"), tracer.to_json().dump());
  }
  write_file(required(args, "out"), Json(std::move(out)).dump());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver env|reference|replay|daemon --flag value ...\n"
                 "       perfbench_driver exec --out FILE -- PROGRAM [ARGS...]\n";
    return 2;
  }
  try {
    const std::string command = argv[1];
    if (command == "exec") {
      if (argc < 6 || std::string(argv[2]) != "--out" || std::string(argv[4]) != "--") {
        throw InvalidArgument("usage: perfbench_driver exec --out FILE -- PROGRAM [ARGS...]");
      }
      return cmd_exec(argv[3], argv + 5);
    }
    const Arguments args = parse_arguments(argc, argv);
    if (command == "env") return cmd_env(args);
    if (command == "reference") return cmd_reference(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "daemon") return cmd_daemon(args);
    std::cerr << "unknown command: " << command << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
    return 1;
  }
}
