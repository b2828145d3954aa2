#!/usr/bin/env python3
"""End-to-end benchmark for icsdiv: batch grids and the daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  It builds the repository in Release
mode under .bench_build/ (the first run takes a few minutes), generates the
workload's inputs from --seed, drives the shipped programs for --seconds,
checks every output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced replay
and reports the per-layer metrics.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402

BUILD = REPO / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
CLI = CMAKE_DIR / "icsdiv" / "tools" / "icsdiv_cli"
DAEMON = CMAKE_DIR / "icsdiv" / "tools" / "icsdivd"
DRIVER = CMAKE_DIR / "perfbench_driver"
SELFTEST = CMAKE_DIR / "perfbench_tests"
MICRO = CMAKE_DIR / "icsdiv" / "bench" / "bench_micro"

WORKLOADS = ("solve_large", "attack_metric_sweep", "daemon_mixed")
STAGES = ("workload", "problem", "solve", "channels", "attack", "metric")
KINDS = ("optimize_hit", "optimize_miss", "evaluate_hit", "evaluate_miss", "status")
MICRO_CASES = {
    "micro.trws_iteration_12500_ms": "BM_TrwsIteration/12500",
    "micro.bp_iteration_12500_ms": "BM_BpIteration/12500",
    "micro.compile_mrf_12500_ms": "BM_CompileMrf/12500",
    "micro.mttc_ms": "BM_Mttc/12500/16",
    "micro.reliability_100000_ms": "BM_Reliability/100000",
    "micro.json_parse_feed_ms": "BM_JsonParseFeed",
}
# Batch runs per timed loop: at least this many, then until --seconds.
MIN_BATCHES = 3


class BenchError(Exception):
    pass


def check(condition, message):
    if not condition:
        raise BenchError(message)


def nproc():
    return len(os.sched_getaffinity(0))


def run_quiet(argv, log, timeout, env=None):
    """Runs argv in its own process group with output appended to `log`;
    raises on failure.  The group is killed on the way out, so no child
    (a batch under `exec`, the daemon under the driver) outlives an error,
    a timeout or a signal."""
    with open(log, "ab") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=REPO, env=env,
                                start_new_session=True)
        try:
            returncode = proc.wait(timeout=timeout)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    check(returncode == 0, f"{Path(argv[0]).name} failed (exit {returncode}); see {log}")


# ---------------------------------------------------------------------------
# Build and environment


def build():
    check((REPO / "CMakeLists.txt").is_file() and (REPO / "src").is_dir(),
          "the repository's sources are not next to perfbench/; nothing to build")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    # ccache would write outside the checkout.
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(BENCH), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                  log, 300, env)
    run_quiet(["cmake", "--build", str(CMAKE_DIR), "--target", "perfbench_all", "-j", str(nproc())],
              log, 850, env)


def environment(run_dir):
    """Records the build and machine; refuses a build that is not the one
    the benchmark defines (non-Release, or SIMD dispatch downgraded)."""
    out = run_dir / "env.json"
    run_quiet([str(DRIVER), "env", "--out", str(out)], run_dir / "driver.log", 60)
    env = json.loads(out.read_text())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                            text=True, check=False)
    env["git_commit"] = commit.stdout.strip() if commit.returncode == 0 else None
    check(env["build_type"] == "Release", f"refusing to time a {env['build_type']} build")
    check(env["simd_active"] == env["simd_best"],
          f"refusing to time SIMD dispatch {env['simd_active']} (best: {env['simd_best']}); "
          "unset ICSDIV_SIMD")
    return env


# ---------------------------------------------------------------------------
# Workload inputs


def batch_grid(workload, seed):
    """The grid document for `seed`.  The generated networks and the axis
    order are fixed: energy and per-cell work differ by 15-30% between
    generated instances, and the stage schedule's order moves the sweep's
    wall time by up to 25%.  The seed drives the Monte-Carlo streams."""
    if workload == "solve_large":
        # Tolerance 0 runs TRW-S and BP for all 10 iterations.
        return {"name": "solve_large", "hosts": [6000], "degrees": [16], "services": [4],
                "products_per_service": [4], "solvers": ["trws", "bp", "icm"],
                "constraints": ["none", "pinned"], "seeds": [2020, 2021],
                "max_iterations": 10, "tolerance": 0.0}
    rng = random.Random(seed)
    return {"name": "attack_metric_sweep", "hosts": [400, 800], "degrees": [8], "services": [4],
            "products_per_service": [4], "solvers": ["trws", "icm"], "constraints": ["none"],
            "seeds": [2020, 2021],
            "attack": {"entries": [0, 101, 202, 303], "target": 399,
                       "strategies": ["sophisticated", "uniform"],
                       "detections": [0.0, 0.01, 0.05], "runs": 150,
                       "seed": rng.randrange(1, 2**31)},
            "metrics": {"entries": [0, 150, 300], "targets": [77, 399], "engine": "montecarlo",
                        "samples": 1000000, "seed": rng.randrange(1, 2**31)}}


# ---------------------------------------------------------------------------
# Batch workloads

TIMING_KEYS = {"threads", "wall_seconds", "stage_stats", "build_seconds", "solve_seconds",
               "attack_seconds", "metric_seconds", "mean_solve_seconds"}


def deterministic(report):
    """The report without its timing fields: BatchReport::to_json(false)."""
    if isinstance(report, dict):
        return {k: deterministic(v) for k, v in report.items() if k not in TIMING_KEYS}
    if isinstance(report, list):
        return [deterministic(v) for v in report]
    return report


def check_report(report, reference):
    check(report["failed"] == 0, f"{report['failed']} cells failed")
    check(deterministic(report) == reference, "deterministic report differs from the reference")
    for cell in report["results"]:
        check("error" not in cell, f"cell {cell['name']} failed: {cell.get('error')}")
        if cell["lower_bound"] is not None:
            check(cell["energy"] >= cell["lower_bound"],
                  f"cell {cell['name']}: energy below its lower bound")
    for stage, counters in report["stage_stats"].items():
        served = counters["executed"] + counters["hits"] + counters["disk_hits"]
        check(counters["planned"] == served,
              f"stage {stage}: planned != executed + hits + disk_hits")


def run_batch(grid_path, out_path, threads, log):
    """One `icsdiv_cli batch`; returns (command seconds, peak RSS KiB, report)."""
    usage = out_path.with_suffix(".exec.json")
    argv = [str(DRIVER), "exec", "--out", str(usage), "--", str(CLI), "batch", "--grid",
            str(grid_path), "--json", str(out_path), "--threads", str(threads)]
    run_quiet(argv, log, 170)
    spawned = json.loads(usage.read_text())
    check(spawned["exit"] == 0, f"icsdiv_cli batch failed (exit {spawned['exit']}); see {log}")
    return spawned["wall_s"], spawned["peak_rss_kb"], json.loads(out_path.read_text())


def timed_batches(grid_path, reference, run_dir, seconds, min_runs):
    threads = nproc()
    runs = []
    start = time.perf_counter()
    while len(runs) < min_runs or time.perf_counter() - start < seconds:
        cmd_s, rss_kb, report = run_batch(grid_path, run_dir / "report.json", threads,
                                          run_dir / "cli.log")
        check_report(report, reference)
        runs.append({"cmd_s": cmd_s, "rss_kb": rss_kb, "report": report})
    return runs


def batch_end_to_end(runs):
    cells = runs[0]["report"]["cells"]
    cmd = [r["cmd_s"] for r in runs]
    p99, p99_pct = stats.tail_percentile(cmd)
    energies = [c["energy"] for c in runs[0]["report"]["results"]]
    return {
        "setup_s": (stats.median([r["cmd_s"] - r["report"]["wall_seconds"] for r in runs]), "s"),
        "cells_per_s": (stats.median([cells / r["report"]["wall_seconds"] for r in runs]), "1/s"),
        "req_per_s": (stats.median([1.0 / s for s in cmd]), "1/s"),
        "latency_p50_ms": (1e3 * stats.median(cmd), "ms"),
        "latency_p99_ms": (1e3 * p99, "ms"),
        "peak_rss_mb": (stats.median([r["rss_kb"] / 1024.0 for r in runs]), "MB"),
        "mean_energy": (sum(energies) / len(energies), "energy"),
    }, {"samples": len(runs), "cells_per_run": cells, "latency_tail_percentile": p99_pct}


def micro_metrics(run_dir):
    pattern = "^(" + "|".join(MICRO_CASES.values()) + ")$"
    out = run_dir / "micro.json"
    run_quiet([str(MICRO), f"--benchmark_filter={pattern}", "--benchmark_min_time=0.1",
               "--benchmark_repetitions=3", "--benchmark_report_aggregates_only=true",
               f"--benchmark_out={out}", "--benchmark_out_format=json"],
              run_dir / "micro.log", 170)
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    medians = {b["run_name"]: b["real_time"] * scale[b["time_unit"]]
               for b in json.loads(out.read_text())["benchmarks"]
               if b.get("aggregate_name") == "median"}
    check(set(MICRO_CASES.values()) <= set(medians), "bench_micro did not run every case")
    return {name: medians[case] for name, case in MICRO_CASES.items()}


# Layers a workload does not exercise report 0: the batch workloads have no
# request path and the daemon runs no scenario engine.
REQUEST_PATH_METRICS = (
    ["json.parse_mb_per_s", "session.parse_ms", "session.execute_hit_ms",
     "session.execute_miss_ms", "session.encode_ms", "session.solve_hits",
     "session.solve_executed", "session.model_hits", "session.eval_hits", "session.rejected",
     "daemon.bytes_per_req"]
    + [f"daemon.latency.{k}_{p}_ms" for k in KINDS for p in ("p50", "p99")])
ENGINE_METRICS = ([f"engine.{s}.{c}" for s in STAGES for c in ("executed", "hits")]
                  + ["engine.reuse_ratio", "engine.busy_s", "engine.critical_path_s",
                     "engine.idle_frac"])


def batch_workload(workload, seed, seconds, trace, run_dir):
    grid_path = run_dir / "grid.json"
    grid_path.write_text(json.dumps(batch_grid(workload, seed)))
    ref_path = run_dir / "reference.json"
    # The oracle: 1 thread, artifact reuse off, outside any timing.
    run_quiet([str(DRIVER), "reference", "--grid", str(grid_path), "--out", str(ref_path)],
              run_dir / "driver.log", 170)
    reference = json.loads(ref_path.read_text())

    if not trace:
        runs = timed_batches(grid_path, reference, run_dir, seconds, MIN_BATCHES)
        metrics, info = batch_end_to_end(runs)
        attempted = sum(r["report"]["cells"] for r in runs)
        return metrics, info, attempted

    runs = timed_batches(grid_path, reference, run_dir, 0.0, 2)
    out = run_dir / "replay.json"
    run_quiet([str(DRIVER), "replay", "--grid", str(grid_path), "--run-id", str(seed),
               "--trace", str(run_dir / "trace.json"), "--out", str(out)],
              run_dir / "driver.log", 170)
    replay = json.loads(out.read_text())
    # The replay must reproduce the report's deterministic fields exactly.
    for cell, ref in zip(replay["cells"], reference["results"], strict=True):
        check(cell["energy"] == ref["energy"] and cell["lower_bound"] == ref["lower_bound"],
              f"replay energy/lower_bound differ for {ref['name']}")
        if "mttc_mean" in cell:
            check(cell["mttc_mean"] == ref["attack"]["mttc_mean"],
                  f"replay mttc_mean differs for {ref['name']}")
        if "d_bn_mean" in cell:
            check(cell["d_bn_mean"] == ref["metrics"]["d_bn_mean"],
                  f"replay d_bn_mean differs for {ref['name']}")
    stage_stats = runs[0]["report"]["stage_stats"]
    for stage in STAGES:
        check(replay["executed"][stage] == stage_stats[stage]["executed"],
              f"replay plans {replay['executed'][stage]} {stage} tasks, the engine ran "
              f"{stage_stats[stage]['executed']}")
    wall = stats.median([r["report"]["wall_seconds"] for r in runs])
    threads = runs[0]["report"]["threads"]
    layers = dict(replay["layers"])
    for stage in STAGES:
        layers[f"engine.{stage}.executed"] = stage_stats[stage]["executed"]
        layers[f"engine.{stage}.hits"] = stage_stats[stage]["hits"]
    planned = sum(stage_stats[s]["planned"] for s in STAGES)
    layers["engine.reuse_ratio"] = sum(stage_stats[s]["hits"] for s in STAGES) / planned
    layers["engine.busy_s"] = replay["busy_s"]
    layers["engine.critical_path_s"] = replay["critical_path_s"]
    layers["engine.idle_frac"] = 1.0 - replay["busy_s"] / (threads * wall)
    layers.update(dict.fromkeys(REQUEST_PATH_METRICS, 0.0))
    layers.update(micro_metrics(run_dir))
    layers["trace.overhead_frac"] = replay["overhead_frac"]
    info = {"samples": len(runs), "spans": replay["spans"], "batch_wall_s": wall,
            "replay_traced_s": replay["traced_wall_s"],
            "replay_untraced_s": replay["untraced_wall_s"]}
    return layers, info, sum(r["report"]["cells"] for r in runs)


# ---------------------------------------------------------------------------
# Daemon workload


def daemon_workload(seed, seconds, trace, run_dir):
    out = run_dir / "daemon.json"
    socket = run_dir / "icsdivd.sock"
    socket.unlink(missing_ok=True)
    log = run_dir / "icsdivd.log"
    argv = [str(DRIVER), "daemon", "--icsdivd", str(DAEMON),
            "--socket", os.path.relpath(socket, REPO), "--log", str(log), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0", "--trace-out", str(run_dir / "trace.json"),
            "--out", str(out)]
    run_quiet(argv, run_dir / "driver.log", 170)
    data = json.loads(out.read_text())
    check(data["failed"] == 0, f"{data['failed']} daemon requests failed or were refused")
    check(data["mismatches"] == 0,
          f"{data['mismatches']} of {data['compared']} daemon replies differ from api::execute")
    check(data["compared"] > 0, "no daemon reply was checked")
    latencies = data["latency_ms"]
    every = [ms for kind in KINDS for ms in latencies[kind]]
    duration = data["duration_s"]
    info = {"samples": len(every), "setups": len(data["setup_s"]), "clients": data["clients"],
            "client_cpu_s": data["client_cpu_s"], "duration_s": data["duration_s"],
            "frames_mb": data["frames_mb"], "sequence_exhausted": data["sequence_exhausted"],
            "cached_share": data["cached_share"]}

    if not trace:
        p99, info["latency_tail_percentile"] = stats.tail_percentile(every)
        metrics = {
            "setup_s": (stats.median(data["setup_s"]), "s"),
            "cells_per_s": ((len(every) - len(latencies["status"])) / duration, "1/s"),
            "req_per_s": (len(every) / duration, "1/s"),
            "latency_p50_ms": (stats.median(every), "ms"),
            "latency_p99_ms": (p99, "ms"),
            "peak_rss_mb": (data["peak_rss_kb"] / 1024.0, "MB"),
            "mean_energy": (data["mean_energy"], "energy"),
        }
        return metrics, info, data["requests"]

    layers = dict(data["layers"])
    path = data["request_path"]
    layers["json.parse_mb_per_s"] = path["json.parse_mb_per_s"]
    for name in ("session.parse_ms", "session.execute_hit_ms", "session.execute_miss_ms",
                 "session.encode_ms"):
        layers[name] = stats.median(path[name])
    layers.update(data["status"])
    layers["daemon.bytes_per_req"] = data["bytes"] / data["requests"]
    for kind in KINDS:
        layers[f"daemon.latency.{kind}_p50_ms"] = stats.median(latencies[kind])
        layers[f"daemon.latency.{kind}_p99_ms"], info[f"{kind}_tail_percentile"] = \
            stats.tail_percentile(latencies[kind])
    layers.update(dict.fromkeys(ENGINE_METRICS, 0.0))
    layers.update(micro_metrics(run_dir))
    layers["trace.overhead_frac"] = data["overhead_frac"]
    return layers, info, data["requests"]


# ---------------------------------------------------------------------------


def selftest():
    result = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                             str(BENCH / "tests"), "-v"], check=False)
    build()
    native = subprocess.run([str(SELFTEST)], check=False)
    return 0 if result.returncode == 0 and native.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # A terminated run unwinds through run_quiet, which kills its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    try:
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        build()
        run_dir = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        run_dir.mkdir(parents=True, exist_ok=True)
        env = environment(run_dir)
        if args.workload == "daemon_mixed":
            metrics, info, attempted = daemon_workload(args.seed, args.seconds, args.trace, run_dir)
        else:
            metrics, info, attempted = batch_workload(args.workload, args.seed, args.seconds,
                                                      args.trace, run_dir)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        if isinstance(value, tuple):
            value, unit = value
            assert unit == entry["unit"], (entry["name"], unit)
        out[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "info": info, "metrics": out}
    (run_dir / "result.json").write_text(json.dumps(result, indent=2))

    print("env: " + json.dumps(env, sort_keys=True))
    print("info: " + json.dumps(info, sort_keys=True))
    for name, metric in out.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} (samples {info['samples']})")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
