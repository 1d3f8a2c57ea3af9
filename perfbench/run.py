"""limtower benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics listed in BENCHMARK.json.
It makes a fixed set of inputs from the seed, then runs passes over them,
each in a fresh worker process, until S seconds have gone (and at least
MIN_PASSES passes have run).  Each input's time is its median over the
passes, and the latency and throughput metrics are taken over those
times.  Set-up time is the median of fresh interpreters importing the
workload's entry point, sampled between the passes.  With --trace 1 it reports the per-layer metrics
instead: the same first inputs run once untraced and once traced, each in
a fresh worker, and the gap between the two is the tracing overhead.
The last stdout line is the result object; the line before it holds the
run's details (input digest, sizes, dropped repeats, errors).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # the whole run, children included

# The module a user's process imports first: every `limtower analyze` pays
# for limtower.cli, library callers pay for the package.
ENTRY_MODULE = {
    "deep-tail": "limtower",
    "tower-corpus": "limtower.cli",
    "walker-normalize": "limtower",
}
# Inputs per run: enough that at least 10 lie beyond the p90 and that the
# mix is the same for every seed, few enough that a pass takes 3-9 s on a
# 2-core x86 host, so a run makes several passes.
COUNT = {"deep-tail": 108, "tower-corpus": 1000, "walker-normalize": 360}
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 3
IMPORTTIME_SAMPLES = 5
IMPORTTIME_MODULES = {
    "cli.import_ms": ("limtower", "limtower.cli"),
    "suites.import_ms": ("limtower.suites",),
    "towers.import_ms": ("limtower.towers",),
    "groups.import_ms": ("limtower.groups",),
}
# First inputs of the traced run: a fixed count, so every count repeats.
TRACE_COUNT = {"deep-tail": 60, "tower-corpus": 1500, "walker-normalize": 400}


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    left = deadline - monotonic()
    if left <= 0:
        raise RunError("out of time")
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def import_seconds(module: str, deadline: float) -> float:
    """Wall time of a fresh interpreter that imports `module`."""
    start = perf_counter()
    _child([sys.executable, "-c", f"import {module}"], deadline)
    return perf_counter() - start


def import_breakdown(deadline: float) -> dict:
    """Median cumulative import time per module, from -X importtime."""
    per_module: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _child([sys.executable, "-X", "importtime", "-c", "import limtower.cli"], deadline)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if cumulative.isdigit():
                per_module.setdefault(name, []).append(int(cumulative) / 1000)
    out = {}
    for metric, modules in IMPORTTIME_MODULES.items():
        if any(len(per_module.get(m, ())) != IMPORTTIME_SAMPLES for m in modules):
            raise RunError(f"-X importtime did not report {modules}")
        out[metric] = statistics.median(
            sum(per_module[m][i] for m in modules) for i in range(IMPORTTIME_SAMPLES)
        )
    return out


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Reported next to the metrics, not as one.  It shows only part of the
    host's slowdowns: load from elsewhere can slow the allocation-heavy
    workloads by a fifth while this loop's time stays the same.
    """
    samples = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        samples.append((perf_counter() - start) * 1000)
    return statistics.median(samples)


def worker(args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    proc = _child(cmd + list(extra), deadline)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_times(passes: list[list]) -> list[float]:
    """Each input's median time over the passes; an input that failed in any pass is left out.

    Load from elsewhere on a shared host changes how fast this code runs by
    up to a third, both within seconds and for a minute at a time.  The
    median of passes spread through the run is steadier from run to run
    than one long pass or the fastest pass of each input.
    """
    return [statistics.median(times) for times in zip(*passes) if None not in times]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    saved = ROOT / ".bench_build" / "perfbench" / f"inputs-{args.workload}-{args.seed}.pickle"
    try:
        made = worker(args, deadline, "--count", str(COUNT[args.workload]), "--save", str(saved))
        module = ENTRY_MODULE[args.workload]
        import_seconds(module, deadline)  # warm-up: the file cache, not the program
        setup: list[float] = []
        passes: list[dict] = []
        host = [host_loop_ms()]
        started = monotonic()
        while True:
            setup += [import_seconds(module, deadline) for _ in range(SETUP_SAMPLES_PER_PASS)]
            run = worker(args, deadline, "--load", str(saved))
            if run["digest"] != made["digest"]:
                raise RunError("a pass saw other inputs than were made")
            passes.append(run)
            elapsed = monotonic() - started
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and (
                elapsed + per_pass / 2 >= args.seconds  # the next pass would mostly run past the budget
                or deadline - monotonic() < 2 * per_pass + 10
            ):
                break
        host.append(host_loop_ms())
    finally:
        saved.unlink(missing_ok=True)
    times = median_times([p["durations"] for p in passes])
    if len(times) < 2:
        raise RunError(f"{len(times)} operations succeeded: {passes[0]['errors']}")
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    run = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]][:5],
        "inputs": len(passes[0]["durations"]),
        "passes": len(passes),
        "pass_busy_s": [p["busy_s"] for p in passes],
        "setup_samples_s": setup,
        "host_loop_ms": host,
        "duplicates_dropped": made["duplicates_dropped"],
        "digest": made["digest"],
        "sizes": made["sizes"],
    }
    return metrics, run


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    count = str(TRACE_COUNT[args.workload])
    plain = worker(args, deadline, "--count", count)
    spans = ROOT / ".bench_build" / "perfbench" / f"spans-{args.workload}-{args.seed}.json"
    traced = worker(args, deadline, "--count", count, "--traced", "--spans", str(spans))
    if plain["digest"] != traced["digest"]:
        raise RunError("the traced and untraced phases saw different inputs")
    metrics = traced.pop("layers")
    metrics.update(import_breakdown(deadline))
    metrics["trace.ops"] = traced["ops"]
    metrics["trace.overhead_pct"] = (traced["busy_s"] / plain["busy_s"] - 1) * 100
    metrics["input.duplicates_dropped"] = traced["duplicates_dropped"]
    metrics.update({f"input.{k}": v for k, v in traced["sizes"].items()})
    run = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
        "untraced": plain,
        "traced": traced,
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, run


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    ap = argparse.ArgumentParser(description="limtower benchmark: one workload, one seed, one run")
    ap.add_argument("--workload", required=True, choices=sorted(ENTRY_MODULE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "limtower" / "__init__.py").is_file():
        print(f"error: no limtower sources under {SRC}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        metrics, run = (per_layer if args.trace else end_to_end)(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Input sizes of the other kind of workload (tower ranks on the walker
    # workload, walker terms on the tower ones) read 0.
    missing = [m["name"] for m in wanted if m["name"] not in metrics and not m["name"].startswith("input.")]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    run.update(workload=args.workload, seed=args.seed, trace=args.trace)
    run["fail_ratio"] = run["failed"] / run["attempted"]
    print(json.dumps(run, sort_keys=True))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
