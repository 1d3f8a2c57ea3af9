"""One pass over a workload's inputs in one fresh process and one thread.

    python perfbench/worker.py --workload NAME --seed N (--count N | --load FILE) [--save FILE] [--traced]

--count makes the first N inputs of the seed's stream; --save writes them
to FILE and runs nothing, and --load runs the inputs a --save wrote, so
every pass of a run sees the same inputs in a process that has seen none of
them before.  The loop is closed: each operation starts when the previous
one has returned.  Only the operation is timed; checking its output happens
between operations.  The last stdout line is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pickle
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracing import TARGETS, Tracer

MAX_ERRORS_SHOWN = 5


def _run(wl, inputs, tracer, errors):
    """Run and check every input; returns (seconds per input, None if it failed; failures)."""
    durations = []
    failed = 0
    for index, inp in enumerate(inputs):
        out = None
        try:
            if tracer is None:
                start = perf_counter()
                out = wl.op(inp)
                elapsed = perf_counter() - start
            else:
                out, elapsed = tracer.run_op(wl.op, inp, index)
            problem = wl.check(inp, out)
        except Exception:
            problem = traceback.format_exc(limit=3)
        del out
        if problem is not None:
            failed += 1
            if len(errors) < MAX_ERRORS_SHOWN:
                errors.append(f"input {index}: {problem}")
        durations.append(None if problem is not None else elapsed)
    return durations, failed


def _layer_metrics(tracer: Tracer) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    out = {f"{layer}.self_s": tracer.layer_self_s(layer) for layer in TARGETS}
    out.update({f"{name}.calls": n for name, n in calls.items()})
    out.update({f"{name}.self_s": s for name, s in self_s.items()})
    out["groups.Subgroup.created"] = calls.get("groups.Subgroup.__init__", 0)
    out["groups.hermite_max_bits"] = tracer.hermite_max_bits
    out["walker.support_in"] = tracer.support_in
    out["walker.support_out"] = tracer.support_out
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--count", type=int)
    source.add_argument("--load", help="run the inputs a --save wrote to this file")
    ap.add_argument("--save", help="write the inputs to this file and run nothing")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", help="write the traced run's spans to this JSON file")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    if args.load:
        saved = pickle.loads(Path(args.load).read_bytes())
        inputs, dropped = saved["inputs"], saved["dropped"]
    else:
        stream = wl.inputs(args.workload, args.seed)
        inputs = list(itertools.islice(stream, args.count))
        dropped = stream.dropped
    log = workloads.InputLog()
    for inp in inputs:
        log.add(inp)
    made = {"duplicates_dropped": dropped, "digest": log.digest(), "sizes": log.summary()}
    if args.save:
        path = Path(args.save)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"inputs": inputs, "dropped": dropped}))
        print(json.dumps(made))
        return 0

    tracer = Tracer() if args.traced else None
    errors: list[str] = []
    if tracer is not None:
        tracer.install()
    try:
        durations, failed = _run(wl, inputs, tracer, errors)
    finally:
        unrestored = tracer.restore() if tracer is not None else []
    if unrestored:
        print(f"bindings not restored: {unrestored}", file=sys.stderr)
        return 1

    timed = [d for d in durations if d is not None]
    summary = dict(
        made,
        attempted=len(inputs),
        failed=failed,
        errors=errors,
        durations=durations,
        ops=len(timed),
        busy_s=sum(timed),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        summary["layers"] = _layer_metrics(tracer)
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            fields = ("id", "parent", "name", "op", "start", "end")
            path.write_text(json.dumps([dict(zip(fields, s)) for s in tracer.spans]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
