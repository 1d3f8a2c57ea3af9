"""Command line front end.

Subcommands: analyze, walker (normalize | height | ulm-probe), snf, suite.
Exit codes: 0 on success, 1 when a requested check fails, 2 on usage or
input errors, 3 on an internal error (a broken library invariant or any
other unexpected exception).  JSON reports are schema versioned and byte
deterministic; timing is emitted as null unless --timing is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .groups import abs_det, mat_mul, smith_normal_form
from .ordinals import parse_ordinal
from .serialize import (
    SCHEMA_VERSION,
    analysis_report_to_json,
    matrix_from_json,
    tower_from_json,
)
from .suites import run_suite
from .towers import DEFAULT_HORIZON, analyze
from . import walker as wk


def _emit(report: dict, args, human_lines: list[str]) -> None:
    for line in human_lines:
        print(line)
    if args.json is None:
        return
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
    else:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")


def _load_json_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _timing(args, started: float):
    return round((time.monotonic() - started) * 1000.0, 3) if args.timing else None


def _cmd_analyze(args) -> int:
    started = time.monotonic()
    tower = tower_from_json(_load_json_file(args.tower))
    rep = analyze(tower, horizon=args.horizon)
    body = analysis_report_to_json(rep)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "input": args.tower,
        "result": body,
        "timing_ms": _timing(args, started),
    }
    lim_text = body["lim_pretty"] if rep.lim is not None else "undetermined"
    lines = [
        f"ml_status: {body['ml_status']['kind']}",
        f"length: {body['length']['value'] if body['length'] else 'unknown'}"
        + (f" ({body['length']['kind']})" if body["length"] else ""),
        f"lim: {lim_text}",
        f"lim1: {body['lim1_status']['kind']}",
        f"local: {rep.local}",
        f"omega_complete: {rep.omega_complete}",
    ]
    _emit(report, args, lines)
    return 0


def _walker_context(args) -> wk.WalkerContext:
    return wk.WalkerContext(args.p, parse_ordinal(args.alpha))


def _cmd_walker(args) -> int:
    started = time.monotonic()
    ctx = _walker_context(args)
    if args.walker_command == "normalize":
        x = wk.parse_element(ctx, args.element)
        nx = wk.normalize(x)
        result = {
            "input": wk.format_element(x),
            "normalized": wk.format_element(nx),
            "is_zero": nx.is_zero(),
            "p": ctx.p,
            "alpha": str(ctx.alpha),
        }
        lines = [f"normal form: {wk.format_element(nx)}"]
    elif args.walker_command == "height":
        x = wk.parse_element(ctx, args.element)
        h = wk.height(x)
        nx = wk.normalize(x)
        result = {
            "input": wk.format_element(x),
            "height": str(h),
            "is_zero": nx.is_zero(),
            "height_is_alpha_sentinel": nx.is_zero(),
            "p": ctx.p,
            "alpha": str(ctx.alpha),
        }
        lines = [
            f"height: {h}" + (" (zero element, sentinel value alpha)" if nx.is_zero() else "")
        ]
    else:
        sample = [parse_ordinal(b) for b in args.betas]
        probe = wk.ulm_probe(ctx, sample)
        result = {
            "p": probe.p,
            "alpha": str(probe.alpha),
            "entries": [
                {
                    "beta": str(e.beta),
                    "height": str(e.height),
                    "nonzero": e.nonzero,
                    "exact": e.exact,
                }
                for e in probe.entries
            ],
            "top_stage_trivial": probe.top_stage_trivial,
            "ok": probe.ok,
        }
        lines = [
            f"stage {e.beta}: height {e.height}"
            + (" exact" if e.exact else " MISMATCH")
            for e in probe.entries
        ]
        lines.append(f"top stage p^{probe.alpha} trivial: {probe.top_stage_trivial}")
        lines.append("probe ok" if probe.ok else "probe FAILED")
    report = {
        "schema": SCHEMA_VERSION,
        "command": f"walker {args.walker_command}",
        "result": result,
        "timing_ms": _timing(args, started),
    }
    _emit(report, args, lines)
    if args.walker_command == "ulm-probe" and not result["ok"]:
        return 1
    return 0


def _cmd_snf(args) -> int:
    started = time.monotonic()
    mat = matrix_from_json(_load_json_file(args.matrix))
    u, d, v = smith_normal_form(mat)
    n = len(v)
    certified = (
        mat_mul(mat_mul(u, mat, n), v, n) == [list(r) for r in d]
        and abs_det(u) == 1
        and abs_det(v) == 1
    )
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    report = {
        "schema": SCHEMA_VERSION,
        "command": "snf",
        "input": args.matrix,
        "result": {
            "U": [list(r) for r in u],
            "D": [list(r) for r in d],
            "V": [list(r) for r in v],
            "diagonal": diag,
            "certified": certified,
        },
        "timing_ms": _timing(args, started),
    }
    _emit(report, args, [f"diagonal: {diag}", f"certified: {certified}"])
    return 0 if certified else 1


def _cmd_suite(args) -> int:
    started = time.monotonic()
    try:
        results = run_suite(args.name, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    report = {
        "schema": SCHEMA_VERSION,
        "command": "suite",
        "input": {"name": args.name, "seed": args.seed},
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": sum(r.passed for r in results),
        "total": len(results),
        "timing_ms": _timing(args, started),
    }
    lines = [
        ("[PASS] " if r.passed else "[FAIL] ") + f"{r.name} - {r.detail}"
        for r in results
    ]
    lines.append(f"{report['passed']}/{report['total']} checks passed")
    _emit(report, args, lines)
    return 0 if report["passed"] == report["total"] else 1


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit a JSON report to PATH, or to stdout when no PATH is given",
    )
    p.add_argument("--timing", action="store_true", help="include wall time in the report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limtower",
        description="Limits and derived limits of towers of finitely generated abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full report for a tower JSON file")
    p_an.add_argument("tower", help="path to a tower description (JSON)")
    p_an.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    _add_json_flag(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_w = sub.add_parser("walker", help="rewriting in the bounded-height modules D'_alpha")
    wsub = p_w.add_subparsers(dest="walker_command", required=True)
    for name, helptext in (
        ("normalize", "rewrite an element to digit normal form"),
        ("height", "transfinite height of an element"),
    ):
        q = wsub.add_parser(name, help=helptext)
        q.add_argument("element", help='element text, e.g. "3*e[0, 1] + e[w]"')
        q.add_argument("--p", type=int, required=True)
        q.add_argument("--alpha", required=True, help='ordinal bound, e.g. "w*2+3"')
        _add_json_flag(q)
        q.set_defaults(func=_cmd_walker)
    q = wsub.add_parser("ulm-probe", help="certify sampled stages of the height filtration")
    q.add_argument("betas", nargs="+", help="stage ordinals to sample")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--alpha", required=True)
    _add_json_flag(q)
    q.set_defaults(func=_cmd_walker)

    p_s = sub.add_parser("snf", help="Smith normal form with a verified certificate")
    p_s.add_argument("matrix", help='path to JSON {"matrix": [[...], ...]}')
    _add_json_flag(p_s)
    p_s.set_defaults(func=_cmd_snf)

    p_su = sub.add_parser("suite", help="run a named verification suite")
    p_su.add_argument("name", help="paper-examples or property-suite")
    p_su.add_argument("--seed", type=int, default=0)
    _add_json_flag(p_su)
    p_su.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
