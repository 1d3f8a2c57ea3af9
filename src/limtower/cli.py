"""Command line front end.

Subcommands: analyze, walker (normalize | height | ulm-probe), snf, suite.
Each `_cmd_*` returns (fields, lines, exit code): its report fields, the
lines it prints, and 0, or 1 when a requested check fails; it never
catches an exception.  `main` alone times the command, wraps its fields
in the report envelope (schema, command, timing_ms), emits the lines and
the report, and picks the exit code of an exception: 2 on usage or input
errors, 3 on an internal error (a broken library invariant or any other
unexpected exception); a reader that closes stdout early is not an error.
JSON reports are schema versioned and byte deterministic; timing is
emitted as null unless --timing is given.

`main` owns the interpreter's int <-> str digit limit: readers bound input
digit runs by `ordinals.MAX_DIGITS`, so `main` lifts the limit while a
command runs, every integer is written in full, and the limit is restored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .groups import smith_certificate_error, smith_normal_form
from .ordinals import excerpt, parse_digits, parse_ordinal
from .serialize import (
    SCHEMA_VERSION,
    analysis_report_to_json,
    matrix_from_json,
    parse_int,
    tower_from_json,
)
from .suites import SUITES, run_suite
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
        try:
            return json.load(fh, parse_int=parse_int)
        except RecursionError:
            # the decoder recurses once per open [ or {
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _cmd_analyze(args) -> tuple[dict, list[str], int]:
    tower = tower_from_json(_load_json_file(args.tower))
    body = analysis_report_to_json(analyze(tower, horizon=args.horizon))
    lim_text = body["lim_pretty"] if body["lim"] is not None else "undetermined"
    lines = [
        f"ml_status: {body['ml_status']['kind']}",
        f"length: {body['length']['value']} ({body['length']['kind']})",
        f"lim: {lim_text}",
        f"lim1: {body['lim1_status']['kind']}",
        f"local: {body['local']}",
        f"omega_complete: {body['omega_complete']}",
    ]
    return {"input": args.tower, "result": body}, lines, 0


def _ascii_int(text: str) -> int:
    """argparse type: ASCII digits only, where int() would also take `1_0` or other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {excerpt(text)!r}")
    try:
        return parse_digits(text)
    except ValueError as exc:  # argparse would quote the whole text
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_walker(args) -> tuple[dict, list[str], int]:
    ctx = wk.WalkerContext(args.p, parse_ordinal(args.alpha))
    if args.walker_command == "ulm-probe":
        probe = wk.ulm_probe(ctx, [parse_ordinal(b) for b in args.betas])
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
        return {"result": result}, lines, 0 if probe.ok else 1
    x = wk.parse_element(ctx, args.element)
    nx = wk.normalize(x)
    result = {"input": wk.format_element(x), "is_zero": nx.is_zero(), "p": ctx.p, "alpha": str(ctx.alpha)}
    if args.walker_command == "normalize":
        result["normalized"] = wk.format_element(nx)
        lines = [f"normal form: {result['normalized']}"]
    else:
        h = wk.height(nx)
        result["height"] = str(h)
        result["height_is_alpha_sentinel"] = nx.is_zero()
        lines = [
            f"height: {h}" + (" (zero element, sentinel value alpha)" if nx.is_zero() else "")
        ]
    return {"result": result}, lines, 0


def _cmd_snf(args) -> tuple[dict, list[str], int]:
    mat = matrix_from_json(_load_json_file(args.matrix))
    u, d, v = smith_normal_form(mat)
    certified = smith_certificate_error(mat, u, d, v) is None
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    result = {
        "U": [list(r) for r in u],
        "D": [list(r) for r in d],
        "V": [list(r) for r in v],
        "diagonal": diag,
        "certified": certified,
    }
    lines = [f"diagonal: {diag}", f"certified: {certified}"]
    return {"input": args.matrix, "result": result}, lines, 0 if certified else 1


def _cmd_suite(args) -> tuple[dict, list[str], int]:
    if args.name not in SUITES:
        raise ValueError(f"unknown suite {excerpt(args.name)!r}")
    results = run_suite(args.name, seed=args.seed)
    passed = sum(r.passed for r in results)
    lines = [
        ("[PASS] " if r.passed else "[FAIL] ") + f"{r.name} - {r.detail}"
        for r in results
    ]
    lines.append(f"{passed}/{len(results)} checks passed")
    fields = {
        "input": {"name": args.name, "seed": args.seed},
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": passed,
        "total": len(results),
    }
    return fields, lines, 0 if passed == len(results) else 1


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
    p_an.add_argument("--horizon", type=_ascii_int, default=DEFAULT_HORIZON)
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
        q.add_argument("--p", type=_ascii_int, required=True)
        q.add_argument("--alpha", required=True, help='ordinal bound, e.g. "w*2+3"')
        _add_json_flag(q)
        q.set_defaults(func=_cmd_walker)
    q = wsub.add_parser("ulm-probe", help="certify sampled stages of the height filtration")
    q.add_argument("betas", nargs="+", help="stage ordinals to sample")
    q.add_argument("--p", type=_ascii_int, required=True)
    q.add_argument("--alpha", required=True)
    _add_json_flag(q)
    q.set_defaults(func=_cmd_walker)

    p_s = sub.add_parser("snf", help="Smith normal form with a verified certificate")
    p_s.add_argument("matrix", help='path to JSON {"matrix": [[...], ...]}')
    _add_json_flag(p_s)
    p_s.set_defaults(func=_cmd_snf)

    p_su = sub.add_parser("suite", help="run a named verification suite")
    p_su.add_argument("name", help=f"one of {', '.join(SUITES)}")
    p_su.add_argument("--seed", type=_ascii_int, default=0)
    _add_json_flag(p_su)
    p_su.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        command = f"walker {args.walker_command}" if args.command == "walker" else args.command
        started = time.monotonic()
        fields, lines, code = args.func(args)
        timing_ms = round((time.monotonic() - started) * 1000.0, 3) if args.timing else None
        report = {"schema": SCHEMA_VERSION, "command": command, **fields, "timing_ms": timing_ms}
        try:
            _emit(report, args, lines)
            sys.stdout.flush()  # a closed reader shows here, not at exit
        except BrokenPipeError:  # as after `| head`: the rest goes to devnull, so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
