"""JSON forms for groups, maps, towers, and analysis reports.

Tower files use the explicit schema

    { "prefix": [ {"group": G, "map_to_previous": M | null}, ... ],
      "tail": {"kind": "constant_endo", "group": G, "endo": M}
            | {"kind": "zero"} }

with groups as { "free_rank": n, "invariant_factors": [d1, ...] } and maps
as { "domain": G, "codomain": G, "matrix": [[...]] } (rows indexed by
codomain generators).  The convenience form

    { "kind": "S_of_A", "group": G, "multiplier": m }

denotes the constant tower on G with multiplication by m.  Round trips
are exact: parsing the printed form reproduces an equal tower.

Parsing is strict: every count, factor, entry and multiplier must be a
JSON integer (not a float and not a boolean), and every rejection is a
ValueError that names the offending field by its JSON path, including a
missing key, a group or map that `FgAbGroup` or `GroupMap` rejects, and an
integer literal of more than `ordinals.MAX_DIGITS` digits (read with
`parse_int` as the hook).
"""

from __future__ import annotations

import json

from .groups import FgAbGroup, GroupMap, multiplication_map
from .ordinals import MAX_DIGITS, excerpt
from .towers import ConstantEndo, Filtration, Tower, ZeroTail

SCHEMA_VERSION = "limtower-report/1"


def group_to_json(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "invariant_factors": list(g.invariant_factors)}


class LongLiteral(str):
    """The text of a JSON integer literal of more than MAX_DIGITS digits."""


def parse_int(text: str) -> int | LongLiteral:
    """`json.load`'s parse_int hook: a literal over MAX_DIGITS digits is kept for a validator to reject."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        return LongLiteral(text)
    return int(text)


def _bad(path: str, want: str, value) -> ValueError:
    if isinstance(value, LongLiteral):
        digits = len(value.lstrip("-"))
        return ValueError(f"field '{path}' holds an integer of {digits} digits, over the limit of {MAX_DIGITS} digits")
    # a rejected value can be megabytes long
    return ValueError(f"field '{path}' must be {want}, got {excerpt(json.dumps(value))}")


def _int(value, path: str) -> int:
    if type(value) is not int:  # exact: bool is a subclass of int
        raise _bad(path, "an integer", value)
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise _bad(path, "a list", value)
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _bad(path, "an object", value)
    return value


def _field(obj: dict, path: str, key: str):
    """obj[key] of the object at `path` ("" for the top level)."""
    if key not in obj:
        raise ValueError(f"field '{path + '.' if path else ''}{key}' is missing")
    return obj[key]


def _checked(path: str, build, *args):
    """build(*args), with any ValueError it raises prefixed by `path`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"field '{path}': {exc}") from None


def _all_ints(values) -> bool:
    """Whether values is a list of integers: the test `_raise_non_int` makes, with no path to name."""
    if type(values) is not list:
        return False
    for v in values:
        if type(v) is not int:
            return False
    return True


def _raise_non_int(values, path: str) -> None:
    """Raise for the first entry that is not an integer; callers know `_all_ints(values)` failed."""
    for k, v in enumerate(_list(values, path)):
        if type(v) is not int:
            raise _bad(f"{path}[{k}]", "an integer", v)


def _int_rows(value, path: str) -> list[list[int]]:
    rows = _list(value, path)
    for i, row in enumerate(rows):
        if not _all_ints(row):  # a row's path is built only to name what it rejects
            _raise_non_int(row, f"{path}[{i}]")
    return rows


def group_from_json(obj: dict, path: str = "group", built: dict | None = None) -> FgAbGroup:
    """The group at `path`; `built` maps (rank, factors) to groups already made.

    Passing one `built` dict across a parse makes equal groups one object.
    The lookup comes after the type checks, since True == 1 and 1.0 == 1.
    """
    built = {} if built is None else built
    obj = _object(obj, path)
    rank = _field(obj, path, "free_rank")
    factors = obj.get("invariant_factors", [])
    if not (type(rank) is int and rank >= 0 and _all_ints(factors)):
        if _int(rank, f"{path}.free_rank") < 0:
            raise _bad(f"{path}.free_rank", "a nonnegative integer", rank)
        _raise_non_int(factors, f"{path}.invariant_factors")
    key = (rank, tuple(factors))
    group = built.get(key)
    if group is None:
        group = built[key] = _checked(f"{path}.invariant_factors", FgAbGroup, *key)
    return group


def map_to_json(h: GroupMap) -> dict:
    return {
        "domain": group_to_json(h.domain),
        "codomain": group_to_json(h.codomain),
        "matrix": [list(row) for row in h.matrix],
    }


def map_from_json(obj: dict, path: str = "map", built: dict | None = None) -> GroupMap:
    obj = _object(obj, path)
    dom = group_from_json(_field(obj, path, "domain"), f"{path}.domain", built)
    cod = group_from_json(_field(obj, path, "codomain"), f"{path}.codomain", built)
    rows = _int_rows(_field(obj, path, "matrix"), f"{path}.matrix")
    return _checked(f"{path}.matrix", GroupMap, dom, cod, rows)


def tower_to_json(t: Tower) -> dict:
    prefix = []
    for i, g in enumerate(t.prefix_groups):
        entry: dict = {"group": group_to_json(g)}
        entry["map_to_previous"] = map_to_json(t.prefix_maps[i - 1]) if i > 0 else None
        prefix.append(entry)
    if isinstance(t.tail, ConstantEndo):
        tail = {
            "kind": "constant_endo",
            "group": group_to_json(t.tail.group),
            "endo": map_to_json(t.tail.endo),
        }
    else:
        tail = {"kind": "zero"}
    return {"prefix": prefix, "tail": tail}


def tower_from_json(obj: dict) -> Tower:
    if not isinstance(obj, dict):
        raise ValueError("tower object must be a JSON object")
    if obj.get("kind") == "S_of_A":
        group = group_from_json(_field(obj, "", "group"))
        m = _int(_field(obj, "", "multiplier"), "multiplier")
        return Tower((), (), ConstantEndo(group, multiplication_map(group, m)))
    built: dict = {}  # one group object per distinct group in this tower
    prefix = _list(obj.get("prefix", []), "prefix")
    groups = []
    maps = []
    for i, entry in enumerate(prefix):
        path = f"prefix[{i}]"
        entry = _object(entry, path)
        groups.append(group_from_json(_field(entry, path, "group"), f"{path}.group", built))
        mtp = entry.get("map_to_previous")
        if i == 0:
            if mtp is not None:
                raise _bad(f"{path}.map_to_previous", "null on the first entry", mtp)
        else:
            if mtp is None:
                raise _bad(f"{path}.map_to_previous", "a map", mtp)
            maps.append(map_from_json(mtp, f"{path}.map_to_previous", built))
    tail_obj = _object(obj.get("tail", {"kind": "zero"}), "tail")
    kind = tail_obj.get("kind")
    if kind == "zero":
        tail: ConstantEndo | ZeroTail = ZeroTail()
    elif kind == "constant_endo":
        tail = _checked(
            "tail.endo",
            ConstantEndo,
            group_from_json(_field(tail_obj, "tail", "group"), "tail.group", built),
            map_from_json(_field(tail_obj, "tail", "endo"), "tail.endo", built),
        )
    else:
        raise _bad("tail.kind", '"zero" or "constant_endo"', kind)
    return _checked("prefix", Tower, tuple(groups), tuple(maps), tail)


def matrix_from_json(obj: dict) -> list[list[int]]:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError("matrix object needs a 'matrix' field")
    mat = _int_rows(obj["matrix"], "matrix")
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("matrix rows must have equal length")
    if mat and not mat[0]:
        raise ValueError("field 'matrix' has rows but no columns")
    return mat


def analysis_report_to_json(f: Filtration) -> dict:
    ml: dict = {"kind": f.ml_status.kind}
    if f.ml_status.kind == "stabilized":
        ml["stage"] = f.ml_status.stage
    elif f.ml_status.kind == "never":
        ml["witness"] = f.ml_status.witness
    else:
        ml["horizon"] = f.ml_status.horizon
    lim1_status = f.lim1_status
    lim1: dict = {"kind": lim1_status.kind}
    if lim1_status.reason is not None:
        lim1["reason"] = lim1_status.reason
    if lim1_status.kind == "unknown":
        lim1["horizon"] = f.horizon
    omega_complete, omega_witness = f.omega_completion()
    return {
        "ml_status": ml,
        "length": {"kind": f.length.kind, "value": str(f.length.value)},
        "lim": group_to_json(f.lim) if f.lim is not None else None,
        "lim_pretty": str(f.lim) if f.lim is not None else "unknown",
        "lim1_status": lim1,
        "local": f.is_local(),
        "omega_complete": omega_complete,
        "omega_witness": omega_witness,
        "horizon": f.horizon,
    }
