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
ValueError that names the offending field by its JSON path.
"""

from __future__ import annotations

import json

from .groups import FgAbGroup, GroupMap, multiplication_map
from .towers import (
    AnalysisReport,
    ConstantEndo,
    Tower,
    ZeroTail,
)

SCHEMA_VERSION = "limtower-report/1"


def group_to_json(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "invariant_factors": list(g.invariant_factors)}


def _bad(path: str, want: str, value) -> ValueError:
    return ValueError(f"field '{path}' must be {want}, got {json.dumps(value)}")


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


def _ints(values, path: str) -> list[int]:
    for k, v in enumerate(_list(values, path)):
        if type(v) is not int:
            raise _bad(f"{path}[{k}]", "an integer", v)
    return values


def _int_rows(value, path: str) -> list[list[int]]:
    rows = _list(value, path)
    for i, row in enumerate(rows):
        _ints(row, f"{path}[{i}]")
    return rows


def group_from_json(obj: dict, path: str = "group") -> FgAbGroup:
    if not isinstance(obj, dict) or "free_rank" not in obj:
        raise ValueError(f"group object '{path}' needs free_rank and invariant_factors")
    factors = _ints(obj.get("invariant_factors", []), f"{path}.invariant_factors")
    return FgAbGroup(_int(obj["free_rank"], f"{path}.free_rank"), tuple(factors))


def map_to_json(h: GroupMap) -> dict:
    return {
        "domain": group_to_json(h.domain),
        "codomain": group_to_json(h.codomain),
        "matrix": [list(row) for row in h.matrix],
    }


def map_from_json(obj: dict, path: str = "map") -> GroupMap:
    obj = _object(obj, path)
    dom = group_from_json(obj["domain"], f"{path}.domain")
    cod = group_from_json(obj["codomain"], f"{path}.codomain")
    return GroupMap(dom, cod, _int_rows(obj["matrix"], f"{path}.matrix"))


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
        group = group_from_json(obj["group"])
        m = _int(obj["multiplier"], "multiplier")
        return Tower((), (), ConstantEndo(group, multiplication_map(group, m)))
    prefix = _list(obj.get("prefix", []), "prefix")
    groups = []
    maps = []
    for i, entry in enumerate(prefix):
        path = f"prefix[{i}]"
        entry = _object(entry, path)
        groups.append(group_from_json(entry["group"], f"{path}.group"))
        mtp = entry.get("map_to_previous")
        if i == 0:
            if mtp is not None:
                raise ValueError("the first prefix entry has no previous level")
        else:
            if mtp is None:
                raise ValueError(f"prefix entry {i} is missing map_to_previous")
            maps.append(map_from_json(mtp, f"{path}.map_to_previous"))
    tail_obj = _object(obj.get("tail", {"kind": "zero"}), "tail")
    kind = tail_obj.get("kind")
    if kind == "zero":
        tail: ConstantEndo | ZeroTail = ZeroTail()
    elif kind == "constant_endo":
        tail = ConstantEndo(
            group_from_json(tail_obj["group"], "tail.group"),
            map_from_json(tail_obj["endo"], "tail.endo"),
        )
    else:
        raise ValueError(f"unknown tail kind {kind!r}")
    return Tower(tuple(groups), tuple(maps), tail)


def matrix_from_json(obj: dict) -> list[list[int]]:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError("matrix object needs a 'matrix' field")
    mat = _int_rows(obj["matrix"], "matrix")
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("matrix rows must have equal length")
    if mat and not mat[0]:
        raise ValueError("field 'matrix' has rows but no columns")
    return mat


def analysis_report_to_json(r: AnalysisReport) -> dict:
    ml: dict = {"kind": r.ml_status.kind}
    if r.ml_status.kind == "stabilized":
        ml["stage"] = r.ml_status.stage
    elif r.ml_status.kind == "never":
        ml["witness"] = r.ml_status.witness
    else:
        ml["horizon"] = r.ml_status.horizon
    lim1: dict = {"kind": r.lim1_status.kind}
    if r.lim1_status.reason is not None:
        lim1["reason"] = r.lim1_status.reason
    if r.lim1_status.kind == "unknown":
        lim1["horizon"] = r.horizon
    return {
        "ml_status": ml,
        "length": {"kind": r.length.kind, "value": str(r.length.value)},
        "lim": group_to_json(r.lim) if r.lim is not None else None,
        "lim_pretty": str(r.lim) if r.lim is not None else "unknown",
        "lim1_status": lim1,
        "local": r.local,
        "omega_complete": r.omega_complete,
        "omega_witness": r.omega_witness,
        "horizon": r.horizon,
    }
