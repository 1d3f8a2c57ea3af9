"""Hypothesis properties of the text formats, the trusted constructors and the CLI exit codes.

Every test is derandomized and keeps no example database, so a run is
reproducible and leaves nothing behind.
"""

import contextlib
import io
import json
import os
import pickle
import random
import tempfile
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limtower.cli import main
from limtower.groups import FgAbGroup, GroupMap, multiplication_map
from limtower.ordinals import (
    ZERO,
    DegLexIndex,
    OrdinalCNF,
    deglex_compare,
    ord_compare,
    ord_from_int,
    parse_ordinal,
)
from limtower.serialize import (
    _bad,
    _checked,
    _field,
    _int,
    _list,
    _object,
    group_from_json,
    tower_from_json,
    tower_to_json,
)
from limtower.suites import (
    random_decidable_tower,
    random_finite_tower,
    random_local_tower,
    random_surjective_tower,
)
from limtower.towers import ConstantEndo, Tower, ZeroTail
from limtower.walker import (
    WalkerContext,
    format_element,
    height,
    normalize,
    parse_element,
    relation_element,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _cnf(pairs) -> OrdinalCNF:
    by_exponent = {e.key: (e, c) for e, c in pairs}
    return OrdinalCNF(tuple(sorted(by_exponent.values(), key=lambda t: t[0].key, reverse=True)))


def _cnf_over(exponents):
    return st.lists(st.tuples(exponents, st.integers(1, 10**12)), max_size=4).map(_cnf)


FINITE = st.integers(0, 10**12).map(ord_from_int)
BELOW_W_W = _cnf_over(FINITE)
# every ordinal drawn is below w^(w^w)
ORDINALS = st.one_of(FINITE, BELOW_W_W, _cnf_over(BELOW_W_W))
ALPHA = parse_ordinal("w^(w^w)")

INDICES = st.lists(ORDINALS, min_size=1, max_size=4, unique_by=lambda o: o.key).map(
    lambda es: DegLexIndex(tuple(sorted(es, key=lambda o: o.key)))
)


@st.composite
def normal_forms(draw):
    ctx = WalkerContext(draw(st.sampled_from((2, 3, 5, 7))), ALPHA)
    terms = draw(st.lists(st.tuples(INDICES, st.integers(-(10**6), 10**6)), max_size=6))
    return normalize(ctx.element(terms))


@FIXED
@given(ORDINALS)
def test_ordinal_text_roundtrip(x):
    assert parse_ordinal(str(x)) == x


@FIXED
@given(normal_forms())
def test_element_text_roundtrip(x):
    assert normalize(parse_element(x.context, format_element(x))) == x


def _exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects its own input this way
            return exc.code


GRAMMAR_TEXT = st.text(alphabet="0123456789we[]*+-^(), _\t٣", max_size=30)
ANY_TEXT = st.one_of(GRAMMAR_TEXT, st.text(max_size=20))


@FIXED
@given(
    st.sampled_from(("normalize", "height", "ulm-probe")),
    ANY_TEXT,
    st.one_of(st.sampled_from(("2", "3", "4")), ANY_TEXT),
    st.one_of(st.sampled_from(("w", "w*2+3", "w^w")), ANY_TEXT),
)
def test_walker_exits_zero_or_two(command, text, p, alpha):
    assert _exit_code(["walker", command, text, "--p", p, "--alpha", alpha]) in (0, 2)


# --- the trusted constructors --------------------------------------------------

LONG_INDICES = INDICES.filter(lambda idx: len(idx) >= 2)


@FIXED
@given(LONG_INDICES)
def test_tail_matches_public_constructor(idx):
    tail, checked = idx.tail(), DegLexIndex(idx.entries[1:])
    assert tail == checked
    assert tail.key == checked.key
    assert hash(tail) == hash(checked) == hash(checked.key)


def _rebuilt(x: OrdinalCNF) -> OrdinalCNF:
    """x rebuilt through the validating constructor at every level of its exponents."""
    return OrdinalCNF(tuple((_rebuilt(e), c) for e, c in x.terms))


@FIXED
@given(ORDINALS)
def test_parsed_ordinal_matches_public_constructor(x):
    # the parser builds every expression and finite exponent through `_of_valid`
    parsed = parse_ordinal(str(x))
    for got, want in [(parsed, x), *zip((e for e, _ in parsed.terms), (e for e, _ in x.terms))]:
        checked = _rebuilt(got)
        assert got.key == want.key == checked.key
        assert hash(got) == hash(want) == hash(checked) == hash(want.key)
        assert got == want == checked
        assert str(got) == str(want) == str(checked)


@FIXED
@given(normal_forms())
def test_stored_hashes_survive_pickle(x):
    back = pickle.loads(pickle.dumps(x))
    assert back == x
    assert hash(back.context.alpha) == hash(x.context.alpha.key)
    for (idx, _), (idx_back, _) in zip(x.support, back.support):
        assert hash(idx_back) == hash(idx) == hash(idx.key)
        assert all(hash(e) == hash(e.key) for e in idx_back.entries)


@FIXED
@given(normal_forms())
def test_support_order_is_deglex(x):
    positions = [idx for idx, _ in x.support]
    assert positions == sorted(positions, key=cmp_to_key(deglex_compare), reverse=True)
    if positions:
        lowest = min((idx.first() for idx in positions), key=cmp_to_key(ord_compare))
        assert height(x) == lowest


ABOVE_ALPHA = parse_ordinal("w^(w^w) + 1")


@st.composite
def bad_indices(draw):
    """Entry lists that no admissible index has: an entry >= alpha, or a step that does not increase."""
    entries = list(draw(INDICES).entries)
    if draw(st.booleans()):
        return entries + [draw(st.sampled_from((ALPHA, ABOVE_ALPHA)))]
    k = draw(st.integers(0, len(entries) - 1))
    # a repeat, or 0 after entries[k]: 0 is below every other ordinal
    entries.insert(k + 1, draw(st.sampled_from((entries[k], ZERO))))
    return entries


@FIXED
@given(st.sampled_from((2, 3, 5)), bad_indices())
def test_bad_indices_are_rejected_at_every_entry_point(p, entries):
    ctx = WalkerContext(p, ALPHA)
    text = "e[" + ", ".join(map(str, entries)) + "]"
    for build in (
        lambda: parse_element(ctx, text),
        lambda: ctx.element([(entries, 1)]),
        lambda: ctx.basis(entries),
        lambda: relation_element(ctx, entries),
    ):
        with pytest.raises(ValueError):
            build()
    assert _exit_code(["walker", "normalize", text, "--p", str(p), "--alpha", str(ALPHA)]) == 2


# --- tower JSON through `limtower analyze` ---------------------------------------

TOWER_EXAMPLES = settings(FIXED, max_examples=300)


def _analyze(obj) -> tuple[int, str]:
    """Exit code and stderr of `limtower analyze` on obj written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tower.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", path, "--horizon", "16"])
    return code, err.getvalue()


def _seeded(maker):
    return st.integers(0, 2**32).map(lambda seed: maker(random.Random(seed)))


@st.composite
def free_towers(draw):
    """Z^r at every level, integer maps: witnessed tails, identities and everything between."""
    z = FgAbGroup(draw(st.integers(1, 3)))
    matrices = st.lists(st.lists(st.integers(-3, 3), min_size=z.ngens, max_size=z.ngens),
                        min_size=z.ngens, max_size=z.ngens)
    w = draw(st.integers(0, 3))
    maps = tuple(GroupMap(z, z, tuple(map(tuple, draw(matrices)))) for _ in range(max(w - 1, 0)))
    return Tower((z,) * w, maps, ConstantEndo(z, GroupMap(z, z, tuple(map(tuple, draw(matrices))))))


VALID_TOWERS = st.one_of(
    *map(_seeded, (random_finite_tower, random_surjective_tower, random_local_tower, random_decidable_tower)),
    free_towers(),
).map(tower_to_json)


def _nodes(obj, path=()):
    """(path, value) of every value below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield path + (k,), v
        yield from _nodes(v, path + (k,))


def _at(obj, path):
    for k in path:
        obj = obj[k]
    return obj


def _json_kind(value) -> str:
    return "int" if type(value) is int else type(value).__name__


# keys whose absence the parser rejects; map_to_previous is required past the first entry
REQUIRED = {"free_rank", "domain", "codomain", "matrix", "group", "kind", "endo", "map_to_previous"}


@st.composite
def broken_towers(draw):
    """A valid tower with one wrong type, one missing or misspelt required key, or one misshapen matrix."""
    obj = draw(VALID_TOWERS)
    nodes = list(_nodes(obj))
    matrices = [v for p, v in nodes if p[-1] == "matrix"]
    kind = draw(st.sampled_from(("type", "key", "shape") if matrices else ("type", "key")))
    if kind == "key":
        path = draw(st.sampled_from([p for p, v in nodes if p[-1] in REQUIRED and v is not None]))
        parent = _at(obj, path[:-1])
        value = parent.pop(path[-1])
        if draw(st.booleans()):
            parent[path[-1] + "s"] = value
    elif kind == "shape":
        rows = draw(st.sampled_from(matrices))
        width = len(rows[0]) if rows else 1
        changes = [lambda: rows.append([0] * width)]
        if rows:
            changes.append(rows.pop)
        if rows and rows[0]:
            changes += [rows[0].pop, lambda: rows[-1].append(0)]
        draw(st.sampled_from(changes))()
    else:
        path, value = draw(st.sampled_from(nodes))
        others = [v for v in (1.5, 2.0, True, "1", None, [], {}, 3) if _json_kind(v) != _json_kind(value)]
        _at(obj, path[:-1])[path[-1]] = draw(st.sampled_from(others))
    return obj


@TOWER_EXAMPLES
@given(VALID_TOWERS)
def test_valid_tower_json_exits_zero_or_one(obj):
    code, err = _analyze(obj)
    assert code in (0, 1), err


@TOWER_EXAMPLES
@given(broken_towers())
def test_broken_tower_json_names_its_field(obj):
    code, err = _analyze(obj)
    assert code == 2, err
    assert "field '" in err


# --- the same towers through the JSON boundary it replaced --------------------
#
# The earlier `_ints`, `_int_rows`, `group_from_json` and `map_from_json`,
# which built every path string and checked each entry in its own call,
# kept verbatim as the reference apart from a `ref_` prefix on the names
# they call; `ref_tower_from_json` is `tower_from_json` calling them.  The
# shared helpers (`_bad`, `_int`, `_list`, `_object`, `_field`, `_checked`)
# come from `serialize`.


def ref_ints(values, path: str) -> list[int]:
    for k, v in enumerate(_list(values, path)):
        if type(v) is not int:
            raise _bad(f"{path}[{k}]", "an integer", v)
    return values


def ref_int_rows(value, path: str) -> list[list[int]]:
    rows = _list(value, path)
    for i, row in enumerate(rows):
        ref_ints(row, f"{path}[{i}]")
    return rows


def ref_group_from_json(obj: dict, path: str = "group", built: dict | None = None) -> FgAbGroup:
    built = {} if built is None else built
    obj = _object(obj, path)
    rank = _int(_field(obj, path, "free_rank"), f"{path}.free_rank")
    if rank < 0:
        raise _bad(f"{path}.free_rank", "a nonnegative integer", rank)
    key = (rank, tuple(ref_ints(obj.get("invariant_factors", []), f"{path}.invariant_factors")))
    if key not in built:
        built[key] = _checked(f"{path}.invariant_factors", FgAbGroup, *key)
    return built[key]


def ref_map_from_json(obj: dict, path: str = "map", built: dict | None = None) -> GroupMap:
    obj = _object(obj, path)
    dom = ref_group_from_json(_field(obj, path, "domain"), f"{path}.domain", built)
    cod = ref_group_from_json(_field(obj, path, "codomain"), f"{path}.codomain", built)
    rows = ref_int_rows(_field(obj, path, "matrix"), f"{path}.matrix")
    return _checked(f"{path}.matrix", GroupMap, dom, cod, rows)


def ref_tower_from_json(obj: dict) -> Tower:
    if not isinstance(obj, dict):
        raise ValueError("tower object must be a JSON object")
    if obj.get("kind") == "S_of_A":
        group = ref_group_from_json(_field(obj, "", "group"))
        m = _int(_field(obj, "", "multiplier"), "multiplier")
        return Tower((), (), ConstantEndo(group, multiplication_map(group, m)))
    built: dict = {}  # one group object per distinct group in this tower
    prefix = _list(obj.get("prefix", []), "prefix")
    groups = []
    maps = []
    for i, entry in enumerate(prefix):
        path = f"prefix[{i}]"
        entry = _object(entry, path)
        groups.append(ref_group_from_json(_field(entry, path, "group"), f"{path}.group", built))
        mtp = entry.get("map_to_previous")
        if i == 0:
            if mtp is not None:
                raise _bad(f"{path}.map_to_previous", "null on the first entry", mtp)
        else:
            if mtp is None:
                raise _bad(f"{path}.map_to_previous", "a map", mtp)
            maps.append(ref_map_from_json(mtp, f"{path}.map_to_previous", built))
    tail_obj = _object(obj.get("tail", {"kind": "zero"}), "tail")
    kind = tail_obj.get("kind")
    if kind == "zero":
        tail: ConstantEndo | ZeroTail = ZeroTail()
    elif kind == "constant_endo":
        tail = _checked(
            "tail.endo",
            ConstantEndo,
            ref_group_from_json(_field(tail_obj, "tail", "group"), "tail.group", built),
            ref_map_from_json(_field(tail_obj, "tail", "endo"), "tail.endo", built),
        )
    else:
        raise _bad("tail.kind", '"zero" or "constant_endo"', kind)
    return _checked("prefix", Tower, tuple(groups), tuple(maps), tail)


def _parsed(parse, obj):
    """The tower `parse` makes of obj, or the type and text of what it raised."""
    try:
        return parse(obj)
    except Exception as exc:  # any difference in what is raised is a failure
        return type(exc), str(exc)


@TOWER_EXAMPLES
@given(st.one_of(VALID_TOWERS, broken_towers()))
def test_tower_json_matches_the_reference_parser(obj):
    got = _parsed(tower_from_json, obj)
    assert got == _parsed(ref_tower_from_json, obj)
    if isinstance(got, Tower):
        # one object per distinct group, as before
        levels = [*got.prefix_groups, *(m.domain for m in got.prefix_maps), *(m.codomain for m in got.prefix_maps)]
        assert len({id(g) for g in levels}) == len(set(levels))


@pytest.mark.parametrize("key", ["free_rank", "invariant_factors"])
@pytest.mark.parametrize("value", [None, True, 1.5, "2", [], {}, [2.0], [[1]], {"a": 2}, -1, 0, 3, [2, 4], [4, 6]], ids=repr)
def test_group_json_matches_the_reference_parser(value, key):
    obj = {"free_rank": 1, "invariant_factors": [2], key: value}
    assert _parsed(group_from_json, obj) == _parsed(ref_group_from_json, obj)
