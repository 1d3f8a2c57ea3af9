"""Hypothesis properties of the text formats and the walker exit codes.

Every test is derandomized and keeps no example database, so a run is
reproducible and leaves nothing behind.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from limtower.cli import main
from limtower.ordinals import DegLexIndex, OrdinalCNF, ord_from_int, parse_ordinal
from limtower.walker import WalkerContext, format_element, normalize, parse_element

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
