"""Acceptance gate: every row of `suites.CRITERIA` at its acceptance scale, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the [PASS]/[FAIL]
lines; each row also is its own test, named after its place and its name
in the table, so plain -v gives the same per-criterion verdicts through
test outcomes.  Seeds are fixed; each criterion runs well under its 60
second budget.  Each row is also seen to fail on a wrong engine answer.
"""

import dataclasses

import pytest

from limtower import suites
from limtower.groups import fg_group
from limtower.suites import CRITERIA
from limtower.towers import multiplication_tower

SEED = 0


def _gate_test(number, row):
    def test():
        result = row.run("acceptance", SEED)
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] criterion {number}: {result.name} - {result.detail}")
        assert result.passed, f"criterion {number} failed: {result.detail}"

    return test


for _number, _row in enumerate(CRITERIA, 1):
    globals()[f"test_criterion_{_number:02d}_{_row.name.replace('-', '_')}"] = _gate_test(_number, _row)


NEVER = multiplication_tower(fg_group(0), 2)  # never stabilizes, so it is not local and keeps no stage

# per row: an engine name that the row calls, and a wrong answer for it made from the right one
WRONG = {
    "snf-certificates": (suites, "smith_normal_form", lambda snf: lambda mat: snf([[2 * x for x in r] for r in mat])),
    "finite-ml-soundness": (suites, "analyze", lambda analyze: lambda tw: analyze(NEVER)),
    "shift-invariance": (suites, "shift", lambda shift: lambda tw: shift(NEVER)),
    "image-quotient-vanishing": (suites, "quotient_tower", lambda quotient: lambda tw, subs: (tw, None)),
    "multiplication-closed-forms": (suites, "stabilize", lambda stabilize: lambda tw: stabilize(NEVER)),
    "decomposition-signature": (suites, "is_epimorphic_tower", lambda epi: lambda tw: not epi(tw)),
    "locality-closure": (suites, "stabilize", lambda stabilize: lambda tw: stabilize(NEVER)),
    "walker-normal-form": (suites.wk, "normalize", lambda normalize: lambda x: x),
    "ulm-length": (suites.wk, "ulm_probe", lambda probe: lambda *args: dataclasses.replace(probe(*args), ok=False)),
    "adjunction-and-window": (suites, "truncation_adjunction_check", lambda check: lambda *args: not check(*args)),
    "general-tails": (suites, "iterate_image", lambda iterate: lambda tw, n: iterate(tw, 0)),
}


@pytest.mark.parametrize("row", CRITERIA, ids=lambda row: row.name)
def test_criterion_fails_on_a_wrong_engine_answer(row, monkeypatch):
    module, name, wrong = WRONG[row.name]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    result = row.run("acceptance", SEED)
    assert result.passed is False and result.detail, result
